"""write_csv against the per-row csv.writer reference it formats chunks in
place of: the same bytes for every cell kind, quoting, row width and row
count, a chunk boundary included."""
import csv
import io
import math

import numpy as np
from hypothesis import example, given, settings, strategies as st

from attractorlab.reports import CSV_CHUNK, write_csv

HEADER = ["a", "b", "c", "d", "e"]
# Uniform columns, each of which a chunk may format with one conversion:
# ints, floats (numpy's, inf, nan and -0.0 among them), and tags that need
# no quoting, the empty tag and leading spaces included.
COLUMNS = {
    "int": st.integers(-10**30, 10**30),
    "float": st.one_of(st.floats(), st.floats().map(np.float64)),
    "str": st.text(alphabet=" ab:=", max_size=6),
}
# Cells that leave a column without one conversion: bools, numpy ints, None,
# and tags csv.writer quotes or might.
SPECIAL = st.one_of(
    st.booleans(), st.none(), st.integers(-2**63, 2**63 - 1).map(np.int64),
    st.text(alphabet=' a,"\r\n', max_size=4),
    st.sampled_from([math.inf, -math.inf, math.nan, -0.0]).map(np.float64))
ROW_COUNTS = st.one_of(
    st.integers(0, 12),
    st.sampled_from([CSV_CHUNK - 1, CSV_CHUNK, CSV_CHUNK + 1, 2 * CSV_CHUNK + 1]),
    st.integers(0, 3 * CSV_CHUNK))


def reference_csv(header, rows) -> bytes:
    """The rows as csv.writer writes them one at a time, each cell that is
    not a str or int first formatted to 17 significant digits (None empty)."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([v if isinstance(v, (str, int)) else
                         "" if v is None else f"{float(v):.17g}" for v in row])
    return buf.getvalue().encode("utf-8")


@st.composite
def tables(draw):
    """Rows tiled from a few drawn rows of uniform columns, up to three
    chunks of them; then maybe one special cell and one ragged row, either
    of which may sit in a later chunk only."""
    kinds = draw(st.lists(st.sampled_from(sorted(COLUMNS)), min_size=1, max_size=5))
    pattern = draw(st.lists(st.tuples(*(COLUMNS[k] for k in kinds)), min_size=1, max_size=6))
    count = draw(ROW_COUNTS)
    rows = [list(pattern[i % len(pattern)]) for i in range(count)]
    if rows and draw(st.booleans()):
        row = draw(st.integers(0, count - 1))
        rows[row][draw(st.integers(0, len(kinds) - 1))] = draw(SPECIAL)
    if rows and draw(st.booleans()):
        row = draw(st.integers(0, count - 1))
        rows[row] = rows[row][:-1] if len(kinds) > 1 else rows[row] + [0]
    return HEADER[:len(kinds)], rows


@given(tables())
@example((HEADER[:2], [[k, "p"] for k in range(CSV_CHUNK)] + [[CSV_CHUNK, "q,r"]]))
@example((HEADER[:2], [["p", 0.5]] * CSV_CHUNK + [['"q"', 0.5]]))
@example((HEADER[:2], [["p", 0.5]] * CSV_CHUNK + [["r\ns", 0.5]]))
@example((HEADER[:2], [[0.5, 1]] * (CSV_CHUNK + 2) + [[None, 1]] + [[0.5, 1]]))
@example((HEADER[:1], [[""], ["a"]]))  # csv.writer quotes a lone empty cell
@example((HEADER[:3], [[" x", -0.0, 1]] * 3 + [["", math.nan, True]]))
@settings(max_examples=60, deadline=None)
def test_matches_csv_writer(tmp_path_factory, table):
    header, rows = table
    path = str(tmp_path_factory.mktemp("csv") / "sub" / "out.csv")
    assert write_csv(path, header, iter(rows)) == path
    with open(path, "rb") as fh:
        assert fh.read() == reference_csv(header, rows)
