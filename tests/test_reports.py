"""write_csv against the per-row csv.writer reference it formats chunks in
place of: the same bytes for every declared column kind, special cell,
quoting, row width and row count, a chunk boundary included, whether the
table comes as rows or as column chunks."""
import csv
import io
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from attractorlab.outcome import ColumnTable
from attractorlab.reports import CSV_CHUNK, write_csv

HEADER = ["a", "b", "c", "d", "e"]
# Each column kind: its declared format and the cells it holds.  Ints,
# floats (numpy's too) and tags that need no quoting, the empty tag and
# leading spaces included; a free column holds ints, None and any text.
KINDS = {
    "int": ("%d", st.integers(-10**30, 10**30)),
    "float": ("%.17g", st.one_of(st.floats(), st.floats().map(np.float64))),
    "str": ("%s", st.text(alphabet=" ab:=", max_size=6)),
    "free": (None, st.one_of(st.none(), st.integers(-10**6, 10**6),
                             st.text(alphabet=' a,"\r\n', max_size=4))),
}
# Cells of a column's own kind that a chunk may hold only once: the float
# specials, and tags csv.writer quotes or might.
SPECIAL = {
    "int": st.sampled_from([0, -1, 2**63]),
    "float": st.sampled_from([math.inf, -math.inf, math.nan, -0.0, 5e-324, -5e-324]).flatmap(
        lambda v: st.sampled_from([v, np.float64(v)])),
    "str": st.text(alphabet=' a,"\r\n', max_size=4),
    "free": st.sampled_from([None, "", 'q,"r"']),
}
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


def column_table(rows, width: int, size: int) -> ColumnTable:
    """The rows as a ColumnTable of `size`-row chunks."""
    def chunks():
        for a in range(0, len(rows), size):
            yield [[row[j] for row in rows[a:a + size]] for j in range(width)]
    return ColumnTable(chunks)


@st.composite
def tables(draw):
    """Rows tiled from a few drawn rows of declared columns, up to three
    chunks of them; then maybe one special cell of its column's kind, which
    may sit in a later chunk only."""
    kinds = draw(st.lists(st.sampled_from(sorted(KINDS)), min_size=1, max_size=5))
    pattern = draw(st.lists(st.tuples(*(KINDS[k][1] for k in kinds)), min_size=1, max_size=6))
    count = draw(ROW_COUNTS)
    rows = [list(pattern[i % len(pattern)]) for i in range(count)]
    if rows and draw(st.booleans()):
        row = draw(st.integers(0, count - 1))
        column = draw(st.integers(0, len(kinds) - 1))
        rows[row][column] = draw(SPECIAL[kinds[column]])
    return HEADER[:len(kinds)], tuple(KINDS[k][0] for k in kinds), rows


TWO = ("%s", "%.17g")


@given(tables(), st.sampled_from([1, 7, CSV_CHUNK - 1, CSV_CHUNK, CSV_CHUNK + 5]))
@example((HEADER[:2], ("%d", "%s"), [[k, "p"] for k in range(CSV_CHUNK)] + [[CSV_CHUNK, "q,r"]]),
         CSV_CHUNK)
@example((HEADER[:2], TWO, [["p", 0.5]] * CSV_CHUNK + [['"q"', 0.5]]), CSV_CHUNK)
@example((HEADER[:2], TWO, [["p", 0.5]] * CSV_CHUNK + [["r\ns", 0.5]]), CSV_CHUNK)
@example((HEADER[:2], TWO, [["p", 0.5]] * CSV_CHUNK + [["r", 5e-324]]), CSV_CHUNK)
@example((HEADER[:2], ("%.17g", "%d"), [[0.5, 1]] * (CSV_CHUNK + 2) + [[-0.0, 1]]), CSV_CHUNK)
@example((HEADER[:3], ("%.17g", None, "%d"), [[0.5, 1, 1]] * (CSV_CHUNK + 2) + [[0.5, None, 1]]),
         CSV_CHUNK)
@example((HEADER[:1], ("%s",), [[""], ["a"]]), 1)  # csv.writer quotes a lone empty cell
@example((HEADER[:1], (None,), [[None], [3]]), 1)
@example((HEADER[:3], ("%s", "%.17g", "%.17g"),
          [[" x", -0.0, 1.0]] * 3 + [["", math.nan, -math.inf], ["", math.inf, np.float64(0.1)]]),
         2)
@settings(max_examples=60, deadline=None)
def test_matches_csv_writer(tmp_path_factory, table, size):
    header, formats, rows = table
    want = reference_csv(header, rows)
    for name, made in (("rows.csv", iter(rows)),
                       ("columns.csv", column_table(rows, len(formats), size))):
        path = str(tmp_path_factory.mktemp("csv") / "sub" / name)
        assert write_csv(path, header, made, formats) == path
        with open(path, "rb") as fh:
            assert fh.read() == want, name


@pytest.mark.parametrize("at", [0, CSV_CHUNK + 1])
def test_ragged_row_refused(tmp_path, at):
    # the formats declare the width, so a row of another width is an error,
    # in a later chunk too, not a row written as it stands
    rows = [(1, 0.5)] * (CSV_CHUNK + 2)
    rows[at] = (1,)
    with pytest.raises(ValueError, match=r"^row \(1,\) is not 2 cells wide$"):
        write_csv(str(tmp_path / "out.csv"), HEADER[:2], iter(rows), ("%d", "%.17g"))
