"""Deterministic CSV / JSON emission: CSV is the source of truth (17
significant digits), human tables are rounded views."""

from __future__ import annotations

import csv
import itertools
import json
import math
import os

import numpy as np

from .geometry import NEG_INF, CoordTable, PointCloud
from .integrators import PeriodLog
from .outcome import ColumnTable

__all__ = ["write_csv", "trajectory_rows", "load_cloud_csv", "write_json",
           "unmet_expectation"]

# Rows write_csv formats at a time.
CSV_CHUNK = 4096
# A str cell holding one of these may need quoting, so it goes to csv.writer.
_CSV_QUOTED = ',"\r\n'


def write_csv(path: str, header: list[str], rows, formats: tuple) -> str:
    """Write the header and rows to path as CSV with LF line ends, making
    its directory; returns path.

    formats declares each column: "%d" for ints, "%.17g" for floats, so
    they read back bit for bit (`inf`, `nan` and `-0` included), "%s" for
    strs, or None for a free column, whose cells csv.writer writes as they
    are (None as an empty cell).  No cell's type is read.  Each chunk of
    the table becomes one flat list of its cells: a ColumnTable's chunks by
    interleaving its columns, any other rows CSV_CHUNK at a time.  The
    chunk is written with one `%` of the declared row format, unless the
    table has a free column or fewer than two, or a "%s" cell of the chunk
    holds a character csv.writer quotes; then csv.writer writes its cells,
    each converted by its column's format, which gives the bytes the `%`
    would where it applies."""
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    width = len(formats)
    text = [j for j, f in enumerate(formats) if f == "%s"]
    free = None in formats or width < 2
    row_format = "" if free else ",".join(formats) + "\n"
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for cells in _flat_chunks(rows, width):
            texts = ("".join(cells[j::width]) for j in text)
            if free or any(c in s for s in texts for c in _CSV_QUOTED):
                cells = [v if f is None else f % v
                         for f, v in zip(itertools.cycle(formats), cells)]
                writer.writerows(zip(*[iter(cells)] * width))
            else:
                fh.write(row_format * (len(cells) // width) % tuple(cells))
    return path


def _flat_chunks(rows, width: int):
    """Each chunk of the table's cells as one flat list in row order."""
    if isinstance(rows, ColumnTable):
        for columns in rows.chunks():
            cells = [None] * (width * len(columns[0]))
            for j, column in enumerate(columns):
                cells[j::width] = column
            yield cells
        return
    rows = iter(rows)
    while chunk := list(itertools.islice(rows, CSV_CHUNK)):
        if set(map(len, chunk)) != {width}:
            bad = next(row for row in chunk if len(row) != width)
            raise ValueError(f"row {bad!r} is not {width} cells wide")
        yield list(itertools.chain.from_iterable(chunk))


def write_json(path: str, payload: dict) -> str:
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2, default=_jsonable)
        fh.write("\n")
    return path


def _jsonable(obj):
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if hasattr(obj, "__dict__"):
        return {k: v for k, v in vars(obj).items() if not k.startswith("_")}
    return str(obj)


def trajectory_rows(log: PeriodLog):
    """Long-form rows (t, mode_index, sign, logmag) of the sampled states,
    mode k + 1 for state entry k."""
    for t, logscale, state in zip(log.times, log.lognorms, log.states):
        nonzero = np.flatnonzero(state).tolist()
        if not nonzero:
            yield (t, 0, 0, NEG_INF)
        for k in nonzero:
            v = float(state[k])
            yield (t, k + 1, 1 if v > 0 else -1, math.log(abs(v)) + logscale)


def load_cloud_csv(path: str) -> PointCloud:
    """Inverse of `geometry.cloud_rows`; parse errors carry line numbers.  A row is a
    coordinate (sign +-1, finite logmag) or the empty-point placeholder
    (sign 0, logmag -inf) that cloud_rows writes; no (point_id, mode_index)
    pair may repeat, and every row of a point carries the same tag.  Points
    are numbered by ascending point_id."""
    lines: dict[tuple[int, int], int] = {}
    tags: dict[int, str] = {}
    entries = []
    with open(path, "r", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise ValueError(f"{path}:1: empty cloud file")
        for lineno, row in enumerate(reader, start=2):
            try:
                pid = int(row[0])
                tag = row[1]
                idx = int(row[2])
                sign = int(row[3])
                logmag = float(row[4])
            except (ValueError, IndexError) as exc:
                raise ValueError(f"{path}:{lineno}: bad cloud row {row!r}") from exc
            coordinate = sign in (1, -1) and math.isfinite(logmag)
            if not (coordinate or (sign == 0 and logmag == NEG_INF)):
                raise ValueError(
                    f"{path}:{lineno}: want sign +-1 with a finite logmag, or sign 0 "
                    f"with logmag -inf; got sign {sign}, logmag {logmag}")
            first = lines.setdefault((pid, idx), lineno)
            if first != lineno:
                raise ValueError(f"{path}:{lineno}: point {pid} mode {idx} repeats line {first}")
            first_tag = tags.setdefault(pid, tag)
            if tag != first_tag:
                first = min(line for (p, _), line in lines.items() if p == pid)
                raise ValueError(f"{path}:{lineno}: point {pid} tag {tag!r} differs from "
                                 f"{first_tag!r} on line {first}")
            if sign != 0:
                entries.append((pid, idx, sign, logmag))
    ids = sorted(tags)
    rank = {pid: r for r, pid in enumerate(ids)}
    return PointCloud(CoordTable.from_entries(len(ids), [(rank[e[0]], *e[1:]) for e in entries]),
                      None, 0.0, [tags[i] for i in ids])


def unmet_expectation(expected: dict, verdicts: dict) -> str | None:
    """The first expected key whose verdict is not the expected one, a
    missing verdict included, or None when every expectation holds: the
    one rule of a run's exit code and of the report command's."""
    return next((key for key, want in expected.items() if verdicts.get(key) != want), None)
