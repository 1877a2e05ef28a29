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

__all__ = ["fmt17", "write_csv", "trajectory_rows", "load_cloud_csv", "write_json",
           "unmet_expectation"]

# Rows write_csv formats at a time.
CSV_CHUNK = 4096
# A str cell holding one of these may need quoting, so it goes to csv.writer.
_CSV_QUOTED = ',"\r\n'


def fmt17(x) -> str:
    if x is None:
        return ""
    if isinstance(x, str):
        return x
    return f"{float(x):.17g}"


def write_csv(path: str, header: list[str], rows) -> str:
    """Write the header and rows to path as CSV with LF line ends, making
    its directory; returns path.

    A float (numpy's included) is written to 17 significant digits, so it
    reads back bit for bit, `inf`, `nan` and `-0` included; an int or bool
    is written verbatim (`str`), a str as itself, None as an empty cell,
    and any other value as a float to 17 digits.  Cells are quoted as
    csv.writer quotes them.  Rows are read CSV_CHUNK at a time; a chunk
    whose rows have one width of at least two cells, each column of plain
    ints, floats, or strs that need no quoting, is formatted with one `%`
    operation, which gives the same bytes."""
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    rows = iter(rows)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        while chunk := list(itertools.islice(rows, CSV_CHUNK)):
            row_format = _row_format(chunk)
            if row_format is None:
                for row in chunk:
                    writer.writerow([v if isinstance(v, (str, int)) else fmt17(v) for v in row])
            else:
                fh.write(row_format * len(chunk) % tuple(itertools.chain.from_iterable(chunk)))
    return path


def _row_format(chunk: list) -> str | None:
    """The `%` format of one row of the chunk, or None when some column has
    no single conversion that writes it as csv.writer would.  A one-cell
    row goes to csv.writer, which quotes an empty cell there."""
    if len(set(map(len, chunk))) != 1 or len(chunk[0]) < 2:
        return None
    formats = []
    for column in zip(*chunk):
        kinds = set(map(type, column))
        if kinds == {int}:
            formats.append("%d")
        elif all(issubclass(kind, float) for kind in kinds):
            formats.append("%.17g")
        elif kinds == {str}:
            text = "".join(column)
            if any(c in text for c in _CSV_QUOTED):
                return None
            formats.append("%s")
        else:
            return None
    return ",".join(formats) + "\n"


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
