"""What a command's library entry point returns, for `cli` to print and write."""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable

__all__ = ["Outcome", "ColumnTable"]


@dataclass(frozen=True)
class Outcome:
    """A command's verdict, the constants its JSON report records, the
    tables it writes, and the summary lines it prints.  Each table is
    (file name, header, rows, formats): rows hold every cell in its final
    form and may be an iterator or a ColumnTable, read once by whoever
    writes the table; formats give each column its `%` conversion, or None
    for a free column (`reports.write_csv`)."""

    verdict: str
    constants: dict
    tables: tuple
    summary: tuple


@dataclass(frozen=True)
class ColumnTable:
    """Table rows made a chunk at a time as columns: `chunks()` yields each
    chunk as one list per column, all of one length.  Iterating the table
    yields the same rows as tuples, read from the same chunks."""

    chunks: Callable

    def __iter__(self):
        return itertools.chain.from_iterable(zip(*columns) for columns in self.chunks())
