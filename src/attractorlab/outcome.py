"""What a command's library entry point returns, for `cli` to print and write."""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["Outcome"]


@dataclass(frozen=True)
class Outcome:
    """A command's verdict, the constants its JSON report records, the
    tables it writes, each (file name, header, rows) with every cell in
    its final form, and the summary lines it prints.  A table's rows may
    be an iterator, read once by whoever writes the table."""

    verdict: str
    constants: dict
    tables: tuple
    summary: tuple
