"""Shared reader helper for the delimited-text formats used by this package.

Every file the toolkit writes may carry leading ``#`` comment lines (for
example the run-manifest hash); readers must skip them while still
reporting accurate line numbers for malformed rows.
"""

from __future__ import annotations

import csv
from typing import IO, Iterator

__all__ = ["data_rows"]


def data_rows(handle: IO[str]) -> Iterator[tuple[int, list[str]]]:
    """Yield ``(lineno, row)`` for each data row of a delimited file.

    Blank rows and rows whose first field starts with ``#`` are skipped;
    ``lineno`` is the physical line the row ends on, so error messages stay
    exact when a quoted field spans lines.
    """
    reader = csv.reader(handle)
    for row in reader:
        if row and not row[0].lstrip().startswith("#"):
            yield reader.line_num, row
