"""The CSV table format shared by every output file.

A table is a header line followed by one line per row, each ended by
``\\r\\n``, with unquoted comma-separated fields and floats written as
``%.17g`` so that they read back exactly.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterable

__all__: list[str] = []


def write_table(path: str | Path, header: str, fmt: str, rows: Iterable[tuple]) -> Path:
    """Write ``header`` and then ``fmt % row`` for each row, streaming the
    rows, and return the path.

    Fields are not quoted, so no field may hold a comma, a quote or a line
    break; every table holds only numbers and enum values.
    """
    path = Path(path)
    with path.open("w", newline="") as fh:
        fh.write(header + "\r\n")
        fh.writelines(fmt % row + "\r\n" for row in rows)
    return path
