"""The CSV table format shared by every output file.

A table is a header line followed by one line per row, each ended by
``\\r\\n``, with unquoted comma-separated fields and floats written as
``%.17g`` so that they read back exactly.  Rows are formatted a block at a
time, with the bytes of one ``%`` per row.
"""

from __future__ import annotations

from itertools import chain, islice
from pathlib import Path
from typing import Iterable

__all__: list[str] = []

# Rows formatted and written together; it bounds the text held at once.
BLOCK_ROWS = 512


def write_table(path: str | Path, header: str, fmt: str, rows: Iterable[tuple]) -> Path:
    """Write ``header`` and then ``fmt % row`` for each row, streaming the
    rows, and return the path.

    Each block of ``BLOCK_ROWS`` rows is formatted with one ``%`` on its
    fields in row order, so every row must hold exactly the fields ``fmt``
    takes.  Fields are not quoted, so no field may hold a comma, a quote or
    a line break; every table holds only numbers and enum values.
    """
    path = Path(path)
    rows = iter(rows)
    with path.open("w", newline="") as fh:
        fh.write(header + "\r\n")
        while block := list(islice(rows, BLOCK_ROWS)):
            fh.write((fmt + "\r\n") * len(block) % tuple(chain.from_iterable(block)))
    return path
