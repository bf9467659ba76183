"""The CSV table format shared by every output file.

A table is a header line followed by one line per row, each ended by
``\\r\\n``, with unquoted comma-separated fields and floats written as
``%.17g`` so that they read back exactly.  Rows are formatted a block at a
time, with the bytes of one ``%`` per row.  A table goes to a path, written
whole, or to a text file open for writing, where it may be written a block
of rows at a time: its header goes only into a file still empty.
"""

from __future__ import annotations

from itertools import chain, islice
from pathlib import Path
from typing import Iterable, TextIO

__all__: list[str] = []

# Rows formatted and written together; it bounds the text held at once.
BLOCK_ROWS = 512


def write_lines(out: str | Path | TextIO, header: str, chunks: Iterable[str]) -> Path:
    """Write ``header`` and then each chunk of whole ``\\r\\n``-ended lines
    to ``out``, and return the path written.  A path is created or emptied
    first; an open file gets the header only where nothing has been written
    to it yet, so a table written to it in several calls holds one."""
    if isinstance(out, (str, Path)):
        with Path(out).open("w", newline="") as fh:
            return write_lines(fh, header, chunks)
    if out.tell() == 0:
        out.write(header + "\r\n")
    for chunk in chunks:
        out.write(chunk)
    return Path(out.name)


def write_table(out: str | Path | TextIO, header: str, fmt: str, rows: Iterable[tuple]) -> Path:
    """Write ``header`` and then ``fmt % row`` for each row to ``out`` (see
    :func:`write_lines`), streaming the rows, and return the path.

    Each block of ``BLOCK_ROWS`` rows is formatted with one ``%`` on its
    fields in row order, so every row must hold exactly the fields ``fmt``
    takes.  Fields are not quoted, so no field may hold a comma, a quote or
    a line break; every table holds only numbers and enum values.
    """
    rows = iter(rows)
    blocks = iter(lambda: list(islice(rows, BLOCK_ROWS)), [])
    line = fmt + "\r\n"
    return write_lines(out, header, (line * len(b) % tuple(chain.from_iterable(b)) for b in blocks))
