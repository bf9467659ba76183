"""The CSV table format shared by every output file.

A table is a header line followed by one line per row, each ended by
``\\r\\n``, with unquoted comma-separated fields and floats written as
``%.17g`` so that they read back exactly.  Rows are formatted a block at a
time, with the bytes of one ``%`` per row.  A table goes to a path, written
whole, or to a text file open for writing, where it may be written a block
of rows at a time: its header goes only into a file still empty.

:func:`frame_lines` builds the lines of a float history, ``k,i`` and then
the floats of entry ``i`` at frame ``k``, in NumPy instead: a byte grid
with one row per character position, whose padding one
``bytes.translate`` drops.  Its ``%.17g`` is Python's to the byte; the
values of ``1e-4 <= |v| < 1e17``, fixed notation, take their digits from
an exact product, and every other value Python's own text.
:func:`column_lines` builds the lines of ``%d`` and ``%.17g`` columns the
same way, for the certificate's trace and assignment tables.  Both build
a chunk of at most ``FRAME_ROWS`` rows at a time.  A grid has a fixed
cost that one ``%`` beats on tables of a hundred rows or so, and the
other tables keep :func:`write_table`.
"""

from __future__ import annotations

from itertools import chain, islice
from pathlib import Path
from typing import Iterable, Iterator, Sequence, TextIO

import numpy as np

__all__: list[str] = []

# Rows formatted and written together; it bounds the text held at once.
BLOCK_ROWS = 512

# Table rows a byte grid holds at once (in whole frames, one frame at
# least, for the frame writers); it bounds the text and the arrays held.
FRAME_ROWS = 4096


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


def frame_lines(k0: int, cells: np.ndarray) -> str:
    """The table lines of frames ``k0, k0 + 1, ...``: entry ``i`` of frame
    ``k`` reads ``k,i,`` and then the floats ``cells[k - k0, i]``, each
    ``%.17g``, comma-separated.  ``k`` may run up to ``2**64 - 1``.

    The lines are the columns of one uint8 grid, whose rows are character
    positions: the digits of ``k`` and of ``i``, then 24 rows per float
    (:func:`_g17_rows`).  A line shorter than the grid is NUL where it
    has no character, and the grid, transposed, becomes the text once
    ``bytes.translate`` has deleted every NUL.
    """
    frames, entries, width = cells.shape
    k_width = len(str(k0 + frames - 1))
    i_width = len(str(max(entries - 1, 0)))
    grid = np.zeros((k_width + i_width + 25 * width + 3, frames, entries), np.uint8)
    ks = np.uint64(k0) + np.arange(frames, dtype=np.uint64)
    for r in range(k_width):
        place = np.uint64(10 ** (k_width - 1 - r))
        # A leading zero is NUL; the last digit stays, so that 0 reads "0".
        shown = (ks >= place) | (r == k_width - 1)
        grid[r] = ((ks // place % np.uint64(10) + np.uint64(48)) * shown)[:, None]
    grid[k_width] = 44
    names = np.array([b"%d" % i for i in range(entries)], dtype=f"S{i_width}")
    r = k_width + 1
    grid[r : r + i_width] = names.view(np.uint8).reshape(entries, i_width).T[:, None]
    r += i_width
    for c in range(width):
        grid[r] = 44
        grid[r + 1 : r + 25] = _g17_rows(cells[:, :, c].ravel()).reshape(24, frames, entries)
        r += 25
    grid[r] = 13
    grid[r + 1] = 10
    return grid.reshape(len(grid), -1).T.tobytes().translate(None, b"\0").decode("ascii")


def column_lines(fmt: str, columns: Sequence[Sequence], end: str) -> Iterator[str]:
    """``fmt % row + end`` for each row of ``columns``, the text of up to
    ``FRAME_ROWS`` rows at a time, where ``fmt`` is ``%d`` and ``%.17g``
    fields joined by commas, one per column.

    Each chunk's lines are the columns of one uint8 grid, as in
    :func:`frame_lines`: the rows of each field's characters
    (:func:`_int_rows` for ``%d``, :func:`_g17_rows` for ``%.17g``), a
    comma between fields and ``end`` last.  A ``%d`` value beyond int64
    raises ``OverflowError``.
    """
    kinds = fmt.split(",")
    if not set(kinds) <= {"%d", "%.17g"} or len(kinds) != len(columns):
        raise ValueError(f"fmt {fmt!r} does not name one %d or %.17g field per column")
    tail = np.frombuffer(end.encode("ascii"), np.uint8)[:, None]
    total = len(columns[0])
    for lo in range(0, total, FRAME_ROWS):
        rows = min(FRAME_ROWS, total - lo)
        chunk = [column[lo : lo + rows] for column in columns]
        # One _g17_rows pass takes the floats of every %.17g field: its
        # fixed cost is most of its time on a few thousand values.
        floats = [np.asarray(c, dtype=float) for kind, c in zip(kinds, chunk) if kind == "%.17g"]
        g17 = _g17_rows(np.concatenate(floats or [np.empty(0)])).reshape(24, -1, rows)
        float_fields = iter(g17.swapaxes(0, 1))
        comma = np.full((1, rows), 44, np.uint8)
        parts = []
        for kind, column in zip(kinds, chunk):
            parts += [comma, _int_rows(_int64(column)) if kind == "%d" else next(float_fields)]
        grid = np.concatenate([*parts[1:], tail.repeat(rows, axis=1)])
        yield grid.T.tobytes().translate(None, b"\0").decode("ascii")


def _int64(column: Sequence) -> np.ndarray:
    """``column`` as int64; a value beyond int64 raises ``OverflowError``
    (an array of another dtype goes through Python ints, so that it cannot
    wrap)."""
    if isinstance(column, np.ndarray) and column.dtype != np.int64:
        column = column.tolist()
    return np.asarray(column, dtype=np.int64)


def _int_rows(v: np.ndarray) -> np.ndarray:
    """``'%d' % v`` of each int64 value as a column of uint8 rows, NUL
    where the text has no character: the sign, then one row per digit of
    the widest magnitude.  A leading zero is NUL; the last digit stays, so
    that 0 reads "0"."""
    neg = v < 0
    mag = v.view(np.uint64).copy()
    mag[neg] = np.uint64(0) - mag[neg]  # exact for -2**63 too
    width = len(str(int(mag.max()))) if len(v) else 1
    out = np.zeros((width + 1, len(v)), np.uint8)
    out[0] = 45 * neg
    for r in range(width, 0, -1):
        q = mag // np.uint64(10)
        out[r] = (mag - q * np.uint64(10) + np.uint64(48)) * ((mag > 0) | (r == width))
        mag = q
    return out


def _g17_rows(v: np.ndarray) -> np.ndarray:
    """``'%.17g' % v`` of each value as a column of 24 uint8 rows, NUL where
    the text has no character (no ``%.17g`` text of a float is longer).

    A value of ``1e-4 <= |v| < 1e17`` prints in fixed notation: its 17
    digits ``d = round(|v| * 10**(16 - x))``, for the decimal exponent ``x``
    that puts ``d`` in ``[10**16, 10**17)``, with the point after digit
    ``x``, the fraction's trailing zeros cut and the point too once no
    fraction is left.  Every other value takes Python's own text.

    Row 0 holds the sign.  The digits come from ``e``, four zeros and then
    the 17 of ``d``, so that the point follows ``e[x + 4]``: for ``x < 0``
    that reads ``0.`` and ``-x - 1`` zeros before ``d``.  The zeros of
    ``e`` ahead of that ``0``, and those after the last nonzero digit that
    follow the point, are NUL.  Rows 1-21 take ``e`` up to the point, the
    rest of it goes one row lower, and the point into the row between.
    """
    n = len(v)
    a = np.abs(v)
    fast = (a >= 1e-4) & (a < 1e17)
    a[~fast] = 1.0
    # log10 can miss x by one next to a power of ten; the loop mends it.
    x = np.floor(np.log10(a)).astype(np.int64).clip(-4, 16)
    pow10 = np.array([float(10**j) for j in range(23)])  # exact up to 10**22
    d = _round_product(a, pow10[16 - x])
    while True:
        up = d >= 10**17
        off = np.flatnonzero(up | (d < 10**16))
        if not len(off):
            break
        x[off] += 2 * up[off] - 1
        d[off] = _round_product(a[off], pow10[16 - x[off]])
    e = np.zeros((21, n), np.uint8)
    m = np.arange(21, dtype=np.uint8)[:, None]
    # 17 uint32 divisions give the digits: 9 from d's low part, 8 from its high.
    for u, rows in (((d % 10**9).astype(np.uint32), range(20, 11, -1)),
                    ((d // 10**9).astype(np.uint32), range(11, 3, -1))):
        for row in rows:
            q = u // 10
            e[row] = u - q * 10
            u = q
    point = (x + 4).astype(np.uint8)
    last = ((e[4:] != 0) * m[4:]).max(axis=0)  # d's last nonzero digit
    e[:4] = 48 * (m[:4] >= point)
    e[4:] += 48
    e[5:] *= m[5:] <= np.maximum(last, point)
    out = np.zeros((24, n), np.uint8)
    out[0] = 45 * (v < 0)
    before = m <= point
    out[1:22] = e * before
    out[2:23] += e * ~before
    np.put(out, (point + np.intp(2)) * n + np.arange(n), 46 * (last > point))
    out[:, ~fast] = _python_g17(v[~fast]).T
    return out


def _round_product(a: np.ndarray, scale: np.ndarray) -> np.ndarray:
    """``a * scale`` rounded to an integer, ties to even, as int64, where
    ``scale`` is a power of ten up to ``10**22`` and the product lies near
    ``[10**16, 10**17)``.

    Dekker's TwoProduct (1971) splits the product exactly into
    ``hi + lo``: ``hi`` is the rounded product and ``lo`` its error.  From
    ``2**53`` on, ``hi`` is an even integer, so ``hi + rint(lo)`` rounds the
    exact sum, halfway cases to even as ``%.17g`` does."""
    hi = a * scale
    a_hi, a_lo = _split(a)
    s_hi, s_lo = _split(scale)
    lo = ((a_hi * s_hi - hi) + a_hi * s_lo + a_lo * s_hi) + a_lo * s_lo
    return hi.astype(np.int64) + np.rint(lo).astype(np.int64)


def _split(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Veltkamp's split of ``a`` into a high and a low half of 26 bits."""
    c = 134217729.0 * a  # 2**27 + 1
    high = c - (c - a)
    return high, a - high


def _python_g17(values: np.ndarray) -> np.ndarray:
    """Python's own ``'%.17g' % v`` of each value, as a row of 24 bytes
    padded with NUL."""
    texts = np.array([b"%.17g" % v for v in values.tolist()], dtype="S24")
    return texts.view(np.uint8).reshape(-1, 24)
