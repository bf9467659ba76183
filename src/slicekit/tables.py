"""The CSV table format shared by every output file.

A table is a header line followed by one line per row, each ended by
``\\r\\n``, with unquoted comma-separated fields and floats written as
``%.17g`` so that they read back exactly.  A table goes to a path, written
whole, or to a text file open for writing, where it may be written a block
of rows at a time: its header goes only into a file still empty.

Lines are built in one of two ways.  :func:`write_table` formats a block
of rows with one ``%``.  The float tables build theirs in NumPy byte
grids (:func:`_grid_text`) from the digit rows of integers
(:func:`_int_rows`) and of floats (:func:`_g17_rows`).  Their
``%.17g`` is Python's to the byte; the values of ``1e-4 <= |v| < 1e17``,
fixed notation, take their digits from an exact product, and every other
value Python's own text.  :func:`frame_lines` builds the lines ``k,i,``
and floats of a frame history, :func:`column_lines` those of ``%d`` and
``%.17g`` columns (the certificate's trace and assignment tables), each
at most ``FRAME_ROWS`` rows at a time.  A grid has a fixed cost that one
``%`` beats on tables of a hundred rows or so, and the other tables keep
:func:`write_table`.

Every output file is written here.  The slice log records each slice's
window, norm and bound; a certificate needs only the lengths, the one
column read back.  The lf writers take a draw block of frames, appending
to an open file.  ``positions.csv``, whose floats are all distinct,
formats every cell (:func:`frame_lines`); ``trajectory.csv`` formats each
distinct state value of a block once, by :func:`_g17_rows`, and gathers
those rows into its grids.  The event log has one line form and two
writers: :func:`write_event_log` writes a line per :class:`SliceEvent`,
and the commands' step writer (:func:`_write_steps`) writes a draw
block's lines from the engine's step codes, with one ``%``, the same
bytes.  Its template of each code is built from the event kinds that
``slice_engine._STEP_EVENTS`` lists for it, the table that builds the
events too, so the two writers read the codes alike.
"""

from __future__ import annotations

import csv
from itertools import chain, islice
from operator import itemgetter
from pathlib import Path
from typing import Iterable, Iterator, Sequence, TextIO

import numpy as np

from .certifier import Certificate
from .slice_engine import _ROW_EVENTS, _STEP_EVENTS, Slice, SliceEvent, SliceEventKind

__all__ = [
    "write_slice_log",
    "read_slice_lengths",
    "write_event_log",
    "format_certificate",
    "write_certificate",
    "write_trajectory_csv",
    "write_positions_csv",
]

# Table rows formatted together, by one ``%`` or in one byte grid (in whole
# frames, one frame at least, for the frame writers); it bounds the text
# and the arrays held at once.
FRAME_ROWS = 4096

# 10**j for j = 0..22, every power of ten exact in binary64, for _g17_rows.
_POW10 = np.array([float(10**j) for j in range(23)])


def write_lines(out: str | Path | TextIO, header: str, chunks: Iterable[str]) -> Path | None:
    """Write ``header`` and then each chunk of whole ``\\r\\n``-ended lines
    to ``out``; return the path written, or ``None`` for an open file.  A
    path is created or emptied first; an open file gets the header only
    where nothing has been written to it yet, so a table written to it in
    several calls holds one."""
    if isinstance(out, (str, Path)):
        with Path(out).open("w", newline="") as fh:
            write_lines(fh, header, chunks)
        return Path(out)
    if out.tell() == 0:
        out.write(header + "\r\n")
    for chunk in chunks:
        out.write(chunk)
    return None


def write_table(
    out: str | Path | TextIO, header: str, fmt: str, rows: Iterable[tuple]
) -> Path | None:
    """Write ``header`` and then ``fmt % row`` for each row to ``out``,
    streaming the rows, and return as :func:`write_lines` does.

    Each block of ``FRAME_ROWS`` rows is formatted with one ``%`` on its
    fields in row order, so every row must hold exactly the fields ``fmt``
    takes.  Fields are not quoted, so no field may hold a comma, a quote or
    a line break; every table holds only numbers and enum values.
    """
    rows = iter(rows)
    blocks = iter(lambda: list(islice(rows, FRAME_ROWS)), [])
    line = fmt + "\r\n"
    return write_lines(out, header, (line * len(b) % tuple(chain.from_iterable(b)) for b in blocks))


# Slice log columns in file order.
_SLICE_LOG_COLUMNS = ("slice_index", "start_k", "end_k", "length", "norm", "bound")


def write_slice_log(slices: Sequence[Slice], path: str | Path | TextIO) -> Path | None:
    """CSV with one line per completed slice; ``path`` as for :func:`write_event_log`."""
    rows = ((s.index, s.start_k, s.end_k, s.length, s.norm, s.bound) for s in slices)
    return write_table(path, ",".join(_SLICE_LOG_COLUMNS), "%d,%d,%d,%d,%.17g,%.17g", rows)


def read_slice_lengths(path: str | Path) -> list[int]:
    """The ``length`` of each non-blank row of a slice log, the only cell read.
    A bad length raises ``ValueError``, a row short of a log column its header
    names ``IndexError``, and a missing ``length`` column ``KeyError``."""
    with Path(path).open(newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        rows = list(filter(None, reader))
    if not rows:
        return []
    if "length" not in header:
        raise KeyError("length")
    last = max(header.index(c) for c in _SLICE_LOG_COLUMNS if c in header)
    if min(map(len, rows)) <= last:
        raise IndexError(f"a row has fewer than the {last + 1} fields its header names")
    return list(map(int, map(itemgetter(header.index("length")), rows)))


# The event log's header and line: k, event, row, row_sum_after.
_EVENT_HEADER = "k,event,row,row_sum_after"
_EVENT_LINE = "%s,%s,%s,%s"


def _event_fields(ev: SliceEvent) -> tuple:
    """The fields of ``ev``'s event-log line; absent fields are empty."""
    return (
        "" if ev.k is None else ev.k,
        ev.kind._value_,
        "" if ev.row is None else ev.row,
        "" if ev.row_sum_after is None else "%.17g" % ev.row_sum_after,
    )


def write_event_log(events: Sequence[SliceEvent], path: str | Path | TextIO) -> Path | None:
    """CSV with one line per engine event.  ``path`` may be a text file
    open for writing, to append a block of events to (:func:`write_lines`)."""
    return write_table(path, _EVENT_HEADER, _EVENT_LINE, map(_event_fields, events))


def _step_format(kinds: tuple[SliceEventKind, ...]) -> tuple[str, list[bool]]:
    """The event-log lines of a step whose events are ``kinds``
    (:data:`~slicekit.slice_engine._STEP_EVENTS`) as one template, and
    which of the step's fields ``(k, k, row, row_sum, k)`` it takes: the
    first ``k`` for a skipped or started line, the next three for an
    absorbed or success line (``_ROW_EVENTS``), and the last ``k`` for a
    completed line."""

    def line(kind: SliceEventKind) -> str:
        held = ("%d", "%.17g") if kind in _ROW_EVENTS else ("", "")
        return _EVENT_LINE % ("%d", kind.value, *held) + "\r\n"

    middle = not _ROW_EVENTS.isdisjoint(kinds)
    last = SliceEventKind.COMPLETED in kinds
    first = len(kinds) > middle + last
    return "".join(map(line, kinds)), [first] + [middle] * 3 + [last]


# Indexed by engine code, as _STEP_EVENTS is.
_STEP_LINES, _STEP_FIELDS = zip(*map(_step_format, _STEP_EVENTS))
_STEP_FIELDS = np.array(_STEP_FIELDS)


def _write_steps(
    out: TextIO, k0: int, codes: np.ndarray, rows: np.ndarray, sums: np.ndarray
) -> None:
    """Append to ``out`` the event-log lines of steps ``k0, k0 + 1, ...``
    from their engine codes, rows and row sums
    (:func:`~slicekit.slice_engine._run_rows`), the lines
    :func:`write_event_log` writes for the same steps' events: the fields
    each step's code takes, picked from all steps' fields at once, go
    through one ``%`` in step order."""
    fields = np.empty((len(codes), 5), dtype=object)
    fields[:, 0] = fields[:, 1] = fields[:, 4] = np.arange(
        k0, k0 + len(codes), dtype=np.uint64
    ).astype(object)
    fields[:, 2], fields[:, 3] = rows.astype(object), sums.astype(object)
    text = "".join(map(_STEP_LINES.__getitem__, codes.tolist()))
    write_lines(out, _EVENT_HEADER, [text % tuple(fields[_STEP_FIELDS[codes]].tolist())])


def format_certificate(cert: Certificate, trace_csv: str | None = None) -> str:
    """Render a certificate as a structured text document; the lines
    ``%d,%d,%d,%.17g`` of the assignment's columns are built in NumPy byte
    grids (:func:`column_lines`), byte for byte Python's."""
    lines = [
        f"verdict: {cert.verdict.value}",
        f"case: {cert.case_used.value if cert.case_used else 'none'}",
        f"horizon: {cert.horizon}",
    ]
    for note in cert.notes:
        lines.append(f"note: {note}")
    log_gap_for = {"delta": "log_gap", "delta1": "log_gap1"}
    for key, value in cert.witnesses.items():
        if key == "assignment":
            continue
        log_key = log_gap_for.get(key)
        if log_key in cert.witnesses and isinstance(value, float) and value >= 1.0:
            # The per-slice gap 1 - delta underflows in binary64; present the
            # contraction through its log-space witness instead of a bare "1".
            lines.append(f"witness {key}: 1 - exp({cert.witnesses[log_key]:.17g})")
        elif isinstance(value, float):
            lines.append(f"witness {key}: {value:.17g}")
        else:
            lines.append(f"witness {key}: {value}")
    if trace_csv is not None:
        lines.append(f"trace_csv: {trace_csv}")
    text = "\n".join(lines) + "\n"
    assignment = cert.witnesses.get("assignment", ((),))
    if not len(assignment[0]):
        return text
    block = column_lines("%d,%d,%d,%.17g", assignment, "\n")
    return "".join([text, "assignment:\ni,slice_index,length,cap\n", *block])


def write_certificate(cert: Certificate, directory: str | Path) -> Path:
    """Write ``certificate.txt`` plus, when the certificate has a trace,
    ``certificate_trace.csv``, whose lines ``%d,%d,%.17g,%.17g`` are built
    in NumPy byte grids (:func:`column_lines`); without a
    trace, a trace file left there by an earlier certificate is removed.
    Returns the text path."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    trace_path = directory / "certificate_trace.csv"
    tr = cert.trace
    if tr is None:
        trace_path.unlink(missing_ok=True)
    else:
        columns = (np.arange(len(tr.lengths)), tr.lengths, tr.products, tr.neg_log_sums)
        header = "t,length,cumulative_product,neg_log_sum"
        write_lines(trace_path, header, column_lines("%d,%d,%.17g,%.17g", columns, "\r\n"))
    text_path = directory / "certificate.txt"
    text_path.write_text(
        format_certificate(cert, trace_csv=None if tr is None else trace_path.name)
    )
    return text_path


def _frame_chunks(k0: int, cells: np.ndarray) -> Iterator[tuple[int, np.ndarray]]:
    """Each run of whole frames of ``cells``, ``FRAME_ROWS`` entries at
    most, with the index of its first frame, for frames from ``k0`` on."""
    step = max(1, FRAME_ROWS // max(cells.shape[1], 1))
    return ((k0 + lo, cells[lo : lo + step]) for lo in range(0, len(cells), step))


def write_trajectory_csv(
    states: np.ndarray, path: str | Path | TextIO, k0: int = 0
) -> Path | None:
    """CSV ``k,sensor,state`` with k = 0 the initial state; ``states`` holds
    the frames from ``k0`` on.  ``path`` may be a text file open for
    writing, to append a block of frames to (:func:`write_lines`).

    Each distinct value is formatted once (:func:`_g17_rows`), told apart
    by its bits so that ``0.0`` and ``-0.0`` keep their own text, and its
    rows gathered into each chunk's grid after :func:`_index_rows`.  A
    frame past ``2**64 - 1`` raises ``OverflowError``."""
    states = np.ascontiguousarray(states, dtype=float)
    bits, where = np.unique(states.view(np.int64), return_inverse=True)
    texts = _g17_rows(bits.view(float))
    chunks = _frame_chunks(k0, where.reshape(states.shape))
    lines = (_grid_text([*_index_rows(k, *w.shape), texts[:, w]], "\r\n") for k, w in chunks)
    return write_lines(path, "k,sensor,state", lines)


def write_positions_csv(
    positions: np.ndarray, path: str | Path | TextIO, k0: int = 0
) -> Path | None:
    """CSV ``k,node,x,y``; nodes are sensors 0..n-1 then anchors, and
    ``positions`` holds the frames from ``k0`` on (``path`` as for
    :func:`write_trajectory_csv`).

    Every position is a distinct float, and each ``FRAME_ROWS`` chunk
    formats all of its cells in one :func:`frame_lines` grid."""
    chunks = _frame_chunks(k0, np.asarray(positions, dtype=float))
    return write_lines(path, "k,node,x,y", (frame_lines(k, chunk) for k, chunk in chunks))


def frame_lines(k0: int, cells: np.ndarray) -> str:
    """The table lines of frames ``k0, k0 + 1, ...``: entry ``i`` of frame
    ``k`` reads ``k,i,`` and then the floats ``cells[k - k0, i]``, each
    ``%.17g``, comma-separated.  ``k`` may run up to ``2**64 - 1``; a
    frame past it raises ``OverflowError``.

    The lines are one :func:`_grid_text` grid: the digit rows of ``k`` and
    of ``i`` (:func:`_index_rows`), then the 24 rows of each float
    (:func:`_g17_rows`), one ``_g17_rows`` pass per float column.
    """
    frames, entries, width = cells.shape
    floats = [_g17_rows(cells[:, :, c].ravel()).reshape(24, frames, entries) for c in range(width)]
    return _grid_text([*_index_rows(k0, frames, entries), *floats], "\r\n")


def _index_rows(k0: int, frames: int, entries: int) -> list[np.ndarray]:
    """The digit rows (:func:`_int_rows`) of ``k`` and of ``i`` for entry
    ``i`` of frames ``k0, k0 + 1, ...``, as :func:`_grid_text` fields; a
    frame past ``2**64 - 1`` raises ``OverflowError``."""
    if k0 + frames > 2**64:
        raise OverflowError(f"frame index {k0 + frames - 1} is beyond uint64")
    ks = _int_rows(np.uint64(k0) + np.arange(frames, dtype=np.uint64))
    return [ks[1:, :, None], _int_rows(np.arange(entries))[1:, None]]


def column_lines(fmt: str, columns: Sequence[Sequence], end: str) -> Iterator[str]:
    """``fmt % row + end`` for each row of ``columns``, the text of up to
    ``FRAME_ROWS`` rows at a time, where ``fmt`` is ``%d`` and ``%.17g``
    fields joined by commas, one per column.

    Each chunk is one :func:`_grid_text` grid, whose fields are
    :func:`_int_rows` for ``%d`` and :func:`_g17_rows` for ``%.17g``.  A
    ``%d`` value beyond int64 raises ``OverflowError``.
    """
    kinds = fmt.split(",")
    if not set(kinds) <= {"%d", "%.17g"} or len(kinds) != len(columns):
        raise ValueError(f"fmt {fmt!r} does not name one %d or %.17g field per column")
    total = len(columns[0])
    for lo in range(0, total, FRAME_ROWS):
        rows = min(FRAME_ROWS, total - lo)
        chunk = [column[lo : lo + rows] for column in columns]
        # One _g17_rows pass takes the floats of every %.17g field: its
        # fixed cost is most of its time on a few thousand values.
        floats = [np.asarray(c, dtype=float) for kind, c in zip(kinds, chunk) if kind == "%.17g"]
        g17 = _g17_rows(np.concatenate(floats or [np.empty(0)])).reshape(24, -1, rows)
        float_fields = iter(g17.swapaxes(0, 1))
        fields = [_int_rows(_int64(c)) if kind == "%d" else next(float_fields)
                  for kind, c in zip(kinds, chunk)]
        yield _grid_text(fields, end)


def _grid_text(fields: Sequence[np.ndarray], end: str) -> str:
    """The lines of ``fields``, uint8 arrays ``(chars, *lines)`` broadcast
    to one shape of lines, joined by commas, each line ended by ``end``.

    The lines are the columns of one uint8 grid whose rows are character
    positions: each field's rows, a comma row between fields, ``end``'s
    rows last.  A line shorter than the grid is NUL where it has no
    character; the grid, transposed, is the text once ``bytes.translate``
    has deleted every NUL."""
    shape = np.broadcast_shapes(*(f.shape[1:] for f in fields))
    seps = [np.frombuffer(s.encode("ascii"), np.uint8).reshape(-1, *[1] * len(shape))
            for s in [","] * (len(fields) - 1) + [end]]
    grid = np.empty((sum(map(len, fields)) + sum(map(len, seps)), *shape), np.uint8)
    r = 0
    for part in chain.from_iterable(zip(fields, seps)):
        grid[r : r + len(part)] = part
        r += len(part)
    return grid.reshape(len(grid), -1).T.tobytes().translate(None, b"\0").decode("ascii")


def _int64(column: Sequence) -> np.ndarray:
    """``column`` as int64; a value beyond int64 raises ``OverflowError``
    (an array of another dtype goes through Python ints, so that it cannot
    wrap)."""
    if isinstance(column, np.ndarray) and column.dtype != np.int64:
        column = column.tolist()
    return np.asarray(column, dtype=np.int64)


def _int_rows(v: np.ndarray) -> np.ndarray:
    """``'%d' % v`` of each int64 or uint64 value as a column of uint8
    rows, NUL where the text has no character: the sign, then one row per
    digit of the widest magnitude.  A leading zero is NUL; the last digit stays, so
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
    d = _round_product(a, _POW10[16 - x])
    while True:
        up = d >= 10**17
        off = np.flatnonzero(up | (d < 10**16))
        if not len(off):
            break
        x[off] += 2 * up[off] - 1
        d[off] = _round_product(a[off], _POW10[16 - x[off]])
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
