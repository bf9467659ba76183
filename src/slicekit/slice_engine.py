"""Segmentation of an update-matrix sequence into contraction slices.

The running product ``J_k = P_k ... P_1`` of admissible update matrices is
row-stochastic until some row first dips below row sum one.  A *slice* is
the shortest non-overlapping window of non-identity matrices whose product
has every row sub-stochastic: it opens at the first matrix held (identity
steps are skipped entirely, and stochastic steps arriving while no slice is
open are buffered into the window), registers a *success* whenever a new
row of the running product becomes sub-stochastic, and completes at the
n-th success.  Completed slices tile the non-identity subsequence, so the
full product factors exactly into slice products.

Row bookkeeping drives the norm bounds downstream: ``h[i]`` records the
1-based within-slice index at which row i first became sub-stochastic and
``g[i]`` the index of the last update whose own sensor row was
sub-stochastic at row i.
"""

from __future__ import annotations

import csv
import enum
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .bounds import slice_norm_bound
from .errors import AssumptionViolated
from .matrix_core import Params, SystemMatrix, inf_norm, validate_update

__all__ = [
    "Slice",
    "SliceEventKind",
    "SliceEvent",
    "SliceState",
    "push",
    "run_sequence",
    "RunResult",
    "write_slice_log",
    "read_slice_log",
    "write_event_log",
]


@dataclass(frozen=True)
class Slice:
    """A completed slice: its product over the sensor block, the window it
    covers (indices into the non-identity subsequence, inclusive), and the
    norm together with its closed-form bound."""

    index: int
    product: np.ndarray
    start_k: int
    end_k: int
    length: int
    norm: float
    bound: float

    def __post_init__(self) -> None:
        if self.length != self.end_k - self.start_k + 1:
            raise ValueError(
                f"slice length {self.length} does not match window "
                f"[{self.start_k}, {self.end_k}]"
            )


class SliceEventKind(enum.Enum):
    SKIPPED = "skipped"        # identity step, excluded from slices
    ABSORBED = "absorbed"      # held in the window without a new success
    STARTED = "started"        # first success: the slice is now open
    SUCCESS = "success"        # a new row of the product became sub-stochastic
    COMPLETED = "completed"    # n-th success: slice finalized


@dataclass
class SliceEvent:
    """One observation from :func:`push`.  ``k`` is the raw position in the
    input sequence when driven through :func:`run_sequence`, ``row`` and
    ``row_sum_after`` describe the affected product row where meaningful,
    and ``slice`` carries the finalized slice on completion."""

    kind: SliceEventKind
    k: int | None = None
    row: int | None = None
    row_sum_after: float | None = None
    slice: Slice | None = None


@dataclass
class SliceState:
    """Mutable engine state between pushes (single-owner, sequential).

    ``j`` is the running product over the sensor block for the window under
    construction, ``informed`` the rows of ``j`` currently sub-stochastic,
    ``k_local`` the 1-based count of matrices held in the window,
    ``start_k``/``next_k`` positions in the non-identity subsequence, and
    ``completed`` the number of slices finalized so far.
    """

    n: int
    j: np.ndarray = field(default=None)  # type: ignore[assignment]
    informed: set[int] = field(default_factory=set)
    k_local: int = 0
    h: dict[int, int] = field(default_factory=dict)
    g: dict[int, int] = field(default_factory=dict)
    started: bool = False
    start_k: int | None = None
    next_k: int = 0
    completed: int = 0

    def __post_init__(self) -> None:
        if self.j is None:
            self.j = np.eye(self.n)

    def reset_window(self) -> None:
        self.j = np.eye(self.n)
        self.informed = set()
        self.k_local = 0
        self.h = {}
        self.g = {}
        self.started = False
        self.start_k = None


def push(
    state: SliceState,
    m: SystemMatrix,
    params: Params,
    strict: bool = True,
    k: int | None = None,
) -> tuple[SliceState, list[SliceEvent]]:
    """Feed one matrix into the engine, mutating ``state`` in place.

    Identity steps are skipped.  In strict mode the matrix must pass
    :func:`validate_update` (raising :class:`AssumptionViolated` otherwise);
    permissive mode accepts any row of matching shape, so rule-violating
    rows are observable rather than fatal.  Only the updated row of the
    running product moves, so only that row's sum and informed status are
    recomputed.  A single push can emit several events: opening the slice,
    a success when the row becomes newly informed, and completion.
    """
    if m.n != state.n:
        raise AssumptionViolated(
            f"matrix is {m.n}x{m.n} but the engine tracks {state.n} rows"
        )
    if m.is_identity(params.tol):
        return state, [SliceEvent(SliceEventKind.SKIPPED, k=k)]
    if strict:
        fails = validate_update(m, params)
        if fails:
            raise AssumptionViolated(f"update failed validation: {'; '.join(fails)}")

    this_k = state.next_k
    state.next_k += 1
    if state.start_k is None:
        state.start_k = this_k
    state.k_local += 1

    i = m.updated_row
    state.j = m.apply(state.j)
    row_sum = float(state.j[i].sum())

    # Direct sub-stochastic updates stamp g for their row, successes stamp h.
    if float(m.p_row.sum()) < 1.0 - params.tol:
        state.g[i] = state.k_local

    events: list[SliceEvent] = []
    informed_now = row_sum < 1.0 - params.tol
    if informed_now and i not in state.informed:
        if not state.started:
            state.started = True
            events.append(SliceEvent(SliceEventKind.STARTED, k=k))
        state.h.setdefault(i, state.k_local)
        state.informed.add(i)
        kind = SliceEventKind.SUCCESS
    else:
        if not informed_now:
            state.informed.discard(i)
        kind = SliceEventKind.ABSORBED
    events.append(SliceEvent(kind, k=k, row=i, row_sum_after=row_sum))

    if len(state.informed) == state.n:
        finished = Slice(
            index=state.completed,
            product=state.j.copy(),
            start_k=state.start_k,
            end_k=this_k,
            length=state.k_local,
            norm=inf_norm(state.j),
            bound=slice_norm_bound(state.k_local, params),
        )
        state.completed += 1
        state.reset_window()
        events.append(SliceEvent(SliceEventKind.COMPLETED, k=k, slice=finished))
    return state, events


class RunResult(NamedTuple):
    slices: list[Slice]
    events: list[SliceEvent]
    state: SliceState


def run_sequence(
    matrices: Iterable[SystemMatrix],
    params: Params,
    strict: bool = True,
    state: SliceState | None = None,
) -> RunResult:
    """Drive a whole sequence through :func:`push`.

    Returns the completed slices in order, the full event log (events carry
    the raw input index), and the residual state of the open window."""
    slices: list[Slice] = []
    events: list[SliceEvent] = []
    for k, m in enumerate(matrices):
        if state is None:
            state = SliceState(n=m.n)
        state, evs = push(state, m, params, strict=strict, k=k)
        for ev in evs:
            if ev.slice is not None:
                slices.append(ev.slice)
        events.extend(evs)
    if state is None:
        state = SliceState(n=0)
    return RunResult(slices, events, state)


# ---------------------------------------------------------------------------
# Logs
# ---------------------------------------------------------------------------

# Slice log columns in file order, each with the type it is read back as.
_SLICE_LOG_COLUMNS = dict(
    slice_index=int, start_k=int, end_k=int, length=int, norm=float, bound=float
)


def write_slice_log(slices: Sequence[Slice], path: str | Path) -> Path:
    """CSV with one line per completed slice."""
    path = Path(path)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(list(_SLICE_LOG_COLUMNS))
        for s in slices:
            writer.writerow(
                [
                    s.index,
                    s.start_k,
                    s.end_k,
                    s.length,
                    f"{s.norm:.17g}",
                    f"{s.bound:.17g}",
                ]
            )
    return path


def read_slice_log(path: str | Path) -> list[dict]:
    """Parse a slice log back into one dictionary per non-blank row, holding
    the log columns the file has, each converted to its type."""
    with Path(path).open(newline="") as fh:
        rows = csv.reader(fh)
        header = next(rows, [])
        have = [(c, header.index(c), t) for c, t in _SLICE_LOG_COLUMNS.items() if c in header]
        return [{c: t(row[j]) for c, j, t in have} for row in rows if row]


def write_event_log(events: Sequence[SliceEvent], path: str | Path) -> Path:
    """CSV with one line per engine event."""
    path = Path(path)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["k", "event", "row", "row_sum_after"])
        for ev in events:
            writer.writerow(
                [
                    "" if ev.k is None else ev.k,
                    ev.kind.value,
                    "" if ev.row is None else ev.row,
                    "" if ev.row_sum_after is None else f"{ev.row_sum_after:.17g}",
                ]
            )
    return path
