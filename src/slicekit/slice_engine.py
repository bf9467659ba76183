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

import enum
from dataclasses import dataclass, field
from typing import Iterable, Iterator, NamedTuple

import numpy as np

from .bounds import slice_norm_bound
from .errors import AssumptionViolated
from .matrix_core import Params, SystemMatrix, _screen, _screen_block, inf_norm

__all__ = [
    "Slice",
    "SliceEventKind",
    "SliceEvent",
    "SliceState",
    "push",
    "run_sequence",
    "RunResult",
]


@dataclass(frozen=True, eq=False)
class Slice:
    """A completed slice: its product over the sensor block, the window it
    covers (indices into the non-identity subsequence, inclusive), and the
    norm together with its closed-form bound."""

    index: int
    product: np.ndarray
    start_k: int
    end_k: int
    norm: float
    bound: float

    @property
    def length(self) -> int:
        """The number of matrices in the window."""
        return self.end_k - self.start_k + 1


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


@dataclass(eq=False)
class SliceState:
    """Mutable engine state between pushes (single-owner, sequential).

    ``j`` is the running product over the sensor block for the window under
    construction, updated in place one row at a time, ``informed`` the rows
    of ``j`` currently sub-stochastic, ``k_local`` the 1-based count of
    matrices held in the window, ``start_k``/``next_k`` positions in the
    non-identity subsequence, and ``completed`` the number of slices
    finalized so far.
    """

    n: int
    j: np.ndarray = field(default=None)  # type: ignore[assignment]
    informed: set[int] = field(default_factory=set)
    h: dict[int, int] = field(default_factory=dict)
    g: dict[int, int] = field(default_factory=dict)
    start_k: int | None = None
    next_k: int = 0
    completed: int = 0

    def __post_init__(self) -> None:
        if self.j is None:
            self.j = np.eye(self.n)

    @property
    def k_local(self) -> int:
        return 0 if self.start_k is None else self.next_k - self.start_k

    def reset_window(self) -> None:
        self.j = np.eye(self.n)
        self.informed = set()
        self.h = {}
        self.g = {}
        self.start_k = None


def push(
    state: SliceState,
    m: SystemMatrix,
    params: Params,
    strict: bool = True,
    k: int | None = None,
) -> tuple[SliceState, list[SliceEvent]]:
    """Feed one matrix into the engine, mutating ``state`` in place.

    Identity steps are skipped.  Both modes check
    :func:`~slicekit.matrix_core.validate_update`'s rules in the same look
    at the row as the identity test.  In strict mode a failed rule raises
    :class:`AssumptionViolated`; permissive mode ignores the failures, so
    rule-violating rows are observable rather than fatal.  Every other row
    goes to :func:`_absorb`, which updates ``state.j`` in place.
    """
    if m.n != state.n:
        raise AssumptionViolated(
            f"matrix is {m.n}x{m.n} but the engine tracks {state.n} rows"
        )
    identity, p_sum, fails = _screen(m, params)
    if identity:
        return state, [SliceEvent(SliceEventKind.SKIPPED, k=k)]
    if fails and strict:
        raise AssumptionViolated(f"update failed validation: {'; '.join(fails)}")
    return state, _absorb(state, m.updated_row, m.p_row, p_sum, params, k)


def _absorb(
    state: SliceState, i: int, p_row: np.ndarray, p_sum: float, params: Params, k: int | None
) -> list[SliceEvent]:
    """Hold the non-identity update of sensor row ``i`` to ``p_row``, of row
    sum ``p_sum``, in the window, as :func:`push` does once the row is
    screened.  Only row ``i`` of the running product moves, in place, so
    only that row's sum and informed status are recomputed.  One update can
    emit several events: opening the slice, a success when the row becomes
    newly informed, and completion, whose slice takes the product array
    itself, since the next window starts on a fresh one."""
    this_k = state.next_k
    state.next_k += 1
    if state.start_k is None:
        state.start_k = this_k

    j = state.j
    j[i] = p_row @ j
    row_sum = float(j[i].sum())

    # Direct sub-stochastic updates stamp g for their row, successes stamp h.
    if p_sum < 1.0 - params.tol:
        state.g[i] = state.k_local

    events: list[SliceEvent] = []
    informed_now = row_sum < 1.0 - params.tol
    if informed_now and i not in state.informed:
        if not state.h:
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
            product=j,
            start_k=state.start_k,
            end_k=this_k,
            norm=inf_norm(j),
            bound=slice_norm_bound(state.k_local, params),
        )
        state.completed += 1
        state.reset_window()
        events.append(SliceEvent(SliceEventKind.COMPLETED, k=k, slice=finished))
    return events


class RunResult(NamedTuple):
    slices: list[Slice]
    events: list[SliceEvent]
    state: SliceState


def run_sequence(
    matrices: Iterable[SystemMatrix],
    params: Params,
    strict: bool = True,
) -> RunResult:
    """Drive a whole sequence through the engine, one :func:`push` per
    matrix, the engine sized by the first.

    Returns the completed slices in order, the full event log (events
    carry the raw input index), and the residual state of the open window."""
    slices: list[Slice] = []
    events: list[SliceEvent] = []
    state: SliceState | None = None
    for k, m in enumerate(matrices):
        if state is None:
            state = SliceState(n=m.n)
        _, evs = push(state, m, params, strict=strict, k=k)
        events += evs
        slices += [ev.slice for ev in evs if ev.slice is not None]
    if state is None:
        state = SliceState(n=0)
    return RunResult(slices, events, state)


# Steps in one draw block of products (generators._row_blocks) and lf
# (ddf_sim._blocks); it bounds what a block holds whatever the horizon.
DRAW_BLOCK = 1024


def _run_rows(
    state: SliceState, k0: int, rows: np.ndarray, p_rows: np.ndarray, b_rows: np.ndarray,
    params: Params, strict: bool = True,
) -> Iterator[tuple[int, list[SliceEvent]]]:
    """Feed steps ``k0, k0 + 1, ...`` to the engine as :func:`push` would,
    yielding ``(t, events)`` for each step ``k0 + t`` as it runs.  Step
    ``k0 + t`` sets sensor row ``rows[t]`` to ``p_rows[t]`` and anchor row
    to ``b_rows[t]``; row -1 is an identity, which the engine skips, so it
    yields nothing and its SKIPPED event is left to the caller.  One screen
    (:func:`~slicekit.matrix_core._screen_block`) of the other rows sends
    each clear one to :func:`_absorb` and the rest to :func:`push` (a unit
    row among them yields its own SKIPPED event), one step per draw, so a
    caller that stops drawing leaves the later steps unfed."""
    at = np.flatnonzero(rows >= 0)
    clear, p_sums = _screen_block(p_rows[at], b_rows[at], rows[at], params)
    n, s = state.n, b_rows.shape[1]
    for t, i, ok, p_sum in zip(at.tolist(), rows[at].tolist(), clear.tolist(), p_sums.tolist()):
        if ok:
            yield t, _absorb(state, i, p_rows[t], p_sum, params, k0 + t)
        else:
            m = SystemMatrix._trusted(n, s, i, p_rows[t], b_rows[t])
            yield t, push(state, m, params, strict=strict, k=k0 + t)[1]
