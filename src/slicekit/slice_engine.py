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

The engine reports each step as data: a small integer code (skipped,
absorbed, success, or the success that starts a slice, plus a completed
bit), the updated row's new sum, and the slice it completed, if any.  The
block loop (:func:`_run_rows`) writes the codes and sums of a draw block
into its caller's arrays, which the commands hand to the event log's step
writer as they are.  One table, ``_STEP_EVENTS``, reads the codes: it
lists the event kinds of each code, in order.  :class:`SliceEvent` objects
are built from it in one place, for the public :func:`push` and
:func:`run_sequence` and the simulator's collected run, and the step
writer's line templates are built from it too.
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
    code, row_sum, finished = _push(state, m, params, strict)
    return state, _events([k], [code], [m.updated_row], [row_sum], [finished])


# A step's code, one small int from the engine to the event log: the step
# was skipped (an identity), absorbed, a success, or the success that
# started the slice, plus _COMPLETED when it completed the slice.
_SKIPPED, _ABSORBED, _SUCCESS, _STARTED, _COMPLETED = 0, 1, 2, 3, 4

# The events of a step, in order, indexed by its code; code 4 (completed
# alone) is never returned and emits none.  The one reading of the codes.
_K = SliceEventKind
_STEP_EVENTS = (
    (_K.SKIPPED,),
    (_K.ABSORBED,),
    (_K.SUCCESS,),
    (_K.STARTED, _K.SUCCESS),
    (),
    (_K.ABSORBED, _K.COMPLETED),
    (_K.SUCCESS, _K.COMPLETED),
    (_K.STARTED, _K.SUCCESS, _K.COMPLETED),
)
# The kinds whose event carries the updated row and its new sum.
_ROW_EVENTS = frozenset({_K.ABSORBED, _K.SUCCESS})


def _push(
    state: SliceState, m: SystemMatrix, params: Params, strict: bool
) -> tuple[int, float, Slice | None]:
    """:func:`push` as :func:`_absorb` reports it, with code ``_SKIPPED``
    and a NaN row sum for an identity step."""
    if m.n != state.n:
        raise AssumptionViolated(
            f"matrix is {m.n}x{m.n} but the engine tracks {state.n} rows"
        )
    identity, p_sum, fails = _screen(m, params)
    if identity:
        return _SKIPPED, float("nan"), None
    if fails and strict:
        raise AssumptionViolated(f"update failed validation: {'; '.join(fails)}")
    return _absorb(state, m.updated_row, m.p_row, p_sum, params)


def _absorb(
    state: SliceState, i: int, p_row: np.ndarray, p_sum: float, params: Params
) -> tuple[int, float, Slice | None]:
    """Hold the non-identity update of sensor row ``i`` to ``p_row``, of row
    sum ``p_sum``, in the window, as :func:`push` does once the row is
    screened, and return the step's code, row ``i``'s new sum and the slice
    it completed, if any.  Only row ``i`` of the running product moves, in
    place, so only that row's sum and informed status are recomputed.  A
    completed slice takes the product array itself, since the next window
    starts on a fresh one."""
    this_k = state.next_k
    state.next_k += 1
    if state.start_k is None:
        state.start_k = this_k

    j = state.j
    j[i] = row = p_row.dot(j)
    row_sum = float(row.sum())

    # Direct sub-stochastic updates stamp g for their row, successes stamp h.
    if p_sum < 1.0 - params.tol:
        state.g[i] = state.k_local

    informed_now = row_sum < 1.0 - params.tol
    if informed_now and i not in state.informed:
        code = _SUCCESS if state.h else _STARTED
        state.h.setdefault(i, state.k_local)
        state.informed.add(i)
    else:
        if not informed_now:
            state.informed.discard(i)
        code = _ABSORBED

    if len(state.informed) < state.n:
        return code, row_sum, None
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
    return code | _COMPLETED, row_sum, finished


def _events(
    ks: Iterable, codes: Iterable[int], rows: Iterable, sums: Iterable[float],
    slices: Iterable[Slice | None],
) -> list[SliceEvent]:
    """The events of steps ``ks`` from their codes, engine rows and row
    sums, in step order, each code's kinds as ``_STEP_EVENTS`` lists them;
    ``slices`` holds the slices they completed, in order.  Every
    :class:`SliceEvent` is built here."""
    done = iter(slices)
    events = []
    for k, code, i, row_sum in zip(ks, codes, rows, sums):
        for kind in _STEP_EVENTS[code]:
            if kind in _ROW_EVENTS:
                events.append(SliceEvent(kind, k=k, row=i, row_sum_after=row_sum))
            elif kind is _K.COMPLETED:
                events.append(SliceEvent(kind, k=k, slice=next(done)))
            else:
                events.append(SliceEvent(kind, k=k))
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
    state: SliceState, rows: np.ndarray, p_rows: np.ndarray, b_rows: np.ndarray,
    codes: np.ndarray, sums: np.ndarray, params: Params, strict: bool = True,
) -> Iterator[tuple[int, Slice | None]]:
    """Feed a block of steps to the engine as :func:`push` would, writing
    step ``t``'s code into ``codes[t]`` and its row sum into ``sums[t]``
    and yielding ``(t, finished)`` as it runs, ``finished`` the slice it
    completed or None.  Step ``t`` sets sensor row ``rows[t]`` to
    ``p_rows[t]`` and anchor row to ``b_rows[t]``; row -1 is an identity,
    which the engine skips, so it yields nothing and its code is left as the
    caller's, ``_SKIPPED``.  One screen
    (:func:`~slicekit.matrix_core._screen_block`) of the other rows sends
    each clear one to :func:`_absorb` and the rest to :func:`push`'s
    :func:`_push` (a unit row among them is skipped), one step per draw, so
    a caller that stops drawing leaves the later steps unfed."""
    at = np.flatnonzero(rows >= 0)
    clear, p_sums = _screen_block(p_rows[at], b_rows[at], rows[at], params)
    n, s = state.n, b_rows.shape[1]
    for t, i, ok, p_sum in zip(at.tolist(), rows[at].tolist(), clear.tolist(), p_sums.tolist()):
        if ok:
            codes[t], sums[t], finished = _absorb(state, i, p_rows[t], p_sum, params)
        else:
            m = SystemMatrix._trusted(n, s, i, p_rows[t], b_rows[t])
            codes[t], sums[t], finished = _push(state, m, params, strict)
        yield t, finished
