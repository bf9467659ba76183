"""Core types and operations for row-(sub)stochastic update matrices.

The systems handled here evolve as ``x(k+1) = P_k x(k) + B_k u(k)`` where
``P_k`` is a non-negative n-by-n matrix over the mobile sensors and ``B_k``
a non-negative n-by-s block over the fixed anchors.  At most one row of
``P_k`` differs from the identity at any step: the row of the single sensor
that fuses its neighborhood that step, so :class:`SystemMatrix` stores
only that row.  Rows come in three kinds:

* stochastic: the sensor fused only sensor values, the row sums to one;
* sub-stochastic: part of the mass went to anchors (or was withheld), the
  sensor row sums to strictly less than one;
* identity: the sensor kept its value.

``Params`` collects the network-wide constants: ``beta1`` the floor on any
neighbor weight in an anchor-free fusion, ``beta2`` the cap on the sensor
row sum whenever anchor mass is present, ``alpha`` the floor on each anchor
weight actually used, and ``tol`` the classification tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .errors import AssumptionViolated, DimensionMismatch, NegativeEntry

__all__ = [
    "Params",
    "SystemMatrix",
    "identity_step",
    "row_update",
    "validate_update",
    "inf_norm",
    "spectral_radius",
]


@dataclass(frozen=True)
class Params:
    """Network-wide weight constants and the numeric tolerance.

    beta1: floor on every (nonzero) weight of an anchor-free fusion row,
        self-weight included; in (0, 1).
    beta2: cap on the sensor-row sum whenever anchor weight is used; in
        [0, 1).  beta2 = 0 models a full anchor takeover.
    alpha: floor on each anchor weight actually used; in (0, 1].
    tol: absolute tolerance for row classification and validation.
    """

    beta1: float
    beta2: float
    alpha: float = 0.1
    tol: float = 1e-12

    def __post_init__(self) -> None:
        if not 0.0 < self.beta1 < 1.0:
            raise ValueError(f"beta1 must lie in (0, 1), got {self.beta1}")
        if not 0.0 <= self.beta2 < 1.0:
            raise ValueError(f"beta2 must lie in [0, 1), got {self.beta2}")
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError(f"alpha must lie in (0, 1], got {self.alpha}")
        if not (math.isfinite(self.tol) and self.tol >= 0.0):
            raise ValueError(f"tol must be finite and non-negative, got {self.tol}")


def _as_matrix(a: np.ndarray | Sequence, name: str = "matrix") -> np.ndarray:
    out = np.asarray(a, dtype=float)
    if out.ndim < 2:
        raise DimensionMismatch(f"{name} must have 2 or more dimensions, got shape {out.shape}")
    return out


@dataclass(frozen=True, eq=False)
class SystemMatrix:
    """One update step on n sensors and s anchors: the identity, except
    that row ``updated_row`` of the sensor block is ``p_row`` (length n) and
    the same row of the anchor block is ``b_row`` (length s).

    ``updated_row`` is None for identity steps, which carry no row.  The
    anchor block is carried even in pure product studies (s = 0 there) so
    one type serves both analyses.  The constructor copies both rows and
    rejects a wrong shape or a row holding NaN or infinity; rows the
    library builds itself come through :meth:`_trusted` instead.
    Instances are treated as immutable; the arrays must not be mutated
    after construction.
    """

    n: int
    s: int = 0
    updated_row: int | None = None
    p_row: np.ndarray | None = None
    b_row: np.ndarray | None = None

    def __post_init__(self) -> None:
        i = self.updated_row
        if i is None:
            return
        if not 0 <= i < self.n:
            raise DimensionMismatch(f"updated_row {i} outside range(0, {self.n})")
        object.__setattr__(self, "updated_row", int(i))
        for name, size in (("p_row", self.n), ("b_row", self.s)):
            row = np.array(getattr(self, name), dtype=float)
            if row.shape != (size,):
                raise DimensionMismatch(
                    f"{name} must have shape ({size},), got {row.shape}"
                )
            if not np.all(np.isfinite(row)):
                raise AssumptionViolated(f"{name} holds a non-finite entry: {row}")
            object.__setattr__(self, name, row)

    @classmethod
    def _trusted(
        cls, n: int, s: int, updated_row: int, p_row: np.ndarray, b_row: np.ndarray
    ) -> SystemMatrix:
        """The update of row ``updated_row`` to the float rows ``p_row`` and
        ``b_row``, taken as given: no copy and no shape or finiteness check,
        for rows the library has just built from finite values.  Strict
        :func:`~slicekit.slice_engine.push` still refuses a row of the wrong
        shape or with a non-finite entry."""
        m = object.__new__(cls)
        vars(m).update(n=n, s=s, updated_row=updated_row, p_row=p_row, b_row=b_row)
        return m

    @cached_property
    def p(self) -> np.ndarray:
        """The dense n x n sensor block, built on first use."""
        p = np.eye(self.n)
        if self.updated_row is not None:
            p[self.updated_row] = self.p_row
        return p

    def is_identity(self, tol: float = 1e-12) -> bool:
        """True when the step leaves the state untouched."""
        i = self.updated_row
        return i is None or _unit_row(self.p_row.tolist(), self.b_row.tolist(), i, tol)


def identity_step(n: int, s: int = 0) -> SystemMatrix:
    """The do-nothing update on n sensors and s anchors."""
    return SystemMatrix(n, s)


def row_update(
    n: int,
    row: int,
    p_row: Sequence[float] | np.ndarray,
    b_row: Sequence[float] | np.ndarray | None = None,
    s: int | None = None,
) -> SystemMatrix:
    """Build the update that replaces one row and leaves the rest identity.

    Without ``b_row`` the anchor row is zero over ``s`` anchors (default 0);
    with it, ``s`` defaults to its length."""
    if b_row is None:
        b_row = np.zeros(0 if s is None else s)
    return SystemMatrix(n, len(b_row) if s is None else s, row, p_row, b_row)


def _unit_row(p: list[float], b: list[float], i: int, tol: float) -> bool:
    """Whether sensor row ``p`` is row ``i`` of the identity and anchor row
    ``b`` zero, within ``tol``; written so that NaN is never within it."""
    if not abs(p[i] - 1.0) <= tol:
        return False
    return all(abs(v) <= tol for j, v in enumerate(p) if j != i) and all(
        abs(v) <= tol for v in b
    )


def validate_update(m: SystemMatrix, params: Params) -> tuple[str, ...]:
    """The admissibility rules one update fails; empty means admissible.
    Only the updated row is examined: every other row is the identity's by
    construction.

    Every row must be non-negative and total at most one.  A row whose
    sensor part sums to one (within ``tol``) is an anchor-free fusion: it
    carries no anchor weight, keeps a self-weight, and every nonzero weight
    lies in [beta1, 1).  Any other non-identity row keeps its sensor sum at
    or below beta2 and every used anchor weight at or above alpha.  A row
    of the wrong shape, or holding NaN or infinity, fails on that alone.
    """
    return _screen(m, params)[2]


def _screen(m: SystemMatrix, params: Params) -> tuple[bool, float, tuple[str, ...]]:
    """Whether ``m`` is an identity step, its sensor row sum (0 without a
    row, NaN for a row refused on its shape or a non-finite entry), and the
    rules it fails (see :func:`validate_update`), from one look at the row.
    The per-entry rules run on Python floats; the two row sums stay NumPy
    sums, which add pairwise from 8 terms on."""
    i = m.updated_row
    if i is None:
        return True, 0.0, ()
    p_row, b_row = m.p_row, m.b_row
    if not 0 <= i < m.n or p_row.shape != (m.n,) or b_row.shape != (m.s,):
        return False, math.nan, (
            f"row {i} of shapes {p_row.shape} and {b_row.shape} does not fit "
            f"{m.n} sensors and {m.s} anchors",
        )
    p, b = p_row.tolist(), b_row.tolist()
    # Python sums, unlike NumPy's, add inf and -inf without a warning.
    if not math.isfinite(sum(p) + sum(b)) and not all(map(math.isfinite, p + b)):
        return False, math.nan, (f"row {i} holds a non-finite entry",)
    p_sum = float(p_row.sum())
    total = p_sum + float(b_row.sum())
    tol = params.tol
    fails: list[str] = []
    if min(p) < -tol or min(b, default=0.0) < -tol:
        fails.append("negative entry")
    if total > 1.0 + tol:
        fails.append(f"row {i} sums to {total!r} > 1 + tol")
    if _unit_row(p, b, i, tol):
        return True, p_sum, tuple(fails)

    if p_sum >= 1.0 - tol:
        if max(b, default=0.0) > tol:
            fails.append(
                "anchor weight present on a row whose sensor part sums to 1"
            )
        if abs(p_sum - 1.0) > tol:
            fails.append(f"sensor row sum {p_sum!r} != 1")
        if p[i] <= tol:
            fails.append("self-weight is zero")
        for j, w in enumerate(p):
            if w > tol:
                if w < params.beta1 - tol:
                    fails.append(f"weight {w!r} at column {j} below beta1={params.beta1}")
                if w >= 1.0 - tol:
                    fails.append(f"weight {w!r} at column {j} reaches 1")
    else:
        if p_sum > params.beta2 + tol:
            fails.append(f"sensor row sum {p_sum!r} exceeds beta2={params.beta2}")
        for j, w in enumerate(b):
            if tol < w < params.alpha - tol:
                fails.append(
                    f"anchor weight {w!r} at column {j} below alpha={params.alpha}"
                )
    return False, p_sum, tuple(fails)


def _screen_block(
    p_rows: np.ndarray, b_rows: np.ndarray, rows: np.ndarray, params: Params
) -> tuple[np.ndarray, np.ndarray]:
    """:func:`_screen` for a block of updates in one NumPy pass: row ``t``
    updates sensor ``rows[t]`` to ``p_rows[t]`` and its anchor row to
    ``b_rows[t]``.  Returns whether each row is clear, that is not a unit
    row and failing no rule, and each row's sensor sum.

    The rules are :func:`_screen`'s on the same floats, written as tests a
    row passes, so NaN and infinity fail them; a row that is not clear
    needs :func:`_screen` for its verdict and its message.  ``p_sum`` is
    ``p_rows.sum(axis=1)``, equal bit for bit to each row's own sum."""
    tol = params.tol
    at = np.arange(len(rows))
    with np.errstate(over="ignore", invalid="ignore"):
        p_sum = p_rows.sum(axis=1)
        total = p_sum + b_rows.sum(axis=1)
    own = p_rows[at, rows]
    dev = np.abs(p_rows)
    dev[at, rows] = np.abs(own - 1.0)
    b_small = (np.abs(b_rows) <= tol).all(axis=1)
    unit = (dev <= tol).all(axis=1) & b_small
    admissible = (
        (p_rows >= -tol).all(axis=1) & (b_rows >= -tol).all(axis=1) & (total <= 1.0 + tol)
    )
    # An anchor-free fusion: each weight is at most tol or in [beta1, 1).
    weights = (p_rows <= tol) | ((p_rows >= params.beta1 - tol) & (p_rows < 1.0 - tol))
    fusion = b_small & (np.abs(p_sum - 1.0) <= tol) & (own > tol) & weights.all(axis=1)
    # Anchored: each used anchor weight at least alpha.
    anchors = (b_rows <= tol) | (b_rows >= params.alpha - tol)
    anchored = (p_sum <= params.beta2 + tol) & anchors.all(axis=1)
    clear = admissible & ~unit & np.where(p_sum >= 1.0 - tol, fusion, anchored)
    return clear, p_sum


def inf_norm(a: np.ndarray) -> float | np.ndarray:
    """Maximum absolute row sum (0 without entries), per matrix of a stack ``(..., n, m)``."""
    a = _as_matrix(a, "a")
    norms = np.abs(a).sum(axis=-1).max(axis=-1, initial=0.0)
    return float(norms) if a.ndim == 2 else norms


def spectral_radius(a: np.ndarray) -> float | np.ndarray:
    """Largest eigenvalue magnitude of a non-negative matrix, clamped into
    [0, inf_norm(a)]; per matrix, by one eigensolve, of a stack ``(..., n, n)``.

    Raises :class:`AssumptionViolated` when the matrix holds NaN or
    infinity and :class:`NegativeEntry` when an entry is negative.
    """
    a = _as_matrix(a, "a")
    if a.shape[-2] != a.shape[-1]:
        raise DimensionMismatch(f"spectral radius needs square matrices, got {a.shape}")
    if not np.all(np.isfinite(a)):
        raise AssumptionViolated("spectral_radius got a matrix with a non-finite entry")
    if np.any(a < 0):
        raise NegativeEntry("spectral_radius expects a non-negative matrix")
    radii = np.minimum(np.abs(np.linalg.eigvals(a)).max(axis=-1, initial=0.0), inf_norm(a))
    return float(radii) if a.ndim == 2 else radii
