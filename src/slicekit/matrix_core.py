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


@dataclass(frozen=True)
class SystemMatrix:
    """One update step on n sensors and s anchors: the identity, except
    that row ``updated_row`` of the sensor block is ``p_row`` (length n) and
    the same row of the anchor block is ``b_row`` (length s).

    ``updated_row`` is None for identity steps, which carry no row.  The
    anchor block is carried even in pure product studies (s = 0 there) so
    one type serves both analyses.  Rows holding NaN or infinity are
    rejected.  Instances are treated as immutable; the arrays must not be
    mutated after construction.
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

    @cached_property
    def p(self) -> np.ndarray:
        """The dense n x n sensor block, built on first use."""
        p = np.eye(self.n)
        if self.updated_row is not None:
            p[self.updated_row] = self.p_row
        return p

    @cached_property
    def b(self) -> np.ndarray:
        """The dense n x s anchor block, built on first use."""
        b = np.zeros((self.n, self.s))
        if self.updated_row is not None:
            b[self.updated_row] = self.b_row
        return b

    def is_identity(self, tol: float = 1e-12) -> bool:
        """True when the step leaves the state untouched."""
        i = self.updated_row
        if i is None:
            return True
        dev = np.abs(self.p_row)
        dev[i] = abs(self.p_row[i] - 1.0)
        return bool(dev.max() <= tol and np.all(np.abs(self.b_row) <= tol))

    def apply(self, a: np.ndarray, u: np.ndarray | None = None) -> np.ndarray:
        """``P a``, plus ``B u`` when ``u`` is given, for a vector or a
        stack of n rows ``a``.  Returns a new array; only the updated row
        is recomputed, since every other row of ``P`` is the identity's and
        of ``B`` zero."""
        out = np.array(a, dtype=float)
        if out.shape[:1] != (self.n,):
            raise DimensionMismatch(
                f"cannot apply a {self.n}-row update to shape {out.shape}"
            )
        i = self.updated_row
        if i is not None:
            row = self.p_row @ out
            out[i] = row if u is None else row + self.b_row @ u
        return out


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


def validate_update(m: SystemMatrix, params: Params) -> tuple[str, ...]:
    """The admissibility rules one update fails; empty means admissible.
    Only the updated row is examined: every other row is the identity's by
    construction.

    Every row must be non-negative and total at most one.  A row whose
    sensor part sums to one (within ``tol``) is an anchor-free fusion: it
    carries no anchor weight, keeps a self-weight, and every nonzero weight
    lies in [beta1, 1).  Any other non-identity row keeps its sensor sum at
    or below beta2 and every used anchor weight at or above alpha.
    """
    i = m.updated_row
    if i is None:
        return ()
    tol = params.tol
    p_row, b_row = m.p_row, m.b_row
    fails: list[str] = []
    if p_row.min() < -tol or b_row.min(initial=0.0) < -tol:
        fails.append("negative entry")
    p_sum = float(p_row.sum())
    total = p_sum + float(b_row.sum())
    if total > 1.0 + tol:
        fails.append(f"row {i} sums to {total!r} > 1 + tol")
    if m.is_identity(tol):
        return tuple(fails)

    if p_sum >= 1.0 - tol:
        if b_row.max(initial=0.0) > tol:
            fails.append(
                "anchor weight present on a row whose sensor part sums to 1"
            )
        if abs(p_sum - 1.0) > tol:
            fails.append(f"sensor row sum {p_sum!r} != 1")
        if p_row[i] <= tol:
            fails.append("self-weight is zero")
        for j in np.nonzero(p_row > tol)[0]:
            w = float(p_row[j])
            if w < params.beta1 - tol:
                fails.append(f"weight {w!r} at column {j} below beta1={params.beta1}")
            if w >= 1.0 - tol:
                fails.append(f"weight {w!r} at column {j} reaches 1")
    else:
        if p_sum > params.beta2 + tol:
            fails.append(f"sensor row sum {p_sum!r} exceeds beta2={params.beta2}")
        for j in np.nonzero(b_row > tol)[0]:
            w = float(b_row[j])
            if w < params.alpha - tol:
                fails.append(
                    f"anchor weight {w!r} at column {j} below alpha={params.alpha}"
                )
    return tuple(fails)


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
