"""Update-sequence generators for product studies and certification tests.

Three families:

* a seeded random protocol drawing, at each step with configurable
  probabilities, an identity step, a stochastic fusion row (Dirichlet
  weights rescaled onto [beta1, 1)), or a sub-stochastic row (Dirichlet
  weights scaled to a row sum drawn at or below beta2);
* the adversarial slice that meets the slice-norm bound with equality: open
  with a row sum of exactly beta2, then keep feeding the largest row sum
  forward with the minimum weight beta1 while exactly one row stays
  untouched until the final success;
* the slice-length schedule ``floor(cap(i))`` that tracks the case-iii
  growth caps as tightly as integers allow.

The random protocol's draws reproduce ``rng.choice(3, p=...)``,
``rng.uniform(0.0, 1.0)`` and ``rng.dirichlet(np.ones(d))`` bit for bit
without calling them, so a seed gives the same sequence as those calls
would.  The draw order (form, row, support size, support, the
sub-stochastic mass, then the weights' exponentials) is fixed, and
changing it changes every sequence.  A loop of only these draws fills a
block of steps, and NumPy then makes the block's weights in one pass.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from typing import Iterator

import numpy as np

from . import slice_engine
from .certifier import CAP_FEASIBILITY_TOL, _case3_caps
from .errors import InfeasibleWeights, InvalidLength
from .matrix_core import Params, SystemMatrix, identity_step, row_update

__all__ = [
    "random_product_sequence",
    "worst_case_slice_sequence",
    "case3_lengths",
]


def random_product_sequence(
    n: int,
    params: Params,
    horizon: int,
    rng: np.random.Generator | int | None = None,
    p_stochastic: float = 1.0 / 3.0,
    p_substochastic: float = 1.0 / 3.0,
    p_identity: float = 1.0 / 3.0,
) -> list[SystemMatrix]:
    """Draw a sequence of admissible single-row updates (anchor block zero).

    The three form weights are finite, non-negative relative masses with a
    positive, finite total, normalized to one (the ``random.choices``
    convention).  Stochastic rows pick a support of
    2..min(n, floor(1/beta1)) columns including the updated row itself, so
    every weight can sit in [beta1, 1); sub-stochastic rows pick any support
    including self and a row sum uniform on (0, beta2].  When n = 1 or
    beta1 > 1/2 no stochastic non-identity row exists and that mass falls
    through to the sub-stochastic form.  Collects :func:`_row_blocks`.
    """
    rng = np.random.default_rng(rng)  # a Generator is returned as it is
    cdf = _form_cdf(p_stochastic, p_substochastic, p_identity)
    identity, no_anchors = identity_step(n), np.zeros(0)
    return [
        identity if i < 0 else SystemMatrix._trusted(n, 0, i, p_row, no_anchors)
        for _, rows, p_rows in _row_blocks(n, params, horizon, rng, cdf)
        for i, p_row in zip(rows.tolist(), p_rows)
    ]


def _form_cdf(p_stochastic: float, p_substochastic: float, p_identity: float) -> list[float]:
    """The form CDF ``rng.choice(3, p=...)`` searches; ``ValueError`` for bad weights."""
    masses = np.array([p_stochastic, p_substochastic, p_identity], dtype=float)
    if not np.all(np.isfinite(masses) & (masses >= 0)):
        raise ValueError(f"form weights must be finite and non-negative, got {masses.tolist()}")
    total = sum(masses.tolist())  # a Python sum overflows to inf without a warning
    if not 0 < total < math.inf:
        raise ValueError(f"form weights must have a positive, finite total, got {total}")
    cdf = (masses / total).cumsum()
    cdf /= cdf[-1]
    return cdf.tolist()


def _row_blocks(
    n: int, params: Params, horizon: int, rng: np.random.Generator, cdf: list[float]
) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
    """The protocol's rows, a draw block of ``slice_engine.DRAW_BLOCK``
    steps at a time: step ``k0 + t`` of ``(k0, rows, p_rows)`` sets row
    ``rows[t]`` to ``p_rows[t]``, or is the identity where ``rows[t]`` is -1
    (and ``p_rows[t]`` zero).  A horizon of 0 yields one empty block."""
    beta1, beta2 = params.beta1, params.beta2
    max_support = min(n, int(math.floor(1.0 / beta1)))
    size = slice_engine.DRAW_BLOCK
    for k0 in range(0, max(horizon, 1), size):
        rows = [-1] * min(size, horizon - k0)
        picks, affine, draws = [], [], []
        for t in range(len(rows)):
            form = bisect_right(cdf, rng.random())  # rng.choice(3, p=probs)
            if form == 2:
                continue
            stochastic = form == 0 and max_support >= 2  # else sub-stochastic
            rows[t] = int(rng.integers(n))
            d = int(rng.integers(2, max_support + 1)) if stochastic else int(rng.integers(1, n + 1))
            picks.append(rng.choice(n - 1, d - 1, replace=False))
            # rng.uniform(0.0, 1.0) is 0 + 1 * u.
            affine.append((beta1, 1.0 - d * beta1) if stochastic else (0.0, beta2 * rng.random()))
            draws.append(rng.standard_exponential(d))
        rows, p_rows = np.array(rows, dtype=int), np.zeros((len(rows), n))
        if draws:
            at = np.flatnonzero(rows >= 0)
            w, held = _flat_dirichlet(draws)
            d = held.sum(axis=1)
            lift, scale = np.array(affine).T[:, :, None]
            weights = lift + scale * w
            # The updated row's own weight comes first; the picks skip it.
            pick = np.concatenate(picks)
            pick += pick >= np.repeat(rows[at], d - 1)
            p_rows[at, rows[at]] = weights[:, 0]
            p_rows[np.repeat(at, d - 1), pick] = weights[:, 1:][held[:, 1:]]
        yield k0, rows, p_rows


def _flat_dirichlet(draws: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """``rng.dirichlet(np.ones(d))`` from each array of ``d`` exponentials,
    bit for bit, as the rows of a zero-padded grid, and the grid's mask:
    NumPy divides by the left-to-right sum, a row-wise ``cumsum`` here."""
    d = np.array([len(e) for e in draws])
    held = np.arange(d.max()) < d[:, None]
    e = np.zeros(held.shape)
    e[held] = np.concatenate(draws)
    return e * (1.0 / e.cumsum(axis=1)[np.arange(len(d)), d - 1])[:, None], held


def worst_case_slice_sequence(
    n: int, length: int, params: Params
) -> list[SystemMatrix]:
    """One slice of exactly ``length`` matrices whose product norm equals
    the slice-norm bound.

    Requires ``2 <= n <= length``.  Structure: a sub-stochastic opener of
    row sum exactly beta2 at row 0; then ``length - n`` max-delay steps in
    which row 0 re-fuses itself with weight beta1 and dumps the rest onto
    the still-untouched row n-1; then a chain of successes at rows
    1, ..., n-1, each taking weight beta1 from the current largest row and
    1 - beta1 from itself.  The final success lands the largest row sum at
    ``1 - beta1**(length-1) * (1 - beta2)`` and completes the slice.
    """
    if n < 2:
        raise InvalidLength("the adversarial slice needs at least 2 rows")
    if length < n:
        raise InvalidLength(
            f"a slice over {n} rows needs at least {n} updates, got {length}"
        )
    if params.beta1 > 0.5:
        raise InfeasibleWeights(
            "the construction places weight 1 - beta1 >= beta1 and needs "
            "beta1 <= 1/2"
        )
    beta1 = params.beta1
    seq: list[SystemMatrix] = []
    opener = np.zeros(n)
    opener[0] = params.beta2
    seq.append(row_update(n, 0, opener))
    for _ in range(length - n):
        delay = np.zeros(n)
        delay[0] = beta1
        delay[n - 1] = 1.0 - beta1
        seq.append(row_update(n, 0, delay))
    for r in range(1, n):
        chain = np.zeros(n)
        chain[r - 1] = beta1
        chain[r] = 1.0 - beta1
        seq.append(row_update(n, r, chain))
    return seq


def case3_lengths(
    count: int, gamma1: float, gamma2: float, params: Params
) -> list[int]:
    """The integer schedule ``floor(cap(i))`` for i = 1..count; every entry
    is at least 1 because a defined cap always exceeds 1.  Floors share the
    certifier's boundary tolerance so the schedule always certifies."""
    caps = _case3_caps(range(1, count + 1), gamma1, gamma2, params)
    return [math.floor(cap + CAP_FEASIBILITY_TOL) for cap in caps]
