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
would; the draw order (form, row, support size, support, then the
sub-stochastic mass before the weights) is fixed, and changing it changes
every sequence.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

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
    through to the sub-stochastic form.
    """
    if not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(rng)
    masses = np.array([p_stochastic, p_substochastic, p_identity], dtype=float)
    if not np.all(np.isfinite(masses) & (masses >= 0)):
        raise ValueError(f"form weights must be finite and non-negative, got {masses.tolist()}")
    total = sum(masses.tolist())  # a Python sum overflows to inf without a warning
    if not 0 < total < math.inf:
        raise ValueError(f"form weights must have a positive, finite total, got {total}")
    probs = masses / total
    cdf = probs.cumsum()
    cdf /= cdf[-1]
    max_support = min(n, int(math.floor(1.0 / params.beta1)))
    identity = identity_step(n)
    no_anchors = np.zeros(0)
    out: list[SystemMatrix] = []
    for _ in range(horizon):
        form = int(cdf.searchsorted(rng.random(), side="right"))  # rng.choice(3, p=probs)
        if form == 0 and max_support < 2:
            form = 1
        if form == 2:
            out.append(identity)
            continue
        row = int(rng.integers(n))
        if form == 0:
            d = int(rng.integers(2, max_support + 1))
        else:
            d = int(rng.integers(1, n + 1))
        idx = rng.choice(n - 1, d - 1, replace=False)
        support = [row, *(idx + (idx >= row)).tolist()]
        p_row = np.zeros(n)
        if form == 0:
            p_row[support] = params.beta1 + (1.0 - d * params.beta1) * _flat_dirichlet(rng, d)
        else:
            mass = params.beta2 * rng.random()  # rng.uniform(0.0, 1.0): 0 + 1 * u
            p_row[support] = mass * _flat_dirichlet(rng, d)
        out.append(SystemMatrix._trusted(n, 0, row, p_row, no_anchors))
    return out


def _flat_dirichlet(rng: np.random.Generator, d: int) -> np.ndarray:
    """``rng.dirichlet(np.ones(d))``, bit for bit and with the same stream
    use: NumPy draws ``standard_gamma(1)``, which is the standard
    exponential, and divides by its left-to-right sum (``np.sum`` would sum
    pairwise from 8 terms on)."""
    e = rng.standard_exponential(d)
    acc = 0.0
    for v in e.tolist():
        acc += v
    return e * (1.0 / acc)


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
