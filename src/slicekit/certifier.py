"""Asymptotic-stability certificates from slice-length records.

A sequence of completed slices with lengths ``L_1, L_2, ...`` has product
norm at most ``prod_j (1 - alpha_j)`` with per-slice contraction margin
``alpha_j = beta1**(L_j - 1) * (1 - beta2)``.  The product vanishes, and the
system state dies out, whenever ``sum_j alpha_j`` diverges.  Three
certification routes are implemented:

* case i   - every slice length at most a constant N;
* case ii  - an infinite subfamily of slice lengths at most N1, with the
  rest finite (for a finite sample the caller must vouch that the subfamily
  is the visible part of an infinite one);
* case iii - slice lengths grow no faster than the cap
  ``ln((1 - exp(-gamma2 * i**-gamma1)) / (1 - beta2)) / ln(beta1) + 1``
  under some injective assignment of slices to positions i = 1..I, with
  gamma1 in [0, 1] and gamma2 > 0.  The cap is exactly calibrated so the
  assigned slice at position i contributes margin at least
  ``gamma2 * i**-gamma1``, a divergent series, so matching greedily
  (shortest slice to smallest cap) is optimal by an exchange argument.
  :func:`search_case3` tries each gamma1 of ``DEFAULT_GAMMA1_GRID`` at the
  rate floor ``gamma2 = MIN_GAMMA2``; a larger gamma2 only shrinks the caps.
  :func:`certify_case3` computes the caps in growing chunks and stops at
  the first chunk holding a slice longer than its own position's cap.

Cases i and ii are the gamma1 = 0 specializations of case iii.  All traces
are accumulated in log space so verdict-relevant signs survive slice
lengths whose margins underflow as floats.

Lengths, caps and subset indices are whole numbers within int64 (``3.0``
passes; a fraction, NaN, a string or a bool does not).  Every route works
on one int64 array of the lengths, with no per-slice Python object.
"""

from __future__ import annotations

import enum
import math
import numbers
from dataclasses import dataclass
from itertools import filterfalse
from typing import Iterable, Sequence

import numpy as np

from .bounds import log_slice_norm_gap, slice_norm_bound
from .errors import InvalidLength, InvalidSubset, MeaninglessBound
from .matrix_core import Params

__all__ = [
    "Verdict",
    "CertificateCase",
    "BoundTrace",
    "Certificate",
    "bound_trace",
    "certify_case1",
    "certify_case2",
    "case3_length_cap",
    "certify_case3",
    "search_case3",
    "DEFAULT_GAMMA1_GRID",
    "MIN_GAMMA2",
]

DEFAULT_GAMMA1_GRID: tuple[float, ...] = (0.0, 0.25, 0.5, 0.75, 1.0)
# The minimum guaranteed rate: case iii certifies only slack series
# ``gamma2 * i**-gamma1`` with gamma2 at least this floor.
MIN_GAMMA2 = 1e-3


class Verdict(enum.Enum):
    CERTIFIED = "certified"
    NOT_CERTIFIED = "not_certified"


class CertificateCase(enum.Enum):
    CASE_I = "case_i"
    CASE_II = "case_ii"
    CASE_III = "case_iii"


@dataclass(frozen=True, eq=False)
class BoundTrace:
    """Cumulative norm-bound trajectory over a slice-length sequence.

    ``products[t]`` is ``prod_{j<=t} (1 - alpha_j)`` and ``neg_log_sums[t]``
    the partial sum of ``-ln(1 - alpha_j)``, both computed in log space.
    """

    lengths: np.ndarray
    products: np.ndarray
    neg_log_sums: np.ndarray


def _whole(v: object) -> bool:
    """Whether ``v`` is an integer, not a bool, or an integral float."""
    if isinstance(v, float):
        return v.is_integer()
    return isinstance(v, numbers.Integral) and not isinstance(v, bool)


def _whole_array(values: Sequence, what: str, error: type[Exception]) -> np.ndarray:
    """``values`` as an int64 array, an int64 array itself as it is; a value
    that is not :func:`_whole` or lies beyond int64 raises ``error``."""
    if isinstance(values, np.ndarray) and values.dtype == np.int64:
        return values
    items = values.tolist() if isinstance(values, np.ndarray) else list(values)
    if not set(map(type, items)) <= {int}:  # checked one by one
        for v in filterfalse(_whole, items):
            raise error(f"{what} must be whole numbers, got {v!r}")
        items = list(map(int, items))
    try:
        return np.asarray(items, dtype=np.int64)
    except OverflowError as exc:
        raise error(f"{what} must fit in 64 bits: {exc}") from exc


def _length_array(lengths: Sequence[int]) -> np.ndarray:
    """``lengths`` read by :func:`_whole_array`; a length that is not a whole
    number from 1 to int64 max raises :class:`InvalidLength`."""
    arr = _whole_array(lengths, "slice lengths", InvalidLength)
    if arr.size and arr.min() < 1:
        raise InvalidLength(f"slice lengths must be >= 1, got min {arr.min()}")
    return arr


def _cap(cap: int) -> int:
    """``cap`` as an int; one that is not a whole number from 1 to int64 max
    raises :class:`InvalidLength`, as a length does."""
    if not _whole(cap):
        raise InvalidLength(f"cap must be a whole number, got {cap!r}")
    if not 1 <= cap <= np.iinfo(np.int64).max:
        raise InvalidLength(f"cap must be >= 1 and fit in 64 bits, got {cap}")
    return int(cap)


def bound_trace(lengths: Sequence[int], params: Params) -> BoundTrace:
    """Trace the certified contraction along ``lengths`` in the given order."""
    arr = _length_array(lengths)
    log_gaps = log_slice_norm_gap(arr, params)
    with np.errstate(divide="ignore"):
        neg_terms = -np.log1p(-np.exp(log_gaps))
    neg_log_sums = np.cumsum(neg_terms)
    products = np.exp(-neg_log_sums)
    return BoundTrace(lengths=arr, products=products, neg_log_sums=neg_log_sums)


@dataclass(frozen=True, eq=False)
class Certificate:
    """Outcome of a certification attempt over a finite slice sample."""

    verdict: Verdict
    case_used: CertificateCase | None
    witnesses: dict
    trace: BoundTrace | None
    horizon: int
    notes: tuple[str, ...] = ()

    @property
    def certified(self) -> bool:
        return self.verdict is Verdict.CERTIFIED


def _not_certified(horizon: int, notes: Iterable[str]) -> Certificate:
    return Certificate(Verdict.NOT_CERTIFIED, None, {}, None, horizon, tuple(notes))


def certify_case1(lengths: Sequence[int], n_cap: int, params: Params) -> Certificate:
    """Certify under a uniform slice-length cap.

    Certified iff every observed length is at most ``n_cap``; the witness is
    the uniform per-slice norm bound ``delta = 1 + beta1**(n_cap-1) *
    (beta2 - 1) < 1``.
    """
    arr = _length_array(lengths)
    n_cap = _cap(n_cap)
    if not arr.size:
        return _not_certified(0, ["no completed slices in the sample"])
    offenders = np.flatnonzero(arr > n_cap)
    if offenders.size:
        t = offenders[0]
        note = f"slice {t} has length {arr[t]} above the cap {n_cap}"
        return _not_certified(arr.size, [f"{note} ({offenders.size} offender(s) total)"])
    return Certificate(
        verdict=Verdict.CERTIFIED,
        case_used=CertificateCase.CASE_I,
        witnesses={
            "N": n_cap,
            "delta": slice_norm_bound(n_cap, params),
            # delta = 1 - exp(log_gap); kept in log space because the gap
            # underflows the direct float for large caps while still being
            # strictly positive mathematically.
            "log_gap": log_slice_norm_gap(n_cap, params),
        },
        trace=bound_trace(arr, params),
        horizon=arr.size,
    )


def certify_case2(
    lengths: Sequence[int],
    infinite_subset_cap: int,
    subset: Sequence[int],
    params: Params,
    subset_declared_infinite: bool = True,
) -> Certificate:
    """Certify from a capped subfamily of slices.

    ``subset`` indexes the slices claimed to belong to an infinite family
    whose lengths never exceed ``infinite_subset_cap``; the remaining slices
    need only be finite.  A finite sample cannot itself prove the family is
    infinite, so the caller must keep ``subset_declared_infinite`` true (the
    certificate records this proviso) or the verdict is not certified.
    """
    arr = _length_array(lengths)
    horizon = arr.size
    cap = _cap(infinite_subset_cap)
    idx = _whole_array(subset, "subset indices", InvalidSubset)
    if np.unique(idx).size != idx.size:
        raise InvalidSubset("subset contains duplicate indices")
    if not horizon:
        return _not_certified(0, ["no completed slices in the sample"])
    bad = idx[(idx < 0) | (idx >= horizon)]
    if bad.size:
        raise InvalidSubset(f"subset indices out of range: {bad.tolist()}")
    if not idx.size:
        return _not_certified(horizon, ["empty subset: no infinite bounded family to certify from"])
    if not subset_declared_infinite:
        return _not_certified(
            horizon,
            ["subset not declared part of an infinite family; a finite "
             "sample cannot establish that on its own"],
        )
    offenders = idx[arr[idx] > cap]  # in subset order
    if offenders.size:
        t = offenders[0]
        return _not_certified(horizon, [f"subset slice {t} has length {arr[t]} above the cap {cap}"])
    return Certificate(
        verdict=Verdict.CERTIFIED,
        case_used=CertificateCase.CASE_II,
        witnesses={
            "N1": cap,
            "delta1": slice_norm_bound(cap, params),
            "log_gap1": log_slice_norm_gap(cap, params),
            "subset": tuple(idx.tolist()),
        },
        trace=bound_trace(arr[idx], params),
        horizon=horizon,
        notes=(
            "subset declared unbounded-by-construction by the caller; the "
            "verdict is conditional on that declaration",
        ),
    )


def case3_length_cap(i: int, gamma1: float, gamma2: float, params: Params) -> float:
    """Length cap at position i for the slack rate ``gamma2 * i**-gamma1``.

    Defined only while ``beta2 < exp(-gamma2 * i**-gamma1)``, i.e. while the
    requested margin stays below what a single anchor contact can deliver;
    raises :class:`MeaninglessBound` otherwise.  Nondecreasing in i, and
    constant at gamma1 = 0.
    """
    return _case3_caps((i,), gamma1, gamma2, params)[0]


def _case3_caps(
    positions: Sequence[int], gamma1: float, gamma2: float, params: Params
) -> list[float]:
    """:func:`case3_length_cap` at each of ``positions``, bit for bit, with
    the arguments checked and the constant logs taken once; raises at the
    first position whose cap is undefined.  ``positions`` ascend, so only
    the first is checked against 1."""
    if positions and positions[0] < 1:
        raise InvalidSubset(f"position index must be >= 1, got {positions[0]}")
    if not 0.0 <= gamma1 <= 1.0:
        raise ValueError(f"gamma1 must lie in [0, 1], got {gamma1}")
    if gamma2 <= 0.0:
        raise ValueError(f"gamma2 must be positive, got {gamma2}")
    exponent = -gamma1
    anchor_room = 1.0 - params.beta2
    log_anchor_room = math.log1p(-params.beta2)
    log_beta1 = math.log(params.beta1)
    caps = []
    for i in positions:
        x = gamma2 * float(i) ** exponent
        budget = -math.expm1(-x)  # 1 - exp(-x), accurate for small x
        if budget >= anchor_room:
            raise MeaninglessBound(
                f"requested margin 1-exp(-{x!r}) = {budget!r} is not below "
                f"1 - beta2 = {anchor_room!r}"
            )
        caps.append((math.log(budget) - log_anchor_room) / log_beta1 + 1.0)
    return caps


# Caps are computed through logs, so a cap that is mathematically an exact
# integer can come back a few ulps short; feasibility comparisons allow this
# much slack.  The length generator uses the same constant so generated
# lengths always certify.
CAP_FEASIBILITY_TOL = 1e-9


def certify_case3(
    lengths: Sequence[int], gamma1: float, gamma2: float, params: Params
) -> Certificate:
    """Certify under the growing per-position length caps.

    Greedy matching: the caps are nondecreasing in position, so the slice of
    sorted rank t goes to position t + 1.  If any rank fails, no injective
    assignment exists (the k-th smallest cap cannot cover the k-th smallest
    length); if all ranks pass, the pairing itself is the witness
    assignment, and every witness length is within its own cap whatever
    the caps' order.  The caps come in chunks of positions 1-8, then up to
    8 times those done, and the scan stops at the first chunk holding a
    failing rank.

    The witness ``assignment`` is the columns ``(i, slice_index, length,
    cap)``, three int64 arrays and one float64, a row per slice.
    """
    arr = _length_array(lengths)
    horizon = arr.size
    if horizon == 0:
        return _not_certified(0, ["no completed slices in the sample"])
    sorted_lengths = np.sort(arr)
    caps = np.empty(horizon)
    done = 0
    while done < horizon:
        stop = min(max(8, 8 * done), horizon)
        caps[done:stop] = _case3_caps(range(done + 1, stop + 1), gamma1, gamma2, params)
        failures = np.flatnonzero(sorted_lengths[done:stop] > caps[done:stop] + CAP_FEASIBILITY_TOL)
        if failures.size:
            t = done + int(failures[0])
            note = f"rank {t}: length {sorted_lengths[t]} exceeds the cap {float(caps[t])!r}"
            return _not_certified(horizon, [f"{note} at position i={t + 1}"])
        done = stop
    by_length = np.argsort(arr, kind="stable")
    return Certificate(
        verdict=Verdict.CERTIFIED,
        case_used=CertificateCase.CASE_III,
        witnesses={
            "gamma1": float(gamma1),
            "gamma2": float(gamma2),
            "assignment": (np.arange(1, horizon + 1), by_length, sorted_lengths, caps),
        },
        trace=bound_trace(sorted_lengths, params),
        horizon=horizon,
    )


def search_case3(lengths: Sequence[int], params: Params) -> Certificate:
    """Return the first gamma1 of the grid that certifies at the rate floor
    ``MIN_GAMMA2``, skipping any whose caps are undefined; not certified
    when none does.

    Each gamma1 goes to :func:`certify_case3`, which stops at the first
    chunk of caps holding a failing rank, so verdicts and certificates come
    from the exact scalar caps alone.
    """
    lengths = _length_array(lengths)
    for g1 in DEFAULT_GAMMA1_GRID:
        try:
            cert = certify_case3(lengths, g1, MIN_GAMMA2, params)
        except MeaninglessBound:
            continue
        if cert.certified:
            return cert
    return _not_certified(
        lengths.size,
        [f"no gamma1 in the grid {DEFAULT_GAMMA1_GRID} certifies at the "
         f"rate floor gamma2 = {MIN_GAMMA2}"],
    )
