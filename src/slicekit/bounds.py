"""Closed-form row-sum and norm bounds for slice products.

Within one slice of length L built from admissible updates, the final sum
of a row is controlled by when the row first became sub-stochastic (its
success index ``h``, always at least 2 unless the row itself took a
sub-stochastic update) and by the last time it took a direct sub-stochastic
update (``g``), if ever:

* no direct sub-stochastic update:  ``1 + beta1**(L - h + 1) * (beta4 - 1)``
  where ``beta4`` is the largest sub-stochastic row sum of the product just
  before index ``h``;
* with one:                          ``1 + beta1**(L - g) * (beta2 - 1)``.

Both specialize the same shape ``1 + beta1**(L - l) * (beta - 1)`` and are
maximized over rows by the slice-norm bound ``1 - beta1**(L-1)*(1-beta2)``,
whose contraction margin ``beta1**(L-1)*(1-beta2)`` is also exposed in log
space so certification keeps exact signs at lengths where the power
underflows (around L = 700 at beta1 = 0.05).
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InvalidIndex, InvalidLength
from .matrix_core import Params

__all__ = [
    "row_bound",
    "slice_norm_bound",
    "slice_norm_gap",
    "log_slice_norm_gap",
]


def _check_len(slice_len: int | np.ndarray) -> None:
    if isinstance(slice_len, (int, np.integer)):
        shortest = slice_len
    else:
        shortest = np.min(slice_len, initial=1)
    if shortest < 1:
        raise InvalidLength(f"slice length must be at least 1, got {shortest}")


def row_bound(
    slice_len: int,
    params: Params,
    *,
    h: int | None = None,
    g: int | None = None,
    beta4: float | None = None,
) -> float:
    """Final row-sum bound ``1 + beta1**(L - l) * (beta - 1)`` for one row
    of a slice of length ``L = slice_len``.

    A row whose last direct sub-stochastic update sits at 1-based index
    ``g`` takes ``(l, beta) = (g, beta2)``, and ``h`` and ``beta4`` are then
    ignored. Any other row takes ``(l, beta) = (h - 1, beta4)``: ``h`` in
    ``2..L`` is its success index and ``beta4`` in ``[0, 1)`` the largest
    sub-stochastic row sum of the product just before ``h``.
    """
    _check_len(slice_len)
    if g is not None:
        if g < 1 or g > slice_len:
            raise InvalidIndex(
                f"update index g={g} invalid for slice length {slice_len}"
            )
        return 1.0 + params.beta1 ** (slice_len - g) * (params.beta2 - 1.0)
    if h is None or h < 2 or h > slice_len:
        raise InvalidIndex(
            f"success index h={h} invalid for slice length {slice_len}"
        )
    if beta4 is None or not 0.0 <= beta4 < 1.0:
        raise InvalidIndex(f"beta4={beta4} must lie in [0, 1)")
    return 1.0 + params.beta1 ** (slice_len - h + 1) * (beta4 - 1.0)


def slice_norm_bound(length: int, params: Params) -> float:
    """Infinity-norm bound ``1 - beta1**(length-1) * (1 - beta2)`` for the
    product of one completed slice."""
    _check_len(length)
    return 1.0 - _gap(length, params)


def slice_norm_gap(length: int, params: Params) -> float:
    """Contraction margin of one slice, ``beta1**(length-1) * (1-beta2)``.

    Strictly positive in exact arithmetic; may underflow to 0.0 as a float,
    in which case :func:`log_slice_norm_gap` still carries the sign.
    """
    _check_len(length)
    return _gap(length, params)


def _gap(length: int, params: Params) -> float:
    return params.beta1 ** (length - 1) * (1.0 - params.beta2)


def log_slice_norm_gap(length: int | np.ndarray, params: Params) -> float | np.ndarray:
    """Natural log of the contraction margin, finite at any length; per entry of an array."""
    _check_len(length)
    return (length - 1) * math.log(params.beta1) + math.log1p(-params.beta2)
