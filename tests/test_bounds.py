"""Closed-form row and slice norm bounds."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slicekit import (
    InvalidIndex,
    InvalidLength,
    Params,
    log_slice_norm_gap,
    row_bound,
    slice_norm_bound,
    slice_norm_gap,
)

PARAMS = Params(beta1=0.05, beta2=0.7)

params_strategy = st.builds(
    Params,
    beta1=st.floats(0.01, 0.5),
    beta2=st.floats(0.1, 0.95),
)


class TestRowBound:
    def test_oracle_without_direct_update(self):
        # [DERIVED] 1 + 0.05 * (0.7 - 1) = 0.985
        assert row_bound(2, PARAMS, h=2, beta4=0.7) == pytest.approx(0.985)

    def test_oracle_with_direct_update(self):
        # [DERIVED] 1 + 0.05**4 * (0.7 - 1) = 0.999998125
        assert row_bound(5, PARAMS, g=1) == pytest.approx(0.999998125, abs=1e-15)

    def test_late_update_gives_smaller_bound(self):
        early = row_bound(5, PARAMS, g=1)
        late = row_bound(5, PARAMS, g=5)
        assert late < early
        assert late == pytest.approx(PARAMS.beta2)

    @pytest.mark.parametrize(
        "kwargs",
        [
            pytest.param({"h": 1, "beta4": 0.5}, id="h-below-two"),
            pytest.param({"h": 4, "beta4": 0.5}, id="h-above-length"),
            pytest.param({"beta4": 0.5}, id="h-missing"),
            pytest.param({"h": 2, "beta4": 1.0}, id="beta4-one"),
            pytest.param({"h": 2, "beta4": -0.1}, id="beta4-negative"),
            pytest.param({"h": 2}, id="beta4-missing"),
            pytest.param({"g": 0}, id="g-zero"),
            pytest.param({"g": 4}, id="g-above-length"),
        ],
    )
    def test_invalid_index(self, kwargs):
        with pytest.raises(InvalidIndex):
            row_bound(3, PARAMS, **kwargs)

    def test_rejects_nonpositive_length(self):
        with pytest.raises(InvalidLength):
            row_bound(0, PARAMS, g=1)

    def test_dispatch_on_direct_update(self):
        # with g given, h and beta4 are ignored, even when out of range
        assert row_bound(4, PARAMS, h=2, g=3, beta4=0.5) == row_bound(
            4, PARAMS, g=3
        )
        assert row_bound(4, PARAMS, h=9, g=3, beta4=1.5) == row_bound(
            4, PARAMS, g=3
        )
        assert row_bound(4, PARAMS, h=2, beta4=0.5) == 1.0 + PARAMS.beta1**3 * (
            0.5 - 1.0
        )

    @given(
        params=params_strategy,
        slice_len=st.integers(2, 40),
        data=st.data(),
    )
    @settings(max_examples=200, deadline=None)
    def test_row_bounds_never_exceed_slice_bound(self, params, slice_len, data):
        """Any admissible per-row statistic yields a row bound at most the
        slice-level bound, provided the running product obeyed the row-sum
        cap (beta4 <= beta2) at the success index."""
        if data.draw(st.booleans()):
            bound = row_bound(
                slice_len, params, g=data.draw(st.integers(1, slice_len))
            )
        else:
            bound = row_bound(
                slice_len,
                params,
                h=data.draw(st.integers(2, slice_len)),
                beta4=data.draw(st.floats(0.0, params.beta2)),
            )
        assert bound <= slice_norm_bound(slice_len, params) + 1e-12

    @given(params=params_strategy, slice_len=st.integers(1, 200))
    @settings(max_examples=200, deadline=None)
    def test_earliest_rows_meet_slice_bound_exactly(self, params, slice_len):
        """A row updated directly at index 1, or informed at index 2 from a
        row capped at beta2, attains the slice bound bit for bit, because
        ``beta2 - 1`` is exactly ``-(1 - beta2)``."""
        expected = slice_norm_bound(slice_len, params)
        assert row_bound(slice_len, params, g=1) == expected
        if slice_len >= 2:
            assert row_bound(slice_len, params, h=2, beta4=params.beta2) == expected


class TestSliceNormBound:
    def test_oracle(self):
        # [DERIVED] 1 - 0.05**4 * 0.3 = 0.999998125
        assert slice_norm_bound(5, PARAMS) == pytest.approx(0.999998125, abs=1e-15)

    def test_length_one_equals_beta2(self):
        assert slice_norm_bound(1, PARAMS) == pytest.approx(PARAMS.beta2)

    def test_rejects_nonpositive_length(self):
        with pytest.raises(InvalidLength):
            slice_norm_bound(0, PARAMS)

    @given(params=params_strategy, length=st.integers(1, 200))
    @settings(max_examples=200, deadline=None)
    def test_bound_stays_inside_unit_interval(self, params, length):
        value = slice_norm_bound(length, params)
        assert 0.0 < value
        assert value < 1.0 or log_slice_norm_gap(length, params) < 0.0

    @given(params=params_strategy, length=st.integers(1, 100))
    @settings(max_examples=200, deadline=None)
    def test_bound_is_nondecreasing_in_length(self, params, length):
        assert slice_norm_bound(length, params) <= slice_norm_bound(
            length + 1, params
        )

    @given(params=params_strategy, length=st.integers(1, 50))
    @settings(max_examples=200, deadline=None)
    def test_gap_and_log_gap_agree(self, params, length):
        gap = slice_norm_gap(length, params)
        assert math.exp(log_slice_norm_gap(length, params)) == pytest.approx(
            gap, rel=1e-12
        )

    @pytest.mark.parametrize("bad", [0, -1, np.int64(0)], ids=["zero", "minus-one", "int64-zero"])
    @pytest.mark.parametrize(
        "call",
        [
            lambda L: slice_norm_bound(L, PARAMS),
            lambda L: slice_norm_gap(L, PARAMS),
            lambda L: log_slice_norm_gap(L, PARAMS),
            lambda L: row_bound(L, PARAMS, g=1),
        ],
        ids=["bound", "gap", "log-gap", "row-bound"],
    )
    def test_scalar_length_below_one_is_refused(self, call, bad):
        with pytest.raises(InvalidLength, match=f"^slice length must be at least 1, got {int(bad)}$"):
            call(bad)

    def test_log_gap_survives_underflow(self):
        length = 500
        assert slice_norm_gap(length, PARAMS) == 0.0
        log_gap = log_slice_norm_gap(length, PARAMS)
        assert math.isfinite(log_gap)
        assert log_gap < 0.0


class TestLogGapArray:
    @given(
        params=params_strategy,
        lengths=st.lists(st.integers(1, 2**62), max_size=30),
    )
    @settings(max_examples=200, deadline=None)
    def test_equals_the_scalar_call_on_each_entry(self, params, lengths):
        gaps = log_slice_norm_gap(np.array(lengths, dtype=np.int64), params)
        assert gaps.tolist() == [log_slice_norm_gap(L, params) for L in lengths]

    def test_empty_array(self):
        assert log_slice_norm_gap(np.array([], dtype=np.int64), PARAMS).shape == (0,)

    @pytest.mark.parametrize("bad", [[0], [3, -2, 5]])
    def test_rejects_nonpositive_entry(self, bad):
        with pytest.raises(InvalidLength, match="at least 1"):
            log_slice_norm_gap(np.array(bad), PARAMS)
