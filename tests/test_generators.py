"""Random, adversarial, and schedule-driven sequence generators."""

from __future__ import annotations

import numpy as np
import pytest

from slicekit import (
    InfeasibleWeights,
    InvalidLength,
    Params,
    case3_length_cap,
    case3_lengths,
    inf_norm,
    random_product_sequence,
    run_sequence,
    slice_norm_bound,
    validate_update,
    worst_case_slice_sequence,
)

PARAMS = Params(beta1=0.05, beta2=0.7)


class TestRandomProductSequence:
    def test_every_matrix_validates(self):
        rng = np.random.default_rng(0)
        for m in random_product_sequence(5, PARAMS, 100, rng=rng):
            assert validate_update(m, PARAMS) == ()
            assert inf_norm(m.p) <= 1.0 + 1e-12

    def test_deterministic_for_a_seed(self):
        a = random_product_sequence(3, PARAMS, 30, rng=np.random.default_rng(9))
        b = random_product_sequence(3, PARAMS, 30, rng=np.random.default_rng(9))
        for ma, mb in zip(a, b):
            assert np.array_equal(ma.p, mb.p)
            assert ma.updated_row == mb.updated_row

    def test_identity_only(self):
        mats = random_product_sequence(
            3,
            PARAMS,
            20,
            rng=np.random.default_rng(0),
            p_stochastic=0.0,
            p_substochastic=0.0,
            p_identity=1.0,
        )
        assert all(m.is_identity() for m in mats)

    def test_stochastic_only(self):
        mats = random_product_sequence(
            3,
            PARAMS,
            20,
            rng=np.random.default_rng(0),
            p_stochastic=1.0,
            p_substochastic=0.0,
            p_identity=0.0,
        )
        for m in mats:
            assert not m.is_identity()
            assert m.p[m.updated_row].sum() == pytest.approx(1.0, abs=1e-12)

    def test_large_floor_falls_back_to_substochastic(self):
        # beta1 = 0.6 leaves no room for two weights of at least beta1
        params = Params(beta1=0.6, beta2=0.5)
        mats = random_product_sequence(
            3,
            params,
            20,
            rng=np.random.default_rng(0),
            p_stochastic=1.0,
            p_substochastic=0.0,
            p_identity=0.0,
        )
        for m in mats:
            assert m.p[m.updated_row].sum() < 1.0 - params.tol

    def test_single_sensor_draws_self_weight_rows(self):
        # n = 1: every non-identity row is the sensor's own sub-stochastic weight
        mats = random_product_sequence(1, PARAMS, 40, rng=np.random.default_rng(0))
        assert any(not m.is_identity() for m in mats)
        for m in mats:
            assert validate_update(m, PARAMS) == ()
            assert m.is_identity() or m.p[0, 0] <= PARAMS.beta2

    def test_form_weights_are_relative_masses(self):
        mats = random_product_sequence(
            3,
            PARAMS,
            20,
            rng=np.random.default_rng(2),
            p_stochastic=0.0,
            p_substochastic=0.0,
            p_identity=5.0,
        )
        assert all(m.is_identity() for m in mats)

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            random_product_sequence(3, PARAMS, 5, p_stochastic=-0.1)

    def test_zero_total_mass_rejected(self):
        with pytest.raises(ValueError):
            random_product_sequence(
                3, PARAMS, 5, p_stochastic=0.0, p_substochastic=0.0, p_identity=0.0
            )


class TestWorstCaseSequence:
    @pytest.mark.parametrize("n,length", [(2, 2), (2, 5), (3, 4), (4, 8)])
    def test_achieves_the_bound_exactly(self, n, length):
        params = Params(beta1=0.3, beta2=0.5)
        mats = worst_case_slice_sequence(n, length, params)
        slices, _, _ = run_sequence(mats, params)
        assert len(slices) == 1
        s = slices[0]
        assert s.length == length
        assert abs(s.norm - slice_norm_bound(length, params)) <= 1e-10

    def test_every_step_validates_strictly(self):
        params = Params(beta1=0.2, beta2=0.6)
        for m in worst_case_slice_sequence(3, 6, params):
            assert validate_update(m, params) == ()

    def test_rejects_length_below_n(self):
        with pytest.raises(InvalidLength):
            worst_case_slice_sequence(4, 3, Params(beta1=0.3, beta2=0.5))

    def test_rejects_large_beta1(self):
        with pytest.raises(InfeasibleWeights):
            worst_case_slice_sequence(2, 4, Params(beta1=0.7, beta2=0.5))


class TestCase3Lengths:
    def test_matches_cap_floors(self):
        params = Params(beta1=0.05, beta2=0.3)
        values = case3_lengths(5, 1.0, 1.0, params)
        for i, v in enumerate(values, start=1):
            cap = case3_length_cap(i, 1.0, 1.0, params)
            assert v <= cap + 1e-9
            assert v + 1 > cap

    def test_all_lengths_positive(self):
        params = Params(beta1=0.05, beta2=0.3)
        assert min(case3_lengths(1000, 1.0, 1.0, params)) >= 1

    def test_nondecreasing_schedule(self):
        params = Params(beta1=0.05, beta2=0.3)
        values = case3_lengths(300, 0.5, 0.8, params)
        assert all(b >= a for a, b in zip(values, values[1:]))
