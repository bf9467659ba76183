"""Random, adversarial, and schedule-driven sequence generators."""

from __future__ import annotations

import math

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
from slicekit.generators import _flat_dirichlet

PARAMS = Params(beta1=0.05, beta2=0.7)


def choice_dirichlet_sequence(n, params, horizon, rng, masses):
    """random_product_sequence's rows drawn with ``rng.choice`` and
    ``rng.dirichlet``, in the same order."""
    probs = np.array(masses, dtype=float) / sum(masses)
    max_support = min(n, int(math.floor(1.0 / params.beta1)))
    out = []
    for _ in range(horizon):
        form = rng.choice(3, p=probs)
        if form == 0 and max_support < 2:
            form = 1
        if form == 2:
            out.append((None, None))
            continue
        row = int(rng.integers(n))
        d = int(rng.integers(2, max_support + 1)) if form == 0 else int(rng.integers(1, n + 1))
        idx = rng.choice(n - 1, d - 1, replace=False)
        support = np.concatenate(([row], idx + (idx >= row)))
        p_row = np.zeros(n)
        if form == 0:
            weights = rng.dirichlet(np.ones(d))
            p_row[support] = params.beta1 + (1.0 - d * params.beta1) * weights
        else:
            mass = params.beta2 * float(rng.uniform(0.0, 1.0))
            p_row[support] = mass * rng.dirichlet(np.ones(d))
        out.append((row, p_row))
    return out


class TestExactDraws:
    @pytest.mark.parametrize(
        "masses", [(1.0, 1.0, 1.0), (0.0, 0.0, 1.0), (1.0, 0.0, 0.0), (1e-300, 1.0, 1.0)]
    )
    @pytest.mark.parametrize("n", [1, 2, 5, 64])
    def test_rows_match_choice_and_dirichlet(self, n, masses):
        for seed in range(3):
            rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            got = random_product_sequence(
                n, PARAMS, 120, rng=rng,
                p_stochastic=masses[0], p_substochastic=masses[1], p_identity=masses[2],
            )
            ref = choice_dirichlet_sequence(n, PARAMS, 120, ref_rng, masses)
            for m, (row, p_row) in zip(got, ref, strict=True):
                assert m.updated_row == row
                assert row is None or np.array_equal(m.p_row, p_row)
            # Both consumed the stream alike.
            assert rng.random() == ref_rng.random()

    @pytest.mark.parametrize("d", range(1, 65))
    def test_flat_dirichlet_matches_numpy(self, d):
        # From d = 8 on, np.sum's pairwise sum would differ from NumPy's
        # sequential one.
        for seed in range(5):
            rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            assert np.array_equal(_flat_dirichlet(rng, d), ref_rng.dirichlet(np.ones(d)))
            assert rng.random() == ref_rng.random()

    def test_output_is_pinned_at_one_seed(self):
        # Swapping two draws, such as the sub-stochastic mass and its
        # weights, changes these rows.
        got = [
            (m.updated_row, None if m.p_row is None else m.p_row.tolist())
            for m in random_product_sequence(3, PARAMS, 8, rng=np.random.default_rng(2024))
        ]
        assert got == [
            (None, None),
            (0, [0.8679284982195621, 0.0, 0.13207150178043792]),
            (2, [0.2509770717171272, 0.22907979500339454, 0.5199431332794784]),
            (0, [0.5271865376800203, 0.07662412679851448, 0.07912487386144154]),
            (1, [0.19521534862560402, 0.6163987271316813, 0.18838592424271478]),
            (None, None),
            (0, [0.14773549969295313, 0.852264500307047, 0.0]),
            (1, [0.5867957028492653, 0.2956437145841529, 0.11756058256658172]),
        ]


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
        # Refused before any draw, so even an empty sequence is refused.
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError, match="finite"):
                random_product_sequence(3, PARAMS, 0, p_identity=bad)

    def test_zero_total_mass_rejected(self):
        with pytest.raises(ValueError):
            random_product_sequence(
                3, PARAMS, 5, p_stochastic=0.0, p_substochastic=0.0, p_identity=0.0
            )

    def test_overflowing_total_mass_rejected(self):
        with pytest.raises(ValueError, match="finite total"):
            random_product_sequence(3, PARAMS, 0, p_stochastic=1e308, p_identity=1e308)


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
