"""The single-row update type, row classification, validation, and norms."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slicekit import (
    AssumptionViolated,
    DimensionMismatch,
    Params,
    RowKind,
    SystemMatrix,
    identity_step,
    inf_norm,
    row_update,
    spectral_radius,
    validate_update,
)

PARAMS = Params(beta1=0.05, beta2=0.7, alpha=0.1)


class TestParams:
    def test_accepts_standard_values(self):
        p = Params(beta1=0.05, beta2=0.7, alpha=0.1)
        assert p.beta1 == 0.05

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"beta1": 0.0, "beta2": 0.5},
            {"beta1": 1.0, "beta2": 0.5},
            {"beta1": 0.1, "beta2": 1.0},
            {"beta1": 0.1, "beta2": -0.1},
            {"beta1": 0.1, "beta2": 0.5, "alpha": 0.0},
            {"beta1": 0.1, "beta2": 0.5, "alpha": 1.5},
            {"beta1": 0.1, "beta2": 0.5, "tol": -1e-9},
            {"beta1": 0.1, "beta2": 0.5, "tol": float("nan")},
            {"beta1": 0.1, "beta2": 0.5, "tol": float("inf")},
        ],
    )
    def test_rejects_out_of_range(self, kwargs):
        with pytest.raises(ValueError):
            Params(**kwargs)


def row_kind(values, index=0):
    """Classification of one row as validate_update reports it."""
    m = row_update(len(values), index, values)
    report = validate_update(m, PARAMS)
    assert report.structure.ok, report.summary()
    return report.update_kind


class TestRowKind:
    def test_substochastic_example(self):
        # [DERIVED] sum 0.5 < 1
        assert row_kind([0.3, 0.2, 0.0, 0.0]) is RowKind.SUB_STOCHASTIC

    def test_stochastic_row(self):
        assert row_kind([0.5, 0.5]) is RowKind.STOCHASTIC

    def test_identity_row_at_index(self):
        assert row_kind([0.0, 1.0, 0.0], index=1) is RowKind.IDENTITY_ROW

    def test_basis_vector_elsewhere_is_stochastic(self):
        # weight parked entirely on another node is a (degenerate) fusion
        assert row_kind([0.0, 1.0, 0.0], index=0) is RowKind.STOCHASTIC

    def test_negative_entry_rejected(self):
        report = validate_update(row_update(2, 0, [0.5, -0.1]), PARAMS)
        assert not report.structure.ok
        assert "negative entry" in report.structure.failures

    def test_row_sum_above_one_rejected(self):
        report = validate_update(row_update(2, 0, [0.8, 0.3]), PARAMS)
        assert not report.structure.ok
        assert any("> 1 + tol" in f for f in report.structure.failures)

    def test_sum_within_tol_of_one_is_stochastic(self):
        assert row_kind([0.5, 0.5 - 1e-14]) is RowKind.STOCHASTIC

    @given(
        st.lists(st.floats(0.0, 1.0), min_size=2, max_size=6),
        st.randoms(use_true_random=False),
    )
    def test_classification_is_permutation_invariant(self, values, rnd):
        total = sum(values)
        if total >= 1.0:
            values = [v * 0.5 / total for v in values]
        shuffled = list(values)
        rnd.shuffle(shuffled)
        # a basis vector counts as an identity row wherever it sits
        assert row_kind(values, int(np.argmax(values))) is row_kind(
            shuffled, int(np.argmax(shuffled))
        )


class TestSystemMatrix:
    def test_row_update_factory(self):
        m = row_update(3, 1, [0.2, 0.5, 0.3])
        assert m.updated_row == 1
        assert m.p[0, 0] == 1.0 and m.p[2, 2] == 1.0
        assert np.array_equal(m.p[1], [0.2, 0.5, 0.3])
        assert validate_update(m, PARAMS).structure.ok

    def test_identity_step(self):
        m = identity_step(4, s=2)
        assert m.is_identity()
        assert m.updated_row is None
        assert m.b.shape == (4, 2)

    def test_anchor_row_with_coupling(self):
        m = row_update(2, 0, [0.6, 0.1], b_row=[0.3], s=1)
        assert m.s == 1
        assert not m.is_identity()

    def test_negative_entry_flagged(self):
        m = row_update(2, 0, [1.1, -0.1])
        report = validate_update(m, PARAMS)
        assert "negative entry" in report.structure.failures

    def test_shape_mismatch_rejected(self):
        with pytest.raises(DimensionMismatch):
            row_update(2, 0, [1.0, 0.0], b_row=[0.0], s=3)
        with pytest.raises(DimensionMismatch):
            row_update(2, 0, [1.0, 0.0, 0.0])
        with pytest.raises(DimensionMismatch):
            row_update(2, 2, [1.0, 0.0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("block", ["p_row", "b_row"])
    def test_non_finite_rows_rejected(self, block, bad):
        p_row, b_row = [0.5, 0.25], [0.25]
        if block == "p_row":
            p_row[0] = bad
        else:
            b_row[0] = bad
        with pytest.raises(AssumptionViolated):
            row_update(2, 0, p_row, b_row=b_row)

    def test_apply_matches_dense_product(self):
        rng = np.random.default_rng(4)
        m = row_update(3, 2, [0.2, 0.3, 0.1], b_row=[0.25, 0.15])
        a = rng.uniform(size=(3, 5))
        u = rng.uniform(size=(2, 5))
        assert np.allclose(m.apply(a), m.p @ a, rtol=0, atol=1e-15)
        assert np.allclose(m.apply(a, u), m.p @ a + m.b @ u, rtol=0, atol=1e-15)
        assert np.array_equal(m.apply(a)[:2], a[:2])  # untouched rows copied
        assert np.array_equal(identity_step(3).apply(a), a)


class TestValidateUpdate:
    def test_identity_has_nothing_applicable(self):
        report = validate_update(identity_step(3), PARAMS)
        assert report.ok
        assert not report.anchor_free_sum.applicable
        assert not report.anchor_discount.applicable

    def test_anchor_free_row_passes(self):
        m = row_update(2, 0, [0.5, 0.5])
        report = validate_update(m, PARAMS)
        assert report.ok
        assert report.anchor_free_sum.applicable
        assert report.weight_floor.applicable

    def test_weight_below_floor_fails(self):
        m = row_update(2, 0, [0.99, 0.01])  # 0.01 < beta1
        report = validate_update(m, PARAMS)
        assert not report.ok
        assert not report.weight_floor.passed

    def test_zero_self_weight_fails(self):
        m = row_update(2, 0, [0.0, 1.0])
        report = validate_update(m, PARAMS)
        assert not report.ok

    def test_anchor_row_example(self):
        # [DERIVED] sensor whose only contact is one anchor: self keeps
        # 1 - max(alpha, 1-beta2) = 0.7, the anchor gets 0.3
        m = row_update(1, 0, [0.7], b_row=[0.3], s=1)
        report = validate_update(m, PARAMS, require_coupling=True)
        assert report.ok
        assert report.anchor_discount.applicable
        assert report.coupling.applicable and report.coupling.passed

    def test_anchor_row_sum_above_beta2_fails(self):
        m = row_update(1, 0, [0.75], b_row=[0.25], s=1)
        report = validate_update(m, PARAMS)
        assert not report.anchor_discount.ok

    def test_small_anchor_weight_fails(self):
        m = row_update(1, 0, [0.6], b_row=[0.05, 0.0], s=2)
        report = validate_update(m, PARAMS)
        assert not report.anchor_discount.ok

    def test_coupling_violation_detected(self):
        m = row_update(1, 0, [0.6], b_row=[0.1], s=1)
        report = validate_update(m, PARAMS, require_coupling=True)
        assert not report.coupling.passed

    def test_summary_names_failing_checks(self):
        m = row_update(2, 0, [0.99, 0.01])
        report = validate_update(m, PARAMS)
        assert "weight_floor" in report.summary()


class TestArithmetic:
    def test_multiply_oracle(self):
        # [DERIVED] hand multiplication; P has row 0 = [0.5, 0.5]
        a = row_update(2, 0, [0.5, 0.5])
        b = np.array([[1.0, 0.0], [0.5, 0.5]])
        assert np.allclose(a.apply(b), [[0.75, 0.25], [0.5, 0.5]], atol=1e-15)

    def test_inf_norm_oracles(self):
        # [DERIVED] max row sums 1.0 and 0.5
        assert inf_norm(np.array([[0.3, 0.2], [0.5, 0.5]])) == pytest.approx(1.0)
        assert inf_norm(np.array([[0.3, 0.2], [0.1, 0.1]])) == pytest.approx(0.5)

    def test_multiply_shape_mismatch(self):
        with pytest.raises(DimensionMismatch):
            row_update(2, 0, [0.5, 0.5]).apply(np.eye(3))

    def test_stochastic_matrices_are_closed_under_multiplication(self):
        rng = np.random.default_rng(1)
        weights = rng.uniform(size=4)
        a = row_update(4, 1, weights / weights.sum())
        b = rng.uniform(size=(4, 4))
        b /= b.sum(axis=1, keepdims=True)
        product = a.apply(b)
        assert np.all(product >= 0)
        assert np.allclose(product.sum(axis=1), 1.0, atol=2e-12)

    def test_spectral_radius_identity(self):
        assert spectral_radius(np.eye(3)) == pytest.approx(1.0, abs=1e-8)

    def test_spectral_radius_permutation_matrix(self):
        # eigenvalues are +1 and -1; the diagonal shift breaks the cycle
        assert spectral_radius(np.array([[0.0, 1.0], [1.0, 0.0]])) == pytest.approx(
            1.0, abs=1e-8
        )

    def test_spectral_radius_diagonal(self):
        # [DERIVED] diagonal entries are the eigenvalues
        assert spectral_radius(np.array([[0.5, 0.0], [0.0, 0.25]])) == pytest.approx(
            0.5, abs=1e-8
        )
        assert spectral_radius(np.diag([0.2, 0.9, 0.5])) == pytest.approx(
            0.9, abs=1e-8
        )

    @pytest.mark.parametrize("seed", range(8))
    def test_spectral_radius_matches_eigenvalues(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 7))
        a = rng.uniform(size=(n, n))
        a /= a.sum(axis=1, keepdims=True) / rng.uniform(0.3, 1.0, size=(n, 1))
        expected = max(abs(np.linalg.eigvals(a)))
        assert spectral_radius(a) == pytest.approx(expected, abs=1e-7)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_spectral_radius_never_exceeds_inf_norm(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.uniform(size=(3, 3))
        assert spectral_radius(a) <= inf_norm(a) + 1e-9

