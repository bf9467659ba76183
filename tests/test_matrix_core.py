"""The single-row update type, its admissibility rules, and norms."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slicekit import (
    AssumptionViolated,
    DimensionMismatch,
    NegativeEntry,
    Params,
    identity_step,
    inf_norm,
    random_product_sequence,
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


def rules_failed(values, index=0):
    """The rules one anchor-free row fails, as validate_update names them."""
    return validate_update(row_update(len(values), index, values), PARAMS)


class TestRowKind:
    """Which rules a row gets follows its kind: stochastic rows the weight
    floor, sub-stochastic rows the beta2 cap, identity rows none."""

    def test_substochastic_example(self):
        # [DERIVED] sum 0.5 <= beta2, so no weight floor applies to 0.2
        assert rules_failed([0.3, 0.2, 0.0, 0.0]) == ()
        assert rules_failed([0.5, 0.3, 0.0, 0.0]) == (
            "sensor row sum 0.8 exceeds beta2=0.7",
        )

    def test_stochastic_row(self):
        assert rules_failed([0.5, 0.5]) == ()

    def test_identity_row_at_index(self):
        m = row_update(3, 1, [0.0, 1.0, 0.0])
        assert m.is_identity()
        assert validate_update(m, PARAMS) == ()

    def test_basis_vector_elsewhere_is_stochastic(self):
        # weight parked entirely on another node is a (degenerate) fusion
        assert rules_failed([0.0, 1.0, 0.0], index=0) == (
            "self-weight is zero",
            "weight 1.0 at column 1 reaches 1",
        )

    def test_negative_entry_rejected(self):
        assert "negative entry" in rules_failed([0.5, -0.1])

    def test_row_sum_above_one_rejected(self):
        assert "row 0 sums to 1.1 > 1 + tol" in rules_failed([0.8, 0.3])

    def test_sum_within_tol_of_one_is_stochastic(self):
        # as a sub-stochastic row it would exceed beta2
        assert rules_failed([0.5, 0.5 - 1e-14]) == ()

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
        assert len(rules_failed(values, int(np.argmax(values)))) == len(
            rules_failed(shuffled, int(np.argmax(shuffled)))
        )


class TestSystemMatrix:
    def test_row_update_factory(self):
        m = row_update(3, 1, [0.2, 0.5, 0.3])
        assert m.updated_row == 1
        assert m.p[0, 0] == 1.0 and m.p[2, 2] == 1.0
        assert np.array_equal(m.p[1], [0.2, 0.5, 0.3])
        assert validate_update(m, PARAMS) == ()

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
        assert "negative entry" in validate_update(m, PARAMS)
        m = row_update(2, 0, [0.5, 0.2], b_row=[-0.1])
        assert validate_update(m, PARAMS) == ("negative entry",)

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
        assert validate_update(identity_step(3), PARAMS) == ()

    def test_anchor_free_row_passes(self):
        assert validate_update(row_update(2, 0, [0.5, 0.5]), PARAMS) == ()

    def test_weight_below_floor_fails(self):
        m = row_update(2, 0, [0.99, 0.01])  # 0.01 < beta1
        assert validate_update(m, PARAMS) == (
            "weight 0.01 at column 1 below beta1=0.05",
        )

    def test_zero_self_weight_fails(self):
        m = row_update(2, 0, [0.0, 1.0])
        assert "self-weight is zero" in validate_update(m, PARAMS)

    def test_anchor_row_example(self):
        # [DERIVED] sensor whose only contact is one anchor: self keeps
        # 1 - max(alpha, 1-beta2) = 0.7, the anchor gets 0.3
        m = row_update(1, 0, [0.7], b_row=[0.3], s=1)
        assert validate_update(m, PARAMS) == ()

    def test_anchor_row_sum_above_beta2_fails(self):
        m = row_update(1, 0, [0.75], b_row=[0.25], s=1)
        assert validate_update(m, PARAMS) == (
            "sensor row sum 0.75 exceeds beta2=0.7",
        )

    def test_small_anchor_weight_fails(self):
        m = row_update(1, 0, [0.6], b_row=[0.05, 0.0], s=2)
        assert validate_update(m, PARAMS) == (
            "anchor weight 0.05 at column 0 below alpha=0.1",
        )

    def test_summary_names_failing_checks(self):
        # one row can fail several rules; each is named, in rule order
        m = row_update(2, 0, [0.6, 0.6], b_row=[0.2])
        assert validate_update(m, PARAMS) == (
            "row 0 sums to 1.4 > 1 + tol",
            "anchor weight present on a row whose sensor part sums to 1",
            "sensor row sum 1.2 != 1",
        )


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
        assert abs(spectral_radius(np.eye(3)) - 1.0) <= 1e-12

    def test_spectral_radius_permutation_matrix(self):
        # eigenvalues are roots of unity: +1 and -1, then the cube roots
        assert abs(spectral_radius(np.array([[0.0, 1.0], [1.0, 0.0]])) - 1.0) <= 1e-12
        cycle = np.eye(3)[[1, 2, 0]]
        assert abs(spectral_radius(cycle) - 1.0) <= 1e-12

    def test_spectral_radius_diagonal(self):
        # [DERIVED] diagonal entries are the eigenvalues
        assert abs(spectral_radius(np.array([[0.5, 0.0], [0.0, 0.25]])) - 0.5) <= 1e-12
        assert abs(spectral_radius(np.diag([0.2, 0.9, 0.5])) - 0.9) <= 1e-12

    @pytest.mark.parametrize("lam", [0.0, 0.3, 0.9, 1.0])
    def test_spectral_radius_jordan_block(self, lam):
        # [DERIVED] a defective eigenvalue lam of multiplicity 2
        assert abs(spectral_radius(np.array([[lam, 1.0], [0.0, lam]])) - lam) <= 1e-12

    def test_spectral_radius_reducible_block_triangular(self):
        # [DERIVED] the spectrum is the union of the diagonal blocks'
        # spectra: {0.5, -0.1} and {0.6}
        a = np.array([[0.2, 0.3, 0.4], [0.3, 0.2, 0.1], [0.0, 0.0, 0.6]])
        assert abs(spectral_radius(a) - 0.6) <= 1e-12
        assert abs(spectral_radius(a.T) - 0.6) <= 1e-12

    def test_spectral_radius_nilpotent(self):
        # [DERIVED] strictly upper triangular: every eigenvalue is 0
        a = np.triu(np.full((4, 4), 0.5), k=1)
        assert spectral_radius(a) <= 1e-12

    def test_spectral_radius_empty(self):
        assert spectral_radius(np.zeros((0, 0))) == 0.0

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_spectral_radius_rejects_non_finite(self, bad):
        a = np.eye(2)
        a[0, 1] = bad
        with pytest.raises(AssumptionViolated):
            spectral_radius(a)

    @pytest.mark.parametrize("n", [2, 4, 16])
    def test_spectral_radius_of_products_holding_a_unit_row(self, n):
        # [DERIVED] a row still equal to e_i makes e_i a left eigenvector
        # for eigenvalue 1, and no eigenvalue exceeds the inf-norm 1
        params = Params(beta1=0.05, beta2=0.7)
        checked = 0
        for seed in range(5):
            running = np.eye(n)
            for m in random_product_sequence(n, params, 256, rng=seed):
                running = m.apply(running)
                if np.any(np.all(running == np.eye(n), axis=1)):
                    assert abs(spectral_radius(running) - 1.0) <= 1e-12
                    checked += 1
        assert checked > 0

    @pytest.mark.parametrize("seed", range(8))
    def test_spectral_radius_matches_eigenvalues(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 7))
        a = rng.uniform(size=(n, n))
        a /= a.sum(axis=1, keepdims=True) / rng.uniform(0.3, 1.0, size=(n, 1))
        expected = max(abs(np.linalg.eigvals(a)))
        assert abs(spectral_radius(a) - expected) <= 1e-12

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_spectral_radius_never_exceeds_inf_norm(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.uniform(size=(3, 3))
        assert spectral_radius(a) <= inf_norm(a)


def running_products(n, horizon, seed):
    """The ``(horizon, n, n)`` stack of running products of a random
    sequence, the identity start excluded."""
    stack, j = [], np.eye(n)
    for m in random_product_sequence(n, PARAMS, horizon, rng=np.random.default_rng(seed)):
        j = m.apply(j)
        stack.append(j)
    return np.array(stack).reshape(horizon, n, n)


class TestStackedNorms:
    @pytest.mark.parametrize("n, horizon", [(1, 20), (4, 200), (16, 64), (16, 300)])
    def test_stack_matches_per_matrix_calls_bit_for_bit(self, n, horizon):
        stack = running_products(n, horizon, seed=n)
        assert inf_norm(stack).tolist() == [inf_norm(a) for a in stack]
        assert spectral_radius(stack).tolist() == [spectral_radius(a) for a in stack]

    def test_stack_holding_an_untouched_row_matches(self):
        stack = running_products(16, 300, seed=3)
        untouched = np.all(stack == np.eye(16), axis=2).any(axis=1)
        assert untouched.any() and not untouched.all()
        assert spectral_radius(stack).tolist() == [spectral_radius(a) for a in stack]

    def test_leading_axes_are_kept(self):
        stack = running_products(3, 12, seed=1)
        grid = stack.reshape(2, 6, 3, 3)
        assert inf_norm(grid).tolist() == inf_norm(stack).reshape(2, 6).tolist()
        assert spectral_radius(grid).tolist() == spectral_radius(stack).reshape(2, 6).tolist()

    @pytest.mark.parametrize("shape", [(0, 3, 3), (2, 0, 0), (0, 0, 0)])
    def test_empty_stacks(self, shape):
        stack = np.zeros(shape)
        assert inf_norm(stack).tolist() == [0.0] * shape[0]
        assert spectral_radius(stack).tolist() == [0.0] * shape[0]

    def test_a_matrix_gives_a_python_float(self):
        a = np.array([[0.5, 0.25], [0.0, 1.0]])
        assert type(inf_norm(a)) is float and type(spectral_radius(a)) is float
        assert type(inf_norm(np.zeros((0, 0)))) is float

    @pytest.mark.parametrize("fn", [inf_norm, spectral_radius])
    @pytest.mark.parametrize("a", [np.ones(3), np.float64(1.0)])
    def test_fewer_than_two_dimensions_rejected(self, fn, a):
        with pytest.raises(DimensionMismatch):
            fn(a)

    @pytest.mark.parametrize("shape", [(2, 3), (4, 2, 3)])
    def test_spectral_radius_rejects_non_square(self, shape):
        with pytest.raises(DimensionMismatch):
            spectral_radius(np.ones(shape))

    @pytest.mark.parametrize("bad, error", [(np.nan, AssumptionViolated), (-0.5, NegativeEntry)])
    def test_one_bad_matrix_fails_the_stack(self, bad, error):
        stack = np.stack([np.eye(2)] * 3)
        stack[2, 1, 0] = bad
        with pytest.raises(error):
            spectral_radius(stack)
