"""The single-row update type, its admissibility rules, and norms."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from slicekit import (
    AssumptionViolated,
    DimensionMismatch,
    NegativeEntry,
    Params,
    SystemMatrix,
    identity_step,
    inf_norm,
    random_product_sequence,
    row_update,
    spectral_radius,
    validate_update,
)
from slicekit.matrix_core import _screen, _screen_block

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
        assert (m.n, m.s) == (4, 2)

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


def reference_is_identity(m, tol=1e-12):
    """``SystemMatrix.is_identity`` as NumPy reductions, the form it had
    before the rules moved onto Python floats; a test-only oracle."""
    i = m.updated_row
    if i is None:
        return True
    dev = np.abs(m.p_row)
    dev[i] = abs(m.p_row[i] - 1.0)
    return bool(dev.max() <= tol and np.all(np.abs(m.b_row) <= tol))


def reference_validate_update(m, params):
    """``validate_update`` as NumPy reductions, the form it had before the
    rules moved onto Python floats; a test-only oracle for finite rows."""
    i = m.updated_row
    if i is None:
        return ()
    tol = params.tol
    p_row, b_row = m.p_row, m.b_row
    fails = []
    if p_row.min() < -tol or b_row.min(initial=0.0) < -tol:
        fails.append("negative entry")
    p_sum = float(p_row.sum())
    total = p_sum + float(b_row.sum())
    if total > 1.0 + tol:
        fails.append(f"row {i} sums to {total!r} > 1 + tol")
    if reference_is_identity(m, tol):
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


def boundaries(params):
    """The values each entry is compared with, as the rules compute them."""
    tol = params.tol
    return (
        tol, -tol, params.beta1 - tol, params.beta1, 1.0 - tol, 1.0 + tol,
        params.beta2, params.beta2 + tol, params.alpha - tol, params.alpha,
    )


def nudge(x, ulps):
    """``x`` moved by ``ulps`` units in the last place."""
    for _ in range(abs(ulps)):
        x = float(np.nextafter(x, np.inf if ulps > 0 else -np.inf))
    return x


@st.composite
def finite_rows(draw):
    """``(params, n, s, i, p_row, b_row)``: a finite row of one of the
    three kinds (or raw weights), then perturbed by sign flips, zeros and
    entries set within one ulp of a rule's boundary, the change in the
    last case optionally moved onto another sensor so the row keeps its sum."""
    params = Params(
        beta1=draw(st.floats(0.01, 0.5)),
        beta2=draw(st.floats(0.0, 0.95)),
        alpha=draw(st.floats(0.01, 1.0)),
        tol=draw(st.sampled_from([0.0, 1e-12, 1e-9, 1e-3])),
    )
    n, s = draw(st.integers(1, 16)), draw(st.integers(0, 3))
    i = draw(st.integers(0, n - 1))
    weight = st.one_of(st.just(0.0), st.floats(1e-6, 1.0))
    w = np.array(draw(st.lists(weight, min_size=n + s, max_size=n + s)))
    p, b = w[:n], w[n:]
    kind = draw(st.sampled_from(["stochastic", "sub-stochastic", "identity", "raw"]))
    if kind == "stochastic":
        p = p / p.sum() if p.sum() > 0 else np.eye(n)[i]
        b = np.zeros(s)
    elif kind == "sub-stochastic":
        p = p * (params.beta2 / p.sum()) if p.sum() > 0 else p
        b = b * ((1.0 - params.beta2) / b.sum()) if b.sum() > 0 else b
    elif kind == "identity":
        p, b = np.eye(n)[i], np.zeros(s)
    row = np.concatenate([p, b])
    edges = boundaries(params)
    for j, how, ulps, k in draw(
        st.lists(
            st.tuples(
                st.integers(0, n + s - 1),
                st.sampled_from(["flip", "zero", "edge"]),
                st.integers(-1, 1),
                st.integers(-1, n - 1),
            ),
            max_size=4,
        )
    ):
        if how == "flip":
            row[j] = -row[j]
        elif how == "zero":
            row[j] = 0.0
        else:
            old, row[j] = row[j], nudge(draw(st.sampled_from(edges)), ulps)
            if k >= 0 and k != j:
                row[k] += old - row[j]
    return params, n, s, i, row[:n], row[n:]


def assert_same_fields(trusted, public):
    assert (trusted.n, trusted.s, trusted.updated_row) == (
        public.n, public.s, public.updated_row,
    )
    for name in ("p_row", "b_row", "p"):
        a, b = getattr(trusted, name), getattr(public, name)
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes()


class TestFloatRules:
    """``is_identity`` and ``validate_update`` run on Python floats; they
    must agree with the NumPy reductions they replaced on every finite row,
    and the trusted constructor must build what the public one builds."""

    @given(finite_rows())
    @settings(max_examples=400, deadline=None)
    def test_match_the_numpy_rules(self, row):
        params, n, s, i, p_row, b_row = row
        public = row_update(n, i, p_row, b_row, s=s)
        trusted = SystemMatrix._trusted(n, s, i, p_row.copy(), b_row.copy())
        assert_same_fields(trusted, public)
        for tol in (params.tol, 1e-12):
            expected = reference_is_identity(public, tol)
            assert public.is_identity(tol) is expected
            assert trusted.is_identity(tol) is expected
        expected = reference_validate_update(public, params)
        assert validate_update(public, params) == expected
        assert validate_update(trusted, params) == expected

    @pytest.mark.parametrize("ulps", [-1, 0, 1])
    @pytest.mark.parametrize("tol", [0.0, 1e-12, 1e-3])
    def test_entries_at_each_boundary(self, tol, ulps):
        params = Params(beta1=0.05, beta2=0.7, alpha=0.1, tol=tol)
        for w in (nudge(edge, ulps) for edge in boundaries(params)):
            for p_row, b_row in (
                ([1.0 - w, w], []),  # a fusion weight beside the self-weight
                ([w, 1.0 - w], []),  # the self-weight
                ([w, 0.0], []),  # a lone self-weight, the identity's near 1
                ([0.0, w], []),
                ([0.3, 0.0], [w]),  # an anchor weight
                ([w, 0.0], [0.3]),
            ):
                m = row_update(2, 0, p_row, b_row, s=len(b_row))
                assert m.is_identity(tol) is reference_is_identity(m, tol)
                assert validate_update(m, params) == reference_validate_update(m, params)

    @pytest.mark.parametrize("n", [1, 2, 8, 16])
    def test_generated_rows_match_their_public_build(self, n):
        params = Params(beta1=0.05, beta2=0.7)
        rows = 0
        for m in random_product_sequence(n, params, 300, rng=n):
            if m.updated_row is None:
                continue
            rows += 1
            public = row_update(n, m.updated_row, m.p_row, m.b_row)
            assert_same_fields(m, public)
            assert m.is_identity() is reference_is_identity(public)
            assert validate_update(m, params) == reference_validate_update(public, params) == ()
        assert rows > 150

    def test_sums_stay_numpy_sums(self):
        # Ten weights of 0.1 sum to 1.0 pairwise (NumPy, from 8 terms on)
        # but to 0.9999999999999999 left to right; at tol = 0 the second
        # would make the row sub-stochastic and over beta2.
        params = Params(beta1=0.05, beta2=0.7, tol=0.0)
        p_row = np.full(10, 0.1)
        assert sum(p_row.tolist()) < float(p_row.sum()) == 1.0
        m = row_update(10, 0, p_row)
        assert validate_update(m, params) == reference_validate_update(m, params) == ()

    def test_finite_row_whose_sum_overflows_keeps_its_rules(self):
        m = row_update(2, 0, [1e308, 1e308])
        with np.errstate(over="ignore"):
            fails = validate_update(m, PARAMS)
            assert fails == reference_validate_update(m, PARAMS)
        assert fails == (
            "row 0 sums to inf > 1 + tol",
            "sensor row sum inf != 1",
            "weight 1e+308 at column 0 reaches 1",
            "weight 1e+308 at column 1 reaches 1",
        )

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("j", range(4))
    def test_non_finite_entry_fails_alone(self, bad, j):
        # a row of 3 sensors and 1 anchor, non-finite at sensor or anchor j
        row = np.array([1.0, 0.0, 0.0, 0.0])
        row[j] = bad
        m = SystemMatrix._trusted(3, 1, 0, row[:3], row[3:])
        assert not m.is_identity()
        assert not reference_is_identity(m)
        assert validate_update(m, PARAMS) == ("row 0 holds a non-finite entry",)

    def test_row_mutated_to_nan_after_construction_fails(self):
        m = row_update(3, 0, [0.5, 0.1, 0.0])
        m.p_row[0] = np.nan
        assert validate_update(m, PARAMS) == ("row 0 holds a non-finite entry",)

    @pytest.mark.parametrize(
        "row, p_row, b_row",
        [(0, [0.5, 0.5, 0.0], []), (0, [0.5, 0.5], [0.0]), (2, [0.5, 0.5], [])],
    )
    def test_misshapen_row_fails_alone(self, row, p_row, b_row):
        m = SystemMatrix._trusted(2, 0, row, np.array(p_row), np.array(b_row))
        assert validate_update(m, PARAMS) == (
            f"row {row} of shapes {np.shape(p_row)} and {np.shape(b_row)} "
            "does not fit 2 sensors and 0 anchors",
        )


def sum_to(p, j, target):
    """``p`` with entry ``j`` moved so that ``p.sum()`` is ``target`` where a
    few corrections reach it (otherwise within an ulp or so of it); a row
    holding NaN or an infinity is returned as it is."""
    p = p.copy()
    for _ in range(8 if np.isfinite(p).all() else 0):
        miss = target - float(p.sum())
        if miss == 0.0:
            break
        p[j] += miss
    return p


@st.composite
def screen_blocks(draw):
    """``(params, n, s, rows, p_rows, b_rows)``: a block of single-row
    updates sharing ``params`` and sizes, each row of one of the kinds the
    rules tell apart, then moved near a boundary: entries at ``beta1 - tol``,
    ``1 - tol``, ``-tol`` or ``alpha - tol`` give or take an ulp, a sensor
    sum at ``1 +- tol`` or ``beta2 + tol`` give or take an ulp, a unit row
    perturbed within ``tol``, or an entry set to NaN, an infinity or -0.0."""
    params = Params(
        beta1=draw(st.floats(0.01, 0.5)),
        beta2=draw(st.floats(0.0, 0.95)),
        alpha=draw(st.floats(0.01, 1.0)),
        tol=draw(st.sampled_from([0.0, 1e-12, 1e-9, 1e-3])),
    )
    tol = params.tol
    n = draw(st.one_of(st.integers(1, 6), st.integers(7, 24)))
    s = draw(st.sampled_from([0, 1, 2, 3]))
    entry_edges = (params.beta1 - tol, 1.0 - tol, -tol, params.alpha - tol, tol, -0.0, 0.0)
    sum_edges = (1.0 + tol, 1.0 - tol, params.beta2 + tol)
    rows, p_rows, b_rows = [], [], []
    for _ in range(draw(st.integers(0, 12))):
        i = draw(st.integers(0, n - 1))
        weight = st.one_of(st.just(0.0), st.floats(1e-6, 1.0))
        p = np.array(draw(st.lists(weight, min_size=n, max_size=n)))
        b = np.array(draw(st.lists(weight, min_size=s, max_size=s)))
        kind = draw(st.sampled_from(
            ["fusion", "anchored", "stochastic", "sub-stochastic", "unit", "raw"]
        ))
        if kind in ("fusion", "anchored"):
            # A fusion rule's row: equal weights over a group holding i and,
            # when anchored, equal anchor weights totalling at least 1 - beta2.
            group = [i] + draw(st.lists(st.integers(0, n - 1), max_size=3))
            heard = draw(st.lists(st.integers(0, s - 1), min_size=1, max_size=s)) if s else []
            share = 0.0
            if kind == "anchored" and heard:
                share = max(params.alpha * len(set(heard)), 1.0 - params.beta2)
            p, b = np.zeros(n), np.zeros(s)
            p[group] = (1.0 - share) / len(set(group))
            b[heard] = share / max(len(set(heard)), 1)
        elif kind == "stochastic":
            p = p / p.sum() if p.sum() > 0 else np.eye(n)[i]
            b = np.zeros(s)
        elif kind == "sub-stochastic":
            p = p * (params.beta2 / p.sum()) if p.sum() > 0 else p
            b = b * ((1.0 - params.beta2) / b.sum()) if b.sum() > 0 else b
        elif kind == "unit":
            jitter = st.floats(-tol, tol) if tol else st.just(0.0)
            p = np.eye(n)[i] + np.array(draw(st.lists(jitter, min_size=n, max_size=n)))
            b = np.array(draw(st.lists(jitter, min_size=s, max_size=s)))
        for how, j, ulps, keep in draw(
            st.lists(
                st.tuples(
                    st.sampled_from(["entry"] * 3 + ["sum"] * 3 + ["total"] * 2 + ["non-finite"]),
                    st.integers(0, n + s - 1),
                    st.integers(-1, 1),
                    st.booleans(),
                ),
                max_size=3,
            )
        ):
            row = np.concatenate([p, b])
            if how == "entry":
                old, row[j] = row[j], nudge(draw(st.sampled_from(entry_edges)), ulps)
                # Optionally move the change onto the largest other entry of
                # the same block, so that the row keeps its sums and can
                # stay clear with an entry at a boundary.
                block = [t for t in (range(n) if j < n else range(n, n + s)) if t != j]
                if keep and block and np.isfinite(row[block + [j]]).all() and np.isfinite(old):
                    k = max(block, key=lambda t: row[t])
                    row[k] += old - row[j]
            elif how == "non-finite":
                row[j] = draw(st.sampled_from([np.nan, np.inf, -np.inf]))
            p, b = row[:n], row[n:]
            if how == "sum":
                p = sum_to(p, j % n, nudge(draw(st.sampled_from(sum_edges)), ulps))
            elif how == "total":
                # The row total, p.sum() + b.sum(), at 1 + tol give or take an ulp.
                target = nudge(1.0 + tol, ulps)
                if s:
                    # Two non-finite edits may have left +inf and -inf in
                    # p, whose sum is NaN with an invalid-value warning.
                    with np.errstate(over="ignore", invalid="ignore"):
                        b = sum_to(b, j % s, target - float(p.sum()))
                else:
                    p = sum_to(p, j % n, target)
        rows.append(i)
        p_rows.append(p)
        b_rows.append(b)
    return (
        params, n, s, np.array(rows, dtype=int),
        np.array(p_rows, dtype=float).reshape(len(rows), n),
        np.array(b_rows, dtype=float).reshape(len(rows), s),
    )


class TestScreenBlock:
    """``_screen_block`` decides in one pass what ``_screen`` decides per
    row: a row is clear exactly when ``_screen`` finds it no identity and
    failing no rule, and its sensor sum has the same bits."""

    @given(screen_blocks())
    # A row left holding +inf and -inf by two non-finite edits, then given
    # a row total: the sensor sum is NaN and so is the anchor entry moved.
    @example((
        Params(beta1=0.05, beta2=0.7, alpha=0.1, tol=1e-9), 2, 1, np.array([0]),
        np.array([[np.inf, -np.inf]]), np.array([[np.nan]]),
    ))
    @settings(max_examples=300, deadline=None)
    def test_matches_the_scalar_screen(self, block):
        params, n, s, rows, p_rows, b_rows = block
        clear, p_sum = _screen_block(p_rows, b_rows, rows, params)
        assert clear.shape == p_sum.shape == rows.shape
        for t, i in enumerate(rows.tolist()):
            m = SystemMatrix._trusted(n, s, i, p_rows[t].copy(), b_rows[t].copy())
            with np.errstate(over="ignore", invalid="ignore"):
                identity, want, fails = _screen(m, params)
                own = float(p_rows[t].sum())
            assert bool(clear[t]) is (not identity and fails == ())
            assert float(p_sum[t]).hex() == own.hex()
            if not np.isnan(want):
                assert float(p_sum[t]).hex() == want.hex()

    @pytest.mark.parametrize("tol", [0.0, 1e-12, 1e-3])
    def test_entries_at_each_boundary(self, tol):
        params = Params(beta1=0.05, beta2=0.7, alpha=0.1, tol=tol)
        cases = []
        for w in (nudge(edge, ulps) for edge in boundaries(params) for ulps in (-1, 0, 1)):
            for p_row, b_row in (
                ([w, 0.5, 0.5 - w], [0.0]),  # the self-weight
                ([0.5, w, 0.5 - w], [0.0]),  # a fusion weight
                ([1.0 - w, w, 0.0], [0.0]),
                ([w, 1.0 - w, 0.0], [0.0]),
                ([w, 0.0, 0.0], [0.0]),  # a lone self-weight, the identity's near 1
                ([w, 0.0, 0.0], [0.3]),
                ([0.3, 0.0, 0.0], [w]),  # an anchor weight
                ([0.3, 0.0, 0.0], [1.0 - w]),
                ([0.35, w, 0.0], [0.3]),  # sums near beta2 and 1
            ):
                cases.append((np.array(p_row), np.array(b_row)))
        p_rows = np.array([p for p, _ in cases])
        b_rows = np.array([b for _, b in cases])
        clear, p_sum = _screen_block(p_rows, b_rows, np.zeros(len(cases), dtype=int), params)
        verdicts = []
        for t, (p_row, b_row) in enumerate(cases):
            identity, want, fails = _screen(SystemMatrix._trusted(3, 1, 0, p_row, b_row), params)
            assert bool(clear[t]) is (not identity and fails == ())
            assert float(p_sum[t]).hex() == want.hex()
            verdicts.append(bool(clear[t]))
        assert 0 < sum(verdicts) < len(verdicts)

    def test_unit_row_passing_every_rule_is_not_clear(self):
        # Eleven entries at exactly -tol bring the sum under beta2 + tol, so
        # this row within tol of e_0 fails no rule; it is the identity, though.
        params = Params(beta1=0.05, beta2=0.99, tol=1e-3)
        p_row = np.full(12, -params.tol)
        p_row[0] = 1.0 - params.tol / 2
        identity, _, fails = _screen(SystemMatrix._trusted(12, 0, 0, p_row, np.zeros(0)), params)
        assert identity and fails == ()
        clear, _ = _screen_block(p_row[None], np.zeros((1, 0)), np.array([0]), params)
        assert clear.tolist() == [False]

    @pytest.mark.parametrize("n", [3, 8, 9, 64, 257])
    def test_sums_match_each_row_sum(self, n):
        rng = np.random.default_rng(n)
        p_rows = rng.dirichlet(np.ones(n), size=200) * rng.uniform(0.5, 1.0, (200, 1))
        _, p_sum = _screen_block(p_rows, np.zeros((200, 0)), np.zeros(200, dtype=int), PARAMS)
        assert [v.hex() for v in p_sum.tolist()] == [float(r.sum()).hex() for r in p_rows]

    def test_generated_rows_are_clear(self):
        ms = [m for m in random_product_sequence(8, PARAMS, 300, rng=3) if m.updated_row is not None]
        clear, _ = _screen_block(
            np.array([m.p_row for m in ms]),
            np.zeros((len(ms), 0)),
            np.array([m.updated_row for m in ms]),
            PARAMS,
        )
        assert len(ms) > 150 and clear.all()


class TestArithmetic:
    def test_inf_norm_oracles(self):
        # [DERIVED] max row sums 1.0 and 0.5
        assert inf_norm(np.array([[0.3, 0.2], [0.5, 0.5]])) == pytest.approx(1.0)
        assert inf_norm(np.array([[0.3, 0.2], [0.1, 0.1]])) == pytest.approx(0.5)

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
                if m.updated_row is not None:
                    running[m.updated_row] = m.p_row @ running
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
        if m.updated_row is not None:
            j = j.copy()
            j[m.updated_row] = m.p_row @ j
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
