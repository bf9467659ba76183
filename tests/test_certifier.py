"""Stability certificates over recorded slice lengths."""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slicekit import (
    Certificate,
    CertificateCase,
    InvalidLength,
    InvalidSubset,
    MeaninglessBound,
    Params,
    Verdict,
    bound_trace,
    case3_length_cap,
    case3_lengths,
    certify_case1,
    certify_case2,
    certify_case3,
    format_certificate,
    search_case3,
    slice_norm_bound,
    write_certificate,
)
from slicekit import certifier
from slicekit.certifier import (
    CAP_FEASIBILITY_TOL,
    DEFAULT_GAMMA1_GRID,
    MIN_GAMMA2,
    _case3_caps,
)

PARAMS = Params(beta1=0.05, beta2=0.3)
WIDE = Params(beta1=0.05, beta2=0.7)


def _rows(witnesses):
    """``witnesses`` with case iii's assignment columns read as rows of
    Python numbers, ``(i, slice_index, length, cap)`` each."""
    columns = witnesses["assignment"]
    return {**witnesses, "assignment": tuple(zip(*(column.tolist() for column in columns)))}


class TestCase1:
    def test_constant_lengths_certify(self):
        cert = certify_case1([3, 3, 3, 3], 3, WIDE)
        assert cert.certified
        assert cert.case_used is CertificateCase.CASE_I
        assert cert.witnesses["N"] == 3
        assert cert.witnesses["delta"] == pytest.approx(
            slice_norm_bound(3, WIDE)
        )

    def test_log_gap_witness_matches_delta(self):
        cert = certify_case1([2, 4], 4, WIDE)
        assert 1.0 - math.exp(cert.witnesses["log_gap"]) == pytest.approx(
            cert.witnesses["delta"]
        )

    def test_offending_length_blocks_certification(self):
        cert = certify_case1([3, 9, 3], 5, WIDE)
        assert not cert.certified
        assert "length 9" in " ".join(cert.notes)

    def test_empty_record_is_not_certified(self):
        cert = certify_case1([], 5, WIDE)
        assert not cert.certified

    def test_invalid_inputs(self):
        with pytest.raises(InvalidLength):
            certify_case1([0], 5, WIDE)
        with pytest.raises(InvalidLength):
            certify_case1([3], 0, WIDE)
        with pytest.raises(InvalidLength):
            certify_case1([], 0, WIDE)

    @pytest.mark.parametrize("lengths", [[], [3]])
    def test_cap_beyond_int64_raises(self, lengths):
        # Past the float range the cap would overflow the norm bound.
        with pytest.raises(InvalidLength, match="cap must be >= 1"):
            certify_case1(lengths, 10**400, WIDE)


class TestCase2:
    def test_capped_subfamily_certifies(self):
        # one arbitrarily long straggler outside the declared family is fine
        cert = certify_case2([3, 100, 2, 4], 4, [0, 2, 3], WIDE)
        assert cert.certified
        assert cert.case_used is CertificateCase.CASE_II
        assert cert.witnesses["N1"] == 4
        assert cert.witnesses["subset"] == (0, 2, 3)
        assert any("declaration" in note for note in cert.notes)

    def test_subset_member_above_cap_fails(self):
        cert = certify_case2([3, 100], 4, [0, 1], WIDE)
        assert not cert.certified

    def test_undeclared_family_is_not_certified(self):
        cert = certify_case2(
            [3, 3], 4, [0, 1], WIDE, subset_declared_infinite=False
        )
        assert not cert.certified

    def test_empty_record_is_not_certified(self):
        cert = certify_case2([], 5, [], WIDE)
        assert not cert.certified and cert.horizon == 0
        assert cert.notes == ("no completed slices in the sample",)

    def test_cap_below_one_raises_on_an_empty_record(self):
        with pytest.raises(InvalidLength):
            certify_case2([], 0, [], WIDE)

    @pytest.mark.parametrize("lengths", [[], [3]])
    def test_cap_beyond_int64_raises(self, lengths):
        with pytest.raises(InvalidLength, match="cap must be >= 1"):
            certify_case2(lengths, 10**400, range(len(lengths)), WIDE)

    def test_empty_subset_is_not_certified(self):
        cert = certify_case2([3, 3], 4, [], WIDE)
        assert not cert.certified

    def test_duplicate_or_out_of_range_subset_rejected(self):
        with pytest.raises(InvalidSubset):
            certify_case2([3, 3], 4, [0, 0], WIDE)
        # A duplicate is a fault of the subset alone, whatever the log holds.
        with pytest.raises(InvalidSubset):
            certify_case2([], 5, [0, 0], WIDE)
        with pytest.raises(InvalidSubset):
            certify_case2([3, 3], 4, [5], WIDE)

    def test_trace_covers_only_the_subset(self):
        cert = certify_case2([2, 50, 2], 2, [0, 2], WIDE)
        assert cert.trace is not None
        assert len(cert.trace.lengths) == 2


INT64_MAX = 2**63 - 1


class TestWholeNumbers:
    """Lengths, caps and subset indices are whole numbers within int64."""

    @pytest.mark.parametrize("cap", [3.5, True, np.bool_(True), float("nan"), float("inf"), "3"])
    def test_a_cap_that_is_not_a_whole_number_is_refused(self, cap):
        # A cap of 3.5 used to certify with witness N = 3 but the bound at 3.5.
        with pytest.raises(InvalidLength, match="cap must be a whole number"):
            certify_case1([2, 3], cap, WIDE)
        with pytest.raises(InvalidLength, match="cap must be a whole number"):
            certify_case2([2, 3], cap, [0, 1], WIDE)

    def test_an_integral_float_cap_is_its_integer(self):
        for cap in (3.0, np.float64(3.0), np.int64(3)):
            cert = certify_case1([2, 3], cap, WIDE)
            assert cert.certified and type(cert.witnesses["N"]) is int
            assert cert.witnesses["N"] == 3
            assert cert.witnesses["delta"] == slice_norm_bound(3, WIDE)
            cert = certify_case2([2, 3], cap, [0, 1], WIDE)
            assert cert.certified and cert.witnesses["N1"] == 3
        cert = certify_case1([2, 9], np.float64(3.0), WIDE)
        assert cert.notes == ("slice 1 has length 9 above the cap 3 (1 offender(s) total)",)

    @pytest.mark.parametrize("entry", [1.5, True, float("nan"), "1"])
    def test_a_subset_entry_that_is_not_a_whole_number_is_refused(self, entry):
        # 1.5 used to be read as slice 1.
        with pytest.raises(InvalidSubset, match="subset indices must be whole numbers"):
            certify_case2([2, 3], 3, [0, entry], WIDE)

    def test_integral_float_and_array_subsets_are_read_as_indices(self):
        for subset in ([2.0, 0.0], np.array([2, 0]), np.array([2, 0], dtype=np.uint8), (2, 0)):
            cert = certify_case2([2, 9, 3], 3, subset, WIDE)
            assert cert.certified and cert.witnesses["subset"] == (2, 0)
            assert cert.trace.lengths.tolist() == [3, 2]

    def test_a_subset_index_beyond_int64_is_refused(self):
        for subset in ([10**30], [2**63], np.array([2**63], dtype=np.uint64)):
            with pytest.raises(InvalidSubset, match="fit in 64 bits"):
                certify_case2([2, 3], 3, subset, WIDE)

    @pytest.mark.parametrize(
        "lengths",
        [[2, 3.7], ["3"], [float("nan")], [float("inf")], np.array([True, True]), [True, 2.5],
         np.array([2.0, 3.5]), np.array(["3"], dtype=object)],
        ids=["fraction", "string", "nan", "inf", "bool-array", "bool-and-fraction",
             "float-array", "object-string"],
    )
    def test_lengths_that_are_not_whole_numbers_are_refused(self, lengths):
        for route in (
            lambda: certify_case1(lengths, 4, WIDE),
            lambda: certify_case2(lengths, 4, [0], WIDE),
            lambda: certify_case3(lengths, 1.0, MIN_GAMMA2, WIDE),
            lambda: search_case3(lengths, WIDE),
            lambda: bound_trace(lengths, WIDE),
        ):
            with pytest.raises(InvalidLength, match="slice lengths must be whole numbers"):
                route()

    @pytest.mark.parametrize(
        "lengths", [[10**30], [2**63], np.array([2**63], dtype=np.uint64), [2**63, -1]]
    )
    def test_lengths_beyond_int64_are_refused(self, lengths):
        with pytest.raises(InvalidLength, match="slice lengths must fit in 64 bits"):
            search_case3(lengths, WIDE)

    def test_whole_lengths_of_any_type_read_as_int64(self):
        for lengths in ([2.0, 3.0], np.array([2, 3], dtype=np.uint16), np.array([2, 3], dtype=object),
                        [np.int64(2), 3], (2, 3), range(2, 4)):
            cert = certify_case1(lengths, 3, WIDE)
            assert cert.trace.lengths.dtype == np.int64
            assert cert.trace.lengths.tolist() == [2, 3]
        # A length at the top of int64 stays exact.
        assert certifier._length_array([INT64_MAX, 1.0]).tolist() == [INT64_MAX, 1]

    def test_an_int64_array_is_taken_as_it_is(self):
        lengths = np.array([3, 2, 3])
        assert certifier._length_array(lengths) is lengths

    def test_empty_input_is_a_horizon_0_sample(self):
        for lengths in ([], (), np.array([]), np.empty(0, dtype=np.int64), range(0)):
            assert certifier._length_array(lengths).dtype == np.int64
            cert = search_case3(lengths, WIDE)
            assert not cert.certified and cert.horizon == 0

    def test_case_iii_certificates_compare_by_identity(self):
        # The witness holds arrays, so == must not compare it field by field.
        lengths = case3_lengths(20, 1.0, MIN_GAMMA2, PARAMS)
        first, second = (search_case3(lengths, PARAMS) for _ in range(2))
        assert first == first and first != second


def _case1_reference(lengths, cap):
    """Case i's notes from a per-slice Python scan: ``()`` when it certifies."""
    if not lengths:
        return ("no completed slices in the sample",)
    offenders = [(t, length) for t, length in enumerate(lengths) if length > cap]
    if not offenders:
        return ()
    t, length = offenders[0]
    return (f"slice {t} has length {length} above the cap {cap} ({len(offenders)} offender(s) total)",)


def _case2_reference(lengths, cap, subset):
    """Case ii's notes from a per-slice Python scan in subset order, for a
    nonempty log and subset; the declaration note when it certifies."""
    offenders = [t for t in subset if lengths[t] > cap]
    if not offenders:
        return ("subset declared unbounded-by-construction by the caller; the "
                "verdict is conditional on that declaration",)
    t = offenders[0]
    return (f"subset slice {t} has length {lengths[t]} above the cap {cap}",)


# Lengths up to int64 max, most of them near small caps.
_LENGTHS = st.lists(st.integers(1, 6) | st.integers(1, INT64_MAX), max_size=40)
_CAPS = st.sampled_from([1, INT64_MAX]) | st.integers(1, 6) | st.integers(1, INT64_MAX)


class TestVectorisedChecks:
    @given(lengths=_LENGTHS, cap=_CAPS)
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_case1_matches_a_per_slice_scan(self, lengths, cap):
        cert = certify_case1(lengths, cap, WIDE)
        notes = _case1_reference(lengths, cap)
        assert cert.notes == notes
        assert cert.certified == (notes == ())
        if cert.certified:
            assert cert.trace.lengths.tolist() == lengths

    @given(data=st.data(), lengths=_LENGTHS.filter(bool), cap=_CAPS)
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_case2_matches_a_per_slice_scan(self, data, lengths, cap):
        order = data.draw(st.permutations(range(len(lengths))))
        subset = order[: data.draw(st.integers(1, len(lengths)))]
        cert = certify_case2(lengths, cap, subset, WIDE)
        notes = _case2_reference(lengths, cap, subset)
        assert cert.notes == notes
        assert cert.certified == notes[0].startswith("subset declared")
        if cert.certified:
            assert cert.trace.lengths.tolist() == [lengths[t] for t in subset]

    def test_case2_names_the_first_offender_in_subset_order(self):
        cert = certify_case2([9, 2, 8, 2], 3, [3, 2, 0], WIDE)
        assert cert.notes == ("subset slice 2 has length 8 above the cap 3",)

    @given(data=st.data(), gamma1=st.sampled_from(DEFAULT_GAMMA1_GRID))
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_case3_columns_match_the_scalar_rows(self, data, gamma1):
        params, lengths = data.draw(_boundary_inputs())
        try:
            rows = _scalar_rank_check(lengths, gamma1, params)
        except MeaninglessBound:
            with pytest.raises(MeaninglessBound):
                certify_case3(lengths, gamma1, MIN_GAMMA2, params)
            return
        cert = certify_case3(lengths, gamma1, MIN_GAMMA2, params)
        assert cert.certified == (rows is not None)
        if rows is None:
            return
        columns = cert.witnesses["assignment"]
        assert [c.dtype for c in columns] == [np.int64, np.int64, np.int64, np.float64]
        for c in range(3):
            assert columns[c].tolist() == [row[c] for row in rows]
        assert [cap.hex() for cap in columns[3].tolist()] == [row[3].hex() for row in rows]


class TestLengthCap:
    def test_oracle_value(self):
        # [DERIVED] ln((1 - e^-1) / 0.7) / ln(0.05) + 1
        assert case3_length_cap(1, 1.0, 1.0, PARAMS) == pytest.approx(
            1.0340485037160352, abs=1e-14
        )

    def test_meaningless_when_margin_exceeds_anchor_capacity(self):
        # 1 - e^-10 = 0.99995... >= 1 - beta2 = 0.7
        with pytest.raises(MeaninglessBound):
            case3_length_cap(1, 0.0, 10.0, PARAMS)

    def test_constant_when_gamma1_zero(self):
        caps = [case3_length_cap(i, 0.0, 0.5, PARAMS) for i in (1, 5, 100)]
        assert caps[0] == pytest.approx(caps[1]) == pytest.approx(caps[2])

    @given(
        gamma1=st.floats(0.0, 1.0),
        gamma2=st.floats(0.01, 0.3),
        i=st.integers(1, 500),
    )
    @settings(max_examples=200, deadline=None)
    def test_cap_is_nondecreasing_in_position(self, gamma1, gamma2, i):
        assert case3_length_cap(i, gamma1, gamma2, PARAMS) <= case3_length_cap(
            i + 1, gamma1, gamma2, PARAMS
        ) + 1e-12

    @pytest.mark.parametrize(
        "beta1, beta2, gamma2",
        [(0.05, 0.7, MIN_GAMMA2), (0.999, 0.7, MIN_GAMMA2), (0.05, 0.3, MIN_GAMMA2), (0.05, 0.3, 1.0)],
        ids=["certify_growth", "beta1_0999", "criterion_7_floor", "criterion_7"],
    )
    def test_grid_caps_are_nondecreasing_without_slack(self, beta1, beta2, gamma2):
        # certify_case3 pairs sorted rank t with position t + 1 alone, which
        # is the optimal matching only while the caps never step down.
        params = Params(beta1=beta1, beta2=beta2)
        for g1 in DEFAULT_GAMMA1_GRID:
            caps = _case3_caps(range(1, 200_001), g1, gamma2, params)
            assert (np.diff(caps) >= 0).all(), g1

    def test_invalid_arguments(self):
        with pytest.raises(InvalidSubset):
            case3_length_cap(0, 1.0, 1.0, PARAMS)
        with pytest.raises(ValueError):
            case3_length_cap(1, 2.0, 1.0, PARAMS)
        with pytest.raises(ValueError):
            case3_length_cap(1, 1.0, 0.0, PARAMS)

    @pytest.mark.parametrize("i", [0, -3])
    def test_position_below_one_is_named(self, i):
        # Only the first of the ascending positions is checked; a lone
        # position is its own first.
        with pytest.raises(InvalidSubset) as exc:
            case3_length_cap(i, 1.0, 1.0, PARAMS)
        assert str(exc.value) == f"position index must be >= 1, got {i}"


class TestCase3:
    def test_generated_lengths_round_trip(self):
        lengths = case3_lengths(200, 1.0, 1.0, PARAMS)
        rng = np.random.default_rng(7)
        shuffled = [lengths[t] for t in rng.permutation(len(lengths))]
        cert = certify_case3(shuffled, 1.0, 1.0, PARAMS)
        assert cert.certified
        assert cert.case_used is CertificateCase.CASE_III

    def test_assignment_is_injective_and_feasible(self):
        schedule = case3_lengths(50, 1.0, 1.0, PARAMS)
        rng = np.random.default_rng(1)
        lengths = [schedule[t] for t in rng.permutation(len(schedule))]
        cert = certify_case3(lengths, 1.0, 1.0, PARAMS)
        assert cert.certified
        assignment = _rows(cert.witnesses)["assignment"]
        positions = [entry[0] for entry in assignment]
        slice_ids = [entry[1] for entry in assignment]
        assert sorted(positions) == list(range(1, 51))
        assert sorted(slice_ids) == list(range(50))
        for i, t, length, cap in assignment:
            assert lengths[t] == length
            assert length <= cap + 1e-9

    def test_super_cap_growth_fails(self):
        lengths = [10 * (t + 1) for t in range(20)]
        cert = certify_case3(lengths, 1.0, 1.0, PARAMS)
        assert not cert.certified

    def test_case1_instances_embed_into_case3(self):
        """A uniform cap N is the gamma1 = 0 specialization: choosing the
        per-slice margin equal to the uniform one certifies the same logs."""
        lengths = [4, 2, 4, 3, 4]
        n_cap = 4
        assert certify_case1(lengths, n_cap, WIDE).certified
        delta = slice_norm_bound(n_cap, WIDE)
        gamma2 = -math.log(delta)
        cert = certify_case3(lengths, 0.0, gamma2, WIDE)
        assert cert.certified


class TestSearch:
    def test_finds_certifying_pair_for_generated_lengths(self):
        lengths = case3_lengths(300, 1.0, 1.0, PARAMS)
        rng = np.random.default_rng(0)
        shuffled = [lengths[t] for t in rng.permutation(len(lengths))]
        cert = search_case3(shuffled, PARAMS)
        assert cert.certified
        assert 0.0 <= cert.witnesses["gamma1"] <= 1.0

    def test_reports_grid_exhaustion(self):
        lengths = [50 * (t + 1) for t in range(10)]
        cert = search_case3(lengths, PARAMS)
        assert not cert.certified
        assert any("grid" in note for note in cert.notes)

    def test_meaningless_pairs_are_skipped_not_fatal(self):
        cert = search_case3([1, 1], Params(beta1=0.05, beta2=0.95))
        assert cert.verdict in (Verdict.CERTIFIED, Verdict.NOT_CERTIFIED)

    def test_cap_undefined_at_the_rate_floor(self):
        # beta2 >= exp(-MIN_GAMMA2): no gamma1 has a defined cap at i = 1.
        params = Params(beta1=0.05, beta2=0.9995)
        with pytest.raises(MeaninglessBound):
            case3_length_cap(1, 0.0, MIN_GAMMA2, params)
        cert = search_case3([1, 1, 2], params)
        assert cert.verdict is Verdict.NOT_CERTIFIED
        assert cert.case_used is None and cert.trace is None
        assert any("grid" in note and str(MIN_GAMMA2) in note for note in cert.notes)


def _grid_search_reference(lengths, params):
    """The earlier two-level search: every gamma1 of the grid against 21
    log-spaced gamma2 values from 1e-3 to 1e2, first certifying pair wins."""
    for g1 in DEFAULT_GAMMA1_GRID:
        for g2 in np.logspace(-3.0, 2.0, 21):
            try:
                cert = certify_case3(lengths, g1, g2, params)
            except MeaninglessBound:
                continue
            if cert.certified:
                return cert
    return None


@st.composite
def _case3_inputs(draw):
    beta1 = draw(st.floats(0.01, 0.95))
    # The second range reaches past exp(-MIN_GAMMA2) ~ 0.9990005, where the
    # cap at the rate floor is undefined.
    beta2 = draw(st.one_of(st.floats(0.0, 0.99), st.floats(0.998, 0.99999)))
    params = Params(beta1=beta1, beta2=beta2)
    if draw(st.booleans()):
        return params, draw(st.lists(st.integers(1, 12), max_size=30))
    gamma1 = draw(st.sampled_from(DEFAULT_GAMMA1_GRID) | st.floats(0.0, 1.0))
    gamma2 = 10.0 ** draw(st.floats(-3.0, 1.0))
    count = draw(st.integers(1, 40))
    try:
        schedule = case3_lengths(count, gamma1, gamma2, params)
    except MeaninglessBound:
        schedule = [1] * count
    shifts = draw(st.lists(st.integers(-1, 1), min_size=count, max_size=count))
    lengths = [max(1, v + d) for v, d in zip(schedule, shifts)]
    return params, draw(st.permutations(lengths))


class TestSearchMatchesGrid:
    @given(_case3_inputs())
    @settings(max_examples=150, deadline=None, derandomize=True)
    def test_rate_floor_scan_matches_two_level_grid(self, case):
        params, lengths = case
        expected = _grid_search_reference(lengths, params)
        cert = search_case3(lengths, params)
        if expected is None:
            assert cert.verdict is Verdict.NOT_CERTIFIED
            assert cert.case_used is None and cert.witnesses == {}
            assert cert.trace is None
            assert any("grid" in note for note in cert.notes)
            return
        assert cert.verdict is expected.verdict
        assert cert.case_used is expected.case_used
        assert _rows(cert.witnesses) == _rows(expected.witnesses)
        assert cert.horizon == expected.horizon
        for name in ("lengths", "products", "neg_log_sums"):
            assert np.array_equal(
                getattr(cert.trace, name), getattr(expected.trace, name)
            )


def _cap_formula(i, gamma1, gamma2, params):
    """The case-iii cap written out as the scalar float operations it is
    defined by, in order."""
    x = gamma2 * float(i) ** (-gamma1)
    budget = -math.expm1(-x)
    if budget >= 1.0 - params.beta2:
        raise MeaninglessBound(
            f"requested margin 1-exp(-{x!r}) = {budget!r} is not below "
            f"1 - beta2 = {1.0 - params.beta2!r}"
        )
    return (math.log(budget) - math.log1p(-params.beta2)) / math.log(params.beta1) + 1.0


def _scalar_rank_check(lengths, gamma1, params):
    """The greedy matching at the rate floor from ``case3_length_cap``
    alone: the witness assignment when every rank passes, else None;
    raises where a cap is undefined."""
    caps = [case3_length_cap(i, gamma1, MIN_GAMMA2, params) for i in range(1, len(lengths) + 1)]
    by_length = np.argsort(lengths, kind="stable")
    by_cap = np.argsort(caps, kind="stable")
    if any(lengths[s] > caps[c] + CAP_FEASIBILITY_TOL for s, c in zip(by_length, by_cap)):
        return None
    slice_at = np.empty(len(lengths), dtype=int)
    slice_at[by_cap] = by_length
    return tuple(
        (i + 1, int(t), lengths[t], caps[i]) for i, t in enumerate(slice_at)
    )


def _scalar_search_reference(lengths, params):
    """The grid scan from ``case3_length_cap`` alone: the first certifying
    gamma1 and its assignment, or None."""
    for g1 in DEFAULT_GAMMA1_GRID:
        try:
            assignment = _scalar_rank_check(lengths, g1, params)
        except MeaninglessBound:
            continue
        if assignment is not None:
            return g1, assignment
    return None


@st.composite
def _boundary_inputs(draw):
    """Lengths at ``floor(cap + 1e-9)`` of a grid gamma1's caps at the rate
    floor, with at most one of them raised by 1, over weights that reach
    huge caps (beta1 near 1) and caps undefined at i = 1 (beta2 near
    exp(-MIN_GAMMA2))."""
    beta1 = draw(st.floats(0.01, 0.95) | st.floats(0.95, 0.999999))
    edge = math.exp(-MIN_GAMMA2)
    beta2 = draw(st.floats(0.0, 0.99) | st.floats(edge - 1e-6, edge + 1e-6))
    params = Params(beta1=beta1, beta2=beta2)
    gamma1 = draw(st.sampled_from(DEFAULT_GAMMA1_GRID))
    count = draw(st.integers(1, 60))
    try:
        caps = [case3_length_cap(i, gamma1, MIN_GAMMA2, params) for i in range(1, count + 1)]
    except MeaninglessBound:
        caps = [1.0] * count
    lengths = [math.floor(cap + CAP_FEASIBILITY_TOL) for cap in caps]
    raised = draw(st.none() | st.integers(0, count - 1))
    if raised is not None:
        lengths[raised] += 1
    return params, draw(st.permutations(lengths))


class TestScreenedSearch:
    @given(_boundary_inputs())
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_search_matches_the_scalar_reference(self, case):
        params, lengths = case
        expected = _scalar_search_reference(lengths, params)
        cert = search_case3(lengths, params)
        if expected is None:
            assert cert.verdict is Verdict.NOT_CERTIFIED
            assert cert.witnesses == {} and cert.trace is None
            return
        gamma1, assignment = expected
        assert cert.verdict is Verdict.CERTIFIED
        assert _rows(cert.witnesses) == {
            "gamma1": gamma1, "gamma2": MIN_GAMMA2, "assignment": assignment,
        }
        assert [cap.hex() for cap in cert.witnesses["assignment"][3].tolist()] == [
            cap.hex() for *_, cap in assignment
        ]
        trace = bound_trace([length for _, _, length, _ in assignment], params)
        for name in ("lengths", "products", "neg_log_sums"):
            assert getattr(cert.trace, name).tobytes() == getattr(trace, name).tobytes()

    def test_screen_keeps_a_length_inside_the_tolerance(self):
        # The constant gamma1 = 0 cap is 5 - 5e-10 here, so only the
        # tolerance lets a length of 5 through.
        params = Params(beta1=0.5, beta2=1.0 + math.expm1(-MIN_GAMMA2) * 0.5 ** (5e-10 - 4.0))
        assert 5.0 - CAP_FEASIBILITY_TOL < case3_length_cap(1, 0.0, MIN_GAMMA2, params) < 5.0 - 1e-10
        lengths = np.array([5, 5, 5])
        cert = search_case3(lengths, params)
        assert cert.certified and cert.witnesses["gamma1"] == 0.0


def _counting_caps(monkeypatch):
    """Wrap ``_case3_caps`` in the certifier so that every position it
    computes is recorded, in order; returns the record."""
    seen: list[int] = []

    def counted(positions, gamma1, gamma2, params):
        seen.extend(positions)
        return _case3_caps(positions, gamma1, gamma2, params)

    monkeypatch.setattr(certifier, "_case3_caps", counted)
    return seen


class TestEarlyReturn:
    """``certify_case3`` computes the caps in chunks of positions 1-8,
    9-64, 65-512, ... and stops after the chunk holding the first rank whose
    length exceeds the cap at its own position."""

    @pytest.mark.parametrize("rank", [0, 7, 8, 63, 64, 300, 511, 512, 999])
    def test_stops_after_the_chunk_holding_the_failing_rank(self, monkeypatch, rank):
        # gamma1 = 0 gives every position the same cap, so raising the
        # lengths from sorted rank ``rank`` on makes it the first failure.
        schedule = case3_lengths(1000, 0.0, MIN_GAMMA2, WIDE)
        lengths = schedule[:rank] + [v + 1 for v in schedule[rank:]]
        seen = _counting_caps(monkeypatch)
        cert = certify_case3(lengths[::-1], 0.0, MIN_GAMMA2, WIDE)
        assert not cert.certified
        assert cert.notes[0].startswith(f"rank {rank}: ")
        chunk_end = next(end for end in (8, 64, 512, 1000) if rank < end)
        assert seen == list(range(1, chunk_end + 1))

    @pytest.mark.parametrize("count", [1, 8, 9, 64, 65, 600])
    def test_a_certifying_scan_computes_each_position_once(self, monkeypatch, count):
        lengths = case3_lengths(count, 1.0, MIN_GAMMA2, PARAMS)
        seen = _counting_caps(monkeypatch)
        cert = certify_case3(lengths[::-1], 1.0, MIN_GAMMA2, PARAMS)
        assert cert.certified
        assert seen == list(range(1, count + 1))

    def test_caps_out_of_order_fail_at_the_first_rank_over_its_own_cap(self, monkeypatch):
        # Rank 1's length 4 is under the cap 5 at position 1 but over its
        # own cap 3 at position 2.
        monkeypatch.setattr(
            certifier, "_case3_caps", lambda positions, *_: [[5.0, 3.0, 3.0][i - 1] for i in positions]
        )
        cert = certify_case3([4, 3, 4], 1.0, MIN_GAMMA2, PARAMS)
        assert not cert.certified
        assert cert.notes == ("rank 1: length 4 exceeds the cap 3.0 at position i=2",)

    def test_caps_out_of_order_certify_when_each_rank_fits_its_own_cap(self, monkeypatch):
        caps = [5.0, 3.0, 4.0]
        monkeypatch.setattr(certifier, "_case3_caps", lambda positions, *_: [caps[i - 1] for i in positions])
        cert = certify_case3([4, 3, 2], 1.0, MIN_GAMMA2, PARAMS)
        assert cert.certified
        rows = _rows(cert.witnesses)["assignment"]
        assert rows == ((1, 2, 2, 5.0), (2, 1, 3, 3.0), (3, 0, 4, 4.0))
        assert all(length <= cap + CAP_FEASIBILITY_TOL for _, _, length, cap in rows)

    def test_a_length_at_cap_plus_tolerance_passes(self, monkeypatch):
        caps = [3.0 - CAP_FEASIBILITY_TOL, 4.0 - CAP_FEASIBILITY_TOL]
        assert [cap + CAP_FEASIBILITY_TOL for cap in caps] == [3.0, 4.0]
        monkeypatch.setattr(certifier, "_case3_caps", lambda positions, *_: [caps[i - 1] for i in positions])
        cert = certify_case3([4, 3], 1.0, MIN_GAMMA2, PARAMS)
        assert cert.certified
        assert _rows(cert.witnesses)["assignment"] == ((1, 1, 3, caps[0]), (2, 0, 4, caps[1]))

    def test_undefined_cap_at_the_first_position_raises(self):
        params = Params(beta1=0.05, beta2=0.9995)
        lengths = [1] * 100
        for g1 in DEFAULT_GAMMA1_GRID:
            with pytest.raises(MeaninglessBound):
                certify_case3(lengths, g1, MIN_GAMMA2, params)


class TestCapList:
    @given(
        beta1=st.floats(0.01, 0.999999),
        beta2=st.floats(0.0, 0.99) | st.floats(0.998, 0.99999),
        gamma1=st.floats(0.0, 1.0),
        log_gamma2=st.floats(-3.0, 1.0),
        first=st.integers(1, 10**6),
        count=st.integers(0, 40),
    )
    @settings(max_examples=300, deadline=None)
    def test_equals_the_scalar_cap_bit_for_bit(
        self, beta1, beta2, gamma1, log_gamma2, first, count
    ):
        params = Params(beta1=beta1, beta2=beta2)
        gamma2 = 10.0 ** log_gamma2
        positions = range(first, first + count)
        expected, error = [], None
        for i in positions:
            try:
                cap = case3_length_cap(i, gamma1, gamma2, params)
            except MeaninglessBound as exc:
                error = str(exc)
                break
            assert cap.hex() == _cap_formula(i, gamma1, gamma2, params).hex()
            expected.append(cap.hex())
        if error is None:
            assert [cap.hex() for cap in _case3_caps(positions, gamma1, gamma2, params)] == expected
        else:
            with pytest.raises(MeaninglessBound) as exc:
                _case3_caps(positions, gamma1, gamma2, params)
            assert str(exc.value) == error
            with pytest.raises(MeaninglessBound) as exc:
                _cap_formula(first + len(expected), gamma1, gamma2, params)
            assert str(exc.value) == error

    def test_invalid_arguments_are_checked_once(self):
        with pytest.raises(InvalidSubset, match="got 0"):
            _case3_caps(range(0, 3), 1.0, 1.0, PARAMS)
        with pytest.raises(ValueError, match="gamma1"):
            _case3_caps(range(1, 3), 2.0, 1.0, PARAMS)
        with pytest.raises(ValueError, match="gamma2"):
            _case3_caps(range(1, 3), 1.0, 0.0, PARAMS)


class TestBoundTrace:
    def test_products_decrease_and_logs_accumulate(self):
        trace = bound_trace([1, 2, 3, 4], PARAMS)
        assert np.all(np.diff(trace.products) < 0)
        assert np.all(np.diff(trace.neg_log_sums) > 0)
        assert trace.products[0] == pytest.approx(PARAMS.beta2)

    def test_trace_matches_direct_product(self):
        lengths = [2, 3, 2]
        trace = bound_trace(lengths, WIDE)
        direct = np.cumprod([slice_norm_bound(v, WIDE) for v in lengths])
        assert np.allclose(trace.products, direct, rtol=1e-12)

    def test_extreme_lengths_do_not_crash(self):
        trace = bound_trace([10**6], WIDE)
        assert trace.products[0] <= 1.0
        assert trace.neg_log_sums[0] >= 0.0


class TestCertificateOutput:
    def test_format_contains_verdict_and_witnesses(self):
        cert = certify_case1([2, 3], 3, WIDE)
        text = format_certificate(cert)
        assert "verdict: certified" in text
        assert "witness N: 3" in text

    @pytest.mark.parametrize("size", [0, 1, 2, 1000])
    def test_assignment_block_matches_one_format_per_row(self, size):
        # Caps at the ends of the float range and with 17 significant digits.
        caps = [5e-324, 1e300, 0.1, 1 / 3, math.pi, math.nextafter(1.0, 2.0), 12345.678901234567]
        rows = tuple(
            (i + 1, (7 * i) % size, 1 + i * 2**40, caps[i % len(caps)]) for i in range(size)
        )
        head = Certificate(Verdict.CERTIFIED, CertificateCase.CASE_III, {"gamma1": 1.0}, None, size)
        columns = tuple(np.array([row[c] for row in rows]) for c in range(4))
        cert = replace(head, witnesses={"gamma1": 1.0, "assignment": columns})
        block = "".join("%d,%d,%d,%.17g\n" % row for row in rows)
        expected = format_certificate(head)
        if rows:
            expected += "assignment:\ni,slice_index,length,cap\n" + block
        assert format_certificate(cert) == expected

    def test_write_produces_text_and_trace(self, tmp_path):
        cert = certify_case3(case3_lengths(3, 1.0, 1.0, PARAMS), 1.0, 1.0, PARAMS)
        assert cert.certified
        text_path = write_certificate(cert, tmp_path)
        assert text_path.exists()
        trace_path = tmp_path / "certificate_trace.csv"
        lines = trace_path.read_text().splitlines()
        assert lines[0] == "t,length,cumulative_product,neg_log_sum"
        assert len(lines) == 4

    @pytest.mark.parametrize("case", ["i", "ii", "iii"])
    def test_trace_and_assignment_lines_match_one_format_per_row(self, tmp_path, case):
        # beta2 = 0: a slice of length 1 contracts to 0, so from it on the
        # product reads 0.0 and neg_log_sum inf; before it, in log order,
        # 300 slices of length 2 take the product below 1e-4, out of the
        # fast range of the float text.
        takeover = Params(beta1=0.05, beta2=0.0)
        lengths = [2, 3] * 300 + [1, 2, 3]
        cert = {
            "i": lambda: certify_case1(lengths, 3, takeover),
            "ii": lambda: certify_case2(lengths, 3, range(0, len(lengths), 2), takeover),
            "iii": lambda: search_case3(lengths, takeover),
        }[case]()
        assert cert.certified and cert.case_used is CertificateCase("case_" + case)
        write_certificate(cert, tmp_path)
        tr = cert.trace
        columns = (range(len(tr.lengths)), tr.lengths.tolist(), tr.products.tolist(), tr.neg_log_sums.tolist())
        want = ["t,length,cumulative_product,neg_log_sum\r\n"] + [
            "%d,%d,%.17g,%.17g\r\n" % row for row in zip(*columns)
        ]
        got = (tmp_path / "certificate_trace.csv").read_bytes().decode().splitlines(keepends=True)
        assert got == want
        assert min(tr.products) == 0.0 and max(tr.neg_log_sums) == math.inf
        # Case iii traces the sorted lengths, so its length 1 comes first.
        assert any(0.0 < p < 1e-4 for p in tr.products) == (case != "iii")
        lines = (tmp_path / "certificate.txt").read_text().splitlines(keepends=True)
        assert "trace_csv: certificate_trace.csv\n" in lines
        columns = cert.witnesses.get("assignment", ())
        assignment = tuple(zip(*(column.tolist() for column in columns)))
        assert bool(assignment) == (case == "iii")
        block = ["%d,%d,%d,%.17g\n" % row for row in assignment]
        assert lines[len(lines) - len(block) :] == block

    def test_a_certificate_without_a_trace_removes_an_old_trace_file(self, tmp_path):
        write_certificate(certify_case1([2, 3], 3, WIDE), tmp_path)
        assert (tmp_path / "certificate_trace.csv").exists()
        write_certificate(certify_case1([9], 5, WIDE), tmp_path)
        assert not (tmp_path / "certificate_trace.csv").exists()
        assert "trace_csv:" not in (tmp_path / "certificate.txt").read_text()

    def test_not_certified_document(self, tmp_path):
        cert = certify_case1([9], 5, WIDE)
        write_certificate(cert, tmp_path)
        text = (tmp_path / "certificate.txt").read_text()
        assert "not_certified" in text
