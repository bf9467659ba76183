"""Stability certificates over recorded slice lengths."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slicekit import (
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
from slicekit.certifier import DEFAULT_GAMMA1_GRID, MIN_GAMMA2

PARAMS = Params(beta1=0.05, beta2=0.3)
WIDE = Params(beta1=0.05, beta2=0.7)


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

    def test_empty_subset_is_not_certified(self):
        cert = certify_case2([3, 3], 4, [], WIDE)
        assert not cert.certified

    def test_duplicate_or_out_of_range_subset_rejected(self):
        with pytest.raises(InvalidSubset):
            certify_case2([3, 3], 4, [0, 0], WIDE)
        with pytest.raises(InvalidSubset):
            certify_case2([3, 3], 4, [5], WIDE)

    def test_trace_covers_only_the_subset(self):
        cert = certify_case2([2, 50, 2], 2, [0, 2], WIDE)
        assert cert.trace is not None
        assert len(cert.trace.lengths) == 2


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

    def test_invalid_arguments(self):
        with pytest.raises(InvalidSubset):
            case3_length_cap(0, 1.0, 1.0, PARAMS)
        with pytest.raises(ValueError):
            case3_length_cap(1, 2.0, 1.0, PARAMS)
        with pytest.raises(ValueError):
            case3_length_cap(1, 1.0, 0.0, PARAMS)


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
        assignment = cert.witnesses["assignment"]
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
        assert cert.witnesses == expected.witnesses
        assert cert.horizon == expected.horizon
        for name in ("lengths", "products", "neg_log_sums"):
            assert np.array_equal(
                getattr(cert.trace, name), getattr(expected.trace, name)
            )


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

    def test_write_produces_text_and_trace(self, tmp_path):
        cert = certify_case3(case3_lengths(3, 1.0, 1.0, PARAMS), 1.0, 1.0, PARAMS)
        assert cert.certified
        text_path = write_certificate(cert, tmp_path)
        assert text_path.exists()
        trace_path = tmp_path / "certificate_trace.csv"
        lines = trace_path.read_text().splitlines()
        assert lines[0] == "t,length,cumulative_product,neg_log_sum"
        assert len(lines) == 4

    def test_not_certified_document(self, tmp_path):
        cert = certify_case1([9], 5, WIDE)
        write_certificate(cert, tmp_path)
        text = (tmp_path / "certificate.txt").read_text()
        assert "not_certified" in text
