"""Streaming slice detection: successes, bookkeeping, logs, coverage."""

from __future__ import annotations

import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slicekit import (
    AssumptionViolated,
    DimensionMismatch,
    Params,
    Slice,
    SliceEvent,
    SliceEventKind,
    SliceState,
    SystemMatrix,
    identity_step,
    inf_norm,
    push,
    random_product_sequence,
    read_slice_lengths,
    row_bound,
    row_update,
    run_sequence,
    slice_norm_bound,
    validate_update,
    write_event_log,
    write_slice_log,
)
from slicekit import slice_engine, tables
from slicekit.generators import _form_cdf, _row_blocks

PARAMS = Params(beta1=0.05, beta2=0.7)
LOOSE = Params(beta1=0.3, beta2=0.5)


def sub_update(n, row, total, spread_to=None):
    """Sub-stochastic single-row update with the given row sum."""
    p_row = np.zeros(n)
    p_row[row] = total if spread_to is None else total / 2
    if spread_to is not None:
        p_row[spread_to] = total / 2
    return row_update(n, row, p_row)


def stoch_update(n, row, weights):
    return row_update(n, row, weights)


def successes(events):
    return [ev.row for ev in events if ev.kind is SliceEventKind.SUCCESS]


def predicted_success(m, state, params):
    """The success rule stated up front: the updated row, when it is not
    yet informed and its update is sub-stochastic or puts weight on an
    informed row; None otherwise (identity steps included)."""
    i = m.updated_row
    if i is None or m.is_identity(params.tol) or i in state.informed:
        return None
    if float(m.p_row.sum()) < 1.0 - params.tol:
        return i
    if any(m.p_row[j] > params.tol for j in state.informed):
        return i
    return None


class TestInformedRows:
    """The informed set: the rows of the running product whose sum sits
    below 1 - tol."""

    def test_identity_has_none(self):
        state, _ = push(SliceState(n=3), identity_step(3), PARAMS)
        assert state.informed == set()
        np.testing.assert_array_equal(state.j, np.eye(3))

    def test_single_informed_row(self):
        # [DERIVED] product [[0.3, 0.2], [0.0, 1.0]]: row sums 0.5 and 1.0
        state, _ = push(
            SliceState(n=2), row_update(2, 0, [0.3, 0.2]), PARAMS, strict=False
        )
        np.testing.assert_array_equal(state.j, [[0.3, 0.2], [0.0, 1.0]])
        assert state.informed == {0}

    def test_both_rows_informed(self):
        # [DERIVED] products [[1, 0], [0.1, 0.2]] then [[0.32, 0.04], [0.1, 0.2]]:
        # row sums 0.36 and 0.3, so the second push informs both rows
        state = SliceState(n=2)
        push(state, row_update(2, 1, [0.1, 0.2]), PARAMS, strict=False)
        assert state.informed == {1}
        state, events = push(
            state, row_update(2, 0, [0.3, 0.2]), PARAMS, strict=False
        )
        assert successes(events) == [0]
        (done,) = [ev.slice for ev in events if ev.kind is SliceEventKind.COMPLETED]
        np.testing.assert_allclose(done.product, [[0.32, 0.04], [0.1, 0.2]])
        assert set(np.nonzero(done.product.sum(axis=1) < 1.0 - PARAMS.tol)[0]) == {0, 1}


class TestIsSuccess:
    """The success rule as push applies it: a row becomes newly informed
    when its update is sub-stochastic or leans on an informed row."""

    def test_substochastic_update_at_uninformed_row(self):
        state, events = push(SliceState(n=2), sub_update(2, 0, 0.5), PARAMS)
        assert successes(events) == [0]

    def test_stochastic_update_with_no_informed_weight(self):
        state, events = push(SliceState(n=2), stoch_update(2, 0, [0.5, 0.5]), PARAMS)
        assert successes(events) == []

    def test_stochastic_update_weighting_informed_row(self):
        state = SliceState(n=3)
        push(state, sub_update(3, 1, 0.5), PARAMS)
        state, events = push(state, stoch_update(3, 0, [0.5, 0.5, 0.0]), PARAMS)
        assert successes(events) == [0]

    def test_identity_is_never_a_success(self):
        state, events = push(SliceState(n=2), identity_step(2), PARAMS)
        assert successes(events) == []

    def test_already_informed_row_cannot_succeed_again(self):
        state = SliceState(n=2)
        push(state, sub_update(2, 0, 0.5), PARAMS)
        state, events = push(state, sub_update(2, 0, 0.4), PARAMS)
        assert successes(events) == []
        assert state.informed == {0}

    @pytest.mark.parametrize("seed", range(6))
    def test_prediction_matches_push(self, seed):
        rng = np.random.default_rng(seed)
        params = LOOSE
        mats = random_product_sequence(3, params, 40, rng=rng)
        state = SliceState(n=3)
        for m in mats:
            predicted = predicted_success(m, state, params)
            state, events = push(state, m, params)
            if predicted is None:
                assert successes(events) == []
            else:
                assert successes(events) == [predicted]


class TestPush:
    def test_identity_is_skipped(self):
        state = SliceState(n=2)
        state, events = push(state, identity_step(2), PARAMS, k=7)
        assert [ev.kind for ev in events] == [SliceEventKind.SKIPPED]
        assert state.k_local == 0
        assert state.next_k == 0

    def test_first_success_opens_the_slice(self):
        state = SliceState(n=2)
        state, events = push(state, sub_update(2, 0, 0.5), PARAMS)
        kinds = [ev.kind for ev in events]
        assert kinds == [SliceEventKind.STARTED, SliceEventKind.SUCCESS]
        assert state.informed == {0}
        assert state.h == {0: 1}
        assert state.g == {0: 1}

    def test_indirect_success_stamps_h_but_not_g(self):
        state = SliceState(n=2)
        push(state, sub_update(2, 1, 0.5), PARAMS)
        state, events = push(state, stoch_update(2, 0, [0.5, 0.5]), PARAMS)
        assert any(ev.kind is SliceEventKind.SUCCESS for ev in events)
        assert state.completed == 1  # both rows informed -> finalized

    def test_stochastic_update_without_informed_weight_is_absorbed(self):
        state = SliceState(n=2)
        state, events = push(state, stoch_update(2, 0, [0.5, 0.5]), PARAMS)
        assert [ev.kind for ev in events] == [SliceEventKind.ABSORBED]
        assert state.informed == set()
        assert state.k_local == 1  # buffered into the next window

    def test_completion_resets_the_window(self):
        state = SliceState(n=2)
        push(state, sub_update(2, 0, 0.5), PARAMS)
        state, events = push(state, sub_update(2, 1, 0.6), PARAMS)
        assert events[-1].kind is SliceEventKind.COMPLETED
        done = events[-1].slice
        assert done.length == 2
        assert done.norm <= done.bound + 1e-12
        assert state.informed == set()
        assert state.k_local == 0
        assert state.completed == 1

    def test_strict_mode_rejects_floor_violation(self):
        state = SliceState(n=2)
        message = (
            r"^update failed validation: weight 0\.01 at column 1 below beta1=0\.05$"
        )
        with pytest.raises(AssumptionViolated, match=message):
            push(state, stoch_update(2, 0, [0.99, 0.01]), PARAMS)

    def test_strict_mode_names_every_failed_rule(self):
        message = (
            r"^update failed validation: self-weight is zero; "
            r"weight 1\.0 at column 1 reaches 1$"
        )
        with pytest.raises(AssumptionViolated, match=message):
            push(SliceState(n=2), stoch_update(2, 0, [0.0, 1.0]), PARAMS)

    def test_permissive_mode_accepts_rule_violations(self):
        state = SliceState(n=2)
        state, events = push(
            state, stoch_update(2, 0, [0.99, 0.01]), PARAMS, strict=False
        )
        assert state.k_local == 1

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(AssumptionViolated):
            push(SliceState(n=3), sub_update(2, 0, 0.5), PARAMS)

    def test_self_weight_zero_can_shrink_informed_set_permissively(self):
        """With the weight floor disabled, a stochastic update that parks
        all mass on uninformed rows re-inflates an informed row's sum."""
        state = SliceState(n=2)
        push(state, sub_update(2, 0, 0.5), PARAMS)
        assert state.informed == {0}
        takeover = stoch_update(2, 0, [0.0, 1.0])
        state, _ = push(state, takeover, PARAMS, strict=False)
        assert state.informed == set()  # row 0 lost its discount

    def test_identity_within_tol_is_skipped_before_its_sum_is_checked(self):
        # each entry is within tol = 2**-9 of the identity's, the total not
        params = Params(beta1=0.05, beta2=0.7, tol=2.0**-9)
        m = row_update(2, 0, [1.0 + 3 * 2.0**-11, 3 * 2.0**-11])
        assert m.is_identity(params.tol)
        assert validate_update(m, params) == ("row 0 sums to 1.0029296875 > 1 + tol",)
        for strict in (True, False):
            _, events = push(SliceState(n=2), m, params, strict=strict)
            assert [ev.kind for ev in events] == [SliceEventKind.SKIPPED]

    def test_sensor_sum_of_exactly_one_minus_tol_is_not_sub_stochastic(self):
        params = Params(beta1=0.05, beta2=0.7, tol=0.25)
        state, events = push(SliceState(n=2), row_update(2, 0, [0.5, 0.25]), params)
        assert [ev.kind for ev in events] == [SliceEventKind.ABSORBED]
        assert state.g == {} and state.h == {}

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("j", range(3))
    def test_strict_mode_refuses_a_non_finite_trusted_row(self, bad, j):
        # sensors 0-1 then one anchor; the row is bad at position j
        row = np.array([0.5, 0.2, 0.3])
        row[j] = bad
        m = SystemMatrix._trusted(2, 1, 0, row[:2], row[2:])
        with pytest.raises(AssumptionViolated, match="non-finite entry"):
            push(SliceState(n=2), m, PARAMS)

    def test_strict_mode_refuses_a_row_mutated_to_nan(self):
        m = row_update(3, 0, [0.5, 0.1, 0.0])
        m.p_row[0] = np.nan
        with pytest.raises(AssumptionViolated, match="non-finite entry"):
            push(SliceState(n=3), m, PARAMS)


ROW_VALUES = st.one_of(st.floats(-2.0, 2.0), st.sampled_from([np.nan, np.inf, -np.inf]))


@st.composite
def refused_rows(draw):
    """``(n, s, row, p_row, b_row)`` with shapes near the right ones and
    values that may be non-finite."""
    n, s = draw(st.integers(1, 4)), draw(st.integers(0, 2))
    row = draw(st.integers(-1, n))

    def near(size):
        shape = draw(st.sampled_from([(size,), (size + 1,), (max(size - 1, 0),), (size, 1), ()]))
        count = int(np.prod(shape, dtype=int))
        values = draw(st.lists(ROW_VALUES, min_size=count, max_size=count))
        return np.array(values, dtype=float).reshape(shape)

    return n, s, row, near(n), near(s)


class TestStrictRefusesWhatTheConstructorRefuses:
    """Rows built by the library skip the constructor's checks, so strict
    :func:`push` must refuse on its own every row the constructor would."""

    @pytest.mark.parametrize(
        "n, s, row, p_row, b_row",
        [
            (2, 0, 0, [0.5, 0.5, 0.0], []),  # p_row too long
            (2, 0, 0, [1.0], []),  # p_row too short
            (2, 0, 0, [[0.5], [0.5]], []),  # p_row not a vector
            (2, 1, 0, [0.5, 0.2], []),  # b_row too short
            (2, 0, 0, [0.5, 0.5], [0.0]),  # b_row too long
            (2, 0, 2, [0.5, 0.5], []),  # row past the end
            (2, 0, -1, [0.5, 0.5], []),  # negative row
            (2, 0, 0, [0.0, 1.0, 0.0], []),  # misshapen but identity-like at 1
            (2, 1, 0, [np.nan, 0.5], [0.2]),
            (2, 1, 0, [0.5, 0.2], [np.inf]),
            (2, 1, 1, [0.5, -np.inf], [0.2]),
            (2, 1, 0, [np.inf, -np.inf], [0.2]),
        ],
    )
    def test_listed_rows(self, n, s, row, p_row, b_row):
        p_row, b_row = np.array(p_row, dtype=float), np.array(b_row, dtype=float)
        with pytest.raises((DimensionMismatch, AssumptionViolated)):
            SystemMatrix(n, s, row, p_row, b_row)
        with pytest.raises(AssumptionViolated, match="^update failed validation"):
            push(SliceState(n=n), SystemMatrix._trusted(n, s, row, p_row, b_row), PARAMS)

    @given(refused_rows())
    @settings(max_examples=300, deadline=None)
    def test_random_rows(self, drawn):
        n, s, row, p_row, b_row = drawn
        try:
            SystemMatrix(n, s, row, p_row, b_row)
        except (DimensionMismatch, AssumptionViolated):
            pass
        else:
            return
        with pytest.raises(AssumptionViolated, match="^update failed validation"):
            push(SliceState(n=n), SystemMatrix._trusted(n, s, row, p_row, b_row), PARAMS)


class TestRunSequence:
    def test_single_sensor_completes_immediately(self):
        # [DERIVED] n=1: the first success is also the n-th
        slices, events, state = run_sequence(
            [row_update(1, 0, [0.5])], Params(beta1=0.3, beta2=0.6)
        )
        assert len(slices) == 1
        assert slices[0].length == 1
        assert slices[0].norm == pytest.approx(0.5)

    def test_all_stochastic_sequence_never_completes(self):
        mats = [stoch_update(2, k % 2, [0.5, 0.5]) for k in range(10)]
        slices, events, state = run_sequence(mats, LOOSE)
        assert slices == []
        assert state.completed == 0

    @pytest.mark.parametrize("matrices", [[], iter(())], ids=["list", "iterator"])
    def test_empty_sequence(self, matrices):
        slices, events, state = run_sequence(matrices, PARAMS)
        assert slices == [] and events == []
        assert state.n == 0 and state.completed == 0

    def test_events_carry_raw_positions(self):
        mats = [identity_step(2), sub_update(2, 0, 0.5), identity_step(2)]
        _, events, _ = run_sequence(mats, PARAMS)
        assert [ev.k for ev in events] == [0, 1, 1, 2]

    def test_buffered_prefix_counts_toward_the_slice(self):
        """Stochastic steps arriving before the first success belong to the
        slice they precede, so lengths keep covering the sequence."""
        mats = [
            stoch_update(2, 0, [0.5, 0.5]),
            stoch_update(2, 1, [0.5, 0.5]),
            sub_update(2, 0, 0.5),
            sub_update(2, 1, 0.4),
        ]
        slices, _, _ = run_sequence(mats, LOOSE)
        assert len(slices) == 1
        assert slices[0].start_k == 0
        assert slices[0].end_k == 3
        assert slices[0].length == 4

    def test_slices_partition_the_nonidentity_prefix(self):
        rng = np.random.default_rng(11)
        mats = random_product_sequence(3, LOOSE, 80, rng=rng)
        slices, _, _ = run_sequence(mats, LOOSE)
        assert len(slices) >= 2
        assert slices[0].start_k == 0
        for prev, cur in zip(slices, slices[1:]):
            assert cur.start_k == prev.end_k + 1

    def test_completed_slices_are_fully_substochastic(self):
        rng = np.random.default_rng(5)
        mats = random_product_sequence(4, LOOSE, 120, rng=rng)
        slices, _, _ = run_sequence(mats, LOOSE)
        assert slices
        for s in slices:
            assert np.all(s.product.sum(axis=1) < 1.0 - LOOSE.tol)
            assert s.length >= 4  # every row needs at least one success

    def test_coverage_of_nonidentity_product(self):
        rng = np.random.default_rng(23)
        mats = random_product_sequence(3, LOOSE, 100, rng=rng)
        slices, _, _ = run_sequence(mats, LOOSE)
        assert slices
        non_identity = [m for m in mats if not m.is_identity()]
        concat = np.eye(3)
        for s in slices:
            concat = s.product @ concat
        direct = np.eye(3)
        for m in non_identity[: slices[-1].end_k + 1]:
            direct = m.p @ direct
        assert np.max(np.abs(concat - direct)) <= 3 * len(mats) * 1e-12


def push_loop(mats, params, strict=True):
    """:func:`run_sequence` written as the plain loop of :func:`push` it
    replaces; a test-only reference."""
    slices, events, state = [], [], None
    for k, m in enumerate(mats):
        if state is None:
            state = SliceState(n=m.n)
        _, evs = push(state, m, params, strict=strict, k=k)
        slices += [ev.slice for ev in evs if ev.slice is not None]
        events += evs
    return slices, events, state


def run_fields(slices, events, state):
    """Everything a run returns, as comparable values with float bits."""

    def bits(v):
        return None if v is None else float(v).hex()

    return (
        [(ev.kind, ev.k, ev.row, bits(ev.row_sum_after)) for ev in events],
        [
            (sl.index, sl.start_k, sl.end_k, bits(sl.norm), bits(sl.bound), sl.product.tobytes())
            for sl in slices
        ],
        [ev.slice for ev in events if ev.slice is not None] == slices,
        (
            state.n, state.j.tobytes(), state.informed, state.h, state.g,
            state.start_k, state.next_k, state.completed,
        ),
    )


def mixed_sequence(n, params, horizon, rng):
    """Generated rows with, at random steps, a row of two anchors, an
    identity step over one anchor and a generated row rebuilt by
    ``_trusted`` on a strided view: rows whose sizes differ from the first
    matrix's, which :func:`push` takes as they are, and a row that is not
    contiguous."""
    out = []
    for m in random_product_sequence(n, params, horizon, rng=rng):
        roll = rng.integers(6)
        i = int(rng.integers(n))
        if roll == 0:
            p_row = np.zeros(n)
            p_row[i] = params.beta2 / 2
            out.append(row_update(n, i, p_row, b_row=[0.25, 0.25]))
        elif roll == 1:
            out.append(identity_step(n, 1))
        elif roll == 2 and m.updated_row is not None:
            wide = np.repeat(m.p_row, 2)
            out.append(SystemMatrix._trusted(n, 0, m.updated_row, wide[::2], np.zeros(0)))
        else:
            out.append(m)
    return out


def products_path(n, params, horizon, seed, engine_params, strict):
    """The products command's path: each draw block of rows goes straight
    to ``_run_rows``, which writes each step's code and row sum into the
    block's arrays, a step of row -1, which the engine does not see, left
    skipped; the events built from those arrays are what
    :func:`run_sequence` returns, and so are the slices."""
    state, slices, events = SliceState(n=n), [], []
    cdf = _form_cdf(1.0, 1.0, 1.0)
    for k0, rows, p_rows in _row_blocks(n, params, horizon, np.random.default_rng(seed), cdf):
        no_anchors = np.zeros((len(rows), 0))
        codes, sums = np.zeros(len(rows), np.int8), np.zeros(len(rows))
        steps = slice_engine._run_rows(
            state, rows, p_rows, no_anchors, codes, sums, engine_params, strict
        )
        ran = dict(steps)
        assert list(ran) == np.flatnonzero(rows >= 0).tolist()
        assert not codes[rows < 0].any()
        done = [sl for sl in ran.values() if sl is not None]
        ks = range(k0, k0 + len(rows))
        events += slice_engine._events(ks, codes.tolist(), rows.tolist(), sums.tolist(), done)
        slices += done
    return slices, events, state


class TestRunSequenceScreensBlocks:
    """``run_sequence`` is the loop of :func:`push` that every block path
    is checked against.  The products path screens a block of rows at once
    in ``_run_rows`` and absorbs the clear ones directly; it must return
    what the :func:`push` loop does, across block edges, in both modes."""

    @pytest.mark.parametrize("block", [1, 3, 64, None])
    @pytest.mark.parametrize("seed", range(4))
    def test_matches_a_push_loop(self, monkeypatch, block, seed):
        if block is not None:
            monkeypatch.setattr(slice_engine, "DRAW_BLOCK", block)
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 6))
        for strict, mats in (
            (True, random_product_sequence(n, PARAMS, 300, rng=rng)),
            (True, mixed_sequence(n, PARAMS, 300, rng)),
            (False, permissive_sequence(n, PARAMS, 300, rng)),
        ):
            want = run_fields(*push_loop(mats, PARAMS, strict))
            assert run_fields(*run_sequence(mats, PARAMS, strict)) == want
            assert run_fields(*run_sequence(iter(mats), PARAMS, strict)) == want
        # The products path, on draw blocks of the same size.  Under a
        # beta2 of 0.3 the rows of sum in (0.3, 0.7] fail the screen, so the
        # permissive engine sends them to push.
        for strict, engine_params in ((True, PARAMS), (False, Params(beta1=0.05, beta2=0.3))):
            mats = random_product_sequence(n, PARAMS, 300, rng=seed)
            want = run_fields(*push_loop(mats, engine_params, strict))
            got = products_path(n, PARAMS, 300, seed, engine_params, strict)
            assert run_fields(*got) == want

    def test_steps_run_only_as_they_are_drawn(self, monkeypatch):
        # Step 3 (k = 13) is refused in strict mode.  Drawing the three steps
        # before it raises nothing, and no later step reaches the engine.
        good = [0.3, 0.3, 0.1]
        rows = np.array([0, -1, 2, 1, 0, 1])
        p_rows = np.array([good, [0.0] * 3, good, [0.2, 0.5, 0.1], good, good])
        b_rows = np.array([[0.3], [0.0], [0.3], [0.2], [0.3], [0.3]])
        fed = []

        def absorb(state, i, p_row, p_sum, params):
            fed.append(t_of(p_row))
            return real_absorb(state, i, p_row, p_sum, params)

        def lone_push(state, m, params, strict):
            fed.append(t_of(m.p_row))
            return real_push(state, m, params, strict)

        def t_of(p_row):  # the step whose row this is, by identity
            (t,) = [t for t in range(len(p_rows)) if np.shares_memory(p_row, p_rows[t])]
            return 10 + t

        real_absorb, real_push = slice_engine._absorb, slice_engine._push
        monkeypatch.setattr(slice_engine, "_absorb", absorb)
        monkeypatch.setattr(slice_engine, "_push", lone_push)
        state = SliceState(n=3)
        codes, sums = np.zeros(len(rows), np.int8), np.zeros(len(rows))
        steps = slice_engine._run_rows(state, rows, p_rows, b_rows, codes, sums, PARAMS)
        drawn = [next(steps) for _ in range(2)]
        # The identity step (t = 1) yields nothing: it never reaches the engine.
        assert [t for t, _ in drawn] == [0, 2]
        assert fed == [10, 12]
        assert state.next_k == 2
        with pytest.raises(AssumptionViolated, match="exceeds beta2"):
            next(steps)
        assert fed == [10, 12, 13]

    def test_a_unit_row_yields_its_own_skipped_event(self):
        # Row -1 yields nothing; a unit row is not clear, so push skips it.
        rows = np.array([-1, 1, 0])
        p_rows = np.array([[0.0, 0.0], [0.0, 1.0], [0.5, 0.5]])
        state = SliceState(n=2)
        codes, sums = np.full(3, 7, np.int8), np.zeros(3)
        steps = list(
            slice_engine._run_rows(state, rows, p_rows, np.zeros((3, 0)), codes, sums, PARAMS)
        )
        assert [t for t, _ in steps] == [1, 2]
        assert codes[1] == slice_engine._SKIPPED and codes[0] == 7  # row -1 left as it was
        events = slice_engine._events([5], codes[1:2].tolist(), [1], sums[1:2].tolist(), [])
        assert [(ev.kind, ev.k) for ev in events] == [(SliceEventKind.SKIPPED, 5)]

    @pytest.mark.parametrize("block", [1, 3, 64])
    @pytest.mark.parametrize("seed", range(4))
    def test_step_writer_writes_the_push_loop_log(self, monkeypatch, block, seed):
        # Each block's codes and row sums, written by the step writer, are
        # the bytes write_event_log writes for the push loop's events:
        # rules broken (push takes them when permissive), unit rows (row >= 0,
        # skipped) and identity steps (row -1) included.
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 6))
        mats = permissive_sequence(n, PARAMS, 300, rng)
        units = rng.choice(len(mats), 20, replace=False).tolist()
        for t in units:
            i = int(rng.integers(n))
            mats[t] = row_update(n, i, np.eye(n)[i])
        rows = np.array([-1 if m.updated_row is None else m.updated_row for m in mats])
        p_rows = np.array([np.zeros(n) if m.updated_row is None else m.p_row for m in mats])
        pushed, real_push = [], slice_engine._push

        def counting(state, m, params, strict):
            pushed.append(m.updated_row)
            return real_push(state, m, params, strict)

        monkeypatch.setattr(slice_engine, "_push", counting)
        state, got = SliceState(n=n), io.StringIO()
        for k0 in range(0, len(mats), block):
            at = slice(k0, k0 + block)
            codes, sums = np.zeros(len(rows[at]), np.int8), np.zeros(len(rows[at]))
            no_anchors = np.zeros((len(rows[at]), 0))
            steps = slice_engine._run_rows(
                state, rows[at], p_rows[at], no_anchors, codes, sums, PARAMS, strict=False
            )
            for _ in steps:
                pass
            tables._write_steps(got, k0, codes, rows[at], sums)
        want = io.StringIO()
        write_event_log(run_sequence(mats, PARAMS, strict=False).events, want)
        assert got.getvalue() == want.getvalue()
        assert len(pushed) > len(units)  # the unit rows and rules broken
        lines = got.getvalue().splitlines()
        assert {f"{t},skipped,," for t in units} <= set(lines)

    @pytest.mark.parametrize("code", range(8))
    def test_step_writer_and_events_read_a_code_alike(self, code):
        # Every code, 4 (completed alone, never returned) included, gives the
        # same lines from the step writer as from its events.
        done = Slice(0, np.eye(2), 0, 1, 0.5, 0.9)
        got, want = io.StringIO(), io.StringIO()
        tables._write_steps(got, 5, np.array([code], np.int8), np.array([1]), np.array([0.5]))
        write_event_log(slice_engine._events([5], [code], [1], [0.5], [done]), want)
        assert got.getvalue() == want.getvalue()
        assert got.getvalue().count("\r\n") == 1 + len(slice_engine._STEP_EVENTS[code])

    def test_strided_row_takes_the_bits_of_matmul(self):
        # push updates its row with ndarray.dot; on a column view of a
        # C-ordered array it gives the bits of @.
        n = 7
        rng = np.random.default_rng(5)
        weights = rng.dirichlet(np.ones(n), size=3 * n) * rng.choice([1.0, 0.6], (3 * n, 1))
        columns = weights.T.copy()  # step c's row is column c
        assert not columns[:, 0].flags.c_contiguous
        state, j = SliceState(n=n), np.eye(n)
        completed = 0
        for c in range(3 * n):
            i = c % n
            p_row = columns[:, c]
            j[i] = p_row @ j
            _, events = push(state, SystemMatrix._trusted(n, 0, i, p_row, np.zeros(0)), PARAMS,
                             strict=False)
            done = [ev.slice for ev in events if ev.slice is not None]
            row_sum = [ev.row_sum_after for ev in events if ev.row is not None]
            assert row_sum == [float(j[i].sum())]
            if done:
                assert done[0].product.tobytes() == j.tobytes()
                j, completed = np.eye(n), completed + 1
            assert state.j.tobytes() == j.tobytes()
        assert completed

    def test_block_edges_at_the_default_size(self):
        size = slice_engine.DRAW_BLOCK
        mats = random_product_sequence(2, LOOSE, 2 * size + 3, rng=9)
        assert run_fields(*run_sequence(mats, LOOSE)) == run_fields(*push_loop(mats, LOOSE))

    @pytest.mark.parametrize(
        "bad",
        [
            row_update(3, 1, [0.2, 0.5, 0.1], b_row=[0.2]),  # sensor sum 0.8 > beta2
            SystemMatrix._trusted(3, 1, 1, np.array([0.2, np.nan, 0.1]), np.array([0.2])),
            SystemMatrix._trusted(3, 1, 1, np.array([0.2, 0.5]), np.array([0.3])),
            # Rows of weights within the rules, sized or indexed for another engine.
            SystemMatrix._trusted(3, 1, -1, np.array([0.2, 0.3, 0.1]), np.array([0.4])),
            SystemMatrix._trusted(3, 1, 3, np.array([0.2, 0.3, 0.1]), np.array([0.4])),
            SystemMatrix._trusted(3, 2, 1, np.array([0.2, 0.3, 0.1]), np.array([0.4])),
            SystemMatrix._trusted(4, 1, 1, np.array([0.2, 0.3, 0.1]), np.array([0.4])),
        ],
        ids=["over-beta2", "nan", "wrong-shape", "row-minus-one", "row-past-end", "anchors",
             "sensors"],
    )
    def test_refuses_with_the_text_of_a_lone_push(self, bad):
        with pytest.raises(AssumptionViolated) as lone:
            push(SliceState(n=3), bad, PARAMS)
        good = [row_update(3, k % 3, [0.3, 0.3, 0.1], b_row=[0.3]) for k in range(6)]
        for mats in (good[:3] + [bad] + good[3:], good + [bad], [bad] + good):
            with pytest.raises(AssumptionViolated) as run:
                run_sequence(mats, PARAMS)
            with pytest.raises(AssumptionViolated) as loop:
                push_loop(mats, PARAMS)
            assert str(run.value) == str(loop.value)
            # The leading row sets the engine's size; after it, a row is
            # refused as it is alone.
            if mats[0] is not bad:
                assert str(run.value) == str(lone.value)

    def test_earlier_slices_survive_later_updates(self):
        mats = random_product_sequence(3, LOOSE, 200, rng=4)
        slices, _, state = run_sequence(mats, LOOSE)
        assert len(slices) >= 2
        before = [sl.product.copy() for sl in slices]
        # The open window's product is updated in place from here on.
        for m in random_product_sequence(3, LOOSE, 200, rng=5):
            push(state, m, LOOSE)
        state.j[:] = np.nan
        for sl, product in zip(slices, before):
            assert sl.product.tobytes() == product.tobytes()
            assert not np.shares_memory(sl.product, state.j)


class TestRowBoundsAgainstRealizedSums:
    """Replay completed slices and check each product row against the
    closed-form row bound built from the recorded h, g, and beta4 values."""

    @pytest.mark.parametrize("seed", range(10))
    def test_row_bounds_dominate(self, seed):
        rng = np.random.default_rng(seed)
        params = LOOSE
        mats = random_product_sequence(4, params, 150, rng=rng)
        non_identity = [m for m in mats if not m.is_identity()]

        state = SliceState(n=4)
        window: list = []
        for m in non_identity:
            window.append(m)
            h_snapshot: dict[int, int] = dict(state.h)
            state, events = push(state, m, params)
            r = m.updated_row
            if r is not None and m.p[r].sum() < 1.0 - params.tol:
                # a direct discount caps the product row at beta2 right away
                row_sum_now = (
                    events[-1].slice.product[r].sum()
                    if events[-1].slice is not None
                    else state.j[r].sum()
                )
                assert row_sum_now <= params.beta2 + 1e-12
            done = [ev.slice for ev in events if ev.slice is not None]
            if not done:
                continue
            s = done[0]
            h_all = {**h_snapshot}
            # recover h for rows that succeeded on the closing push
            for ev in events:
                if ev.kind is SliceEventKind.SUCCESS:
                    h_all.setdefault(ev.row, s.length)
            # replay the window to recover beta4 just before each h
            prefixes = [np.eye(4)]
            for w in window:
                prefixes.append(w.p @ prefixes[-1])
            g_all: dict[int, int] = {}
            for idx, w in enumerate(window, start=1):
                r = w.updated_row
                if r is not None and w.p[r].sum() < 1.0 - params.tol:
                    g_all[r] = idx
            sums = s.product.sum(axis=1)
            row_bounds = []
            for row in range(4):
                if row in g_all:
                    bound = row_bound(s.length, params, g=g_all[row])
                else:
                    prev = prefixes[h_all[row] - 1].sum(axis=1)
                    informed = prev[prev < 1.0 - params.tol]
                    assert informed.size, "no sub-stochastic row before h"
                    bound = row_bound(
                        s.length, params, h=h_all[row], beta4=informed.max()
                    )
                assert sums[row] <= bound + 1e-9
                row_bounds.append(bound)
            # the full chain: norm <= max row bound <= slice-level bound
            assert s.norm <= max(row_bounds) + 1e-9
            assert max(row_bounds) <= s.bound + 1e-9
            window = []


class TestLogs:
    def test_slice_log_round_trip(self, tmp_path):
        rng = np.random.default_rng(3)
        mats = random_product_sequence(3, LOOSE, 60, rng=rng)
        slices, events, _ = run_sequence(mats, LOOSE)
        assert slices
        path = tmp_path / "slices.csv"
        write_slice_log(slices, path)
        assert read_slice_lengths(path) == [s.length for s in slices]

    @pytest.mark.parametrize(
        "text, lengths",
        [
            ("", []),
            ("slice_index,start_k,end_k,length,norm,bound\n", []),
            ("a,b\n", []),
            ("a,b\n\n\n", []),
            ("length\n3\n4\n", [3, 4]),
            # Only length is converted: the other cells may read anything.
            ("slice_index,start_k,end_k,length,norm,bound\n0,0,4,5,abc,\n", [5]),
            # CRLF endings, blank lines, a quoted length, an unknown column.
            (
                'slice_index,start_k,end_k,length,norm,bound,extra\r\n'
                '0,0,4,"5",0.5,0.9,x\r\n\r\n1,5,7,3,0.5,0.9,y\r\n\r\n',
                [5, 3],
            ),
            # A short row is refused only when short of a named column.
            ("length,extra\n5\n", [5]),
        ],
    )
    def test_read_slice_lengths(self, tmp_path, text, lengths):
        path = tmp_path / "slices.csv"
        path.write_bytes(text.encode())
        assert read_slice_lengths(path) == lengths

    @pytest.mark.parametrize(
        "text, error",
        [
            ("length\n5\nx\n", ValueError),
            ("length\n5.0\n", ValueError),
            ("slice_index,start_k,end_k,length,norm,bound\n0,0,4,5,0.5\n", IndexError),
            ("slice_index,length\n0\n", IndexError),
            ("a,b\n1,2\n", KeyError),
            (" length\n5\n", KeyError),
        ],
    )
    def test_read_slice_lengths_refuses(self, tmp_path, text, error):
        path = tmp_path / "slices.csv"
        path.write_text(text)
        with pytest.raises(error):
            read_slice_lengths(path)

    def test_event_log_header(self, tmp_path):
        mats = [identity_step(2), sub_update(2, 0, 0.5)]
        _, events, _ = run_sequence(mats, PARAMS)
        path = tmp_path / "events.csv"
        write_event_log(events, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "k,event,row,row_sum_after"
        assert len(lines) == 1 + len(events)


    @pytest.mark.parametrize("count", [0, 1, 511, 512, 513, 1025])
    def test_event_log_matches_one_format_per_row(self, tmp_path, count):
        rng = np.random.default_rng(count)
        floats = [0.1, 1.0, -0.0, 5e-324, 1e300, 0.3333333333333333, 2.5, np.nan]
        events = []
        for k in range(count):
            kind = list(SliceEventKind)[k % len(SliceEventKind)]
            value = floats[int(rng.integers(len(floats)))] if rng.integers(3) else None
            row = int(rng.integers(4)) if value is not None or rng.integers(2) else None
            events.append(SliceEvent(kind, k=None if k % 7 == 3 else k, row=row,
                                     row_sum_after=value))
        path = tmp_path / "events.csv"
        write_event_log(events, path)
        want = "k,event,row,row_sum_after\r\n" + "".join(
            "%s,%s,%s,%s\r\n" % (
                "" if ev.k is None else ev.k,
                ev.kind.value,
                "" if ev.row is None else ev.row,
                "" if ev.row_sum_after is None else "%.17g" % ev.row_sum_after,
            )
            for ev in events
        )
        assert path.read_bytes() == want.encode()


# ---------------------------------------------------------------------------
# Dense reference engine
# ---------------------------------------------------------------------------

def dense_push(state, m, params, k=None):
    """Reference for :func:`push` built on dense blocks: ``J <- P J`` as a
    full matrix product, every row sum recomputed, and ``informed``, ``h``
    and ``g`` derived from those sums.  No validation: callers feed it the
    rows they feed the engine."""
    n, tol = state.n, params.tol
    unit_b = m.updated_row is None or np.all(np.abs(m.b_row) <= tol)
    if np.all(np.abs(m.p - np.eye(n)) <= tol) and unit_b:
        return [SliceEvent(SliceEventKind.SKIPPED, k=k)]
    this_k = state.next_k
    state.next_k += 1
    if state.start_k is None:
        state.start_k = this_k

    state.j = m.p @ state.j
    sums = state.j.sum(axis=1)
    new_informed = set(np.nonzero(sums < 1.0 - tol)[0].tolist())
    gained = sorted(new_informed - state.informed)
    for r in np.nonzero(m.p.sum(axis=1) < 1.0 - tol)[0]:
        state.g[int(r)] = state.k_local

    events = []
    if gained and not state.h:
        events.append(SliceEvent(SliceEventKind.STARTED, k=k))
    for r in gained:
        state.h.setdefault(r, state.k_local)
        events.append(
            SliceEvent(SliceEventKind.SUCCESS, k=k, row=r, row_sum_after=float(sums[r]))
        )
    if not gained:
        row = m.updated_row
        events.append(
            SliceEvent(
                SliceEventKind.ABSORBED, k=k, row=row, row_sum_after=float(sums[row])
            )
        )
    state.informed = new_informed

    if len(state.informed) == n:
        finished = Slice(
            index=state.completed,
            product=state.j.copy(),
            start_k=state.start_k,
            end_k=this_k,
            norm=inf_norm(state.j),
            bound=slice_norm_bound(state.k_local, params),
        )
        state.completed += 1
        state.reset_window()
        events.append(SliceEvent(SliceEventKind.COMPLETED, k=k, slice=finished))
    return events


def permissive_sequence(n, params, horizon, rng):
    """Admissible rows interleaved with rows strict mode rejects: zero
    self-weight, a weight below beta1, and full takeovers by another row."""
    admissible = random_product_sequence(n, params, horizon, rng=rng)
    out = []
    for m in admissible:
        form = int(rng.integers(4))
        i = int(rng.integers(n))
        others = [j for j in range(n) if j != i]
        p_row = np.zeros(n)
        if form == 0:
            out.append(m)
            continue
        if form == 1:  # zero self-weight
            p_row[others] = rng.dirichlet(np.ones(n - 1)) * rng.choice([1.0, 0.5])
        elif form == 2:  # a weight below the floor
            p_row[i] = 1.0 - params.beta1 / 2
            p_row[rng.choice(others)] = params.beta1 / 2
        else:  # takeover
            p_row[rng.choice(others)] = 1.0
        out.append(row_update(n, i, p_row))
    return out


def assert_close_ulps(a, b, ulps=4):
    assert abs(a - b) <= ulps * np.spacing(max(abs(a), abs(b))), (a, b)


class TestDenseOracle:
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(2, 6),
        horizon=st.integers(1, 80),
        beta1=st.sampled_from([0.05, 0.1, 0.3]),
        beta2=st.sampled_from([0.3, 0.7, 0.9]),
        strict=st.booleans(),
    )
    # The two engines sum the updated row in different orders, so their
    # gap is a random walk of rounding steps: 0-2 ulp almost always, 4 ulp
    # about once in 4e5 comparisons.  Fixed examples keep the 4-ulp check
    # from flaking on a rare longer walk.
    @settings(max_examples=150, deadline=None, derandomize=True)
    def test_single_row_engine_matches_dense_engine(
        self, seed, n, horizon, beta1, beta2, strict
    ):
        params = Params(beta1=beta1, beta2=beta2)
        rng = np.random.default_rng(seed)
        if strict:
            mats = random_product_sequence(n, params, horizon, rng=rng)
        else:
            mats = permissive_sequence(n, params, horizon, rng)
        fast, dense = SliceState(n=n), SliceState(n=n)
        for k, m in enumerate(mats):
            _, got = push(fast, m, params, strict=strict, k=k)
            want = dense_push(dense, m, params, k=k)
            assert [(e.kind, e.k, e.row) for e in got] == [
                (e.kind, e.k, e.row) for e in want
            ]
            for g_ev, w_ev in zip(got, want):
                if w_ev.row_sum_after is not None:
                    assert_close_ulps(g_ev.row_sum_after, w_ev.row_sum_after)
                if w_ev.slice is not None:
                    g_sl, w_sl = g_ev.slice, w_ev.slice
                    assert (g_sl.start_k, g_sl.end_k, g_sl.length) == (
                        w_sl.start_k,
                        w_sl.end_k,
                        w_sl.length,
                    )
                    assert_close_ulps(g_sl.norm, w_sl.norm)
            assert fast.informed == dense.informed
            assert fast.h == dense.h
            assert fast.g == dense.g
            assert (fast.start_k, fast.k_local, fast.completed) == (
                dense.start_k,
                dense.k_local,
                dense.completed,
            )
