"""Streaming slice detection: successes, bookkeeping, logs, coverage."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slicekit import (
    AssumptionViolated,
    Params,
    RowBoundInput,
    Slice,
    SliceEvent,
    SliceEventKind,
    SliceState,
    beta4,
    combined_row_bound,
    identity_step,
    inf_norm,
    push,
    random_product_sequence,
    read_slice_log,
    row_update,
    run_sequence,
    slice_norm_bound,
    write_event_log,
    write_slice_log,
)

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
                    inp = RowBoundInput(slice_len=s.length, g=g_all[row])
                else:
                    b4 = beta4(prefixes[h_all[row] - 1], params)
                    inp = RowBoundInput(
                        slice_len=s.length, h=h_all[row], beta4=b4
                    )
                bound = combined_row_bound(inp, params)
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
        rows = read_slice_log(path)
        assert len(rows) == len(slices)
        for s, row in zip(slices, rows):
            assert row["slice_index"] == s.index
            assert row["length"] == s.length
            assert row["norm"] == pytest.approx(s.norm, abs=1e-15)

    def test_event_log_header(self, tmp_path):
        mats = [identity_step(2), sub_update(2, 0, 0.5)]
        _, events, _ = run_sequence(mats, PARAMS)
        path = tmp_path / "events.csv"
        write_event_log(events, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "k,event,row,row_sum_after"
        assert len(lines) == 1 + len(events)


# ---------------------------------------------------------------------------
# Dense reference engine
# ---------------------------------------------------------------------------

def dense_push(state, m, params, k=None):
    """Reference for :func:`push` built on dense blocks: ``J <- P J`` as a
    full matrix product, every row sum recomputed, and ``informed``, ``h``
    and ``g`` derived from those sums.  No validation: callers feed it the
    rows they feed the engine."""
    n, tol = state.n, params.tol
    if np.all(np.abs(m.p - np.eye(n)) <= tol) and np.all(np.abs(m.b) <= tol):
        return [SliceEvent(SliceEventKind.SKIPPED, k=k)]
    this_k = state.next_k
    state.next_k += 1
    if state.start_k is None:
        state.start_k = this_k
    state.k_local += 1

    state.j = m.p @ state.j
    sums = state.j.sum(axis=1)
    new_informed = set(np.nonzero(sums < 1.0 - tol)[0].tolist())
    gained = sorted(new_informed - state.informed)
    for r in np.nonzero(m.p.sum(axis=1) < 1.0 - tol)[0]:
        state.g[int(r)] = state.k_local

    events = []
    if gained and not state.started:
        state.started = True
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
            length=state.k_local,
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
