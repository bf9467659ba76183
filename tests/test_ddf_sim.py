"""Mobile leader-follower fusion: worlds, motion, updates, runs."""

from __future__ import annotations

import dataclasses
import json
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slicekit import (
    AssumptionViolated,
    ConfigError,
    DimensionMismatch,
    InfeasibleWeights,
    LeaderFollowerConfig,
    SliceKitError,
    SystemMatrix,
    Params,
    UpdateKind,
    World,
    demo_world,
    identity_step,
    row_update,
    run_leader_follower,
    steady_state_check,
)
from slicekit import ddf_sim, slice_engine
from slicekit.ddf_sim import resolve_comm_radius
from slicekit.cli import EXIT_OK, main
from slicekit.slice_engine import DRAW_BLOCK, SliceEventKind, SliceState, push
from slicekit.tables import (
    FRAME_ROWS,
    write_event_log,
    write_positions_csv,
    write_trajectory_csv,
)

PARAMS = Params(beta1=0.05, beta2=0.7, alpha=0.1)


def tiny_world(**overrides):
    """One sensor (node 0) and one anchor (node 1) in overlapping range."""
    base = dict(
        pos=np.array([[1.0, 0.0], [0.0, 0.0]]),
        center=np.array([[1.0, 0.0], [0.0, 0.0]]),
        radius=np.array([1.0, 0.5]),
        x=np.array([0.0]),
        u=np.array([3.0]),
        comm_radius=2.0,
        rng_seed=0,
    )
    base.update(overrides)
    return World(**base)


class TestWorld:
    def test_demo_world_shapes(self):
        w = demo_world(n=4, u=3.0, seed=0)
        assert w.n == 4 and w.s == 1
        assert w.pos.shape == (5, 2)
        assert np.all(w.u == 3.0)

    def test_demo_world_outer_sensors_never_reach_the_anchor(self):
        w = demo_world(n=4, u=3.0, seed=0)
        for i in (2, 3):
            closest = np.linalg.norm(w.center[i]) - w.radius[i] - w.radius[w.n]
            assert closest > w.comm_radius

    def test_demo_world_inner_sensors_can_reach_the_anchor(self):
        w = demo_world(n=4, u=3.0, seed=0)
        for i in (0, 1):
            closest = np.linalg.norm(w.center[i]) - w.radius[i] - w.radius[w.n]
            assert closest < w.comm_radius

    def test_demo_world_names_a_wrong_x0_length(self):
        with pytest.raises(ConfigError, match=r"^x0 must hold 4 initial states, got shape \(2,\)"):
            demo_world(n=4, x0=[1.0, 2.0])

    @pytest.mark.parametrize("n", [2**62, 10**19])
    def test_demo_world_too_large_to_index_is_out_of_memory(self, n):
        # NumPy refuses both sizes before it allocates anything.
        with pytest.raises(MemoryError):
            demo_world(n=n)

    def test_out_of_region_position_rejected(self):
        with pytest.raises(ConfigError):
            tiny_world(pos=np.array([[5.0, 0.0], [0.0, 0.0]]))

    @pytest.mark.parametrize(
        "pos, message",
        [
            ([[3.0, 0.0], [0.0, 0.0]], r"^sensor 0 .*\(distance 2\.0 > radius 1\.0\)$"),
            ([[1.0, 0.0], [0.0, 1.5]], r"^anchor 0 .*\(distance 1\.5 > radius 0\.5\)$"),
        ],
    )
    def test_out_of_region_message_names_the_node(self, pos, message):
        with pytest.raises(ConfigError, match=message):
            tiny_world(pos=np.array(pos))

    @pytest.mark.parametrize(
        "field, value",
        [
            ("pos", [[np.nan, 0.0], [0.0, 0.0]]),
            ("center", [[1.0, 0.0], [0.0, np.inf]]),
            ("radius", [np.nan, 0.5]),
            ("x", [np.nan]),
            ("u", [-np.inf]),
            ("comm_radius", np.nan),
            ("sigma", np.inf),
            ("sigma", -1.0),
        ],
    )
    def test_non_finite_or_negative_values_rejected(self, field, value):
        with pytest.raises(ConfigError, match=field):
            tiny_world(**{field: value})

    def test_negative_radius_rejected_before_comm_radius(self):
        with pytest.raises(ConfigError, match=r"^radius"):
            tiny_world(radius=np.array([-1.0, 0.5]), comm_radius=-1.5)

    @pytest.mark.parametrize(
        "overrides",
        [{"sigma": 1e308}, {"radius": np.array([1e300, 0.5])}],
    )
    def test_overflowing_reach_rejected(self, overrides, recwarn):
        with pytest.raises(ConfigError, match=r"^sigma"):
            tiny_world(**overrides)
        assert len(recwarn) == 0

    @pytest.mark.parametrize("seed", [1.5, "7", True, None, np.float64(2.0)])
    def test_non_integer_seed_rejected(self, seed):
        with pytest.raises(ConfigError, match=r"^rng_seed must be an integer"):
            demo_world(seed=seed)

    def test_numpy_integer_seed_stored_as_int(self):
        w = demo_world(seed=np.int64(7))
        assert type(w.rng_seed) is int and w.rng_seed == 7

    def test_negative_seed_rejected(self):
        with pytest.raises(ConfigError, match="non-negative"):
            demo_world(seed=-1)

    @pytest.mark.parametrize("n", [0, -1])
    def test_demo_world_needs_a_sensor(self, n):
        with pytest.raises(ConfigError, match="at least one sensor"):
            demo_world(n=n)

    def test_no_sensors_rejected(self):
        with pytest.raises(ConfigError, match="at least one sensor"):
            World(
                pos=np.zeros((1, 2)), center=np.zeros((1, 2)), radius=np.ones(1),
                x=np.zeros(0), u=np.ones(1), comm_radius=1.0, update_prob=0.0,
            )

    def test_stacked_shapes_must_agree(self):
        with pytest.raises(DimensionMismatch):
            tiny_world(radius=np.array([1.0]))

    def test_sensor_states_must_be_one_dimensional(self):
        with pytest.raises(DimensionMismatch, match="1-D"):
            tiny_world(x=np.zeros((1, 1)))

    def test_resolve_comm_radius(self):
        assert resolve_comm_radius(2.5, [1.0, 3.0]) == 2.5
        assert resolve_comm_radius("1.5*innermost", [2.0, 1.0]) == pytest.approx(1.5)
        assert resolve_comm_radius("2xinnermost", [2.0, 1.0]) == pytest.approx(2.0)
        with pytest.raises(ConfigError):
            resolve_comm_radius("lots", [1.0])


def run_positions(world, horizon):
    """The position history of a run of ``world`` (row 0 the start layout)."""
    cfg = LeaderFollowerConfig(world=world, params=PARAMS, horizon=horizon)
    return run_leader_follower(cfg).positions


class TestMotion:
    def test_agents_stay_inside_their_disks(self):
        w = demo_world(n=4, u=3.0, seed=1)
        dist = np.linalg.norm(run_positions(w, 200) - w.center, axis=2)
        assert np.all(dist <= w.radius + 1e-9)

    def test_step_length_is_capped(self):
        w = demo_world(n=4, u=3.0, seed=2, sigma=0.1)
        jumps = np.linalg.norm(np.diff(run_positions(w, 50), axis=0), axis=2)
        assert np.all(jumps <= 0.1 * w.radius + 1e-9)

    def test_motion_is_deterministic_per_step(self):
        w = demo_world(n=4, u=3.0, seed=3)
        long = run_positions(w, 40)
        assert np.array_equal(run_positions(w, 20), long[:21])
        moves = np.diff(long, axis=0)
        assert not np.array_equal(moves[5], moves[6])

    def test_zero_sigma_freezes_everyone(self):
        w = demo_world(n=4, u=3.0, seed=4, sigma=0.0)
        assert np.all(run_positions(w, 20) == w.pos)

    def test_start_positions_are_not_modified(self):
        w = demo_world(n=4, u=3.0, seed=4, sigma=1.5)
        start = w.pos.copy()
        run_positions(w, 20)
        assert np.array_equal(w.pos, start)

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_projected_positions_stay_inside_their_disks(self, seed):
        # sigma = 1.5 pushes most steps past the boundary, so the projection
        # runs often; its rounding is relative to the radius.
        w = demo_world(n=4, u=3.0, seed=seed, sigma=1.5)
        dist = np.linalg.norm(run_positions(w, 300) - w.center, axis=2)
        assert np.all(dist <= w.radius * (1 + 1e-12))


def all_pairs_adjacency(pos, comm_radius):
    """Reference: the symmetric all-pairs adjacency, no self edges."""
    diff = pos[:, None, :] - pos[None, :, :]
    dist = np.linalg.norm(diff, axis=2)
    adj = dist <= comm_radius
    np.fill_diagonal(adj, False)
    return adj


def neighbor_rows(world, pos):
    """Every node's neighbour row at positions ``pos``, from one
    ``_neighbor_rows`` call whose steps visit the nodes in turn."""
    nodes = np.arange(len(pos))
    return ddf_sim._neighbor_rows(world, np.broadcast_to(pos, (len(pos), *pos.shape)), nodes)


class TestNeighbors:
    def test_symmetric_without_self_edges(self):
        w = demo_world(n=4, u=3.0, seed=5)
        adj = neighbor_rows(w, w.pos)
        assert adj.shape == (5, 5)
        assert np.array_equal(adj, adj.T)
        assert not np.any(np.diag(adj))

    def test_radius_threshold(self):
        w = tiny_world(comm_radius=0.99)
        assert not neighbor_rows(w, w.pos)[0, 1]
        w = tiny_world(comm_radius=1.01)
        assert neighbor_rows(w, w.pos)[0, 1]
        assert neighbor_rows(w, w.pos)[1, 0]

    @pytest.mark.parametrize("seed", range(5))
    def test_rows_match_all_pairs_reference(self, seed):
        rng = np.random.default_rng(seed)
        n, s = 6, 3
        pos = rng.normal(scale=2.0, size=(n + s, 2))
        # A radius equal to one exact pairwise distance puts that pair on
        # the boundary, where "<=" must agree with the reference.
        radius = float(np.linalg.norm(pos[1] - pos[4]))
        w = World(
            pos=pos,
            center=pos.copy(),
            radius=np.ones(n + s),
            x=np.zeros(n),
            u=np.full(s, 3.0),
            comm_radius=radius,
        )
        reference = all_pairs_adjacency(pos, radius)
        assert reference[1, 4] and reference[4, 1]
        assert np.array_equal(neighbor_rows(w, pos), reference)


FUSED = (UpdateKind.STOCHASTIC_UPDATE, UpdateKind.SUB_STOCHASTIC_UPDATE)


def row_as_update(world, rows, t, i):
    """Step ``t``'s update from its block's fusion ``rows``, with sensor
    ``i`` fusing: the fused row as ``SystemMatrix._trusted`` wraps it, and
    the identity step for any other kind."""
    if ddf_sim._KINDS[rows.kinds[t]] in FUSED:
        return SystemMatrix._trusted(world.n, world.s, i, rows.p_rows[t], rows.b_rows[t])
    return identity_step(world.n, world.s)


def one_step(world, pos, i, params):
    """The update and kind of one step at positions ``pos`` with sensor
    ``i`` fusing (-1 idles), built as a one-step block of the run's rows."""
    rows = ddf_sim._fusion_rows(world, pos[None], np.array([i]), params)
    if rows.feasible == 0:
        raise InfeasibleWeights(rows.fault)
    return row_as_update(world, rows, 0, i), ddf_sim._KINDS[rows.kinds[0]]


class TestFusionRows:
    def test_anchor_only_row_oracle(self):
        # [DERIVED] w_a = max(0.1, 0.3) = 0.3, self keeps 0.7
        w = tiny_world()
        m, kind = one_step(w, w.pos, 0, PARAMS)
        assert kind is UpdateKind.SUB_STOCHASTIC_UPDATE
        assert m.p[0, 0] == pytest.approx(0.7)
        assert m.b_row[0] == pytest.approx(0.3)

    def test_isolated_sensor_yields_identity(self):
        w = tiny_world(comm_radius=0.1)
        m, kind = one_step(w, w.pos, 0, PARAMS)
        assert kind is UpdateKind.NO_NEIGHBORS
        assert m.is_identity()
        assert m.updated_row is None

    def test_reads_the_given_positions(self):
        # The start layout is out of range; the positions passed in are not.
        w = tiny_world(comm_radius=0.6)
        m, kind = one_step(w, np.array([[0.5, 0.0], [0.0, 0.0]]), 0, PARAMS)
        assert kind is UpdateKind.SUB_STOCHASTIC_UPDATE
        assert m.b_row[0] == pytest.approx(0.3)

    @pytest.mark.parametrize("i, group", [(0, [0, 1]), (1, [0, 1, 2]), (2, [1, 2])])
    def test_sensor_group_shares_equally(self, i, group):
        centers = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [50.0, 50.0]])
        w = World(
            pos=centers.copy(),
            center=centers,
            radius=np.full(4, 0.5),
            x=np.zeros(3),
            u=np.array([3.0]),
            comm_radius=1.5,
            rng_seed=1,
        )
        m, kind = one_step(w, w.pos, i, PARAMS)
        assert kind is UpdateKind.STOCHASTIC_UPDATE
        assert m.updated_row == i
        expected = np.zeros(3)
        expected[group] = 1.0 / len(group)
        assert np.array_equal(m.p_row, expected)
        assert np.array_equal(m.b_row, [0.0])

    def test_anchor_weight_floor_binds_with_many_anchors(self):
        params = Params(beta1=0.05, beta2=0.7, alpha=0.2)
        centers = np.array([[0.0, 0.0], [0.5, 0.0], [-0.5, 0.0], [0.0, 0.5]])
        w = World(
            pos=centers.copy(),
            center=centers,
            radius=np.array([0.5, 0.2, 0.2, 0.2]),
            x=np.zeros(1),
            u=np.full(3, 3.0),
            comm_radius=2.0,
            rng_seed=0,
        )
        m, _ = one_step(w, w.pos, 0, params)
        # alpha * 3 = 0.6 > 1 - beta2 = 0.3, so each anchor gets exactly alpha
        assert np.allclose(m.b_row, 0.2)
        assert m.p[0, 0] == pytest.approx(0.4)

    def test_too_many_anchors_is_infeasible(self):
        params = Params(beta1=0.05, beta2=0.7, alpha=0.6)
        centers = np.array([[0.0, 0.0], [0.5, 0.0], [-0.5, 0.0]])
        w = World(
            pos=centers.copy(),
            center=centers,
            radius=np.array([0.5, 0.2, 0.2]),
            x=np.zeros(1),
            u=np.full(2, 3.0),
            comm_radius=2.0,
            rng_seed=0,
        )
        with pytest.raises(InfeasibleWeights):
            one_step(w, w.pos, 0, params)

    def test_crowded_sensor_group_is_infeasible(self):
        params = Params(beta1=0.4, beta2=0.7)
        centers = np.array(
            [[0.0, 0.0], [0.3, 0.0], [0.0, 0.3], [0.3, 0.3], [50.0, 50.0]]
        )
        w = World(
            pos=centers.copy(),
            center=centers,
            radius=np.array([0.2, 0.2, 0.2, 0.2, 0.5]),
            x=np.zeros(4),
            u=np.array([3.0]),
            comm_radius=5.0,
            rng_seed=0,
        )
        with pytest.raises(InfeasibleWeights):
            one_step(w, w.pos, 0, params)

    def test_idle_step_builds_identity(self):
        w = tiny_world()
        m, kind = one_step(w, w.pos, -1, PARAMS)
        assert kind is UpdateKind.IDLE
        assert m.is_identity() and m.updated_row is None


class TestUpdaters:
    """The run draws its fusing sensors itself, so none lies outside
    ``-1..n-1`` and no one-step range check is needed."""

    @pytest.mark.parametrize(
        "n, update_prob, seed",
        [(1, 1.0, 0), (1, 0.5, 3), (4, 1.0, 2**32 + 7), (5, 0.5, 11), (5, 0.0, 2**64 + 1)],
    )
    def test_fusing_sensors_lie_in_range(self, n, update_prob, seed):
        w = demo_world(n=n, u=3.0, seed=seed, update_prob=update_prob)
        horizon, cut = 2 * DRAW_BLOCK + 3, DRAW_BLOCK - 1
        who = ddf_sim._updaters(w, 0, horizon)
        assert who.shape == (horizon,)
        lo, hi = (-1 if update_prob < 1 else 0), (n if update_prob > 0 else 0)
        assert set(who.tolist()) == set(range(lo, hi))
        # A step's draw does not depend on where its block starts.
        split = [ddf_sim._updaters(w, 0, cut), ddf_sim._updaters(w, cut, horizon)]
        assert np.array_equal(who, np.concatenate(split))


class TestRunLeaderFollower:
    def test_fixed_point_stays_put(self):
        w = demo_world(n=4, u=3.0, seed=0, x0=np.full(4, 3.0))
        cfg = LeaderFollowerConfig(world=w, params=PARAMS, horizon=300)
        res = run_leader_follower(cfg)
        assert np.allclose(res.states, 3.0, atol=1e-12)

    def test_zero_comm_radius_freezes_states(self):
        w = demo_world(n=4, u=3.0, seed=0, comm_radius=0.0)
        cfg = LeaderFollowerConfig(world=w, params=PARAMS, horizon=200)
        res = run_leader_follower(cfg)
        assert np.allclose(res.states, res.states[0])
        assert res.slices == []

    def test_states_move_toward_the_anchor(self):
        w = demo_world(n=4, u=3.0, seed=0)
        cfg = LeaderFollowerConfig(world=w, params=PARAMS, horizon=3000)
        res = run_leader_follower(cfg)
        first = np.max(np.abs(res.states[0] - 3.0))
        last = np.max(np.abs(res.states[-1] - 3.0))
        assert last < first / 10

    def test_error_is_nonincreasing_every_step(self):
        w = demo_world(n=4, u=3.0, seed=6)
        cfg = LeaderFollowerConfig(world=w, params=PARAMS, horizon=1500)
        res = run_leader_follower(cfg)
        errors = np.max(np.abs(res.states - 3.0), axis=1)
        assert np.all(np.diff(errors) <= 1e-12)

    def test_early_stop_threshold(self):
        w = demo_world(n=4, u=3.0, seed=0)
        cfg = LeaderFollowerConfig(
            world=w, params=PARAMS, horizon=100_000, stop_when_error_below=1e-2
        )
        res = run_leader_follower(cfg)
        assert res.steps_run < 100_000
        assert np.max(np.abs(res.states[-1] - 3.0)) <= 1e-2

    def test_slice_inputs_accompany_each_slice(self):
        w = demo_world(n=4, u=3.0, seed=1)
        cfg = LeaderFollowerConfig(world=w, params=PARAMS, horizon=2000)
        res = run_leader_follower(cfg)
        assert len(res.slices) >= 1
        assert len(res.slice_inputs) == len(res.slices)

    def test_steady_state_identity_on_every_slice(self):
        w = demo_world(n=4, u=3.0, seed=2)
        cfg = LeaderFollowerConfig(world=w, params=PARAMS, horizon=2000)
        res = run_leader_follower(cfg)
        assert res.slices
        for s, n_t in zip(res.slices, res.slice_inputs):
            check = steady_state_check(s.product, n_t)
            assert check.ok
            assert check.residual <= 1e-10

    def test_default_run_records_positions(self):
        w = demo_world(n=4, u=3.0, seed=0)
        res = run_leader_follower(LeaderFollowerConfig(world=w, params=PARAMS, horizon=50))
        assert res.positions.shape == (51, 5, 2)


class ReferenceRun(NamedTuple):
    states: np.ndarray
    positions: np.ndarray
    events: list
    slice_inputs: list
    error: Exception | None


def reference_update(world, pos, i, params):
    """Sensor ``i``'s update at positions ``pos``, one step on its own:
    neighbours within communication radius, then equal weights over the
    group of the sensor and its sensor neighbours after the anchors heard
    take ``max(alpha * a, 1 - beta2)`` between them."""
    n, s = world.n, world.s
    if i == -1:
        return identity_step(n, s)
    near = np.linalg.norm(pos - pos[i], axis=1) <= world.comm_radius
    near[i] = False
    group = [i] + [j for j in range(n) if near[j]]
    anchors = [j for j in range(s) if near[n + j]]
    if len(group) == 1 and not anchors:
        return identity_step(n, s)
    b_row = np.zeros(s)
    if anchors:
        anchor_total = max(params.alpha * len(anchors), 1.0 - params.beta2)
        if anchor_total > 1.0:
            raise InfeasibleWeights(
                f"cannot give each of {len(anchors)} anchors weight alpha = "
                f"{params.alpha} within one unit of row mass"
            )
        b_row[anchors] = anchor_total / len(anchors)
    else:
        anchor_total = 0.0
        fit = int(np.floor(1.0 / params.beta1))
        if len(group) > fit:
            raise InfeasibleWeights(
                f"{len(group)} sensors share the row but only floor(1/beta1) = "
                f"{fit} weights of at least beta1 = {params.beta1} fit in one row"
            )
    p_row = np.zeros(n)
    p_row[group] = (1.0 - anchor_total) / len(group)
    return row_update(n, i, p_row, b_row)


def reference_run(config):
    """The run loop written out one step at a time: a fresh ``default_rng``
    per step and stream, as the simulator drew before it computed each block
    of steps' draws at once, and each step's row from
    :func:`reference_update`.  Returns the states, positions, (kind, k,
    row, row sum) events and slice inputs of the steps run, and the error
    that ended the run, if one did."""
    world, params = config.world, config.params
    n, s = world.n, world.s
    total = n + s
    pos, x = world.pos, world.x
    states, positions, events, slice_inputs = [x], [pos], [], []
    state = SliceState(n=n)
    n_accum = np.zeros((n, s))
    error = None
    for k in range(config.horizon):
        rng = np.random.default_rng([world.rng_seed, k, 0])
        angles = rng.uniform(0.0, 2.0 * np.pi, size=total)
        radii_frac = np.sqrt(rng.uniform(0.0, 1.0, size=total))
        step_len = world.sigma * world.radius * radii_frac
        pos = pos + np.column_stack([np.cos(angles), np.sin(angles)]) * step_len[:, None]
        offset = pos - world.center
        dist = np.linalg.norm(offset, axis=1)
        over = dist > world.radius
        pos[over] = world.center[over] + offset[over] * (world.radius[over] / dist[over])[:, None]
        rng = np.random.default_rng([world.rng_seed, k, 1])
        if world.update_prob < 1.0 and rng.uniform() >= world.update_prob:
            i = -1
        else:
            i = int(rng.integers(n))
        try:
            m = reference_update(world, pos, i, params)
            state, evs = push(state, m, params, strict=config.strict, k=k)
        except SliceKitError as exc:
            error = exc
            break
        if m.updated_row is not None:
            x, n_accum = x.copy(), n_accum.copy()
            x[m.updated_row] = m.p_row @ x + m.b_row @ world.u
            n_accum[m.updated_row] = m.p_row @ n_accum + m.b_row @ np.eye(s)
        for ev in evs:
            if ev.slice is not None:
                slice_inputs.append(n_accum)
                n_accum = np.zeros((n, s))
        events += [(ev.kind, ev.k, ev.row, ev.row_sum_after) for ev in evs]
        states.append(x)
        positions.append(pos)
        stop = config.stop_when_error_below
        if stop is not None and np.max(np.abs(x - world.u[0])) <= stop:
            break
    return ReferenceRun(np.array(states), np.array(positions), events, slice_inputs, error)


def assert_same_run(config):
    """The run of ``config`` equals :func:`reference_run` bit for bit; a run
    the reference ends with an error raises the same error, and runs the
    same steps before it.  Returns the reference run."""
    ref = reference_run(config)
    if ref.error is not None:
        with pytest.raises(type(ref.error)) as info:
            run_leader_follower(config)
        assert str(info.value) == str(ref.error)
        config = dataclasses.replace(config, horizon=len(ref.states) - 1)
    res = run_leader_follower(config)
    assert res.steps_run == len(ref.states) - 1
    assert np.array_equal(res.states, ref.states)
    assert np.array_equal(res.positions, ref.positions)
    assert [(ev.kind, ev.k, ev.row, ev.row_sum_after) for ev in res.events] == ref.events
    assert len(res.slice_inputs) == len(ref.slice_inputs)
    for got, want in zip(res.slice_inputs, ref.slice_inputs):
        assert np.array_equal(got, want)
    return ref


@st.composite
def random_runs(draw):
    """Runs of random worlds: 1 to 8 sensors and 1 to 3 anchors in random
    disks, at horizons around the draw block's edges, with weight floors
    that some neighbourhoods cannot meet.  Everything but the run's seed
    comes from a NumPy generator on a drawn seed, which spreads the worlds
    wider than Hypothesis's own draws, which favour the smallest values."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n, s = int(rng.integers(1, 9)), int(rng.integers(1, 4))
    # Sensors share a small square and anchors lie anywhere in a larger one,
    # so that groups fuse with and without anchors.
    centers = np.vstack([rng.uniform(-1.0, 1.0, (n, 2)), rng.uniform(-2.5, 2.5, (s, 2))])
    world = World(
        pos=centers.copy(),
        center=centers,
        radius=rng.uniform(0.0, 1.5, n + s),
        x=rng.uniform(-5.0, 5.0, n),
        u=np.full(s, rng.uniform(-5.0, 5.0)),
        comm_radius=rng.uniform(0.3, 3.0),
        sigma=rng.uniform(0.0, 1.5),
        rng_seed=draw(st.integers(0, 2**64)),
        update_prob=rng.choice([1.0, 0.0, rng.uniform()]),
    )
    params = Params(
        beta1=rng.choice([0.05, 0.3, 0.45], p=[0.6, 0.2, 0.2]),
        beta2=rng.choice([0.7, 0.0, rng.uniform(0.0, 0.9)]),
        alpha=rng.uniform(0.05, 0.6),
    )
    return LeaderFollowerConfig(
        world=world,
        params=params,
        horizon=int(rng.choice([0, 1, 5, DRAW_BLOCK - 1, DRAW_BLOCK, DRAW_BLOCK + 1])),
        strict=bool(rng.integers(2)),
        stop_when_error_below=rng.choice([None, 1e-3]),
    )


def disk_world(disks, starts=None, sigma=0.6, comm_radius=1.5, seed=5):
    """Sensors in all but the last of ``disks`` (rows of cx, cy, r) and one
    anchor in the last, starting at their centres or at ``starts``."""
    disks = np.array(disks, dtype=float)
    return World(
        pos=disks[:, :2].copy() if starts is None else np.array(starts, dtype=float),
        center=disks[:, :2],
        radius=disks[:, 2],
        x=np.linspace(-1.0, 1.0, len(disks) - 1),
        u=np.array([3.0]),
        comm_radius=comm_radius,
        sigma=sigma,
        rng_seed=seed,
    )


def guard_sigma(radius):
    """The largest ``sigma`` that :class:`World`'s overflow guard admits for
    regions of ``radius``."""
    limit = float(np.sqrt(np.finfo(float).max / 2))
    sigma = limit / radius - 1.0
    while (1.0 + sigma) * radius > limit:
        sigma = float(np.nextafter(sigma, 0.0))
    return sigma


# Worlds where projecting back onto the edge is hardest to get bit for bit.
PROJECTION_WORLDS = {
    # A sensor and the anchor pinned to their centres, next to moving sensors.
    "zero_radius": lambda: disk_world(
        [[0.5, 0.0, 0.0], [-0.6, 0.0, 0.8], [0.0, 0.9, 0.5], [0.0, 0.0, 0.0]]
    ),
    # Every node starts exactly on its edge: (3, 4) * r / 5, (0, -r), (r, 0).
    "start_on_edge": lambda: disk_world(
        [[4.0, 0.0, 5.0], [0.0, 0.0, 1.0], [-2.5, 0.0, 2.5], [1.0, 1.0, 1.0]],
        starts=[[7.0, 4.0], [0.0, -1.0], [0.0, 0.0], [2.0, 1.0]],
        comm_radius=3.0,
    ),
    # sigma = 1.5 carries most nodes past the edge of disks of radius 1e10.
    "huge_disks": lambda: disk_world(
        [[2e10, 0.0, 1e10], [-2e10, 0.0, 1e10], [0.0, 2e10, 1e10], [0.0, 0.0, 1e10]],
        sigma=1.5,
        comm_radius=3e10,
    ),
    # Moves reach just under sqrt(max / 2), where squared lengths would
    # overflow.
    "overflow_guard": lambda: disk_world(
        [[2.5e150, 0.0, 1e150], [-2.5e150, 0.0, 1e150], [0.0, 0.0, 1e150]],
        sigma=guard_sigma(1e150),
        comm_radius=3e150,
    ),
}


def late_infeasible_config(seed):
    """A run whose middle sensor seldom hears both others with no anchor in
    range; that group of 3 is too large for beta1 = 0.4."""
    centers = np.array([[0.0, 0.0], [1.6, 0.0], [-1.6, 0.0], [40.0, 0.0]])
    w = World(
        pos=centers.copy(), center=centers, radius=np.array([1.0, 1.0, 1.0, 0.5]),
        x=np.zeros(3), u=np.array([3.0]), comm_radius=0.8, sigma=0.5, rng_seed=seed,
    )
    return LeaderFollowerConfig(world=w, params=Params(beta1=0.4, beta2=0.7), horizon=4000)


class TestBlockDraws:
    """Runs draw each step's randomness for a block of steps at once; every
    draw must equal that of the step's own ``default_rng``."""

    @pytest.mark.parametrize(
        "horizon", [0, 1, DRAW_BLOCK - 1, DRAW_BLOCK, DRAW_BLOCK + 1, 2 * DRAW_BLOCK + 3]
    )
    @pytest.mark.parametrize(
        "n, update_prob, seed", [(1, 0.5, 3), (3, 1.0, 2**32 + 7), (5, 0.0, 11), (5, 0.5, 2**64 + 1)]
    )
    def test_run_matches_per_step_generators(self, horizon, n, update_prob, seed):
        w = demo_world(n=n, u=3.0, seed=seed, sigma=0.6, update_prob=update_prob)
        assert_same_run(LeaderFollowerConfig(world=w, params=PARAMS, horizon=horizon))

    def test_early_stop_matches_per_step_generators(self):
        w = demo_world(n=4, u=3.0, seed=0)
        cfg = LeaderFollowerConfig(
            world=w, params=PARAMS, horizon=100_000, stop_when_error_below=1e-2
        )
        assert_same_run(cfg)
        assert DRAW_BLOCK < run_leader_follower(cfg).steps_run < 100_000

    @pytest.mark.parametrize("update_prob, comm_radius", [(0.0, "1.5*innermost"), (1.0, 0.0)])
    def test_early_stop_at_an_identity_first_step(self, update_prob, comm_radius):
        # The sensors start at the anchor value.  A first step that fuses no
        # row (it idles, or no node is in reach) keeps them there, and the
        # run stops after it.
        w = demo_world(n=4, u=3.0, x0=[3.0] * 4, update_prob=update_prob, comm_radius=comm_radius)
        cfg = LeaderFollowerConfig(world=w, params=PARAMS, horizon=100, stop_when_error_below=1e-3)
        ref = assert_same_run(cfg)
        assert len(ref.states) == 2
        assert ref.events == [(SliceEventKind.SKIPPED, 0, None, None)]

    @pytest.mark.parametrize("seed, steps", [(1, 698), (2, 3637)])
    def test_late_infeasible_step_matches_per_step_reference(self, seed, steps):
        # The run fails at that step, in the first draw block or the
        # fourth, after running every step before it.
        ref = assert_same_run(late_infeasible_config(seed))
        assert isinstance(ref.error, InfeasibleWeights)
        assert len(ref.states) - 1 == steps

    @pytest.mark.parametrize("float_nodes", [0, 32])
    @pytest.mark.parametrize("name", sorted(PROJECTION_WORLDS))
    def test_projection_matches_per_step_reference(self, monkeypatch, name, float_nodes):
        # At 0 every world moves with NumPy passes; at 32, more nodes than
        # any of these worlds has, on Python floats.
        monkeypatch.setattr(ddf_sim, "FLOAT_MOTION_NODES", float_nodes)
        world = PROJECTION_WORLDS[name]()
        ref = assert_same_run(
            LeaderFollowerConfig(world=world, params=PARAMS, horizon=DRAW_BLOCK + 1)
        )
        moved = ref.positions[1:] - world.center
        on_edge = np.hypot(moved[..., 0], moved[..., 1]) >= world.radius * (1 - 1e-12)
        assert on_edge[:, world.radius > 0].mean() > 0.1
        assert np.all(ref.positions[:, world.radius == 0] == world.center[world.radius == 0])

    @pytest.mark.parametrize("extra, numpy_steps", [(0, 0), (1, 40)])
    def test_motion_form_follows_node_count(self, monkeypatch, extra, numpy_steps):
        # Up to FLOAT_MOTION_NODES nodes move on floats; one more, with NumPy.
        calls = []
        real = ddf_sim._project

        def counting(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(ddf_sim, "_project", counting)
        n = ddf_sim.FLOAT_MOTION_NODES - 1 + extra
        w = demo_world(n=n, u=3.0, seed=4, sigma=0.6)
        assert_same_run(LeaderFollowerConfig(world=w, params=PARAMS, horizon=40))
        assert len(calls) == numpy_steps

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(random_runs())
    def test_random_worlds_match_per_step_reference(self, config):
        assert_same_run(config)

    def test_demo_run_builds_no_generator(self, monkeypatch):
        built = []
        real = np.random.default_rng

        def counting(*args, **kwargs):
            built.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(np.random, "default_rng", counting)
        w = demo_world(n=4, u=3.0, seed=100)
        run_leader_follower(LeaderFollowerConfig(world=w, params=PARAMS, horizon=800))
        assert built == []


def move_bits(world, disp, float_nodes):
    """The bits :func:`ddf_sim._move` writes for ``disp`` from the world's
    start layout, with ``FLOAT_MOTION_NODES`` set to ``float_nodes``."""
    track = np.full(disp.shape, np.nan)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ddf_sim, "FLOAT_MOTION_NODES", float_nodes)
        ddf_sim._move(world, disp, world.pos, track)
    return track.view(np.int64)


def assert_move_forms_agree(world, steps):
    """The NumPy passes (threshold 0) and the node-major float loop (a
    threshold above every world here) write the same track bits."""
    disp = ddf_sim._displacements(world, 0, steps)
    numpy_bits = move_bits(world, disp, 0)
    assert np.array_equal(numpy_bits, move_bits(world, disp, 10**6))
    return numpy_bits


class TestMove:
    """The two forms of the motion, compared directly on one block."""

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(random_runs())
    def test_forms_agree_on_random_worlds(self, config):
        assert_move_forms_agree(config.world, config.horizon)

    @pytest.mark.parametrize("name", sorted(PROJECTION_WORLDS))
    def test_forms_agree_where_most_steps_project(self, name):
        # zero_radius holds regions of radius 0 among moving ones.
        assert_move_forms_agree(PROJECTION_WORLDS[name](), DRAW_BLOCK)

    def test_forms_agree_on_a_zero_step_block(self):
        bits = assert_move_forms_agree(demo_world(n=4, u=3.0, seed=1), 0)
        assert bits.shape == (0, 5, 2)

    @pytest.mark.parametrize("n", [4, 64])
    def test_forms_agree_on_demo_worlds(self, n):
        assert_move_forms_agree(demo_world(n=n, u=3.0, seed=7, sigma=0.6), 300)


class TestBlockRows:
    """The run builds every step's row in its block's ``_fusion_rows`` call."""

    @pytest.mark.parametrize("update_prob, idle", [(1.0, 0), (0.5, 423), (0.0, 800)])
    def test_run_builds_each_row_in_its_block(self, monkeypatch, update_prob, idle):
        kinds = []
        real = ddf_sim._fusion_rows

        def counting(*args):
            rows = real(*args)
            kinds.extend(ddf_sim._KINDS[c] for c in rows.kinds)
            return rows

        monkeypatch.setattr(ddf_sim, "_fusion_rows", counting)
        w = demo_world(n=4, u=3.0, seed=100, update_prob=update_prob)
        res = run_leader_follower(LeaderFollowerConfig(world=w, params=PARAMS, horizon=800))
        counts = {kind: kinds.count(kind) for kind in UpdateKind}
        assert len(kinds) == sum(counts.values()) == res.steps_run == 800
        skipped = sum(ev.kind is SliceEventKind.SKIPPED for ev in res.events)
        assert counts[UpdateKind.IDLE] + counts[UpdateKind.NO_NEIGHBORS] == skipped
        assert counts[UpdateKind.IDLE] == idle

    @pytest.mark.parametrize("name", ["demo", "regions", "late_infeasible"])
    def test_fusion_pass_hands_the_engine_its_rows(self, monkeypatch, name):
        # The kind codes index _KINDS; the engine rows follow from them and
        # reach the engine's block loop as they are.
        ring = 2 * np.pi * np.arange(12) / 12
        sensors = np.stack([3 * np.cos(ring), 3 * np.sin(ring), np.full(12, 0.5)], axis=1)
        cfg = {
            "demo": lambda: LeaderFollowerConfig(
                world=demo_world(n=4, seed=3, update_prob=0.5), params=PARAMS, horizon=DRAW_BLOCK
            ),
            "regions": lambda: LeaderFollowerConfig(
                world=ddf_sim._disk_world(
                    sensors, np.array([[2.0, 0.0, 0.5], [-2.0, 0.0, 0.5]]), 3.0, 4, 0.3,
                    1.6, None, 0.5,
                ),
                params=PARAMS, horizon=DRAW_BLOCK,
            ),
            "late_infeasible": lambda: dataclasses.replace(
                late_infeasible_config(1), horizon=DRAW_BLOCK
            ),
        }[name]()
        passes, fed = [], []
        real_rows, real_run = ddf_sim._fusion_rows, ddf_sim._run_rows

        def recorded(world, track, who, params):
            passes.append((who, real_rows(world, track, who, params)))
            return passes[-1][1]

        def feeding(state, rows, *rest):
            fed.append(rows)
            return real_run(state, rows, *rest)

        monkeypatch.setattr(ddf_sim, "_fusion_rows", recorded)
        monkeypatch.setattr(ddf_sim, "_run_rows", feeding)
        if name == "late_infeasible":
            with pytest.raises(InfeasibleWeights):
                run_leader_follower(cfg)
        else:
            run_leader_follower(cfg)
        ((who, rows),) = passes
        assert len(fed) == 1 and fed[0] is rows.rows
        assert np.issubdtype(rows.kinds.dtype, np.integer)
        assert len(rows.kinds) == DRAW_BLOCK
        assert len(rows.rows) == rows.feasible == (698 if name == "late_infeasible" else DRAW_BLOCK)
        kinds = [ddf_sim._KINDS[c] for c in rows.kinds.tolist()]
        want = [i if kind in FUSED else -1 for i, kind in zip(who.tolist(), kinds)]
        assert rows.rows.tolist() == want[: rows.feasible]
        counts = [kinds.count(kind) for kind in ddf_sim._KINDS]
        assert np.bincount(rows.kinds, minlength=4).tolist() == counts
        if name != "late_infeasible":
            assert all(counts), counts  # every kind occurs


def slice_fields(slices):
    return [
        (sl.index, sl.start_k, sl.end_k, sl.norm, sl.bound, sl.product.tobytes()) for sl in slices
    ]


def event_fields(events):
    return [
        (e.kind, e.k, e.row, None if e.row_sum_after is None else e.row_sum_after.hex())
        for e in events
    ]


class TestBlockStream:
    """A run yields one block of frames, events and slices per draw block;
    joined, the blocks are the collected :class:`SimResult`."""

    def assert_blocks_join_to_the_run(self, cfg):
        blocks = list(ddf_sim._blocks(cfg))
        res = run_leader_follower(cfg)
        assert blocks[0].k0 == blocks[0].start == 0
        for before, after in zip(blocks, blocks[1:]):
            assert after.k0 == before.k0 + len(before.states)
            assert after.k0 == after.start + 1 == before.start + len(before.rows) + 1
        assert sum(len(b.rows) for b in blocks) == res.steps_run
        assert np.concatenate([b.states for b in blocks]).tobytes() == res.states.tobytes()
        assert np.concatenate([b.positions for b in blocks]).tobytes() == res.positions.tobytes()
        # A block yields no event, only each step's code and row sum; an
        # identity step (row -1) is skipped, and the run holds its SKIPPED
        # event in step order.
        identity = {b.start + t for b in blocks for t in np.flatnonzero(b.rows < 0).tolist()}
        skipped = [(SliceEventKind.SKIPPED, k, None, None) for k in sorted(identity)]
        assert event_fields([e for e in res.events if e.k in identity]) == skipped
        rest = [e for e in res.events if e.k not in identity]
        assert not any(b.codes[b.rows < 0].any() for b in blocks)
        codes, rows, sums = (np.concatenate([getattr(b, f) for b in blocks]) for f in
                             ("codes", "rows", "sums"))
        done = [s for b in blocks for s in b.slices]
        events = slice_engine._events(range(len(rows)), codes.tolist(), rows.tolist(),
                                      sums.tolist(), done)
        assert event_fields([e for e in events if e.k not in identity]) == event_fields(rest)
        assert slice_fields([s for b in blocks for s in b.slices]) == slice_fields(res.slices)
        inputs = [n_t.tobytes() for b in blocks for n_t in b.slice_inputs]
        assert inputs == [n_t.tobytes() for n_t in res.slice_inputs]
        return blocks, res

    @pytest.mark.parametrize(
        "horizon", [0, 1, DRAW_BLOCK - 1, DRAW_BLOCK, DRAW_BLOCK + 1, 2 * DRAW_BLOCK + 3]
    )
    def test_blocks_join_to_the_run(self, horizon):
        cfg = LeaderFollowerConfig(
            world=demo_world(n=4, seed=3, update_prob=0.8), params=PARAMS, horizon=horizon
        )
        blocks, res = self.assert_blocks_join_to_the_run(cfg)
        assert len(blocks) == max(1, -(-horizon // DRAW_BLOCK))
        assert res.steps_run == horizon
        assert len(res.slices) > 0 or horizon < DRAW_BLOCK

    def test_early_stop_inside_the_second_block(self):
        cfg = LeaderFollowerConfig(
            world=demo_world(n=4, seed=1), params=PARAMS, horizon=100_000,
            stop_when_error_below=0.5,
        )
        blocks, res = self.assert_blocks_join_to_the_run(cfg)
        assert len(blocks) == 2
        assert DRAW_BLOCK < res.steps_run < 2 * DRAW_BLOCK
        assert np.max(np.abs(res.states[-1] - 3.0)) <= 0.5 < np.max(np.abs(res.states[-2] - 3.0))

    def test_infeasible_step_raises_after_the_blocks_before_it(self, monkeypatch):
        # Seed 1 meets infeasible weights at step 698; in blocks of 100
        # steps, the six blocks before its block are yielded first.
        monkeypatch.setattr(slice_engine, "DRAW_BLOCK", 100)
        stream = ddf_sim._blocks(late_infeasible_config(1))
        blocks = [next(stream) for _ in range(6)]
        with pytest.raises(InfeasibleWeights):
            next(stream)
        assert blocks[-1].k0 + len(blocks[-1].states) == 601

    def test_collected_run_takes_its_history_before_any_step(self, monkeypatch):
        # A history too large for memory fails at once; the stream does not.
        monkeypatch.setattr(ddf_sim, "_move", None)  # any step would fail
        cfg = LeaderFollowerConfig(world=demo_world(n=4), params=PARAMS, horizon=2**59)
        with pytest.raises(MemoryError):
            run_leader_follower(cfg)

    @pytest.mark.parametrize("horizon, ok", [(2**63, True), (2**63 + 1, False), (10**19, False)])
    def test_horizon_ends_where_the_draws_end(self, horizon, ok):
        if ok:
            assert LeaderFollowerConfig(world=demo_world(), params=PARAMS, horizon=horizon)
        else:
            with pytest.raises(ConfigError, match=r"^horizon must be at most 2\*\*63"):
                LeaderFollowerConfig(world=demo_world(), params=PARAMS, horizon=horizon)

    @pytest.mark.parametrize("horizon", [1, 2 * DRAW_BLOCK + 3])
    def test_cli_streams_the_bytes_of_the_collected_writers(self, tmp_path, horizon):
        config = {"mode": "lf", "n": 4, "horizon": horizon, "seed": 7, "update_prob": 0.9}
        (tmp_path / "c.json").write_text(json.dumps(config))
        out = tmp_path / "out"
        assert main(["lf", "--config", str(tmp_path / "c.json"), "--out", str(out)]) == EXIT_OK
        res = run_leader_follower(LeaderFollowerConfig(
            world=demo_world(n=4, seed=7, update_prob=0.9), params=PARAMS, horizon=horizon
        ))
        write_trajectory_csv(res.states, tmp_path / "trajectory.csv")
        write_positions_csv(res.positions, tmp_path / "positions.csv")
        write_event_log(res.events, tmp_path / "events.csv")
        for name in ("trajectory.csv", "positions.csv", "events.csv"):
            assert (out / name).read_bytes() == (tmp_path / name).read_bytes()


class TestLeaderFollowerConfig:
    @pytest.mark.parametrize("horizon", [-3, -1])
    def test_negative_horizon_rejected(self, horizon):
        with pytest.raises(ConfigError, match=r"^horizon must be >= 0"):
            LeaderFollowerConfig(world=demo_world(), params=PARAMS, horizon=horizon)

    @pytest.mark.parametrize("horizon", [2.0, 2.5, "5", True, None])
    def test_non_integer_horizon_rejected(self, horizon):
        with pytest.raises(ConfigError, match=r"^horizon must be an integer"):
            LeaderFollowerConfig(world=demo_world(), params=PARAMS, horizon=horizon)

    def test_numpy_integer_horizon_stored_as_int(self):
        cfg = LeaderFollowerConfig(world=demo_world(), params=PARAMS, horizon=np.int64(4))
        assert type(cfg.horizon) is int and cfg.horizon == 4

    @pytest.mark.parametrize("stop", [np.nan, np.inf, -np.inf, -1.0, "0.1", True])
    def test_bad_stop_threshold_rejected(self, stop):
        with pytest.raises(ConfigError, match=r"^stop_when_error_below"):
            LeaderFollowerConfig(
                world=demo_world(), params=PARAMS, horizon=5, stop_when_error_below=stop
            )

    def test_stop_threshold_needs_one_anchor_value(self):
        two_anchors = World(
            pos=np.zeros((3, 2)), center=np.zeros((3, 2)), radius=np.ones(3),
            x=np.zeros(1), u=np.array([1.0, 2.0]), comm_radius=1.0,
        )
        with pytest.raises(ConfigError, match="single shared anchor value"):
            LeaderFollowerConfig(
                world=two_anchors, params=PARAMS, horizon=5, stop_when_error_below=0.1
            )

    @pytest.mark.parametrize("stop", [0.0, 0, 1e-3, np.float64(0.5)])
    def test_valid_stop_threshold_accepted(self, stop):
        cfg = LeaderFollowerConfig(
            world=demo_world(), params=PARAMS, horizon=5, stop_when_error_below=stop
        )
        assert run_leader_follower(cfg).steps_run <= 5


class TestSteadyStateCheck:
    def test_single_sensor_identity(self):
        # [DERIVED] 0.7 + 0.3 = 1
        check = steady_state_check(np.array([[0.7]]), np.array([[0.3]]))
        assert check.ok
        assert check.residual <= 1e-15

    def test_detects_mass_leak(self):
        check = steady_state_check(np.array([[0.7]]), np.array([[0.2]]))
        assert not check.ok
        assert check.residual == pytest.approx(0.1)


class TestCsvWriters:
    def test_trajectory_csv(self, tmp_path):
        states = np.array([[0.0, 1.0], [0.5, 1.5]])
        path = tmp_path / "trajectory.csv"
        assert write_trajectory_csv(states, path) == path
        lines = path.read_text().splitlines()
        assert lines[0] == "k,sensor,state"
        assert len(lines) == 1 + states.size

    def test_positions_csv(self, tmp_path):
        positions = np.zeros((2, 3, 2))
        path = tmp_path / "positions.csv"
        assert write_positions_csv(positions, path) == path
        lines = path.read_text().splitlines()
        assert lines[0] == "k,node,x,y"
        assert len(lines) == 1 + 6

    @pytest.mark.parametrize(
        "frames", [1, FRAME_ROWS // 3, FRAME_ROWS // 3 + 1, 2 * FRAME_ROWS // 3 + 1]
    )
    def test_rows_match_one_format_per_entry(self, tmp_path, frames):
        # The writers format whole frames, FRAME_ROWS rows at most (here
        # frames of 3 entries), with one ``%``; across every edge each line
        # equals one ``%`` per entry.
        rng = np.random.default_rng(frames)
        scale = 10.0 ** rng.integers(-300, 300, (frames, 3, 2))
        positions = rng.normal(size=(frames, 3, 2)) * scale
        states = positions[:, :, 0]
        write_positions_csv(positions, tmp_path / "positions.csv")
        write_trajectory_csv(states, tmp_path / "trajectory.csv")
        want_positions = "k,node,x,y\r\n" + "".join(
            "%d,%d,%.17g,%.17g\r\n" % (k, i, x, y)
            for k, frame in enumerate(positions)
            for i, (x, y) in enumerate(frame)
        )
        want_states = "k,sensor,state\r\n" + "".join(
            "%d,%d,%.17g\r\n" % (k, i, v)
            for k, frame in enumerate(states)
            for i, v in enumerate(frame)
        )
        # Line by line, so that a failure names its first wrong line quickly.
        for name, want in (("positions.csv", want_positions), ("trajectory.csv", want_states)):
            assert (tmp_path / name).read_bytes().split(b"\n") == want.encode().split(b"\n")


    @pytest.mark.parametrize("k0", [0, 5, 2**63 - 150, 2**64 - 300, 2**64 - 299])
    def test_memo_keeps_each_value_text(self, tmp_path, k0):
        # One block that repeats values, signed zeros, subnormals and the
        # extremes among them: each line is one ``%.17g`` of its own value.
        # Frame indices run past 2**63 - 1, one block to 2**64 - 1; a frame
        # index past 2**64 - 1 is refused.
        edge = [0.0, -0.0, 5e-324, -5e-324, 1e-310, 2.2250738585072014e-308, 1e308, -1e308,
                1.7976931348623157e308, 1.5, 0.1, np.nan, np.inf, -np.inf]
        rng = np.random.default_rng(k0)
        states = np.array(edge)[rng.integers(len(edge), size=(300, 5))]
        assert len(np.unique(states.view(np.int64))) == len(edge)
        path = tmp_path / "trajectory.csv"
        if k0 + len(states) > 2**64:
            with pytest.raises(OverflowError):
                write_trajectory_csv(states, path, k0)
            return
        write_trajectory_csv(states, path, k0)
        want = "k,sensor,state\r\n" + "".join(
            "%d,%d,%.17g\r\n" % (k0 + k, i, v)
            for k, frame in enumerate(states.tolist())
            for i, v in enumerate(frame)
        )
        assert path.read_bytes() == want.encode()
        texts = {line.rsplit(b",", 1)[1] for line in path.read_bytes().splitlines()[1:]}
        assert {b"0", b"-0", b"4.9406564584124654e-324", b"-1e+308"} <= texts

    def test_blocks_appended_to_one_file_make_one_table(self, tmp_path):
        rng = np.random.default_rng(1)
        positions = rng.normal(size=(9, 3, 2))
        states = np.round(positions[:, :, 0], 1)
        write_positions_csv(positions, tmp_path / "positions.csv")
        write_trajectory_csv(states, tmp_path / "trajectory.csv")
        for name, write, history in (
            ("positions.csv", write_positions_csv, positions),
            ("trajectory.csv", write_trajectory_csv, states),
        ):
            with (tmp_path / f"blocks_{name}").open("w", newline="") as fh:
                for k0, stop in ((0, 4), (4, 5), (5, 9)):
                    assert write(history[k0:stop], fh, k0) is None
            assert (tmp_path / f"blocks_{name}").read_bytes() == (tmp_path / name).read_bytes()


def corrupt_first_block(monkeypatch, how, at=5):
    """Make the first draw block's first fused row from step ``at`` on
    inadmissible (``how``: "over-beta2" or "nan"); returns a list that
    receives that row's update as ``SystemMatrix._trusted`` builds it."""
    real, hit = ddf_sim._fusion_rows, []

    def corrupted(world, track, who, params):
        rows = real(world, track, who, params)
        if not hit:
            t = next(t for t in range(at, len(who)) if ddf_sim._KINDS[rows.kinds[t]] in FUSED)
            i = int(who[t])
            if how == "nan":
                rows.p_rows[t, i] = np.nan
            else:
                rows.p_rows[t] = 0.0
                rows.p_rows[t, i] = params.beta2 + 0.05
                rows.b_rows[t] = (1.0 - rows.p_rows[t, i]) / world.s
                rows.kinds[t] = ddf_sim._KINDS.index(UpdateKind.SUB_STOCHASTIC_UPDATE)
            hit.append(SystemMatrix._trusted(
                world.n, world.s, i, rows.p_rows[t], rows.b_rows[t]
            ))
        return rows

    monkeypatch.setattr(ddf_sim, "_fusion_rows", corrupted)
    return hit


class TestEngineFeed:
    """The run screens each draw block's rows at once and absorbs the clear
    ones directly; it must feed the engine as :func:`push` per step would."""

    @pytest.mark.parametrize("how", ["over-beta2", "nan"])
    def test_refuses_with_the_text_of_a_lone_push(self, monkeypatch, how):
        hit = corrupt_first_block(monkeypatch, how)
        cfg = LeaderFollowerConfig(world=demo_world(n=4, seed=2), params=PARAMS, horizon=50)
        with pytest.raises(AssumptionViolated) as run:
            run_leader_follower(cfg)
        with pytest.raises(AssumptionViolated) as lone:
            push(SliceState(n=4), hit[0], PARAMS)
        assert str(run.value) == str(lone.value)
        assert str(run.value).startswith("update failed validation")

    @pytest.mark.parametrize(
        "how, strict", [(None, True), (None, False), ("over-beta2", False), ("nan", False)]
    )
    def test_events_match_a_push_per_step(self, monkeypatch, how, strict):
        if how is not None:
            corrupt_first_block(monkeypatch, how)
        updates, real = [], ddf_sim._fusion_rows

        def recorded(world, track, who, params):
            rows = real(world, track, who, params)
            assert rows.feasible == len(who)
            updates.extend(row_as_update(world, rows, t, i) for t, i in enumerate(who.tolist()))
            return rows

        monkeypatch.setattr(ddf_sim, "_fusion_rows", recorded)
        w = demo_world(n=3, seed=7, update_prob=0.8)
        cfg = LeaderFollowerConfig(world=w, params=PARAMS, horizon=DRAW_BLOCK + 50, strict=strict)
        res = run_leader_follower(cfg)
        state, want = SliceState(n=3), []
        for k, m in enumerate(updates):
            want += push(state, m, PARAMS, strict=strict, k=k)[1]
        assert len(updates) == cfg.horizon

        def fields(events):
            return [
                (e.kind, e.k, e.row, None if e.row_sum_after is None else e.row_sum_after.hex())
                for e in events
            ]

        assert fields(res.events) == fields(want)
        slices = [e.slice for e in want if e.slice is not None]
        assert len(res.slices) == len(slices)
        assert len(slices) > 2 or how == "nan"  # NaN stays in the product
        for got, ref in zip(res.slices, slices):
            assert got.product.tobytes() == ref.product.tobytes()

    def test_early_stop_never_reaches_a_later_refused_row(self, monkeypatch):
        # The block screen has seen the corrupted row, which push refuses,
        # but the run stops before it and must return normally.
        cfg = LeaderFollowerConfig(
            world=demo_world(n=2, seed=0), params=PARAMS, horizon=DRAW_BLOCK,
            stop_when_error_below=1e-2,
        )
        steps = run_leader_follower(cfg).steps_run
        assert steps < DRAW_BLOCK - 100
        hit = corrupt_first_block(monkeypatch, "over-beta2", at=steps)
        assert run_leader_follower(cfg).steps_run == steps
        with pytest.raises(AssumptionViolated):
            push(SliceState(n=2), hit[0], PARAMS)

    def test_early_stop_never_reaches_a_later_infeasible_step(self):
        # Seed 1's run meets infeasible weights at step 698 of its first
        # draw block; from this start it stops earlier and must return.
        base = late_infeasible_config(1)
        with pytest.raises(InfeasibleWeights):
            run_leader_follower(base)
        w = dataclasses.replace(base.world, x=np.array([3.0, 2.5, 3.5]))
        res = run_leader_follower(dataclasses.replace(base, world=w, stop_when_error_below=0.1))
        within = np.max(np.abs(res.states[1:] - 3.0), axis=1) <= 0.1
        assert 0 < res.steps_run < 698
        assert int(np.argmax(within)) + 1 == res.steps_run

    @pytest.mark.parametrize("at, error", [(5, AssumptionViolated), (699, InfeasibleWeights)])
    def test_refused_and_infeasible_rows_raise_in_step_order(self, monkeypatch, at, error):
        # Seed 1's run meets infeasible weights at step 698 of its first
        # draw block; the corrupted row comes before or after it.
        hit = corrupt_first_block(monkeypatch, "over-beta2", at=at)
        with pytest.raises(error) as run:
            run_leader_follower(late_infeasible_config(1))
        assert len(hit) == 1
        if error is AssumptionViolated:
            with pytest.raises(AssumptionViolated) as lone:
                push(SliceState(n=3), hit[0], Params(beta1=0.4, beta2=0.7))
            assert str(run.value) == str(lone.value)

    def test_slice_arrays_stay_independent(self):
        cfg = LeaderFollowerConfig(world=demo_world(n=4, seed=1), params=PARAMS, horizon=3000)
        res = run_leader_follower(cfg)
        arrays = [sl.product for sl in res.slices] + res.slice_inputs
        assert len(res.slices) > 2
        kept = [a.copy() for a in arrays]
        # Overwriting the later slices' arrays leaves the earlier ones as
        # they were, and no array shares memory with another or the states.
        for a in arrays[len(arrays) // 2 :]:
            a[...] = np.nan
        for a, b in zip(arrays[: len(arrays) // 2], kept):
            assert a.tobytes() == b.tobytes()
        for t, a in enumerate(arrays):
            assert not np.shares_memory(a, res.states)
            assert not any(np.shares_memory(a, b) for b in arrays[t + 1 :])
