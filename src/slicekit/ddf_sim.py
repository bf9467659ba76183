"""Leader-follower fusion over mobile agents in disk regions.

``n`` mobile sensors and ``s`` fixed-state mobile anchors each wander
inside their own disk.  Per step: every agent takes an independent random
step (uniform over the disk of radius ``sigma`` times its region radius,
then projected back into the region); one uniformly chosen sensor fuses its
neighborhood (nodes within communication radius); states advance by
``x <- P x + B u``.  The fusion rule realizes exactly the admissible update
forms:

* no neighbors: keep the own value (identity row);
* sensor neighbors only: equal weights over self and the sensor neighbors,
  feasible only while the neighborhood stays within ``floor(1/beta1)``;
* at least one anchor: total anchor weight ``max(alpha * a, 1 - beta2)``
  split equally over the ``a`` anchors heard, remainder split equally over
  self and the sensor neighbors.

Every full row therefore sums to one, which makes each completed slice
satisfy ``M_t 1 + N_t 1 = 1`` for the accumulated input matrix ``N_t`` and
drives all sensor states to the anchor value.
"""

from __future__ import annotations

import csv
import enum
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple, Sequence

import numpy as np

from .errors import ConfigError, DimensionMismatch, InfeasibleWeights
from .matrix_core import Params, SystemMatrix, identity_step, row_update
from .slice_engine import Slice, SliceEvent, SliceState, push

__all__ = [
    "World",
    "UpdateKind",
    "StepRecord",
    "LeaderFollowerConfig",
    "SimResult",
    "demo_world",
    "resolve_comm_radius",
    "step_motion",
    "neighbors",
    "build_update",
    "lf_step",
    "run_leader_follower",
    "steady_state_check",
    "write_trajectory_csv",
    "write_positions_csv",
]


@dataclass(frozen=True)
class World:
    """The validated input of a leader-follower run.

    Geometry is stacked over all ``n + s`` nodes, sensors first: rows
    ``0..n-1`` of ``pos``, ``center`` and ``radius`` belong to the sensors
    and rows ``n..n+s-1`` to the anchors, with ``n = len(x)`` and
    ``s = len(u)``.  Each node stays inside the disk of ``radius`` around its
    ``center``.  ``pos`` and ``x`` are the start state: a run advances its
    own copies and passes the step index to the functions that draw from
    the per-step randomness streams.  Every field is checked once, here.
    Treat instances (arrays included) as immutable.
    """

    pos: np.ndarray
    center: np.ndarray
    radius: np.ndarray
    x: np.ndarray
    u: np.ndarray
    comm_radius: float
    sigma: float = 0.2
    rng_seed: int = 0
    update_prob: float = 1.0

    def __post_init__(self) -> None:
        arrays = ("pos", "center", "radius", "x", "u")
        for name in arrays:
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))
        if self.x.ndim != 1 or self.u.ndim != 1:
            raise DimensionMismatch("sensor states x and anchor states u must be 1-D")
        total = self.n + self.s
        for name, shape in (("pos", (total, 2)), ("center", (total, 2)), ("radius", (total,))):
            if getattr(self, name).shape != shape:
                raise DimensionMismatch(
                    f"{name} must be {shape} for {self.n} sensors and {self.s} "
                    f"anchors, got {getattr(self, name).shape}"
                )
        for name in arrays:
            if not np.isfinite(getattr(self, name)).all():
                raise ConfigError(f"{name} must hold finite numbers only")
        if np.any(self.radius < 0):
            raise ConfigError(f"radius must be non-negative, got {float(np.min(self.radius))}")
        for name in ("comm_radius", "sigma"):
            if not 0.0 <= getattr(self, name) < np.inf:
                raise ConfigError(
                    f"{name} must be finite and non-negative, got {getattr(self, name)}"
                )
        # Before projection a moved node lies up to (1 + sigma) * radius from
        # its centre, and past sqrt(max / 2) its squared 2-D norm overflows.
        # Python floats overflow to inf here without a warning.
        reach = (1.0 + float(self.sigma)) * float(np.max(self.radius, initial=0.0))
        limit = float(np.sqrt(np.finfo(float).max / 2))
        if reach > limit:
            raise ConfigError(
                f"sigma = {self.sigma} moves nodes up to {reach:.6g} from their "
                f"centres; squared distances overflow past {limit:.6g}"
            )
        if self.rng_seed < 0:
            raise ConfigError("rng_seed must be non-negative")
        if not 0.0 <= self.update_prob <= 1.0:
            raise ConfigError("update_prob must lie in [0, 1]")
        dist = np.linalg.norm(self.pos - self.center, axis=1)
        if np.any(dist > self.radius + 1e-9):
            off = int(np.argmax(dist - self.radius))
            what = f"sensor {off}" if off < self.n else f"anchor {off - self.n}"
            raise ConfigError(
                f"{what} starts outside its region "
                f"(distance {float(dist[off])} > radius {float(self.radius[off])})"
            )

    @property
    def n(self) -> int:
        return self.x.shape[0]

    @property
    def s(self) -> int:
        return self.u.shape[0]


class UpdateKind(enum.Enum):
    NO_NEIGHBORS = "no_neighbors"
    STOCHASTIC_UPDATE = "stochastic_update"
    SUB_STOCHASTIC_UPDATE = "sub_stochastic_update"
    IDLE = "idle"


@dataclass
class StepRecord:
    """What happened at one step."""

    k: int
    updating_sensor: int | None
    update_kind: UpdateKind


def demo_world(
    n: int = 4,
    u: float = 3.0,
    seed: int = 0,
    sigma: float = 0.2,
    comm_radius: float | str = "1.5*innermost",
    x0: Sequence[float] | None = None,
    update_prob: float = 1.0,
) -> World:
    """The reference layout: one anchor disk at the origin (radius 1), an
    inner sensor pair overlapping it, and further pairs chained outward so
    only the inner pair can ever hear the anchor (outer disks stay more
    than the communication radius away from the anchor disk)."""
    if n < 1:
        raise ConfigError("need at least one sensor")
    # Sensors 0..n-1, then the anchor (row n) at the origin with radius 1.
    centers = np.zeros((n + 1, 2))
    radii = np.full(n + 1, 1.2)
    radii[n] = 1.0
    for i in range(n):
        side = 1.0 if i % 2 == 0 else -1.0
        ring = i // 2
        centers[i, 0] = side * (1.9 + 2.0 * ring)
    return World(
        pos=centers.copy(),
        center=centers,
        radius=radii,
        x=np.zeros(n) if x0 is None else np.asarray(x0, dtype=float),
        u=np.array([float(u)]),
        comm_radius=resolve_comm_radius(comm_radius, radii),
        sigma=sigma,
        rng_seed=seed,
        update_prob=update_prob,
    )


def resolve_comm_radius(
    value: float | str, region_radii: np.ndarray | Sequence[float]
) -> float:
    """Accept an absolute radius or the form ``'<factor>*innermost'``,
    meaning that multiple of the smallest region radius.  The result is
    checked where it belongs, by :class:`World`."""
    if isinstance(value, str):
        text = value.replace("x", "*").strip()
        if not text.endswith("*innermost"):
            raise ConfigError(
                f"comm_radius string must look like '1.5*innermost', got {value!r}"
            )
        try:
            factor = float(text[: -len("*innermost")])
        except ValueError as exc:
            raise ConfigError(f"bad comm_radius factor in {value!r}") from exc
        return factor * float(np.min(np.asarray(region_radii, dtype=float)))
    return float(value)


def step_motion(world: World, pos: np.ndarray, k: int) -> np.ndarray:
    """Return the positions after step ``k``: every agent takes one random
    step from ``pos`` inside its region.

    Displacements are uniform over the disk of radius ``sigma * region
    radius``; any move that would exit the region is projected back onto
    it.  Deterministic given ``rng_seed`` and ``k``: the draw comes from a
    stream derived from both, not from call history.
    """
    rng = np.random.default_rng([world.rng_seed, k, 0])
    total = world.n + world.s
    angles = rng.uniform(0.0, 2.0 * np.pi, size=total)
    radii_frac = np.sqrt(rng.uniform(0.0, 1.0, size=total))
    step_len = world.sigma * world.radius * radii_frac
    disp = np.column_stack([np.cos(angles), np.sin(angles)]) * step_len[:, None]
    new_pos = pos + disp
    offset = new_pos - world.center
    dist = np.linalg.norm(offset, axis=1)
    over = dist > world.radius
    if np.any(over):
        scale = world.radius[over] / dist[over]
        new_pos[over] = world.center[over] + offset[over] * scale[:, None]
    return new_pos


def neighbors(world: World, pos: np.ndarray, i: int) -> np.ndarray:
    """Node ``i``'s boolean neighbour row over all nodes (sensors then
    anchors) at positions ``pos``: within communication radius, ``i``
    itself excluded."""
    # Centres far apart overflow the squared distance to inf, which is
    # still the right answer (not a neighbour).
    with np.errstate(over="ignore"):
        row = np.linalg.norm(pos[i] - pos, axis=1) <= world.comm_radius
    row[i] = False
    return row


def build_update(
    world: World, pos: np.ndarray, k: int, params: Params
) -> tuple[SystemMatrix, StepRecord]:
    """Draw the sensor that fuses at step ``k`` and build its row from its
    neighbours at positions ``pos``.

    Raises :class:`InfeasibleWeights` when an anchor-free neighborhood is
    too large for the weight floor (more than ``floor(1/beta1)`` members)
    or when the anchor floor cannot fit inside one unit of row mass.
    """
    n, s = world.n, world.s
    rng = np.random.default_rng([world.rng_seed, k, 1])
    if world.update_prob < 1.0 and rng.uniform() >= world.update_prob:
        return identity_step(n, s), StepRecord(k, None, UpdateKind.IDLE)
    i = int(rng.integers(n))
    row = neighbors(world, pos, i)
    sensor_nbrs = np.nonzero(row[:n])[0]
    anchor_nbrs = np.nonzero(row[n:])[0]
    if sensor_nbrs.size == 0 and anchor_nbrs.size == 0:
        return identity_step(n, s), StepRecord(k, i, UpdateKind.NO_NEIGHBORS)

    p_row = np.zeros(n)
    b_row = np.zeros(s)
    group = np.concatenate(([i], sensor_nbrs))  # self plus sensor neighbors
    if anchor_nbrs.size == 0:
        if group.size > int(np.floor(1.0 / params.beta1)):
            raise InfeasibleWeights(
                f"{group.size} sensors share the row but only "
                f"floor(1/beta1) = {int(np.floor(1.0 / params.beta1))} "
                f"weights of at least beta1 = {params.beta1} fit in one row"
            )
        p_row[group] = 1.0 / group.size
        m = row_update(n, i, p_row, b_row)
        return m, StepRecord(k, i, UpdateKind.STOCHASTIC_UPDATE)

    a = anchor_nbrs.size
    anchor_total = max(params.alpha * a, 1.0 - params.beta2)
    if anchor_total > 1.0:
        raise InfeasibleWeights(
            f"cannot give each of {a} anchors weight alpha = {params.alpha} "
            "within one unit of row mass"
        )
    p_row[group] = (1.0 - anchor_total) / group.size
    b_row[anchor_nbrs] = anchor_total / a
    m = row_update(n, i, p_row, b_row)
    return m, StepRecord(k, i, UpdateKind.SUB_STOCHASTIC_UPDATE)


def lf_step(
    x: np.ndarray, m: SystemMatrix, u: np.ndarray | float
) -> np.ndarray:
    """Advance the sensor states one step: ``P x + B u``."""
    x = np.asarray(x, dtype=float)
    if x.shape != (m.n,):
        raise DimensionMismatch(f"state must be ({m.n},), got {x.shape}")
    u_vec = np.asarray(u, dtype=float)
    if u_vec.ndim == 0:
        u_vec = np.full(m.s, float(u_vec))
    if u_vec.shape != (m.s,):
        raise DimensionMismatch(f"anchor state must be ({m.s},), got {u_vec.shape}")
    return m.apply(x, u_vec)


@dataclass(frozen=True)
class LeaderFollowerConfig:
    """Everything one simulation run needs.

    ``stop_when_error_below``, when set (and all anchors share one value),
    ends the run early once every sensor is within that distance of the
    anchor value; the step count actually executed is reported back.
    """

    world: World
    params: Params
    horizon: int
    strict: bool = True
    record_positions: bool = False
    stop_when_error_below: float | None = None


@dataclass
class SimResult:
    """Run outputs: per-step states (row 0 is the initial state), completed
    slices with their accumulated input matrices, the engine event log, the
    optional position history (row 0 is the start layout), and the number
    of steps executed."""

    states: np.ndarray
    slices: list[Slice]
    slice_inputs: list[np.ndarray]
    events: list[SliceEvent]
    positions: np.ndarray | None
    steps_run: int


def run_leader_follower(config: LeaderFollowerConfig) -> SimResult:
    """Run the full loop from the world's start state: motion, update
    construction, state advance, slice tracking, and per-slice input
    accumulation ``N <- P N + B``.  The loop owns the positions, the states
    and the step index; the world itself never changes."""
    world = config.world
    params = config.params
    n, s = world.n, world.s
    pos, x = world.pos, world.x
    states = np.empty((config.horizon + 1, n))
    states[0] = x
    positions = (
        np.empty((config.horizon + 1, n + s, 2))
        if config.record_positions
        else None
    )
    if positions is not None:
        positions[0] = pos
    slices: list[Slice] = []
    slice_inputs: list[np.ndarray] = []
    events: list[SliceEvent] = []
    state = SliceState(n=n)
    n_accum = np.zeros((n, s))
    anchor_identity = np.eye(s)
    target = None
    if config.stop_when_error_below is not None:
        if s == 0 or np.ptp(world.u) > 0:
            raise ConfigError(
                "early stopping needs a single shared anchor value"
            )
        target = float(world.u[0])
    steps_run = 0
    for k in range(config.horizon):
        pos = step_motion(world, pos, k)
        m, _ = build_update(world, pos, k, params)
        x = lf_step(x, m, world.u)
        state, evs = push(state, m, params, strict=config.strict, k=k)
        n_accum = m.apply(n_accum, anchor_identity)
        for ev in evs:
            if ev.slice is not None:
                slices.append(ev.slice)
                slice_inputs.append(n_accum.copy())
                n_accum = np.zeros((n, s))
        events.extend(evs)
        states[k + 1] = x
        if positions is not None:
            positions[k + 1] = pos
        steps_run = k + 1
        if target is not None and np.max(np.abs(x - target)) <= (
            config.stop_when_error_below
        ):
            break
    states = states[: steps_run + 1]
    if positions is not None:
        positions = positions[: steps_run + 1]
    return SimResult(
        states=states,
        slices=slices,
        slice_inputs=slice_inputs,
        events=events,
        positions=positions,
        steps_run=steps_run,
    )


class SteadyStateCheck(NamedTuple):
    ok: bool
    residual: float


def steady_state_check(
    m_t: np.ndarray, n_t: np.ndarray, tol: float = 1e-10
) -> SteadyStateCheck:
    """Verify that a slice product and its accumulated input matrix satisfy
    ``M 1 + N 1 = 1`` row by row, the identity that pins the fixed point at
    the anchor value."""
    m_t = np.asarray(m_t, dtype=float)
    n_t = np.asarray(n_t, dtype=float)
    row_total = m_t.sum(axis=1) + n_t.reshape(m_t.shape[0], -1).sum(axis=1)
    residual = float(np.max(np.abs(row_total - 1.0)))
    return SteadyStateCheck(residual <= tol, residual)


def write_trajectory_csv(states: np.ndarray, path: str | Path) -> None:
    """CSV ``k,sensor,state`` with k = 0 the initial state."""
    with Path(path).open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["k", "sensor", "state"])
        for k, row in enumerate(np.asarray(states)):
            for i, v in enumerate(row):
                writer.writerow([k, i, f"{v:.17g}"])


def write_positions_csv(positions: np.ndarray, path: str | Path) -> None:
    """CSV ``k,node,x,y``; nodes are sensors 0..n-1 then anchors."""
    with Path(path).open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["k", "node", "x", "y"])
        for k, frame in enumerate(np.asarray(positions)):
            for node, (px, py) in enumerate(frame):
                writer.writerow([k, node, f"{px:.17g}", f"{py:.17g}"])
