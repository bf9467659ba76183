"""Leader-follower fusion over mobile agents in disk regions.

``n`` mobile sensors and ``s`` fixed-state mobile anchors each wander
inside their own disk.  One builder, ``_disk_world``, makes every
:class:`World` from rows of sensor and anchor disks, those of
:func:`demo_world` and the ``lf`` command's ``regions`` alike.  Per step:
every agent takes an independent random step (uniform over the disk of
radius ``sigma`` times its region radius, then projected back into the
region); one uniformly chosen sensor fuses its neighborhood (nodes within
communication radius); states advance by ``x <- P x + B u``.  The fusion
rule realizes exactly the admissible update forms:

* no neighbors: keep the own value (identity row);
* sensor neighbors only: equal weights over self and the sensor neighbors,
  feasible only while the neighborhood stays within ``floor(1/beta1)``;
* at least one anchor: total anchor weight ``max(alpha * a, 1 - beta2)``
  split equally over the ``a`` anchors heard, remainder split equally over
  self and the sensor neighbors.

Every full row therefore sums to one, which makes each completed slice
satisfy ``M_t 1 + N_t 1 = 1`` for the accumulated input matrix ``N_t`` and
drives all sensor states to the anchor value.

Step ``k`` draws its motion from ``default_rng([rng_seed, k, 0])`` and its
fusing sensor from ``default_rng([rng_seed, k, 1])``, so every step is
reproducible on its own.  A run computes those draws for a block of
``slice_engine.DRAW_BLOCK`` steps at once (:mod:`slicekit.streams`), bit for
bit, without building the generators.  It then takes the block in two
passes.  The motion runs step after step, since each projection depends on
the previous position, but every node moves on its own.  A world of up to
``FLOAT_MOTION_NODES`` nodes therefore moves node by node on Python floats:
each node walks the whole block, per step ``x + dx - cx``,
``sqrt(ox*ox + oy*oy)`` and, past the edge, ``cx + ox * (r / d)``; a larger
one moves with one NumPy pass over all nodes per step.  Both evaluate the
same IEEE operations, unfused and in that order, for two components, so
they agree bit for bit.  The neighbour rows and fusion weights depend on the
positions and the fusing sensor but not on the states, so one NumPy pass
computes them for every step of the block, each step's kind as an integer
code into ``_KINDS`` and, from those codes, the engine rows of the steps
before the block's first infeasible one: the fusing sensor, or -1 for an
idle or no-neighbour step, which the slice engine's block loop
(:func:`~slicekit.slice_engine._run_rows`) passes over.  It screens the
fused rows against the weight rules at once, writes each fused step's code
and row sum into the block's arrays and yields the step as it runs; beside
it the run loop advances ``x`` and ``N`` in place by each fused row and
fills the frames of the identity steps between two fused ones with one
assignment.

The run is a stream of blocks (:func:`_blocks`): each yields its frames of
states and positions, its engine rows, step codes and row sums and the
slices it completed, so a caller that writes each block as it comes, as the
``lf`` command does, holds one block at a time whatever the horizon.  No
step is an event object there: the ``lf`` command writes ``events.csv``
from the codes, and :func:`run_leader_follower`, which collects the blocks
into one :class:`SimResult`, builds the events from them.
"""

from __future__ import annotations

import enum
import numbers
import operator
from dataclasses import dataclass
from math import sqrt
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from . import slice_engine, streams
from .errors import ConfigError, DimensionMismatch, InfeasibleWeights
from .matrix_core import Params
from .slice_engine import Slice, SliceEvent, SliceState, _events, _run_rows

__all__ = [
    "World",
    "UpdateKind",
    "LeaderFollowerConfig",
    "SimResult",
    "demo_world",
    "resolve_comm_radius",
    "run_leader_follower",
    "steady_state_check",
]


def _integer(name: str, value: object) -> int:
    """``value`` as a Python int; bools and non-integers are refused."""
    try:
        if isinstance(value, bool):
            raise TypeError
        return operator.index(value)
    except TypeError:
        raise ConfigError(f"{name} must be an integer, got {value!r}") from None


@dataclass(frozen=True, eq=False)
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
        if self.n < 1:
            raise ConfigError("need at least one sensor")
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
        seed = _integer("rng_seed", self.rng_seed)
        if seed < 0:
            raise ConfigError("rng_seed must be non-negative")
        object.__setattr__(self, "rng_seed", seed)
        if not 0.0 <= self.update_prob <= 1.0:
            raise ConfigError("update_prob must lie in [0, 1]")
        dist = _lengths(self.pos - self.center)
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
    than the communication radius away from the anchor disk), built by
    :func:`_disk_world`.  An ``n`` too large to index raises :class:`MemoryError`."""
    if n < 1:
        raise ConfigError("need at least one sensor")
    # Rows of [cx, cy, r]: sensors 0..n-1, then the anchor at the origin.
    try:
        disks = np.zeros((n + 1, 3))
    except ValueError as exc:  # too large even to index: out of memory too
        raise MemoryError(str(exc)) from None
    i = np.arange(n)
    disks[:n, 0] = np.where(i % 2 == 0, 1.0, -1.0) * (1.9 + 2.0 * (i // 2))
    disks[:, 2] = 1.2
    disks[n, 2] = 1.0
    return _disk_world(disks[:n], disks[n:], u, seed, sigma, comm_radius, x0, update_prob)


def _disk_world(
    sensors: np.ndarray, anchors: np.ndarray, u: float, seed: int, sigma: float,
    comm_radius: float | str, x0: Sequence[float] | None, update_prob: float,
) -> World:
    """The world of sensor disks ``sensors`` and anchor disks ``anchors``,
    rows of ``[cx, cy, r]``: nodes start at their disk centres, sensors at
    ``x0`` (zeros when None, :class:`ConfigError` at another length), and
    every anchor holds ``u``.  ``comm_radius`` is resolved over all disks."""
    x0 = np.zeros(len(sensors)) if x0 is None else np.asarray(x0, dtype=float)
    if x0.shape != (len(sensors),):
        raise ConfigError(f"x0 must hold {len(sensors)} initial states, got shape {x0.shape}")
    nodes = np.vstack([sensors, anchors])
    return World(
        pos=nodes[:, :2].copy(),
        center=nodes[:, :2],
        radius=nodes[:, 2],
        x=x0,
        u=np.full(len(anchors), float(u)),
        comm_radius=resolve_comm_radius(comm_radius, nodes[:, 2]),
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


def _displacements(world: World, start: int, stop: int) -> np.ndarray:
    """The ``(stop - start, n + s, 2)`` motion displacements of steps
    ``start..stop-1``.  Each step's angles then radius fractions are the
    first ``2 (n + s)`` uniforms of ``default_rng([rng_seed, k, 0])``."""
    total = world.n + world.s
    draws = streams.doubles(streams.words(world.rng_seed, start, stop, 0, 2 * total))
    angles = 2.0 * np.pi * draws[:, :total]
    step_len = world.sigma * world.radius * np.sqrt(draws[:, total:])
    return np.stack([np.cos(angles), np.sin(angles)], axis=-1) * step_len[..., None]


def _project(world: World, new_pos: np.ndarray) -> np.ndarray:
    """Move every node of ``new_pos`` that left its region back onto the
    region's edge, in place."""
    offset = new_pos - world.center
    dist = _lengths(offset)
    over = dist > world.radius
    if over.any():
        scale = world.radius[over] / dist[over]
        new_pos[over] = world.center[over] + offset[over] * scale[:, None]
    return new_pos


def _lengths(vectors: np.ndarray) -> np.ndarray:
    """Euclidean length of each vector along the last axis, summed as
    ``numpy.linalg.norm`` sums it, without that function's dispatch."""
    return np.sqrt((vectors * vectors).sum(axis=-1))


def _neighbor_rows(world: World, track: np.ndarray, nodes: np.ndarray) -> np.ndarray:
    """Boolean neighbour rows over all nodes (sensors then anchors), one per
    step of a block: row ``t`` marks the nodes within communication radius
    of node ``nodes[t]`` at positions ``track[t]``, that node excluded."""
    steps = np.arange(len(nodes))
    # Centres far apart overflow the squared distance to inf, which is
    # still the right answer (not a neighbour).
    with np.errstate(over="ignore"):
        rows = _lengths(track[steps, nodes][:, None] - track) <= world.comm_radius
    rows[steps, nodes] = False
    return rows


def _updaters(world: World, start: int, stop: int) -> np.ndarray:
    """The sensor that fuses at each of steps ``start..stop-1``, or -1 when
    the step idles.  Each step draws from ``default_rng([rng_seed, k, 1])``:
    when ``update_prob < 1`` a ``uniform()`` decides whether it idles, then
    ``integers(n)`` picks the sensor."""
    gated = world.update_prob < 1.0
    block = streams.words(world.rng_seed, start, stop, 1, 1 + gated)
    who = streams.integers(world.rng_seed, start, 1, block, world.n)
    if gated:
        who[streams.doubles(block[:, 0]) >= world.update_prob] = -1
    return who


class _Rows(NamedTuple):
    """The updates of a block of steps.  Step ``t`` is of kind
    ``_KINDS[kinds[t]]``; a fusing step replaces its sensor's row by
    ``p_rows[t]`` and its anchor row by ``b_rows[t]``.  ``rows`` holds the
    engine rows of the steps before ``feasible``: the fusing sensor, or -1
    for an idle or no-neighbour step.  Steps from ``feasible`` on were not
    built: that step's weights do not fit, for the reason ``fault``."""

    kinds: np.ndarray
    rows: np.ndarray
    p_rows: np.ndarray
    b_rows: np.ndarray
    feasible: int
    fault: str


_KINDS = (
    UpdateKind.IDLE,
    UpdateKind.NO_NEIGHBORS,
    UpdateKind.STOCHASTIC_UPDATE,
    UpdateKind.SUB_STOCHASTIC_UPDATE,
)


def _fusion_rows(world: World, track: np.ndarray, who: np.ndarray, params: Params) -> _Rows:
    """The fusion rows of a block of steps, computed together: at step ``t``
    the nodes are at ``track[t]`` and sensor ``who[t]`` fuses (-1 idles).

    The fusing sensor's group is itself and its sensor neighbours.  With
    ``a`` anchors heard, each gets ``anchor_total / a`` for ``anchor_total
    = max(alpha * a, 1 - beta2)``, and each group member ``(1 -
    anchor_total) / group``; without anchors the group may hold at most
    ``floor(1/beta1)`` members.
    """
    n = world.n
    idle = who < 0
    near = _neighbor_rows(world, track, who)
    members = near[:, :n]
    # The fusing sensor joins its group; idle rows (who = -1) are cleared.
    members[np.arange(len(who)), who] = True
    near[idle] = False
    anchors = near[:, n:].sum(axis=1)
    group = members.sum(axis=1)
    kind = np.select([idle, anchors > 0, group > 1], [0, 3, 2], 1)  # indices into _KINDS
    anchor_total = np.where(anchors > 0, np.maximum(params.alpha * anchors, 1.0 - params.beta2), 0.0)
    # Idle steps have an empty group; their weights are never read.
    p_weight = (1.0 - anchor_total) / np.maximum(group, 1)
    b_weight = anchor_total / np.maximum(anchors, 1)
    fit = int(np.floor(1.0 / params.beta1))
    unfit = np.flatnonzero(((kind == 2) & (group > fit)) | (anchor_total > 1.0))
    feasible, fault = len(who), ""
    if unfit.size:
        feasible = int(unfit[0])
        if anchors[feasible]:
            fault = (
                f"cannot give each of {int(anchors[feasible])} anchors weight alpha = "
                f"{params.alpha} within one unit of row mass"
            )
        else:
            fault = (
                f"{int(group[feasible])} sensors share the row but only floor(1/beta1) = "
                f"{fit} weights of at least beta1 = {params.beta1} fit in one row"
            )
    return _Rows(
        kinds=kind,
        rows=np.where(kind[:feasible] >= 2, who[:feasible], -1),
        p_rows=np.where(members, p_weight[:, None], 0.0),
        b_rows=np.where(near[:, n:], b_weight[:, None], 0.0),
        feasible=feasible,
        fault=fault,
    )


@dataclass(frozen=True, eq=False)
class LeaderFollowerConfig:
    """Everything one simulation run needs, checked when built.

    ``horizon`` is an integer from 0 to ``2**63``, the steps whose draws
    :func:`slicekit.streams.words` computes.  ``stop_when_error_below``, when
    set, is finite and non-negative, needs all anchors to share one value,
    and ends the run early once every sensor is within that distance of the
    anchor value; the step count actually executed is reported back.
    """

    world: World
    params: Params
    horizon: int
    strict: bool = True
    stop_when_error_below: float | None = None

    def __post_init__(self) -> None:
        horizon = _integer("horizon", self.horizon)
        if horizon < 0:
            raise ConfigError(f"horizon must be >= 0, got {horizon}")
        if horizon > 2**63:
            raise ConfigError(
                f"horizon must be at most 2**63, where the per-step draws end; got {horizon}"
            )
        object.__setattr__(self, "horizon", horizon)
        stop = self.stop_when_error_below
        if stop is not None and (
            isinstance(stop, bool)
            or not isinstance(stop, numbers.Real)
            or not 0.0 <= stop < np.inf
        ):
            raise ConfigError(
                f"stop_when_error_below must be finite and non-negative, got {stop!r}"
            )
        if stop is not None and (self.world.s == 0 or np.ptp(self.world.u) > 0):
            raise ConfigError("early stopping needs a single shared anchor value")


@dataclass(eq=False)
class SimResult:
    """Run outputs: per-step states (row 0 is the initial state), completed
    slices with their accumulated input matrices, the engine event log, the
    position history (row 0 is the start layout), and the number of steps
    executed."""

    states: np.ndarray
    slices: list[Slice]
    slice_inputs: list[np.ndarray]
    events: list[SliceEvent]
    positions: np.ndarray

    @property
    def steps_run(self) -> int:
        return self.states.shape[0] - 1


# The most nodes a world may have to move on Python floats.  Per 1 024
# demo-world steps (best of repeated runs; x86_64, Python 3.11, NumPy 2.4)
# the node-major float loop takes 5.3 ms at 32 nodes, 8.3 at 56, 10.2 at 64
# and 13.9 at 80, the NumPy passes 9.1, 9.8, 11.6 and 10.6 ms.  They meet
# between 64 and 80 nodes.  The bound sits lower, since near that point
# timings on a shared machine spread wider than the gap, and below 65, so
# that tools/scaling.py's lf_nodes sweep (5, 17, 65 and 257 nodes) has
# points on both sides.
FLOAT_MOTION_NODES = 56


def _move(world: World, disp: np.ndarray, pos: np.ndarray, track: np.ndarray) -> None:
    """Write into ``track[t]`` the positions after step ``t``'s
    displacements ``disp[t]``, starting from ``pos``, each node that left its
    region moved back onto the region's edge.

    Nodes move independently, so a world of up to ``FLOAT_MOTION_NODES``
    nodes takes them one at a time: each node walks the whole block on
    Python floats, from its ``dx`` and ``dy`` columns, and its ``x`` and
    ``y`` columns of ``track`` are written once at the end."""
    if world.n + world.s > FLOAT_MOTION_NODES:
        for t, step in enumerate(disp):
            pos = _project(world, np.add(pos, step, out=track[t]))
        return
    nodes = zip(world.center.tolist(), world.radius.tolist(), pos.tolist())
    for j, ((cx, cy), r, (x, y)) in enumerate(nodes):
        xs, ys = [], []
        for dx, dy in zip(disp[:, j, 0].tolist(), disp[:, j, 1].tolist()):
            x, y = x + dx, y + dy
            ox, oy = x - cx, y - cy
            d = sqrt(ox * ox + oy * oy)
            if d > r:
                sc = r / d
                x, y = cx + ox * sc, cy + oy * sc
            xs.append(x)
            ys.append(y)
        track[:, j, 0] = xs
        track[:, j, 1] = ys


def _history(horizon: int, frame: tuple[int, ...]) -> np.ndarray:
    """Room for ``horizon + 1`` frames of shape ``frame``; a history too
    large even to index is out of memory too."""
    try:
        return np.empty((horizon + 1, *frame))
    except ValueError as exc:
        raise MemoryError(str(exc)) from None


class _Block(NamedTuple):
    """What one draw block of a run adds, in step order: the state and
    position frames from frame ``k0`` on, the engine rows of the steps run
    from step ``start`` on (-1 for an idle or no-neighbour step), each
    step's engine code and row sum
    (:func:`~slicekit.slice_engine._run_rows`), and the slices completed,
    each with its accumulated input matrix ``N_t``."""

    k0: int
    start: int
    states: np.ndarray
    positions: np.ndarray
    rows: np.ndarray
    codes: np.ndarray
    sums: np.ndarray
    slices: list[Slice]
    slice_inputs: list[np.ndarray]


def _blocks(config: LeaderFollowerConfig) -> Iterator[_Block]:
    """Run the full loop from the world's start state and yield each block
    of ``slice_engine.DRAW_BLOCK`` steps once it has run: motion
    (:func:`_move`), fusion and engine rows (:func:`_fusion_rows`), then per
    fused step the engine's code and row sum
    (:func:`~slicekit.slice_engine._run_rows`), the state advance and the
    per-slice input accumulation ``N <- P N + B``, all in place.  An identity step changes neither ``x`` nor ``N``, so the
    frames between two fused steps are filled with one slice assignment,
    and the early stop is checked at the run's first step and after each
    fused step, the only steps after which ``x`` can be newly close enough.

    The first block's frames start at frame 0, the start state, so a run
    of horizon 0 yields that frame alone.  An early stop ends the last
    block at its step, before any later step reaches the engine.  A step
    with infeasible weights raises :class:`InfeasibleWeights` only once the
    loop reaches it, after the blocks before it were yielded.  The loop
    owns the positions, the states and the step index; the world itself
    never changes."""
    world = config.world
    params = config.params
    n, s = world.n, world.s
    x, u = world.x.copy(), world.u
    pos = world.pos
    state = SliceState(n=n)
    n_accum = np.zeros((n, s))
    limit, size = config.stop_when_error_below, slice_engine.DRAW_BLOCK
    for start in range(0, max(config.horizon, 1), size):
        stop = min(start + size, config.horizon)
        # Row 0 holds the frame before the block's first step.
        states = np.empty((stop - start + 1, n))
        states[0] = x
        positions = np.empty((stop - start + 1, n + s, 2))
        positions[0] = pos
        track = positions[1:]
        _move(world, _displacements(world, start, stop), pos, track)
        who = _updaters(world, start, stop)
        rows = _fusion_rows(world, track, who, params)
        fused = rows.rows
        ran, stopped = stop - start, False
        # An identity first step keeps the start state, which may be close
        # enough already; later identity steps keep a state that was not.
        if start == 0 and limit is not None and len(fused) and fused[0] < 0 and (
            np.max(np.abs(x - u[0])) <= limit
        ):
            ran, stopped, fused = 1, True, fused[:1]
        codes, sums = np.zeros(len(fused), np.int8), np.zeros(len(fused))
        steps = _run_rows(
            state, fused, rows.p_rows, rows.b_rows, codes, sums, params, config.strict
        )
        slices: list[Slice] = []
        slice_inputs: list[np.ndarray] = []
        done = 0  # the steps whose frames are written
        for t, finished in steps:
            states[done + 1 : t + 1] = x
            i = int(fused[t])
            p_row, b_row = rows.p_rows[t], rows.b_rows[t]
            x[i] = p_row.dot(x) + b_row.dot(u)
            n_accum[i] = p_row.dot(n_accum) + b_row
            if finished is not None:
                slices.append(finished)
                slice_inputs.append(n_accum)
                n_accum = np.zeros((n, s))
            states[t + 1] = x
            done = t + 1
            if limit is not None and np.max(np.abs(x - u[0])) <= limit:
                ran, stopped = done, True
                break
        else:
            if rows.feasible < ran:
                raise InfeasibleWeights(rows.fault)
        states[done + 1 : ran + 1] = x
        head = 0 if start == 0 else 1
        yield _Block(
            start + head,
            start,
            states[head : ran + 1],
            positions[head : ran + 1],
            fused[:ran],
            codes[:ran],
            sums[:ran],
            slices,
            slice_inputs,
        )
        if stopped:
            return
        pos = positions[-1]


def run_leader_follower(config: LeaderFollowerConfig) -> SimResult:
    """Run the full loop (:func:`_blocks`) and collect its blocks: the
    state and position histories, the completed slices with their input
    matrices, and the event log, in step order.  Room for the whole horizon
    is taken first, so a history too large for memory fails before any
    step."""
    n, s = config.world.n, config.world.s
    states = _history(config.horizon, (n,))
    positions = _history(config.horizon, (n + s, 2))
    slices: list[Slice] = []
    slice_inputs: list[np.ndarray] = []
    events: list[SliceEvent] = []
    end = 0
    for block in _blocks(config):
        end = block.k0 + len(block.states)
        states[block.k0 : end] = block.states
        positions[block.k0 : end] = block.positions
        slices += block.slices
        slice_inputs += block.slice_inputs
        ks = range(block.start, block.start + len(block.rows))
        events += _events(
            ks, block.codes.tolist(), block.rows.tolist(), block.sums.tolist(), block.slices
        )
    return SimResult(
        states=states[:end],
        slices=slices,
        slice_inputs=slice_inputs,
        events=events,
        positions=positions[:end],
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
