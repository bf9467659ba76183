"""Command-line front end: product studies, leader-follower runs, and
certification of recorded slice logs.

``slicekit products|lf|certify --config <path> [--seed S] [--out DIR]``

All outputs are CSV or plain text, written without timestamps so a fixed
seed reproduces byte-identical files.  Plots are emitted as gnuplot scripts
over the CSVs rather than rendered in-process, keeping the package free of
plotting dependencies.  Exit codes: 0 on success, 2 on configuration
errors, 3 when certification was requested but not achieved, 4 when a run
fails after its configuration was accepted (an ``OSError`` while writing the
outputs included).
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import dataclass, replace
from itertools import accumulate
from pathlib import Path
from typing import Any, Callable, Iterator, Mapping, Sequence

import numpy as np

from .certifier import (
    Certificate,
    certify_case1,
    certify_case2,
    search_case3,
    write_certificate,
    MIN_GAMMA2,
)
from .ddf_sim import (
    LeaderFollowerConfig,
    World,
    demo_world,
    resolve_comm_radius,
    run_leader_follower,
    steady_state_check,
    write_positions_csv,
    write_trajectory_csv,
)
from .errors import (
    AssumptionViolated,
    ConfigError,
    InvalidLength,
    InvalidSubset,
    NegativeEntry,
    SliceKitError,
)
from .generators import random_product_sequence
# per_k no longer calls spectral_radius; the name stays here because
# perfbench's tracer wraps cli.spectral_radius and lists a missing one.
from .matrix_core import Params, SystemMatrix, inf_norm, spectral_radius  # noqa: F401
from .slice_engine import read_slice_log, run_sequence, write_event_log, write_slice_log
from .tables import write_table

__all__ = ["ExperimentConfig", "cmd_products", "cmd_leader_follower", "cmd_certify", "main"]

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NOT_CERTIFIED = 3
EXIT_RUNTIME = 4


@dataclass(frozen=True)
class ExperimentConfig:
    """A parsed configuration file plus command-line overrides."""

    mode: str
    raw: dict
    seed: int
    out_dir: Path
    params: Params
    config_dir: Path

    @classmethod
    def load(
        cls,
        path: str | Path,
        mode: str,
        seed_override: int | None = None,
        out_override: str | None = None,
    ) -> "ExperimentConfig":
        path = Path(path)
        try:
            raw = json.loads(path.read_text())
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        except (ValueError, RecursionError) as exc:  # malformed, not UTF-8, too deep
            raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
        if not isinstance(raw, dict):
            raise ConfigError(f"config {path} must hold a JSON object")
        file_mode = raw.get("mode")
        if file_mode is not None and file_mode != mode:
            raise ConfigError(
                f"config declares mode {file_mode!r} but the command is {mode!r}"
            )
        seed = _value(raw, "seed", _int, 0) if seed_override is None else seed_override
        if seed < 0:
            raise ConfigError("seed must be non-negative")
        config_out = _value(raw, "out_dir", _text, "out")
        out_dir = Path(out_override if out_override is not None else config_out)
        try:
            params = Params(
                beta1=_value(raw, "beta1", _real, 0.05),
                beta2=_value(raw, "beta2", _real, 0.7),
                alpha=_value(raw, "alpha", _real, 0.1),
                tol=_value(raw, "tol", _real, 1e-12),
            )
        except ValueError as exc:
            raise ConfigError(f"bad weight parameters: {exc}") from exc
        return cls(
            mode=mode, raw=raw, seed=seed, out_dir=out_dir, params=params, config_dir=path.parent
        )

    def get(self, key: str, default: Any = None) -> Any:
        return self.raw.get(key, default)

    def value(self, key: str, kind: Callable[[Any], Any], default: Any) -> Any:
        """``kind(raw[key])``, or ``kind(default)`` when the key is absent;
        a value ``kind`` cannot convert raises :class:`ConfigError`."""
        return _value(self.raw, key, kind, default)

    def make_out_dir(self) -> Path:
        """Create the output directory; a path that cannot be a directory
        (an existing file, say) raises :class:`ConfigError`."""
        try:
            self.out_dir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"cannot create output directory {self.out_dir}: {exc}") from exc
        return self.out_dir


def _value(
    mapping: Mapping[str, Any], key: str, kind: Callable[[Any], Any], default: Any
) -> Any:
    value = mapping.get(key, default)
    try:
        return kind(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"bad value {value!r} for {key!r}: {exc}") from exc


def _flag(value: Any) -> bool:
    """A JSON boolean; strings such as ``"false"`` are refused."""
    if not isinstance(value, bool):
        raise TypeError("expected true or false")
    return value


def _int(value: Any) -> int:
    """A JSON integer or an integral float such as ``4.0``; booleans,
    strings, fractions, NaN and infinities are refused."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError("expected an integer")
    if isinstance(value, float) and not value.is_integer():
        raise ValueError("expected an integer")
    return int(value)


def _real(value: Any) -> float:
    """A JSON number; booleans and strings such as ``"0.5"`` are refused."""
    if isinstance(value, (bool, str)):
        raise TypeError("expected a number")
    return float(value)


def _reals(values: Any) -> np.ndarray:
    """A JSON list of numbers, each read as :func:`_real`."""
    return np.array([_real(v) for v in values], dtype=float)


def _text(value: Any) -> str:
    """A JSON string usable as a path; numbers, lists and strings holding a
    NUL byte are refused."""
    if not isinstance(value, str):
        raise TypeError("expected a string")
    if "\0" in value:
        raise ValueError("a path cannot hold a NUL byte")
    return value


def _echo_config(config: ExperimentConfig) -> None:
    resolved = dict(config.raw)
    resolved["mode"] = config.mode
    resolved["seed"] = config.seed
    resolved["out_dir"] = str(config.out_dir)
    (config.out_dir / "run_config.json").write_text(
        json.dumps(resolved, indent=2, sort_keys=True) + "\n"
    )


def cmd_products(config: ExperimentConfig) -> int:
    """Generate a random product sequence, slice it, and log norms."""
    n = config.value("n", _int, 4)
    horizon = config.value("horizon", _int, 200)
    if n < 1 or horizon < 0:
        raise ConfigError(f"need n >= 1 and horizon >= 0, got n={n}, horizon={horizon}")
    strict = config.value("strict", _flag, True)
    try:
        start = np.eye(n)  # the empty product
    except ValueError as exc:  # too large even to index: out of memory too
        raise MemoryError(str(exc)) from None
    try:
        matrices = random_product_sequence(
            n,
            config.params,
            horizon,
            rng=np.random.default_rng(config.seed),
            p_stochastic=config.value("p_stochastic", _real, 1.0 / 3.0),
            p_substochastic=config.value("p_substochastic", _real, 1.0 / 3.0),
            p_identity=config.value("p_identity", _real, 1.0 / 3.0),
        )
    except ValueError as exc:
        raise ConfigError(f"bad form weights: {exc}") from exc
    slices, events, _ = run_sequence(matrices, config.params, strict=strict)

    out = config.make_out_dir()
    rows = _per_k_rows(matrices, start)
    write_table(out / "per_k.csv", "k,inf_norm,spectral_radius", "%d,%.17g,%.17g", rows)
    write_slice_log(slices, out / "slices.csv")
    write_event_log(events, out / "events.csv")
    cumulative = accumulate((s.product for s in slices), lambda c, p: p @ c, initial=start)
    next(cumulative)  # the empty product
    rows = ((s.index, s.end_k, s.length, s.norm, inf_norm(c)) for s, c in zip(slices, cumulative))
    header = "t,end_k,length,slice_norm,cumulative_norm"
    write_table(out / "slice_boundaries.csv", header, "%d,%d,%d,%.17g,%.17g", rows)
    (out / "plot_products.gp").write_text(_products_plot_script())
    _echo_config(config)
    print(
        f"products: {horizon} steps, {len(slices)} completed slice(s); "
        f"outputs in {out}"
    )
    return EXIT_OK


# The running products of one spectral-radius pass: at most this many steps,
# and at most this many entries (4 MiB), so that from n = 91 on a block
# holds fewer steps and its memory stays bounded at any n.
_RHO_BLOCK = 64
_RHO_BLOCK_ENTRIES = 1 << 19


def _per_k_rows(
    matrices: Sequence[SystemMatrix], start: np.ndarray
) -> Iterator[tuple[int, float, float]]:
    """``(k, inf_norm(J), spectral_radius(J))`` for each running product
    ``J = P_k ... P_0 start``, bit for bit, where ``start`` is the identity
    and every update row sums to at most one, as generated rows do.

    While some row has never been updated it is still ``e_i``, so 1 is an
    eigenvalue and ``rho <= inf_norm = 1`` gives ``rho = 1.0`` without an
    eigensolve.  The products are gathered in blocks; each block is checked
    and normed in one pass, and its steps with every row updated share one
    stacked ``eigvals`` call.  A non-finite entry raises
    :class:`AssumptionViolated` and a negative one :class:`NegativeEntry`,
    as :func:`spectral_radius` does.
    """
    n = start.shape[0]
    size = max(1, min(_RHO_BLOCK, _RHO_BLOCK_ENTRIES // (n * n), len(matrices)))
    block = np.empty((size, n, n))
    touched: set[int] = set()
    j = start
    for k0 in range(0, len(matrices), size):
        chunk = matrices[k0 : k0 + size]
        untouched = 0  # a prefix: rows once updated stay updated
        for t, m in enumerate(chunk):
            j = m.apply(j)
            block[t] = j
            if m.updated_row is not None:
                touched.add(m.updated_row)
            untouched += len(touched) < n
        stack = block[: len(chunk)]
        if not np.all(np.isfinite(stack)):
            raise AssumptionViolated("a running product holds a non-finite entry")
        if np.any(stack < 0):
            raise NegativeEntry("a running product holds a negative entry")
        norms = np.abs(stack).sum(axis=2).max(axis=1)
        radii = np.ones(len(chunk))
        if untouched < len(chunk):
            eig = np.abs(np.linalg.eigvals(stack[untouched:])).max(axis=1)
            radii[untouched:] = np.minimum(eig, norms[untouched:])
        yield from zip(range(k0, k0 + len(chunk)), norms.tolist(), radii.tolist())


def _products_plot_script() -> str:
    return (
        'set datafile separator ","\n'
        "set key autotitle columnhead\n"
        "set terminal pngcairo size 1000,700\n"
        'set output "products_norms.png"\n'
        "set logscale y\n"
        'set xlabel "k"\n'
        'set ylabel "norm"\n'
        'plot "per_k.csv" using 1:2 with lines lw 2 title "inf-norm of running product", \\\n'
        '     "per_k.csv" using 1:3 with lines lw 2 title "spectral radius", \\\n'
        '     "slice_boundaries.csv" using 2:5 with points pt 7 ps 1.5 title "product at slice boundaries", \\\n'
        '     "slice_boundaries.csv" using 2:4 with points pt 6 title "per-slice norm"\n'
        "unset logscale y\n"
        'set output "slice_lengths.png"\n'
        'set ylabel "length"\n'
        'plot "slices.csv" using 1:4 with boxes title "slice length"\n'
    )


def _build_world(config: ExperimentConfig) -> World:
    n = config.value("n", _int, 4)
    u = config.value("u", _real, 3.0)
    sigma = config.value("sigma", _real, 0.2)
    update_prob = config.value("update_prob", _real, 1.0)
    comm = config.value(
        "comm_radius", lambda v: v if isinstance(v, str) else _real(v), "1.5*innermost"
    )
    x0 = config.value("x0", lambda v: np.zeros(n) if v is None else _reals(v), None)
    if x0.shape != (n,):
        raise ConfigError(f"x0 must hold {n} initial states, got shape {x0.shape}")
    regions = config.get("regions")
    if regions is None:
        return demo_world(
            n=n,
            u=u,
            seed=config.seed,
            sigma=sigma,
            comm_radius=comm,
            x0=x0,
            update_prob=update_prob,
        )
    try:
        sensors = np.array([_reals(row) for row in regions["sensors"]])
        anchors = np.array([_reals(row) for row in regions["anchors"]])
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(
            "regions must hold 'sensors' and 'anchors' lists of [cx, cy, r]"
        ) from exc
    if sensors.ndim != 2 or sensors.shape[1] != 3 or sensors.shape[0] != n:
        raise ConfigError(f"regions.sensors must be {n} rows of [cx, cy, r]")
    if anchors.ndim != 2 or anchors.shape[1] != 3 or anchors.shape[0] < 1:
        raise ConfigError("regions.anchors must be rows of [cx, cy, r]")
    nodes = np.vstack([sensors, anchors])
    return World(
        pos=nodes[:, :2].copy(),
        center=nodes[:, :2],
        radius=nodes[:, 2],
        x=x0,
        u=np.full(anchors.shape[0], u),
        comm_radius=resolve_comm_radius(comm, nodes[:, 2]),
        sigma=sigma,
        rng_seed=config.seed,
        update_prob=update_prob,
    )


def cmd_leader_follower(config: ExperimentConfig) -> int:
    """Run the mobile fusion protocol and log states, positions, slices,
    and the per-slice steady-state identity residuals."""
    world = _build_world(config)
    run_cfg = LeaderFollowerConfig(
        world=world,
        params=config.params,
        horizon=config.value("horizon", _int, 200),
        strict=config.value("strict", _flag, True),
        record_positions=True,
    )
    result = run_leader_follower(run_cfg)

    out = config.make_out_dir()
    write_trajectory_csv(result.states, out / "trajectory.csv")
    if result.positions is not None:
        write_positions_csv(result.positions, out / "positions.csv")
    write_slice_log(result.slices, out / "slices.csv")
    write_event_log(result.events, out / "events.csv")
    checks = map(steady_state_check, (s.product for s in result.slices), result.slice_inputs)
    rows = ((s.index, c.residual, c.ok) for s, c in zip(result.slices, checks))
    write_table(out / "steady_state.csv", "slice_index,residual,ok", "%d,%.17g,%d", rows)
    (out / "plot_states.gp").write_text(_states_plot_script(world))
    (out / "plot_trajectories.gp").write_text(_trajectories_plot_script(world))
    _echo_config(config)
    print(
        f"lf: {result.steps_run} steps, {len(result.slices)} completed "
        f"slice(s), final spread "
        f"{np.max(np.abs(result.states[-1] - world.u[0])):.3e}; outputs in {out}"
    )
    return EXIT_OK


def _states_plot_script(world: World) -> str:
    n = world.n
    u = float(world.u[0]) if world.s else 0.0
    return (
        'set datafile separator ","\n'
        "set key autotitle columnhead\n"
        "set terminal pngcairo size 1000,700\n"
        'set output "lf_states.png"\n'
        'set xlabel "k"\n'
        'set ylabel "state"\n'
        f"u = {u:.17g}\n"
        f"plot for [i=0:{n - 1}] \"trajectory.csv\" "
        'using 1:($2==i?$3:1/0) with lines lw 2 title sprintf("sensor %d", i), \\\n'
        "     u with lines dt 2 lc rgb \"black\" title \"anchor value\"\n"
    )


def _trajectories_plot_script(world: World) -> str:
    lines = [
        'set datafile separator ","',
        "set key autotitle columnhead",
        "set terminal pngcairo size 800,800",
        'set output "lf_trajectories.png"',
        "set size ratio -1",
        'set xlabel "x"',
        'set ylabel "y"',
    ]
    for node, (center, radius) in enumerate(zip(world.center, world.radius)):
        color = "gray" if node < world.n else "red"
        lines.append(
            f"set object {node + 1} circle at {center[0]:.17g},{center[1]:.17g} "
            f"size {radius:.17g} fs empty border lc rgb \"{color}\""
        )
    lines.append(
        f"plot for [i=0:{world.n + world.s - 1}] \"positions.csv\" "
        "using ($2==i?$3:1/0):4 with lines title sprintf(\"node %d\", i)"
    )
    return "\n".join(lines) + "\n"


def cmd_certify(config: ExperimentConfig) -> int:
    """Certify a recorded slice log.

    Tries, in order: the uniform cap (only if ``case1_cap`` is configured),
    the capped-subfamily route (only if ``case2`` metadata is present), and
    the growth-cap scan over gamma1 at the rate floor (always).  The first
    certifying case wins.
    """
    # Refused, not ignored: a config that asked for a stronger rate must not
    # quietly get the floor.
    for key in ("gamma1_grid", "gamma2_grid"):
        if key in config.raw:
            raise ConfigError(f"{key!r} was removed; case iii uses gamma2 = {MIN_GAMMA2}")
    log_value = config.value("slice_log", _text, "")
    if not log_value:
        raise ConfigError("certify needs 'slice_log' pointing at a slice CSV")
    log_path = Path(log_value)
    if not log_path.is_absolute():
        log_path = config.config_dir / log_path
    if not log_path.exists():
        raise ConfigError(f"slice log {log_path} does not exist")
    try:
        lengths = [rec["length"] for rec in read_slice_log(log_path)]
    except KeyError as exc:
        raise ConfigError(f"slice log {log_path} has no {exc} column") from exc
    except (IndexError, OSError, ValueError, csv.Error) as exc:
        raise ConfigError(f"cannot read slice log {log_path}: {exc}") from exc

    attempts: list[Certificate] = []
    cert: Certificate | None = None

    # The routes check their inputs; a bad cap, subset or logged length is
    # a fault of the config or the log, not of the run.
    try:
        if config.get("case1_cap") is not None:
            candidate = certify_case1(
                lengths, config.value("case1_cap", _int, None), config.params
            )
            attempts.append(candidate)
            if candidate.certified:
                cert = candidate
        if cert is None and config.get("case2") is not None:
            meta = config.get("case2")
            if not isinstance(meta, dict) or "cap" not in meta or "subset" not in meta:
                raise ConfigError("case2 metadata needs 'cap' and 'subset'")
            candidate = certify_case2(
                lengths,
                _value(meta, "cap", _int, None),
                _value(meta, "subset", lambda v: [_int(t) for t in v], None),
                config.params,
                subset_declared_infinite=_value(meta, "infinite_family", _flag, False),
            )
            attempts.append(candidate)
            if candidate.certified:
                cert = candidate
        if cert is None:
            candidate = search_case3(lengths, config.params)
            attempts.append(candidate)
            if candidate.certified:
                cert = candidate
    except (InvalidLength, InvalidSubset) as exc:
        raise ConfigError(f"cannot certify {log_path}: {exc}") from exc

    out = config.make_out_dir()
    if cert is None:
        # The last attempt is always search_case3's not-certified result.
        cert = replace(attempts[-1], notes=tuple(note for c in attempts for note in c.notes))
    write_certificate(cert, out)
    _echo_config(config)
    case = cert.case_used.value if cert.case_used else "none"
    print(f"certify: verdict={cert.verdict.value} case={case}; outputs in {out}")
    return EXIT_OK if cert.certified else EXIT_NOT_CERTIFIED


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="slicekit",
        description=(
            "Slice decomposition and stability certification for "
            "sub-stochastic update sequences, plus the mobile "
            "leader-follower fusion simulator."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("products", "random product study: norms, slices, logs"),
        ("lf", "leader-follower simulation run"),
        ("certify", "certify a recorded slice log"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="path to a JSON config")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--out", default=None, help="override the output directory")
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = ExperimentConfig.load(
            args.config, args.command, args.seed, args.out
        )
        if args.command == "products":
            return cmd_products(config)
        if args.command == "lf":
            return cmd_leader_follower(config)
        return cmd_certify(config)
    except SliceKitError as exc:
        # One line even when the message quotes a path holding a newline.
        print("error:", " ".join(str(exc).splitlines()), file=sys.stderr)
        return EXIT_CONFIG if isinstance(exc, ConfigError) else EXIT_RUNTIME
    except MemoryError as exc:
        # The config is valid; the machine cannot hold the run.
        print("error: out of memory:", *str(exc).splitlines(), file=sys.stderr)
        return EXIT_RUNTIME
    except OSError as exc:
        # The config is valid; an output could not be written.
        print("error:", *str(exc).splitlines(), file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
