"""Command-line front end: product studies, leader-follower runs, and
certification of recorded slice logs.

``slicekit products|lf|certify --config <path> [--seed S] [--out DIR]``

All outputs are CSV or plain text, written without timestamps so a fixed
seed reproduces byte-identical files.  Plots are emitted as gnuplot scripts
over the CSVs rather than rendered in-process, keeping the package free of
plotting dependencies.  Each mode's config keys, with their readers and
defaults, are declared once in :data:`CONFIG_KEYS`; any other key is a
configuration error.  ``lf``'s world is built by :mod:`slicekit.ddf_sim`.
Exit codes: 0 on success, 2 on configuration errors, 3 when certification
was requested but not achieved, 4 when a run fails after its configuration
was accepted (an ``OSError`` while writing the outputs included).
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import sys
from contextlib import ExitStack
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Iterable, Iterator, Mapping, Sequence

import numpy as np

from .certifier import Certificate, _length_array, _whole, certify_case1, certify_case2, search_case3
from .ddf_sim import (
    LeaderFollowerConfig,
    World,
    _blocks,
    _disk_world,
    demo_world,
    steady_state_check,
)
from .errors import (
    AssumptionViolated, ConfigError, InvalidLength, InvalidSubset, NegativeEntry, SliceKitError
)
from .generators import _form_cdf, _row_blocks
from .matrix_core import Params, inf_norm, spectral_radius
from .slice_engine import SliceState, _run_rows
from .tables import _write_steps, read_slice_lengths, write_certificate, write_positions_csv
from .tables import write_slice_log, write_table, write_trajectory_csv

__all__ = ["ExperimentConfig", "cmd_products", "cmd_leader_follower", "cmd_certify", "main"]

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NOT_CERTIFIED = 3
EXIT_RUNTIME = 4


@dataclass(frozen=True)
class ExperimentConfig:
    """A parsed configuration file plus command-line overrides.  A key's
    value is read as ``config[key]``, with the reader and default that
    :data:`CONFIG_KEYS` declares for the mode."""

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
        keys = CONFIG_KEYS[mode]
        file_mode = _read(raw, keys, "mode")
        if file_mode not in (None, mode):
            raise ConfigError(f"config declares mode {file_mode!r} but the command is {mode!r}")
        _refuse_undeclared(raw, keys, mode)
        # The file's values are read even where an override wins, so that a
        # bad one is refused either way.
        config_seed, config_out = _read(raw, keys, "seed"), _read(raw, keys, "out_dir")
        seed = seed_override if seed_override is not None else config_seed
        if seed < 0:
            raise ConfigError("seed must be non-negative")
        out_dir = Path(out_override if out_override is not None else config_out)
        try:
            params = Params(**{k: _read(raw, keys, k) for k in ("beta1", "beta2", "alpha", "tol")})
        except ValueError as exc:
            raise ConfigError(f"bad weight parameters: {exc}") from exc
        return cls(
            mode=mode, raw=raw, seed=seed, out_dir=out_dir, params=params, config_dir=path.parent
        )

    def __getitem__(self, key: str) -> Any:
        return _read(self.raw, CONFIG_KEYS[self.mode], key)

    def make_out_dir(self) -> Path:
        """Create the output directory; a path that cannot be a directory
        (an existing file, say) raises :class:`ConfigError`."""
        try:
            self.out_dir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"cannot create output directory {self.out_dir}: {exc}") from exc
        return self.out_dir


def _read(raw: Mapping[str, Any], keys: Mapping[str, tuple], key: str) -> Any:
    """``raw[key]`` read as ``keys`` declares it, or its default when absent;
    JSON null reads as absent where that default is None.  A section is
    read key by key, and needs its keys without a default.  A value the
    reader refuses raises :class:`ConfigError`."""
    kind, default = keys[key]
    value = raw.get(key, default)
    if value is None and default is None:
        return None
    try:
        if not isinstance(kind, dict):
            return kind(value)
        needed = [k for k, (_, d) in kind.items() if d is None]
        if not isinstance(value, dict) or any(value.get(k) is None for k in needed):
            raise TypeError("expected an object holding " + " and ".join(map(repr, needed)))
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"bad value {value!r} for {key!r}: {exc}") from exc
    return {k: _read(value, kind, k) for k in kind}


def _refuse_undeclared(raw: Mapping, keys: Mapping, mode: str, prefix: str = "") -> None:
    """Refuse the first key of ``raw``, or of a section in it, that ``keys`` does not declare."""
    for key, value in raw.items():
        if key not in keys:
            raise ConfigError(f"unknown key {prefix + key!r} for {mode}")
        if isinstance(keys[key][0], dict) and isinstance(value, dict):
            _refuse_undeclared(value, keys[key][0], mode, f"{prefix}{key}.")


def _flag(value: Any) -> bool:
    """A JSON boolean; strings such as ``"false"`` are refused."""
    if not isinstance(value, bool):
        raise TypeError("expected true or false")
    return value


def _int(value: Any) -> int:
    """A JSON integer or an integral float such as ``4.0``, the whole
    numbers of :func:`~slicekit.certifier._whole`; booleans, strings,
    fractions, NaN and infinities are refused."""
    if not _whole(value):
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


# Every key each mode reads: key -> (reader, default).  A section, a JSON
# object inside the config, has a table of its own in place of a reader.
# ExperimentConfig.load refuses any key, top-level or in a section, that is
# not declared here.
_COMMON_KEYS = {
    "mode": (_text, None), "seed": (_int, 0), "out_dir": (_text, "out"),
    "beta1": (_real, 0.05), "beta2": (_real, 0.7), "alpha": (_real, 0.1), "tol": (_real, 1e-12),
}
_RUN_KEYS = {"n": (_int, 4), "horizon": (_int, 200), "strict": (_flag, True)}
_DISKS = (lambda rows: np.array([_reals(row) for row in rows]), None)  # rows of [cx, cy, r]
CONFIG_KEYS: dict[str, dict[str, tuple]] = {
    "products": {
        **_COMMON_KEYS,
        **_RUN_KEYS,
        "p_stochastic": (_real, 1.0 / 3.0),
        "p_substochastic": (_real, 1.0 / 3.0),
        "p_identity": (_real, 1.0 / 3.0),
    },
    "lf": {
        **_COMMON_KEYS,
        **_RUN_KEYS,
        "u": (_real, 3.0),
        "sigma": (_real, 0.2),
        "update_prob": (_real, 1.0),
        "comm_radius": (lambda v: v if isinstance(v, str) else _real(v), "1.5*innermost"),
        "x0": (_reals, None),
        "regions": ({"sensors": _DISKS, "anchors": _DISKS}, None),
    },
    "certify": {
        **_COMMON_KEYS,
        "slice_log": (_text, ""),
        "case1_cap": (_int, None),
        "case2": ({
            "cap": (_int, None),
            "subset": (lambda v: [_int(t) for t in v], None),
            "infinite_family": (_flag, False),
        }, None),
    },
}


def _echo_config(config: ExperimentConfig) -> None:
    echo = {**config.raw, "mode": config.mode, "seed": config.seed, "out_dir": str(config.out_dir)}
    (config.out_dir / "run_config.json").write_text(json.dumps(echo, indent=2, sort_keys=True) + "\n")


def _open_outputs(config: ExperimentConfig, files: ExitStack, names: Sequence[str]) -> list:
    """Make the output directory and open the named files in it for ``files`` to close."""
    out = config.make_out_dir()
    return [files.enter_context((out / name).open("w", newline="")) for name in names]


def cmd_products(config: ExperimentConfig) -> int:
    """Generate a random product sequence, slice it, and log norms, a draw
    block of ``slice_engine.DRAW_BLOCK`` steps at a time from the draws to
    the CSVs, so memory stays flat along the horizon.  The outputs are
    opened once the first block has run: a run that fails in its first
    block writes nothing, and one that fails later keeps the blocks before."""
    n, horizon, strict = config["n"], config["horizon"], config["strict"]
    if n < 1 or horizon < 0:
        raise ConfigError(f"need n >= 1 and horizon >= 0, got n={n}, horizon={horizon}")
    try:
        start = np.eye(n)  # the empty product
    except ValueError as exc:  # too large even to index: out of memory too
        raise MemoryError(str(exc)) from None
    try:
        cdf = _form_cdf(config["p_stochastic"], config["p_substochastic"], config["p_identity"])
    except ValueError as exc:
        raise ConfigError(f"bad form weights: {exc}") from exc
    blocks = _row_blocks(n, config.params, horizon, np.random.default_rng(config.seed), cdf)
    state, cumulative, out = SliceState(n=n), start, config.out_dir
    with ExitStack() as files:
        for (k0, rows, p_rows), per_k in _per_k_rows(blocks, start):
            codes, sums = np.zeros(len(rows), np.int8), np.zeros(len(rows))
            no_anchors = p_rows[:, :0]
            steps = _run_rows(state, rows, p_rows, no_anchors, codes, sums, config.params, strict)
            slices = [finished for _, finished in steps if finished is not None]
            if k0 == 0:
                names = ("per_k.csv", "slices.csv", "events.csv", "slice_boundaries.csv")
                per_k_csv, slice_log, event_log, boundaries = _open_outputs(config, files, names)
            write_table(per_k_csv, "k,inf_norm,spectral_radius", "%d,%.17g,%.17g", per_k)
            write_slice_log(slices, slice_log)
            _write_steps(event_log, k0, codes, rows, sums)
            ends = []
            for s in slices:
                cumulative = s.product @ cumulative
                ends.append((s.index, s.end_k, s.length, s.norm, inf_norm(cumulative)))
            header = "t,end_k,length,slice_norm,cumulative_norm"
            write_table(boundaries, header, "%d,%d,%d,%.17g,%.17g", ends)
    (out / "plot_products.gp").write_text(_products_plot_script())
    _echo_config(config)
    print(f"products: {horizon} steps, {state.completed} completed slice(s); outputs in {out}")
    return EXIT_OK


# The running products of one spectral-radius pass: at most this many steps,
# and at most this many entries (4 MiB), so that from n = 91 on a group
# holds fewer steps and its memory stays bounded at any n.
_RHO_BLOCK = 64
_RHO_BLOCK_ENTRIES = 1 << 19


def _per_k_rows(
    blocks: Iterable[tuple[int, np.ndarray, np.ndarray]], start: np.ndarray
) -> Iterator[tuple[tuple, list[tuple[int, float, float]]]]:
    """Each block of rows ``(k0, rows, p_rows)`` (step ``k0 + t`` updates
    row ``rows[t]``, if not -1, to ``p_rows[t]``) with ``(k, inf_norm(J),
    spectral_radius(J))`` for each running product ``J = P_k ... P_0
    start``, bit for bit, where ``start`` is the identity and update rows
    sum to at most one.  Only the updated row of ``J`` and its absolute
    sum change.  While a row is still ``e_i``, ``rho`` is 1.0 with no
    eigensolve.  A group of a block's steps checks its updated rows (a
    non-finite entry raises :class:`AssumptionViolated`, else a negative
    one :class:`NegativeEntry`), then solves ``J`` at each of its updates
    once every row is updated, in one :func:`spectral_radius` call."""
    n = start.shape[0]
    size = max(1, min(_RHO_BLOCK, _RHO_BLOCK_ENTRIES // (n * n)))
    solve = np.empty((size, n, n))
    touched: set[int] = set()
    j, sums = start.copy(), [1.0] * n
    norm = rho = 1.0
    for k0, rows, p_rows in blocks:
        steps, out = rows.tolist(), []
        for g0 in range(0, len(steps), size):
            group, updated, fresh = steps[g0 : g0 + size], [], 0
            for t, i in enumerate(group, g0):
                if i >= 0:
                    j[i] = row = p_rows[t].dot(j)
                    updated.append(row)
                    touched.add(i)
                    if len(touched) == n:  # a new J with every row updated: solve it
                        solve[fresh] = j
                        fresh += 1
            updated = np.array(updated).reshape(-1, n)
            if not np.all(np.isfinite(updated)):
                raise AssumptionViolated("a running product holds a non-finite entry")
            if np.any(updated < 0):
                raise NegativeEntry("a running product holds a negative entry")
            new_sums = iter(np.abs(updated).sum(axis=1).tolist())
            radii = [1.0] * (len(updated) - fresh)  # the updates before the fresh ones
            if fresh:
                radii += spectral_radius(solve[:fresh]).tolist()
            radii = iter(radii)
            for t, i in enumerate(group, k0 + g0):
                if i >= 0:
                    sums[i] = next(new_sums)
                    norm, rho = max(sums), next(radii)
                out.append((t, norm, rho))
        yield (k0, rows, p_rows), out


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
    n = config["n"]
    if n < 1:
        raise ConfigError("need at least one sensor")
    kwargs = {k: config[k] for k in ("u", "sigma", "comm_radius", "x0", "update_prob")}
    regions = config["regions"]
    if regions is None:
        return demo_world(n=n, seed=config.seed, **kwargs)
    sensors, anchors = regions["sensors"], regions["anchors"]
    if sensors.ndim != 2 or sensors.shape[1] != 3 or sensors.shape[0] != n:
        raise ConfigError(f"regions.sensors must be {n} rows of [cx, cy, r]")
    if anchors.ndim != 2 or anchors.shape[1] != 3 or anchors.shape[0] < 1:
        raise ConfigError("regions.anchors must be rows of [cx, cy, r]")
    return _disk_world(sensors, anchors, seed=config.seed, **kwargs)


def cmd_leader_follower(config: ExperimentConfig) -> int:
    """Run the mobile fusion protocol and log states, positions, slices,
    and the per-slice steady-state identity residuals.

    Every table is written a draw block at a time, as the run yields it,
    and each slice's steady-state check as it completes, so memory stays
    flat along the horizon.  The outputs are opened once the first block
    has run, as :func:`cmd_products` opens its own: a run that fails in its
    first block writes nothing, and one that fails later keeps the rows of
    the blocks before."""
    world = _build_world(config)
    run_cfg = LeaderFollowerConfig(
        world=world, params=config.params, horizon=config["horizon"], strict=config["strict"]
    )
    out, completed = config.out_dir, 0
    with ExitStack() as files:
        for block in _blocks(run_cfg):
            if block.k0 == 0:
                names = ("trajectory.csv", "positions.csv", "events.csv", "slices.csv",
                         "steady_state.csv")
                trajectory, positions, events, slice_log, steady = _open_outputs(
                    config, files, names
                )
            write_trajectory_csv(block.states, trajectory, block.k0)
            write_positions_csv(block.positions, positions, block.k0)
            _write_steps(events, block.start, block.codes, block.rows, block.sums)
            write_slice_log(block.slices, slice_log)
            checks = map(steady_state_check, (s.product for s in block.slices), block.slice_inputs)
            rows = ((s.index, c.residual, c.ok) for s, c in zip(block.slices, checks))
            write_table(steady, "slice_index,residual,ok", "%d,%.17g,%d", rows)
            completed += len(block.slices)
    (out / "plot_states.gp").write_text(_states_plot_script(world))
    (out / "plot_trajectories.gp").write_text(_trajectories_plot_script(world))
    _echo_config(config)
    # A run yields one block at least; the last ends at the last step run.
    steps_run = block.k0 + len(block.states) - 1
    with np.errstate(over="ignore"):  # states far from u print an inf spread
        spread = np.max(np.abs(block.states[-1] - world.u[0]))
    print(
        f"lf: {steps_run} steps, {completed} completed slice(s), "
        f"final spread {spread:.3e}; outputs in {out}"
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
    log_value = config["slice_log"]
    if not log_value:
        raise ConfigError("certify needs 'slice_log' pointing at a slice CSV")
    log_path = Path(log_value)
    if not log_path.is_absolute():
        log_path = config.config_dir / log_path
    if not log_path.exists():
        raise ConfigError(f"slice log {log_path} does not exist")
    try:
        lengths = read_slice_lengths(log_path)
    except KeyError as exc:
        raise ConfigError(f"slice log {log_path} has no {exc} column") from exc
    except (IndexError, OSError, ValueError, csv.Error) as exc:
        raise ConfigError(f"cannot read slice log {log_path}: {exc}") from exc

    def case2() -> Certificate:
        cap, subset, infinite = config["case2"].values()
        return certify_case2(lengths, cap, subset, config.params, subset_declared_infinite=infinite)

    case1_cap = config["case1_cap"]
    routes = [] if case1_cap is None else [lambda: certify_case1(lengths, case1_cap, config.params)]
    if config.raw.get("case2") is not None:  # read only when its route runs
        routes.append(case2)
    routes.append(lambda: search_case3(lengths, config.params))
    attempts: list[Certificate] = []
    # The routes check their inputs and take the lengths as one int64 array; a
    # bad cap, subset or logged length is a fault of the config or the log.
    try:
        lengths = _length_array(lengths)
        for route in routes:
            attempts.append(route())
            if attempts[-1].certified:
                break
    except (InvalidLength, InvalidSubset) as exc:
        raise ConfigError(f"cannot certify {log_path}: {exc}") from exc

    out = config.make_out_dir()
    cert = attempts[-1]
    if not cert.certified:
        # The last attempt is search_case3's not-certified result.
        cert = replace(cert, notes=tuple(note for c in attempts for note in c.notes))
    write_certificate(cert, out)
    _echo_config(config)
    case = cert.case_used.value if cert.case_used else "none"
    print(f"certify: verdict={cert.verdict.value} case={case}; outputs in {out}")
    return EXIT_OK if cert.certified else EXIT_NOT_CERTIFIED


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call and then reused."""
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
