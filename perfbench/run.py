"""slicekit benchmark: the three CLI modes end to end, plus a traced run.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload products_n16 --seed 0 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all

One client in one process drives ``slicekit.cli.main`` in a closed loop:
the next op starts when the previous one has returned and its outputs have
been checked.  With ``--trace 0`` the ops run untraced and the last stdout
line carries the end-to-end metrics; with ``--trace 1`` traced and untraced
ops alternate on the same inputs and the last line carries the per-layer
metrics and the tracing overhead.  See README.md in this directory.
"""

from __future__ import annotations

import os

# One BLAS/OpenMP thread, set before anything imports NumPy.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import gzip  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

from reference import REF_MS, Scaler  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS, Workload, materialise  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

WARMUP_SECONDS = 3.0
WARMUP_MIN_OPS = 3
# The machine's speed drifts for stretches of seconds, so set-up is sampled
# every few seconds across the measured phase rather than in one burst.
SETUP_EVERY_S = 2.0
# An untraced phase runs past --seconds until it holds MIN_OPS ops, so the
# 90th percentile has ten samples beyond it, but never past MAX_PHASE_S.
MIN_OPS = 100
MAX_PHASE_S = 60.0
SETUP_CODE = (
    "import time; t = time.perf_counter(); import slicekit.cli; "
    "print(repr(time.perf_counter() - t))"
)
# The end-to-end metrics BENCHMARK.json gates on; the rest are reported.
GATED = ("op_p50_norm_ms", "setup_s", "peak_rss_mb")


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_cli():
    """Import ``slicekit.cli`` from this checkout's ``src/`` and nowhere else."""
    sys.path.insert(0, str(SRC))
    import slicekit.cli as cli

    if Path(cli.__file__).resolve().parent != (SRC / "slicekit").resolve():
        sys.exit(f"error: imported slicekit from {cli.__file__}, not {SRC}")
    return cli


def import_time() -> float:
    """Seconds a fresh process takes to import ``slicekit.cli``."""
    done = subprocess.run(
        [sys.executable, "-c", SETUP_CODE], cwd=ROOT,
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True, text=True, timeout=60, check=True,
    )
    return float(done.stdout.strip())


def run_op(cli, argv: list[str], out: Path) -> tuple[float, int | None, str | None]:
    """One closed-loop op into a fresh ``out``: (seconds, exit code, error)."""
    shutil.rmtree(out, ignore_errors=True)
    gc.collect()
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink):
        t0 = perf_counter()
        try:
            rc = cli.main([*argv, "--out", str(out)])
        except Exception as exc:  # an op failure is data, not a crash
            return perf_counter() - t0, None, f"{type(exc).__name__}: {exc}"
        t1 = perf_counter()
    return t1 - t0, rc, None


def snapshot(directory: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir()) if p.is_file()}


class OpLog:
    """Durations and failures of the timed ops, and each successful op's
    duration scaled to reference speed when a ``Scaler`` timed it."""

    def __init__(self, workload: Workload, pool: list[dict]) -> None:
        self.workload = workload
        self.pool = pool
        self.durations: list[float] = []
        self.scaled: list[float] = []
        self.attempted = 0
        self.failures: list[str] = []

    def record(self, j: int, out: Path, seconds: float, rc: int | None, error: str | None,
               scaler: Scaler | None = None) -> None:
        scaled = scaler.scale(seconds) if scaler else None
        self.attempted += 1
        try:
            problems = [error] if error else self.workload.check(out, rc, self.pool[j])
        except (OSError, KeyError, ValueError) as exc:
            problems = [f"unreadable output: {type(exc).__name__}: {exc}"]
        if problems:
            self.failures.append(f"input {j}: {'; '.join(problems)}")
        else:
            self.durations.append(seconds)
            if scaled is not None:
                self.scaled.append(scaled)


def determinism_check(cli, ops: list[list[str]], out: Path) -> list[str]:
    """Run op 0 twice into the same directory and compare every file."""
    run_op(cli, ops[0], out)
    first = snapshot(out)
    run_op(cli, ops[0], out)
    second = snapshot(out)
    if not first:
        return ["op 0 wrote no files"]
    return [
        f"{name} differs between two runs of the same input"
        for name in sorted(first.keys() | second.keys())
        if first.get(name) != second.get(name)
    ]


def warm_up(cli, ops: list[list[str]], out: Path) -> int:
    count, t_end = 0, perf_counter() + WARMUP_SECONDS
    while count < WARMUP_MIN_OPS or perf_counter() < t_end:
        run_op(cli, ops[count % len(ops)], out)
        count += 1
    return count


def quantile(values: list[float], q: int) -> float:
    """The q-th percentile (q in 1..99), inclusive method."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def dir_bytes(directory: Path) -> int:
    return sum(p.stat().st_size for p in directory.rglob("*") if p.is_file())


def metadata() -> dict:
    import numpy

    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        commit = done.stdout.strip() or None
    return {
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": {v: os.environ[v] for v in THREAD_VARS},
    }


def timed_run(cli, ops: list[list[str]], log: OpLog, scaler: Scaler, out: Path,
              seconds: int) -> list[float]:
    """Untraced ops for ``seconds`` (see ``MIN_OPS``), with a set-up sample
    between ops every ``SETUP_EVERY_S``.  ``scaler`` runs the reference
    kernel after every op.  Returns the set-up samples."""
    import_time()  # may compile bytecode; not counted
    setup = []
    next_setup = t_start = perf_counter()
    t_end, t_stop = t_start + seconds, t_start + MAX_PHASE_S
    i = 0
    while (perf_counter() < t_end or i < MIN_OPS) and perf_counter() < t_stop:
        if perf_counter() >= next_setup:
            setup.append(import_time())
            next_setup += SETUP_EVERY_S
        j = i % len(ops)
        log.record(j, out, *run_op(cli, ops[j], out), scaler=scaler)
        i += 1
    return setup


def traced_run(cli, ops: list[list[str]], plain: OpLog, traced: OpLog,
               tracer: Tracer, out: Path, seconds: int) -> list[int]:
    """Alternate untraced and traced ops on each input, swapping the order
    every pair.  Returns the bytes each traced op wrote."""
    written = []
    t_end = perf_counter() + seconds
    i = 0
    while perf_counter() < t_end:
        j = i % len(ops)
        for traced_turn in ((False, True) if i % 2 == 0 else (True, False)):
            if not traced_turn:
                plain.record(j, out, *run_op(cli, ops[j], out))
                continue
            tracer.install()
            try:
                result = run_op(cli, ops[j], out)
            finally:
                tracer.uninstall()
            traced.record(j, out, *result)
            written.append(dir_bytes(out))
        i += 1
    return written


def run_workload(args: argparse.Namespace) -> int:
    workload = WORKLOADS[args.workload]
    cli = import_cli()

    run_dir = OUT / f"{workload.name}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    out = run_dir / "op"
    ops, pool, input_digest = materialise(workload, args.seed, run_dir / "inputs")

    problems = determinism_check(cli, ops, out)
    warmup_ops = warm_up(cli, ops, out)

    log = OpLog(workload, pool)
    report: dict = {
        "workload": workload.name, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "meta": metadata(),
        "inputs": {"sha256": input_digest, "pool": len(ops),
                   "work_per_op": workload.work_per_op, "work_unit": workload.work_unit},
        "determinism": problems or "identical",
    }
    if args.trace == 0:
        scaler = Scaler()
        setup = timed_run(cli, ops, log, scaler, out, args.seconds)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        attempted, failures = log.attempted, log.failures
    else:
        tracer = Tracer()
        traced = OpLog(workload, pool)
        written = traced_run(cli, ops, log, traced, tracer, out, args.seconds)
        attempted = log.attempted + traced.attempted
        failures = log.failures + traced.failures
    shutil.rmtree(out, ignore_errors=True)
    shutil.rmtree(run_dir / "inputs", ignore_errors=True)

    metrics: dict[str, tuple[float, str]] = {}
    lines = [f"perfbench {workload.name} seed={args.seed} seconds={args.seconds} trace={args.trace}",
             "  meta: " + " ".join(f"{k}={v}" for k, v in report["meta"].items() if k != "blas_threads"),
             f"  inputs: sha256={input_digest} pool={len(ops)} ({workload.work_per_op} {workload.work_unit} per op)",
             f"  determinism: {'; '.join(problems) if problems else 'outputs identical across two runs of op 0'}",
             f"  ops: {attempted} timed, {warmup_ops} warm-up, {len(failures)} failed"]
    durations = log.durations
    if len(durations) < 2:
        failures = failures + ["fewer than two successful untraced ops"]
    elif args.trace == 0:
        metrics = {
            "op_p50_norm_ms": (statistics.median(log.scaled) * 1e3, "ms"),
            "setup_s": (statistics.median(setup), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "op_p10_ms": (quantile(durations, 10) * 1e3, "ms"),
            "op_p50_ms": (statistics.median(durations) * 1e3, "ms"),
            "op_p90_ms": (quantile(durations, 90) * 1e3, "ms"),
            "work_per_s": (workload.work_per_op * len(durations) / sum(durations), "1/s"),
            "ref_kernel_ms": (statistics.median(scaler.kernel_s) * 1e3, "ms"),
        }
        lines.append(f"  samples: {len(durations)} successful untraced ops, {len(setup)} set-up processes, "
                     f"{len(scaler.kernel_s)} reference-kernel runs ({REF_MS:g} ms at reference speed)")
    elif len(traced.durations) < 2 or not tracer.root_durations():
        failures = failures + ["fewer than two successful traced ops, or no spans"]
    else:
        roots = tracer.root_durations()
        metrics = tracer.layer_metrics()
        op_ms = sum(roots) / len(roots) * 1e3
        layer_ms = sum(v for k, (v, _) in metrics.items() if k.endswith(".ms"))
        if abs(layer_ms - op_ms) > 1e-6 * op_ms:
            failures = failures + [f"layer self times add up to {layer_ms} ms, not the op's {op_ms} ms"]
        metrics["cli.bytes_written"] = (sum(written) / len(written), "bytes")
        metrics["trace.op_ms"] = (op_ms, "ms")
        metrics["trace.overhead_ms"] = (
            (statistics.median(traced.durations) - statistics.median(durations)) * 1e3, "ms")
        lines.append(f"  samples: {len(traced.durations)} traced, {len(durations)} untraced ops; "
                     f"per-layer values are means per traced op")
        if tracer.absent:
            lines.append(f"  absent: {', '.join(tracer.absent)}")
        report["absent"] = tracer.absent
        with gzip.open(run_dir / "spans.csv.gz", "wt", compresslevel=1) as fh:
            tracer.write_spans(fh)

    fail_frac = len(failures) / attempted if attempted else 1.0
    for name, (value, unit) in metrics.items():
        lines.append(f"  {name:40s} {value:14.6g} {unit}")
    if args.trace == 0:
        lines.append(f"  {'fail_frac':40s} {fail_frac:14.6g} ratio ({len(failures)}/{attempted})")
    for failure in failures[:10]:
        lines.append(f"  FAIL {failure}")

    correct = not failures and not problems and bool(metrics)
    result = {
        "correct": correct,
        "attempted": max(attempted, 1),
        "failed": len(failures) if attempted else 1,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()
                    if args.trace == 1 or k in GATED},
    }
    report.update(metrics={k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
                  fail_frac=fail_frac, failures=failures, result=result)
    (run_dir / "results.json").write_text(json.dumps(report, indent=2) + "\n")
    print("\n".join(lines))
    print(json.dumps(result))
    return 1 if problems else 0


def run_all(args: argparse.Namespace) -> int:
    """Every workload in its own process, so each has its own peak RSS."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in WORKLOADS:
        done = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=600,
        )
        sys.stdout.write(done.stdout)
        sys.stderr.write(done.stderr)
        status = status or done.returncode
        if done.returncode != 0 and not done.stdout.strip():
            combined["correct"] = False
            continue
        result = json.loads(done.stdout.strip().splitlines()[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        combined["metrics"].update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(combined))
    return status


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "slicekit" / "cli.py").is_file():
        sys.exit(f"error: {SRC / 'slicekit'} not found; run from a slicekit checkout")
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
