"""Time the three CLI modes of one checkout along their scaling axes.

Usage, from any directory:

    python3 tools/scaling.py [--root CHECKOUT] > report.json

``--root`` is the checkout whose ``src/`` is imported (default: this one).
Each point runs ``slicekit.cli.main`` in this process, with its writers,
three times into a fresh output directory, after one untimed run of the
sweep's smallest point.  The sweeps are:

- ``products``: n = 4, 16, 64, 256 at horizon 1 000, default weights,
  strict, seed 1;
- ``lf``: the demo world (n = 4, u = 3) at horizon 10^3, 10^4, 10^5,
  seed 1;
- ``lf_nodes``: the demo world at n = 4, 16, 64, 256 sensors (one anchor
  more), horizon 2 000, seed 1; the motion runs on Python floats up to
  ``ddf_sim.FLOAT_MOTION_NODES`` nodes and with NumPy passes above, so
  points lie on both sides;
- ``lf_ring``: a sparse ring world given as ``regions`` at n = 16, 64,
  256 sensors, horizon 4 000, seed 1: n sensor disks of radius 0.3 evenly
  spaced on a circle of radius ``0.8 n / (2 pi) + 2``, one anchor disk of
  radius 0.3 per 8 sensors on the circle 1.0 further in, ``comm_radius``
  1.6 and ``sigma`` 0.1.  Unlike the demo chain it completes slices at
  every n, so these points time slice completions, the steady-state check
  and ``slices.csv`` as well as motion and the writers;
- ``certify``: length-only slice logs of 10^3, 10^4, 10^5 entries, the
  case-iii schedule ``floor(cap(i) + 1e-9)`` at ``gamma1`` = 0.5 and
  ``gamma2`` = 1e-3 for i = 1..N, in reverse order, default weights.

The inputs are built here, not by the checkout under test, and their
SHA-256 is recorded per sweep, so two checkouts compared on the same inputs
show the same digests.  The JSON report on stdout holds, per point, every
wall time, their median and the exit codes, plus the commit, the SHA-256 of
``src/`` (each ``src/**/*.py`` in sorted order, its path relative to
``src/`` then its bytes, as ``perfbench/run.py`` records it), and the
Python and NumPy versions; stderr gets one progress line per point.  The
whole sweep takes about a minute on a 2-vCPU machine.  Exits 1 if any run
exits nonzero.
"""

from __future__ import annotations

import os

# One BLAS/OpenMP thread, set before anything imports NumPy, as perfbench does.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
REPEATS = 3
BETA1, BETA2 = 0.05, 0.7
GAMMA1, GAMMA2 = 0.5, 1e-3
# Each sweep: the CLI mode it runs, its axis and the axis' values.
POINTS = {
    "products": ("products", "n", [4, 16, 64, 256]),
    "lf": ("lf", "horizon", [10**3, 10**4, 10**5]),
    "lf_nodes": ("lf", "n", [4, 16, 64, 256]),
    "lf_ring": ("lf", "n", [16, 64, 256]),
    "certify": ("certify", "entries", [10**3, 10**4, 10**5]),
}


def growth_lengths(count: int) -> list[int]:
    """The case-iii schedule ``floor(cap(i) + 1e-9)`` for i = 1..count, with
    ``cap(i) = ln((1 - exp(-gamma2 i^-gamma1)) / (1 - beta2)) / ln(beta1) + 1``."""
    lengths = []
    for i in range(1, count + 1):
        budget = -math.expm1(-GAMMA2 * float(i) ** (-GAMMA1))
        cap = (math.log(budget) - math.log1p(-BETA2)) / math.log(BETA1) + 1.0
        lengths.append(math.floor(cap + 1e-9))
    return lengths


def ring_regions(n: int) -> dict:
    """``lf_ring``'s sensor and anchor disks ``[cx, cy, r]`` for ``n`` sensors."""
    ring = 0.8 * n / (2 * math.pi) + 2.0

    def disks(radius: float, count: int) -> list[list[float]]:
        angles = (2 * math.pi * j / count for j in range(count))
        return [[radius * math.cos(a), radius * math.sin(a), 0.3] for a in angles]

    return {"sensors": disks(ring, n), "anchors": disks(ring - 1.0, n // 8)}


def write_inputs(name: str, directory: Path) -> tuple[list[tuple[int, list[str]]], str]:
    """Write sweep ``name``'s inputs under ``directory``; return each point's value
    and CLI argv (without ``--out``), and the SHA-256 of every input byte."""
    directory.mkdir(parents=True, exist_ok=True)
    mode, _, values = POINTS[name]
    files, points = [], []
    for value in values:
        config = directory / f"{name}_{value}.json"
        if name == "products":
            payload = {"mode": mode, "n": value, "horizon": 1000, "seed": 1}
        elif name == "lf":
            payload = {"mode": mode, "n": 4, "u": 3.0, "horizon": value, "seed": 1}
        elif name == "lf_nodes":
            payload = {"mode": mode, "n": value, "u": 3.0, "horizon": 2000, "seed": 1}
        elif name == "lf_ring":
            payload = {"mode": mode, "n": value, "horizon": 4000, "seed": 1,
                       "comm_radius": 1.6, "sigma": 0.1, "regions": ring_regions(value)}
        else:
            log = directory / f"growth_{value}.csv"
            rows = enumerate(reversed(growth_lengths(value)))
            log.write_text("slice_index,length\n" + "".join(f"{t},{v}\n" for t, v in rows))
            files.append(log)
            payload = {"mode": mode, "slice_log": log.name}
        config.write_text(json.dumps(payload, sort_keys=True) + "\n")
        files.append(config)
        points.append((value, [mode, "--config", str(config)]))
    digest = hashlib.sha256()
    for path in files:
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return points, digest.hexdigest()


def metadata(root: Path) -> dict:
    import numpy

    src = root / "src"
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode())
        digest.update(path.read_bytes())
    commit = None
    if (root / ".git").exists():
        done = subprocess.run(
            ["git", "-C", str(root), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30
        )
        commit = done.stdout.strip() or None
    return {
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
    }


def run_once(main, argv: list[str], out: Path) -> tuple[float, int]:
    """One in-process CLI run into a fresh ``out``: wall seconds and exit code."""
    shutil.rmtree(out, ignore_errors=True)
    gc.collect()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        start = perf_counter()
        code = main([*argv, "--out", str(out)])
        elapsed = perf_counter() - start
    return elapsed, code


def sweep(main, work: Path) -> tuple[dict, bool]:
    """Every sweep's points, timed; ``ok`` is false if any run exited nonzero."""
    report, ok = {}, True
    for name in POINTS:
        points, digest = write_inputs(name, work / "inputs")
        _, axis, _ = POINTS[name]
        run_once(main, points[0][1], work / "out")  # warm-up, untimed
        rows = []
        for value, argv in points:
            runs = [run_once(main, argv, work / "out") for _ in range(REPEATS)]
            codes = sorted({code for _, code in runs})
            ok = ok and codes == [0]
            times = [round(t, 4) for t, _ in runs]
            rows.append({axis: value, "median_s": statistics.median(times), "runs_s": times,
                         "exit_codes": codes})
            print(f"{name} {axis}={value}: median {statistics.median(times):.3f} s "
                  f"(runs {times}, exit {codes})", file=sys.stderr)
        report[name] = {"inputs_sha256": digest, "points": rows}
    return report, ok


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=Path, default=ROOT)
    args = parser.parse_args(argv)
    root = args.root.resolve()
    sys.path.insert(0, str(root / "src"))
    import slicekit
    from slicekit.cli import main as cli_main

    if Path(slicekit.__file__).resolve().parent != root / "src" / "slicekit":
        sys.exit(f"error: slicekit was imported from {slicekit.__file__}, not {root}")
    with tempfile.TemporaryDirectory(prefix="scaling_") as tmp:
        sweeps, ok = sweep(cli_main, Path(tmp))
    print(json.dumps({**metadata(root), "repeats": REPEATS, "sweeps": sweeps}, indent=1))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
