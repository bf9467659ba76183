"""The three benchmark workloads: seeded inputs and per-op output checks.

An op is one ``slicekit.cli.main([...])`` call.  Each workload builds a
fixed pool of op inputs from the workload seed; op ``i`` uses pool entry
``i % len(pool)``, so a faster commit runs the same inputs more often rather
than different ones.  Every input is generated here: the benchmark never
asks slicekit to make its own inputs.

Checks look at invariants, not bytes, so a change that legitimately moves
the lf random streams still passes.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

BETA1 = 0.05
BETA2 = 0.7
TOL = 1e-9
# Row sums of the generated stochastic rows are 1 only up to rounding, so
# the running-product norm may rise by an ulp or so; allow the program's
# default classification tolerance.
NORM_TOL = 1e-12


def derived_seed(*parts: object) -> int:
    """A 32-bit seed that depends only on ``parts``, stable across Python
    and NumPy versions."""
    text = ":".join(str(p) for p in parts)
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:4], "big")


@dataclass(frozen=True)
class Workload:
    name: str
    mode: str
    work_unit: str
    work_per_op: int
    make_pool: Callable[[int, Path], list[dict]]
    check: Callable[[Path, int, dict], list[str]]


def _rows(path: Path) -> list[dict]:
    with path.open(newline="") as fh:
        return list(csv.DictReader(fh))


# ---------------------------------------------------------------------------
# products_n16
# ---------------------------------------------------------------------------

PRODUCTS_HORIZON = 256
PRODUCTS_POOL = 64


def _products_pool(seed: int, directory: Path) -> list[dict]:
    return [
        {
            "mode": "products",
            "n": 16,
            "horizon": PRODUCTS_HORIZON,
            "beta1": BETA1,
            "beta2": BETA2,
            "strict": True,
            "seed": derived_seed("products_n16", seed, i),
        }
        for i in range(PRODUCTS_POOL)
    ]


def _check_products(out: Path, rc: int, config: dict) -> list[str]:
    if rc != 0:
        return [f"exit code {rc}"]
    problems = []
    for rec in _rows(out / "slices.csv"):
        if float(rec["norm"]) > float(rec["bound"]) + TOL:
            problems.append(f"slice {rec['slice_index']} norm exceeds its bound")
    per_k = _rows(out / "per_k.csv")
    if len(per_k) != config["horizon"]:
        problems.append(f"per_k.csv has {len(per_k)} rows")
    previous = math.inf
    for rec in per_k:
        norm, rho = float(rec["inf_norm"]), float(rec["spectral_radius"])
        if norm > previous + NORM_TOL:
            problems.append(f"inf-norm rises at k={rec['k']}")
        if rho > norm + TOL:
            problems.append(f"spectral radius above inf-norm at k={rec['k']}")
        previous = norm
    return problems


# ---------------------------------------------------------------------------
# lf_demo
# ---------------------------------------------------------------------------

LF_HORIZON = 800
LF_POOL = 32
LF_U = 3.0


def _lf_pool(seed: int, directory: Path) -> list[dict]:
    return [
        {
            "mode": "lf",
            "n": 4,
            "u": LF_U,
            "horizon": LF_HORIZON,
            "seed": derived_seed("lf_demo", seed, i),
        }
        for i in range(LF_POOL)
    ]


def _check_lf(out: Path, rc: int, config: dict) -> list[str]:
    if rc != 0:
        return [f"exit code {rc}"]
    problems = []
    for rec in _rows(out / "steady_state.csv"):
        if rec["ok"] != "1":
            problems.append(f"steady-state identity fails on slice {rec['slice_index']}")
    states = _rows(out / "trajectory.csv")
    if len(states) != (config["horizon"] + 1) * config["n"]:
        problems.append(f"trajectory.csv has {len(states)} rows")
    for rec in states:
        if not 0.0 <= float(rec["state"]) <= LF_U:
            problems.append(f"state {rec['state']} outside [0, {LF_U}] at k={rec['k']}")
            break
    return problems


# ---------------------------------------------------------------------------
# certify_growth
# ---------------------------------------------------------------------------

CERTIFY_ENTRIES = 1000
CERTIFY_LOGS = 10
GAMMA1 = 1.0
GAMMA2 = 1e-3


def growth_cap(i: int) -> float:
    """Case-iii length cap ``ln((1 - exp(-g2 i^-g1)) / (1 - beta2)) /
    ln(beta1) + 1`` at position ``i``, for g1 = GAMMA1 and g2 = GAMMA2."""
    budget = -math.expm1(-GAMMA2 * float(i) ** (-GAMMA1))
    return (math.log(budget) - math.log1p(-BETA2)) / math.log(BETA1) + 1.0


def _slice_bound(length: int) -> float:
    return 1.0 - BETA1 ** (length - 1) * (1.0 - BETA2)


def _certify_pool(seed: int, directory: Path) -> list[dict]:
    lengths = [
        int(math.floor(growth_cap(i) + TOL)) for i in range(1, CERTIFY_ENTRIES + 1)
    ]
    pool = []
    for j in range(CERTIFY_LOGS):
        order = list(lengths)
        random.Random(derived_seed("certify_growth", seed, j)).shuffle(order)
        log = directory / f"growth_log_{j}.csv"
        with log.open("w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["slice_index", "start_k", "end_k", "length", "norm", "bound"])
            start = 0
            for t, length in enumerate(order):
                bound = f"{_slice_bound(length):.17g}"
                writer.writerow([t, start, start + length - 1, length, bound, bound])
                start += length
        pool.append(
            {
                "mode": "certify",
                "slice_log": log.name,
                "beta1": BETA1,
                "beta2": BETA2,
                "case1_cap": 4,
                "_lengths": order,
            }
        )
    return pool


def _check_certify(out: Path, rc: int, config: dict) -> list[str]:
    if rc != 0:
        return [f"exit code {rc}"]
    lines = (out / "certificate.txt").read_text().splitlines()
    problems = []
    if "verdict: certified" not in lines:
        problems.append("verdict is not 'certified'")
    if "case: case_iii" not in lines:
        problems.append("certifying case is not case_iii")
    try:
        rows = lines[lines.index("i,slice_index,length,cap") + 1 :]
    except ValueError:
        return problems + ["certificate has no assignment table"]
    lengths = config["_lengths"]
    matched = set()
    for row in rows:
        _, slice_index, length, cap = row.split(",")
        t = int(slice_index)
        matched.add(t)
        if not 0 <= t < len(lengths) or int(length) != lengths[t]:
            problems.append(f"assignment row {row!r} does not match the log")
        elif int(length) > float(cap) + TOL:
            problems.append(f"assigned length {length} exceeds cap {cap}")
    if len(rows) != len(lengths) or matched != set(range(len(lengths))):
        problems.append("assignment is not a permutation of the slice indices")
    return problems


# README.md in this directory records why each workload exists.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="products_n16",
            mode="products",
            work_unit="update steps",
            work_per_op=PRODUCTS_HORIZON,
            make_pool=_products_pool,
            check=_check_products,
        ),
        Workload(
            name="lf_demo",
            mode="lf",
            work_unit="update steps",
            work_per_op=LF_HORIZON,
            make_pool=_lf_pool,
            check=_check_lf,
        ),
        Workload(
            name="certify_growth",
            mode="certify",
            work_unit="slice-log entries",
            work_per_op=CERTIFY_ENTRIES,
            make_pool=_certify_pool,
            check=_check_certify,
        ),
    )
}


def materialise(workload: Workload, seed: int, directory: Path) -> tuple[list[list[str]], list[dict], str]:
    """Write the workload's input files under ``directory``.

    Returns each op's CLI argv (without ``--out``), its config (for the
    checks) and a SHA-256 digest over every input byte, which two commits
    given the same seed must share.
    """
    directory.mkdir(parents=True, exist_ok=True)
    pool = workload.make_pool(seed, directory)
    digest = hashlib.sha256()
    ops = []
    for j, config in enumerate(pool):
        path = directory / f"config_{j}.json"
        public = {k: v for k, v in config.items() if not k.startswith("_")}
        path.write_text(json.dumps(public, sort_keys=True) + "\n")
        files = [path]
        if "slice_log" in config:
            files.append(directory / config["slice_log"])
        for f in files:
            digest.update(f.name.encode())
            digest.update(f.read_bytes())
        ops.append([workload.mode, "--config", str(path)])
    return ops, pool, digest.hexdigest()
