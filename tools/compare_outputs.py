"""Check that two checkouts write byte-identical outputs for the same inputs.

Usage, from any directory:

    python3 tools/compare_outputs.py PARENT_ROOT CHANGE_ROOT

Each argument is the root of a checkout, for example a ``git worktree`` of
the parent commit and this checkout.  The inputs come from
``perfbench/workloads.py``'s ``materialise`` at seed 100, built once and
shared by both trees:

- the 32 lf_demo configs, plus variants of the first one that reach what
  lf_demo never does: idling steps (``update_prob`` 0.5, also over a
  horizon of 1500, so that idle steps fall on both sides of a block edge
  of the random draws), no fusing step at all (``update_prob`` 0.0 over a
  horizon of 1500: two draw blocks with no engine step, whose
  ``events.csv`` is 1500 skipped lines), 3 and 5 sensors, 40 sensors (41 nodes, which move
  node by node on floats), 72 sensors (more nodes than
  ``ddf_sim.FLOAT_MOTION_NODES``, so they move with NumPy passes, not on
  floats), two sensors and two anchors in given ``regions``, the
  demo layout's own disks given as ``regions``, seven sensors
  and three anchors in overlapping ``regions`` (rows hearing several
  anchors, sensor groups of three), two sensors and two anchors whose
  motion projects back onto the edge on most steps (``sigma`` 1.5 on disks
  of radius 1e10, one anchor in a region of radius 0), two sensors and an
  anchor in regions centred at +-2e17 (positions print in exponent
  notation, past the fast range of the positions writer's ``%.17g``), a
  sensor in a disk of radius 1e-6 at the origin beside a sensor and an
  anchor in disks of radius 1 (its coordinates stay below 1e-4, the other
  end of that range), a seed of two 32-bit
  words, horizons 1, 257 and 1500 (block edges of the random draws) and
  2049 (three draw blocks, so three streamed blocks of rows, the last one
  step past a block edge), initial states ``[-0.0, 0.0, 1.5, -0.0]`` (both
  zeros in one block, which the trajectory writer must keep apart), the
  permissive engine (``strict`` false), and the two infeasible-weight
  failures (a sensor group too large for ``beta1``, two anchors too many
  for ``alpha``), which exit 4, two sensors at ``beta1`` 0.6 over a horizon
  of 3 000 (seed 12), which complete 40 slices and then meet an infeasible
  group in their third draw block, so that a run that exits 4 keeps
  ``slices.csv`` and ``steady_state.csv`` rows, 64 sensors on a sparse ring
  with one anchor per 8 sensors over 4 000 steps (seed 1), which complete
  9 slices of 64 x 64 products across draw-block edges, and seven sensors
  sharing one disk beside an
  anchor disk at ``tol`` 0, whose equal-weight rows of seven sum to
  0.9999999999999998 and so fail the block screen and go to ``push``: over
  a horizon of 1 500 the permissive engine absorbs them across a block edge
  of the draws, and the strict one refuses the first (exit 4);
- the 10 certify_growth logs, plus six configs on the first log that
  certify by case i, certify by case ii, certify nothing, certify by case
  ii after case i fails, and certify nothing after all three routes fail
  (the certificate merges their notes), once with case ii refused for want
  of ``infinite_family`` and once with case ii failing on an unsorted
  subset, whose note names its first offender in subset order, not its
  lowest, and four more logs for the
  case-iii search: the ``gamma1`` = 0.5 schedule of 2 000 slices in
  reverse, which certifies at 0.5; the first log with its longest slice
  one longer, which no ``gamma1`` certifies; the ``gamma1`` = 0 schedule
  of 1 000 slices with its longest slice one longer, which ``gamma1`` = 0
  rejects only at its top rank, after every cap, and 0.25 certifies; and
  the ``gamma1`` = 1 schedule at ``beta1`` = 0.999, whose caps are in the
  thousands; two logs for the certificate writers: the ``gamma1`` = 1
  schedule of 5 000 slices in reverse, more rows than
  ``slicekit.tables.FRAME_ROWS``, so that the trace and the assignment
  each cross a chunk edge (the four schedules come from this checkout's
  ``slicekit.generators.case3_lengths``), and 600 slices of lengths 2 and
  3 and then 1, 2, 3 at ``beta2`` = 0, certified by case i at cap 3,
  whose trace products fall below 1e-4, out of the fast range of the float
  text, and then to 0, with an infinite ``neg_log_sum``, from the slice of
  length 1 on; the first log again as a six-column log with CRLF endings,
  an extra unknown column, its first length quoted and a trailing blank
  line; and the ``slices.csv`` that the products op ``products_n4_seed0``
  (below) writes, certified as written;
- the first products_n16 config at seeds 0-4;
- products at seeds 0-4 with default weights at n = 4, horizon 200; n = 6,
  horizon 129, run by the permissive engine (``strict`` false); n = 1,
  horizon 50; n = 16, horizon 129, which crosses two 64-step block edges of
  ``per_k.csv``'s spectral radius; n = 64, horizon 600, where every
  seed updates all 64 rows and so reaches the stacked ``eigvals``; and
  n = 96, horizon 1 200, whose blocks the entry cap of ``per_k.csv``'s
  spectral radius cuts to 56 steps, and where every seed reaches the
  stacked ``eigvals`` too;
- products at n = 8, horizon 400, seeds 0-4, with ``p_identity`` 0.9 over
  the default 1/3 and 1/3: long runs of identity steps after every row is
  updated, each carrying the spectral radius of the step before;
- products at n = 4, horizon 1 500, seeds 0-4, with ``p_stochastic`` and
  ``p_substochastic`` 0 and ``p_identity`` 1: two draw blocks with no
  engine step, whose ``events.csv`` is 1500 skipped lines;
- products at n = 4, horizon 2 500, seeds 0-4, by the strict and by the
  permissive engine: three draw blocks of ``slicekit.slice_engine.DRAW_BLOCK``
  (1 024) steps, the last a part, so that the draws, the engine, the
  spectral radius and every products CSV cross two block edges.

That makes 137 ops.  Each tree runs every op through ``slicekit.cli.main`` in
its own subprocess, importing ``slicekit`` from that tree's ``src/``.  The
trees run one after the other into the same output root, so paths recorded
in the outputs (``run_config.json``'s ``out_dir``) match.  Every file that differs, or that
only one tree wrote, is listed, and so is every op whose exit code differs.
Exits 1 when anything differs and 0 otherwise.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
sys.path.insert(0, str(ROOT / "src"))

from slicekit import Params  # noqa: E402
from slicekit.certifier import MIN_GAMMA2  # noqa: E402
from slicekit.generators import case3_lengths  # noqa: E402
from workloads import BETA1, BETA2, WORKLOADS, materialise  # noqa: E402

SEED = 100
PRODUCTS_SEEDS = range(5)
# Overrides of the first certify_growth config, which certifies by case iii,
# so that every certify outcome is compared.
CERTIFY_OUTCOMES = {
    "case1": {"case1_cap": 5},
    "case2": {"case2": {"cap": 5, "subset": [0, 1, 2], "infinite_family": True}},
    "none": {"beta1": 0.01, "case1_cap": 4},
    "case1_then_case2": {
        "case1_cap": 3, "case2": {"cap": 5, "subset": [0, 1, 2], "infinite_family": True}
    },
    "every_route_fails": {"beta1": 0.01, "case1_cap": 4, "case2": {"cap": 5, "subset": [0, 1, 2]}},
    # Slices 9, 1 and 5 of the first log have length 5: case ii names slice
    # 9, the first offender in subset order.
    "every_route_fails_unsorted_subset": {
        "beta1": 0.01,
        "case1_cap": 4,
        "case2": {"cap": 4, "subset": [9, 4, 5, 0, 1], "infinite_family": True},
    },
}


def six_column_log(lengths: list[int]) -> str:
    """``lengths`` as a slice log in the column order ``slices.csv`` has,
    plus an unknown column, with CRLF endings, the first length quoted and
    a trailing blank line."""
    rows, end = [], -1
    for t, v in enumerate(lengths):
        length = f'"{v}"' if t == 0 else v
        rows.append(f"{t},{end + 1},{end + v},{length},0.5,0.9,x\r\n")
        end += v
    return "slice_index,start_k,end_k,length,norm,bound,extra\r\n" + "".join(rows) + "\r\n"


def certify_logs(first_log: list[int]) -> dict[str, tuple[list[int], dict]]:
    """Slice logs beyond certify_growth's, by name: the lengths and the
    overrides of the first certify_growth config that go with them."""
    bumped = list(first_log)
    bumped[bumped.index(max(bumped))] += 1
    late_reject = case3_lengths(1000, 0.0, MIN_GAMMA2, Params(BETA1, BETA2))
    late_reject[late_reject.index(max(late_reject))] += 1
    return {
        # Every length is at most 4, so case i at cap 3 fails first.
        "gamma1_half": (
            case3_lengths(2000, 0.5, MIN_GAMMA2, Params(BETA1, BETA2))[::-1],
            {"case1_cap": 3},
        ),
        "bumped": (bumped, {}),
        # gamma1 = 0 fails only at the top rank, after every cap; 0.25 certifies.
        "late_reject": (late_reject, {}),
        "beta1_0999": (
            case3_lengths(1000, 1.0, MIN_GAMMA2, Params(0.999, BETA2)),
            {"beta1": 0.999},
        ),
        # More slices than tables.FRAME_ROWS: the trace and the assignment
        # are each built in two chunks.
        "long": (case3_lengths(5000, 1.0, MIN_GAMMA2, Params(BETA1, BETA2))[::-1], {}),
        # beta2 = 0: case i traces the log in order, its products fall below
        # 1e-4 and, at the slice of length 1, to 0.0 (neg_log_sum inf).
        "takeover": ([2, 3] * 300 + [1, 2, 3], {"beta2": 0.0, "case1_cap": 3}),
    }


# Two sensors and two anchors in given regions.
TWO_ANCHOR_REGIONS = {
    "n": 2,
    "regions": {
        "sensors": [[1.5, 0.0, 1.0], [-1.5, 0.0, 1.0]],
        "anchors": [[0.0, 0.0, 0.8], [0.0, 2.0, 0.8]],
    },
}

# The demo layout of the first lf_demo config (n = 4) given as regions; its
# outputs, run_config.json aside, are those of the first lf_demo op.
DEMO_REGIONS = {
    "regions": {
        "sensors": [[1.9, 0.0, 1.2], [-1.9, 0.0, 1.2], [3.9, 0.0, 1.2], [-3.9, 0.0, 1.2]],
        "anchors": [[0.0, 0.0, 1.0]],
    },
}

# Seven sensors and three anchors in given regions that overlap: fusion rows
# hear up to three anchors at once (alpha = 0.15 binds at three, where
# 3 * alpha > 1 - beta2), and anchor-free sensor groups reach three members.
# Every group and anchor count stays feasible at beta1 = 0.05.
CROWDED_REGIONS = {
    "n": 7,
    "alpha": 0.15,
    "comm_radius": 1.5,
    "regions": {
        "sensors": [
            [0.6, 0.0, 0.8], [-0.6, 0.0, 0.8], [0.0, 0.9, 0.8], [0.0, -0.9, 0.8],
            [2.4, 0.0, 0.8], [3.4, 0.6, 0.8], [3.2, -0.6, 0.8],
        ],
        "anchors": [[0.0, 0.0, 0.6], [1.0, 0.8, 0.6], [-1.0, -0.8, 0.6]],
    },
}

# Two sensors and two anchors where the motion projects on most steps:
# sigma = 1.5 carries a node on its edge past it more often than not, on
# disks of radius 1e10, and one anchor sits in a region of radius 0.
HUGE_REGIONS = {
    "n": 2,
    "sigma": 1.5,
    "comm_radius": 3e10,
    "regions": {
        "sensors": [[2e10, 0.0, 1e10], [-2e10, 0.0, 1e10]],
        "anchors": [[0.0, 0.0, 0.0], [0.0, 2e10, 1e10]],
    },
}

# Seven sensors that all hear each other and, on few steps, an anchor: every
# anchor-free row is seven weights of 1/7, which sum to 0.9999999999999998.
# At tol = 0 that sum fails the block screen's fusion rule, so each such row
# goes to push, which absorbs it when permissive and refuses it when strict.
UNSCREENED_REGIONS = {
    "n": 7,
    "tol": 0.0,
    "comm_radius": 2.5,
    "horizon": 1500,
    "regions": {"sensors": [[0.0, 0.0, 1.0]] * 7, "anchors": [[3.9, 0.0, 1.0]]},
}


def ring_regions(n: int) -> dict:
    """Overrides for ``n`` sensors in disks of radius 0.3 on a ring of radius
    ``0.8 n / (2 pi) + 2``, with one anchor disk of radius 0.3 per 8 sensors
    on the ring 1.0 further in: a sparse world whose slices complete at any
    ``n``."""
    ring = 0.8 * n / (2 * math.pi) + 2.0

    def disks(radius: float, count: int) -> list[list[float]]:
        angles = (2 * math.pi * j / count for j in range(count))
        return [[radius * math.cos(a), radius * math.sin(a), 0.3] for a in angles]

    return {
        "n": n, "seed": 1, "comm_radius": 1.6, "sigma": 0.1,
        "regions": {"sensors": disks(ring, n), "anchors": disks(ring - 1.0, n // 8)},
    }


# Overrides of the first lf_demo config.
LF_VARIANTS = {
    "idle": {"update_prob": 0.5},
    "idle_h1500": {"update_prob": 0.5, "horizon": 1500},
    "never_fuses": {"update_prob": 0.0, "horizon": 1500},
    "n3": {"n": 3},
    "n5": {"n": 5},
    "n40": {"n": 40},
    "n72": {"n": 72},
    "regions": TWO_ANCHOR_REGIONS,
    "demo_regions": DEMO_REGIONS,
    "crowded_regions": CROWDED_REGIONS,
    "huge_regions": HUGE_REGIONS,
    # Every coordinate at least 1e17, where ``%.17g`` switches to exponent
    # notation.
    "far_regions": {
        "n": 2,
        "regions": {
            "sensors": [[2e17, 2e17, 1e16], [-2e17, -2e17, 1e16]],
            "anchors": [[2e17, -2e17, 1e16]],
        },
    },
    # One sensor's coordinates below 1e-4 (exponent notation again, or 0),
    # beside two nodes in disks of radius 1, in the same blocks of rows.
    "tiny_regions": {
        "n": 2,
        "regions": {
            "sensors": [[0.0, 0.0, 1e-6], [1.5, 0.0, 1.0]],
            "anchors": [[0.0, 1.5, 1.0]],
        },
    },
    "seed_2words": {"seed": 2**40 + 3},
    "h1": {"horizon": 1},
    "h257": {"horizon": 257},
    "h1500": {"horizon": 1500},
    "h2049": {"horizon": 2049},
    "signed_zero": {"x0": [-0.0, 0.0, 1.5, -0.0]},
    "permissive": {"strict": False},
    # A sensor and one neighbour cannot both get beta1 = 0.6 in one row.
    "crowded": {"beta1": 0.6},
    # Two anchors heard at once cannot each get alpha = 0.6.
    "anchor_floor": {**TWO_ANCHOR_REGIONS, "alpha": 0.6, "comm_radius": 3.0},
    "unscreened_permissive": {**UNSCREENED_REGIONS, "strict": False},
    "unscreened_strict": {**UNSCREENED_REGIONS, "strict": True},
    "ring64": {**ring_regions(64), "horizon": 4000},
    # 40 slices, then a group of two sensors, too many for beta1, in the
    # third draw block.
    "fails_after_slices": {"n": 2, "horizon": 3000, "seed": 12, "beta1": 0.6},
}

# Products configs beyond products_n16, each run at PRODUCTS_SEEDS.
PRODUCTS_VARIANTS = {
    "n4": {"n": 4, "horizon": 200},
    "n6_permissive": {"n": 6, "horizon": 129, "strict": False},
    "n1": {"n": 1, "horizon": 50},
    "n16_h129": {"n": 16, "horizon": 129},
    "n64_h600": {"n": 64, "horizon": 600},
    "n96_h1200": {"n": 96, "horizon": 1200},
    "idle": {"n": 8, "horizon": 400, "p_identity": 0.9},
    "all_identity": {
        "n": 4, "horizon": 1500, "p_stochastic": 0.0, "p_substochastic": 0.0, "p_identity": 1.0
    },
    "n4_h2500": {"n": 4, "horizon": 2500},
    "n4_h2500_permissive": {"n": 4, "horizon": 2500, "strict": False},
}

# Runs a JSON list of (name, argv) ops from stdin through slicekit.cli.main,
# each into OUT_ROOT/name, and prints where slicekit came from and the exit
# codes.
RUNNER = """
import contextlib, io, json, sys
import slicekit
from slicekit.cli import main
out_root, codes = sys.argv[1], {}
for name, argv in json.load(sys.stdin):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        codes[name] = main([*argv, "--out", f"{out_root}/{name}"])
print(json.dumps({"file": slicekit.__file__, "codes": codes}))
"""


def build_ops(inputs: Path, out_root: Path) -> list[tuple[str, list[str]]]:
    """Materialise the inputs under ``inputs`` and name one op per run; an
    op that reads another op's output finds it under ``out_root``."""
    ops = []
    pools = {}
    for name in ("lf_demo", "certify_growth"):
        argvs, pools[name], _ = materialise(WORKLOADS[name], SEED, inputs / name)
        ops += [(f"{name}_{j:02d}", argv) for j, argv in enumerate(argvs)]
    for name, mode, variants in (
        ("lf_demo", "lf", LF_VARIANTS),
        ("certify_growth", "certify", CERTIFY_OUTCOMES),
    ):
        base = json.loads((inputs / name / "config_0.json").read_text())
        for variant, overrides in variants.items():
            path = inputs / name / f"config_0_{variant}.json"
            path.write_text(json.dumps({**base, **overrides}) + "\n")
            ops.append((f"{name}_00_{variant}", [mode, "--config", str(path)]))
    directory = inputs / "certify_growth"
    base = json.loads((directory / "config_0.json").read_text())
    for variant, (lengths, overrides) in certify_logs(pools["certify_growth"][0]["_lengths"]).items():
        log = f"log_{variant}.csv"
        (directory / log).write_text("slice_index,length\n" + "".join(f"{t},{v}\n" for t, v in enumerate(lengths)))
        path = directory / f"config_{variant}.json"
        path.write_text(json.dumps({**base, "slice_log": log, **overrides}) + "\n")
        ops.append((f"certify_{variant}", ["certify", "--config", str(path)]))
    (directory / "log_six_column.csv").write_bytes(
        six_column_log(pools["certify_growth"][0]["_lengths"]).encode()
    )
    path = directory / "config_six_column.json"
    path.write_text(json.dumps({**base, "slice_log": "log_six_column.csv"}) + "\n")
    ops.append(("certify_six_column", ["certify", "--config", str(path)]))
    argvs, _, _ = materialise(WORKLOADS["products_n16"], SEED, inputs / "products_n16")
    ops += [(f"products_n16_seed{s}", [*argvs[0], "--seed", str(s)]) for s in PRODUCTS_SEEDS]
    for variant, payload in PRODUCTS_VARIANTS.items():
        path = inputs / f"products_{variant}.json"
        path.write_text(json.dumps({"mode": "products", **payload}) + "\n")
        ops += [
            (f"products_{variant}_seed{s}", ["products", "--config", str(path), "--seed", str(s)])
            for s in PRODUCTS_SEEDS
        ]
    path = inputs / "certify_products_n4_seed0.json"
    log = out_root / "products_n4_seed0" / "slices.csv"
    path.write_text(json.dumps({"mode": "certify", "slice_log": str(log)}) + "\n")
    ops.append(("certify_products_n4_seed0", ["certify", "--config", str(path)]))
    return ops


def run_tree(tree: Path, ops: list[tuple[str, list[str]]], out_root: Path) -> tuple[dict, dict]:
    """Run every op with ``tree``'s slicekit into a fresh ``out_root``;
    return the exit codes and every output file's bytes by relative path."""
    shutil.rmtree(out_root, ignore_errors=True)
    out_root.mkdir(parents=True)
    src = (tree / "src").resolve()
    done = subprocess.run(
        [sys.executable, "-c", RUNNER, str(out_root)],
        input=json.dumps(ops), capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    if done.returncode != 0:
        sys.exit(f"error: the ops failed under {tree}:\n{done.stderr}")
    report = json.loads(done.stdout.splitlines()[-1])
    if Path(report["file"]).resolve().parent != src / "slicekit":
        sys.exit(f"error: {tree} imported slicekit from {report['file']}")
    files = {
        str(p.relative_to(out_root)): p.read_bytes()
        for p in sorted(out_root.rglob("*")) if p.is_file()
    }
    return report["codes"], files


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent_root", type=Path)
    parser.add_argument("change_root", type=Path)
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="compare_outputs_") as tmp:
        out_root = Path(tmp) / "out"
        ops = build_ops(Path(tmp) / "inputs", out_root)
        parent_codes, parent_files = run_tree(args.parent_root, ops, out_root)
        change_codes, change_files = run_tree(args.change_root, ops, out_root)
    differ = sorted(
        name for name in parent_files.keys() | change_files.keys()
        if parent_files.get(name) != change_files.get(name)
    )
    for name in differ:
        print(f"differs: {name}")
    codes = sorted(name for name, _ in ops if parent_codes[name] != change_codes[name])
    for name in codes:
        print(f"exit code differs: {name} ({parent_codes[name]} -> {change_codes[name]})")
    print(f"{len(ops)} ops, {len(parent_files | change_files)} files, {len(differ)} differ")
    return 1 if differ or codes else 0


if __name__ == "__main__":
    sys.exit(main())
