"""Check that two checkouts write byte-identical outputs for the same inputs.

Usage, from any directory:

    python3 tools/compare_outputs.py PARENT_ROOT CHANGE_ROOT

Each argument is the root of a checkout, for example a ``git worktree`` of
the parent commit and this checkout.  The inputs come from
``perfbench/workloads.py``'s ``materialise`` at seed 100, built once and
shared by both trees:

- the 32 lf_demo configs, plus variants of the first one that reach what
  lf_demo never does: idling steps (``update_prob`` 0.5), 3 and 5
  sensors, two sensors and two anchors in given ``regions``, a seed of
  two 32-bit words, horizons 1, 257 and 1500 (block edges of the random
  draws), the permissive engine (``strict`` false), and the two
  infeasible-weight failures (a sensor group too large for ``beta1``, two
  anchors too many for ``alpha``), which exit 4;
- the 10 certify_growth logs, plus three configs on the first log that
  certify by case i, certify by case ii, and certify nothing;
- the first products_n16 config at seeds 0-4;
- products at seeds 0-4 with default weights at n = 4, horizon 200; n = 1,
  horizon 50; n = 16, horizon 129, which crosses two 64-step block edges of
  ``per_k.csv``'s spectral radius; and n = 64, horizon 600, where every
  seed updates all 64 rows and so reaches the stacked ``eigvals``.

Each tree runs every op through ``slicekit.cli.main`` in its own subprocess,
importing ``slicekit`` from that tree's ``src/``.  The trees run one after
the other into the same output root, so paths recorded in the outputs
(``run_config.json``'s ``out_dir``) match.  Every file that differs, or that
only one tree wrote, is listed, and so is every op whose exit code differs.
Exits 1 when anything differs and 0 otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

from workloads import WORKLOADS, materialise  # noqa: E402

SEED = 100
PRODUCTS_SEEDS = range(5)
# Overrides of the first certify_growth config, which certifies by case iii,
# so that every certify outcome is compared.
CERTIFY_OUTCOMES = {
    "case1": {"case1_cap": 5},
    "case2": {"case2": {"cap": 5, "subset": [0, 1, 2], "infinite_family": True}},
    "none": {"beta1": 0.01, "case1_cap": 4},
}

# Two sensors and two anchors in given regions.
TWO_ANCHOR_REGIONS = {
    "n": 2,
    "regions": {
        "sensors": [[1.5, 0.0, 1.0], [-1.5, 0.0, 1.0]],
        "anchors": [[0.0, 0.0, 0.8], [0.0, 2.0, 0.8]],
    },
}

# Overrides of the first lf_demo config.
LF_VARIANTS = {
    "idle": {"update_prob": 0.5},
    "n3": {"n": 3},
    "n5": {"n": 5},
    "regions": TWO_ANCHOR_REGIONS,
    "seed_2words": {"seed": 2**40 + 3},
    "h1": {"horizon": 1},
    "h257": {"horizon": 257},
    "h1500": {"horizon": 1500},
    "permissive": {"strict": False},
    # A sensor and one neighbour cannot both get beta1 = 0.6 in one row.
    "crowded": {"beta1": 0.6},
    # Two anchors heard at once cannot each get alpha = 0.6.
    "anchor_floor": {**TWO_ANCHOR_REGIONS, "alpha": 0.6, "comm_radius": 3.0},
}

# Products configs beyond products_n16, each run at PRODUCTS_SEEDS.
PRODUCTS_VARIANTS = {
    "n4": {"n": 4, "horizon": 200},
    "n1": {"n": 1, "horizon": 50},
    "n16_h129": {"n": 16, "horizon": 129},
    "n64_h600": {"n": 64, "horizon": 600},
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


def build_ops(inputs: Path) -> list[tuple[str, list[str]]]:
    """Materialise the inputs under ``inputs`` and name one op per run."""
    ops = []
    for name in ("lf_demo", "certify_growth"):
        argvs, _, _ = materialise(WORKLOADS[name], SEED, inputs / name)
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
    argvs, _, _ = materialise(WORKLOADS["products_n16"], SEED, inputs / "products_n16")
    ops += [(f"products_n16_seed{s}", [*argvs[0], "--seed", str(s)]) for s in PRODUCTS_SEEDS]
    for variant, payload in PRODUCTS_VARIANTS.items():
        path = inputs / f"products_{variant}.json"
        path.write_text(json.dumps({"mode": "products", **payload}) + "\n")
        ops += [
            (f"products_{variant}_seed{s}", ["products", "--config", str(path), "--seed", str(s)])
            for s in PRODUCTS_SEEDS
        ]
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
        ops = build_ops(Path(tmp) / "inputs")
        out_root = Path(tmp) / "out"
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
