"""End-to-end checks of the command-line harness."""

from __future__ import annotations

import io
import json
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from slicekit import (
    AssumptionViolated,
    LeaderFollowerConfig,
    NegativeEntry,
    Params,
    case3_lengths,
    demo_world,
    identity_step,
    inf_norm,
    random_product_sequence,
    row_update,
    run_leader_follower,
    run_sequence,
    slice_engine,
    spectral_radius,
    write_event_log,
)
from slicekit.cli import (
    CONFIG_KEYS,
    EXIT_CONFIG,
    EXIT_NOT_CERTIFIED,
    EXIT_OK,
    EXIT_RUNTIME,
    ExperimentConfig,
    _build_world,
    _per_k_rows,
    build_parser,
    main,
)

SLICE_LOG = "slice_index,start_k,end_k,length,norm,bound\n0,0,4,5,0.5,0.9\n"
TWO_ENTRY_LOG = SLICE_LOG + "1,5,9,5,0.5,0.9\n"


def write_config(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


def base_config(mode, log):
    """A small config for ``mode`` holding only keys that mode declares."""
    return {"mode": mode, **({"slice_log": str(log)} if mode == "certify" else {"horizon": 5})}


def ring_world(n):
    """An lf config whose ``n`` sensors sit in disks of radius 0.3 on a ring
    of radius ``0.8 n / (2 pi) + 2``, with one anchor disk per 8 sensors on
    the ring 1.0 further in.  Information spreads around the ring from every
    anchor, so slices complete at every n, unlike the demo world's chain."""
    ring = 0.8 * n / (2 * np.pi) + 2.0

    def disks(radius, count):
        angles = 2 * np.pi * np.arange(count) / count
        return [[radius * np.cos(a), radius * np.sin(a), 0.3] for a in angles.tolist()]

    return {
        "mode": "lf", "n": n, "seed": 1, "comm_radius": 1.6, "sigma": 0.1,
        "regions": {"sensors": disks(ring, n), "anchors": disks(ring - 1.0, n // 8)},
    }


@pytest.fixture
def products_config(tmp_path):
    return write_config(
        tmp_path / "products.json",
        {
            "mode": "products",
            "n": 4,
            "horizon": 120,
            "beta1": 0.05,
            "beta2": 0.7,
            "seed": 0,
        },
    )


class TestProducts:
    def test_writes_all_artifacts(self, tmp_path, products_config):
        out = tmp_path / "out"
        assert main(["products", "--config", products_config, "--out", str(out)]) == EXIT_OK
        for name in (
            "per_k.csv",
            "slices.csv",
            "events.csv",
            "slice_boundaries.csv",
            "plot_products.gp",
            "run_config.json",
        ):
            assert (out / name).exists()
        per_k = (out / "per_k.csv").read_text().splitlines()
        assert per_k[0] == "k,inf_norm,spectral_radius"
        assert len(per_k) == 1 + 120

    def test_cumulative_products_start_from_the_empty_product(self, tmp_path, products_config):
        # per_k.csv's running products come from the same start, which
        # they must leave as it was: the first slice times it is itself.
        out = tmp_path / "out"
        assert main(["products", "--config", products_config, "--out", str(out)]) == EXIT_OK
        rows = (out / "slice_boundaries.csv").read_text().splitlines()
        assert rows[0] == "t,end_k,length,slice_norm,cumulative_norm" and len(rows) > 2
        first = rows[1].split(",")
        assert first[3] == first[4]

    def test_zero_horizon_gives_empty_logs(self, tmp_path):
        cfg = write_config(
            tmp_path / "p.json", {"mode": "products", "n": 3, "horizon": 0}
        )
        out = tmp_path / "out"
        assert main(["products", "--config", cfg, "--out", str(out)]) == EXIT_OK
        assert (out / "per_k.csv").read_text().splitlines() == [
            "k,inf_norm,spectral_radius"
        ]
        assert len((out / "slices.csv").read_text().splitlines()) == 1

    def test_reruns_are_byte_identical(self, tmp_path, products_config):
        # Each mode runs twice into the same directory; certify reads the
        # products run's slice log, so that runs first.
        lf_config = write_config(
            tmp_path / "lf.json", {"mode": "lf", "n": 4, "horizon": 400, "seed": 0}
        )
        certify_config = write_config(
            tmp_path / "certify.json",
            {
                "mode": "certify",
                "slice_log": "products/slices.csv",
                "beta1": 0.05,
                "beta2": 0.7,
                "case1_cap": 60,
            },
        )
        for mode, cfg in (
            ("products", products_config),
            ("lf", lf_config),
            ("certify", certify_config),
        ):
            out = tmp_path / mode
            runs = []
            for _ in range(2):
                assert main([mode, "--config", cfg, "--out", str(out)]) == EXIT_OK
                runs.append({p.name: p.read_bytes() for p in out.iterdir() if p.is_file()})
            assert runs[0] == runs[1], mode

    def test_seed_override_changes_the_data(self, tmp_path, products_config):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        main(["products", "--config", products_config, "--out", str(out_a)])
        main(
            [
                "products",
                "--config",
                products_config,
                "--seed",
                "1",
                "--out",
                str(out_b),
            ]
        )
        assert (out_a / "per_k.csv").read_text() != (out_b / "per_k.csv").read_text()

    def test_memory_stays_flat_along_the_horizon(self, tmp_path, monkeypatch):
        # Draw blocks of 16 steps: ten times the horizon holds ten times the
        # blocks but only one at a time.  The four CSV files' write buffers
        # (8 KiB of text each) fill only on the long run, about 20 KB; at
        # n = 16 a block's own arrays outweigh them.
        monkeypatch.setattr(slice_engine, "DRAW_BLOCK", 16)

        def peak(horizon):
            cfg = write_config(
                tmp_path / f"{horizon}.json", {"mode": "products", "n": 16, "horizon": horizon}
            )
            tracemalloc.start()
            try:
                with redirect_stdout(io.StringIO()):
                    assert main(["products", "--config", cfg, "--out", str(tmp_path / "o")]) == EXIT_OK
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(160)  # builds the parser and warms NumPy's caches
        short, long = peak(160), peak(1600)
        assert len((tmp_path / "o" / "per_k.csv").read_text().splitlines()) == 1 + 1600
        assert long <= 1.3 * short
        # The 100 blocks wrote what two default blocks write.
        monkeypatch.setattr(slice_engine, "DRAW_BLOCK", 1024)
        cfg = str(tmp_path / "1600.json")
        assert main(["products", "--config", cfg, "--out", str(tmp_path / "d")]) == EXIT_OK
        for name in ("per_k.csv", "slices.csv", "events.csv", "slice_boundaries.csv"):
            assert (tmp_path / "o" / name).read_bytes() == (tmp_path / "d" / name).read_bytes()
        # The push loop's event log, a SKIPPED event per identity step
        # included, writes the same bytes.
        events = run_sequence(random_product_sequence(16, PARAMS, 1600, rng=0), PARAMS).events
        write_event_log(events, tmp_path / "events.csv")
        assert (tmp_path / "events.csv").read_bytes() == (tmp_path / "d" / "events.csv").read_bytes()

    def test_failure_after_the_first_block_keeps_the_blocks_before(
        self, tmp_path, monkeypatch, capsys
    ):
        # At tol = 0 a generated stochastic row may sum to 1 + 2**-52.
        # Seed 4 draws the first such row at step 36, in its third block of
        # 16 steps: the two blocks before it stay written.
        monkeypatch.setattr(slice_engine, "DRAW_BLOCK", 16)
        config = {"mode": "products", "n": 4, "horizon": 400, "seed": 4, "tol": 0.0}
        out = tmp_path / "out"
        capsys.readouterr()
        assert main(["products", "--config", write_config(tmp_path / "p.json", config),
                     "--out", str(out)]) == EXIT_RUNTIME
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: update failed validation")
        names = ["events.csv", "per_k.csv", "slice_boundaries.csv", "slices.csv"]
        assert sorted(p.name for p in out.iterdir()) == names
        config["horizon"] = 32
        assert main(["products", "--config", write_config(tmp_path / "h32.json", config),
                     "--out", str(tmp_path / "h32")]) == EXIT_OK
        for name in names:
            assert (out / name).read_bytes() == (tmp_path / "h32" / name).read_bytes()

    def test_failure_in_the_first_block_writes_nothing(self, tmp_path, monkeypatch, capsys):
        # Seed 2's first row sums to 1 + 2**-52.
        monkeypatch.setattr(slice_engine, "DRAW_BLOCK", 16)
        config = {"mode": "products", "n": 4, "horizon": 400, "seed": 2, "tol": 0.0}
        capsys.readouterr()
        assert main(["products", "--config", write_config(tmp_path / "p.json", config),
                     "--out", str(tmp_path / "out")]) == EXIT_RUNTIME
        assert len(capsys.readouterr().err.splitlines()) == 1
        assert not (tmp_path / "out").exists()

    def test_the_reused_parser_keeps_no_state_between_calls(self, tmp_path):
        config_out = tmp_path / "config_out"
        cfg = write_config(
            tmp_path / "p.json",
            {"mode": "products", "n": 4, "horizon": 120, "seed": 0, "out_dir": str(config_out)},
        )
        build_parser.cache_clear()
        first = tmp_path / "first"
        assert main(["products", "--config", cfg, "--out", str(first)]) == EXIT_OK
        # A call that fails after parsing --seed and --out, then one that
        # sets both, must leave nothing behind for a call that sets neither.
        with redirect_stderr(io.StringIO()), pytest.raises(SystemExit) as exc:
            main(["products", "--config", cfg, "--seed", "5", "--out", "x", "--bogus"])
        assert exc.value.code == 2
        seeded = tmp_path / "seeded"
        assert main(["products", "--config", cfg, "--seed", "5", "--out", str(seeded)]) == EXIT_OK
        assert main(["products", "--config", cfg]) == EXIT_OK
        assert build_parser() is build_parser()
        per_k = (first / "per_k.csv").read_bytes()
        assert (config_out / "per_k.csv").read_bytes() == per_k
        assert (seeded / "per_k.csv").read_bytes() != per_k
        echoed = json.loads((config_out / "run_config.json").read_text())
        assert echoed["seed"] == 0 and echoed["out_dir"] == str(config_out)
        assert not (tmp_path / "x").exists()


PARAMS = Params(beta1=0.05, beta2=0.7)


def per_k_rows(matrices, n):
    """``_per_k_rows`` on ``matrices`` packed as one block of rows."""
    rows = np.array([-1 if m.updated_row is None else m.updated_row for m in matrices], dtype=int)
    p_rows = np.zeros((len(matrices), n))
    for t, m in enumerate(matrices):
        if m.updated_row is not None:
            p_rows[t] = m.p_row
    return [row for _, block in _per_k_rows([(0, rows, p_rows)], np.eye(n)) for row in block]


def dense_per_k(matrices, n):
    """The per_k rows computed one running product at a time."""
    j, rows = np.eye(n), []
    for k, m in enumerate(matrices):
        if m.updated_row is not None:
            j[m.updated_row] = m.p_row @ j
        rows.append((k, inf_norm(j), spectral_radius(j)))
    return rows


@pytest.fixture
def solved(monkeypatch):
    """The number of matrices in each ``np.linalg.eigvals`` call, in order."""
    sizes = []
    eigvals = np.linalg.eigvals

    def counting(a):
        sizes.append(len(a))
        return eigvals(a)

    monkeypatch.setattr(np.linalg, "eigvals", counting)
    return sizes


def fresh_steps(matrices, n):
    """The steps that update a row once every row has been updated."""
    return [
        k
        for k, (m, seen) in enumerate(zip(matrices, accumulate_touched(matrices)))
        if seen == n and m.updated_row is not None
    ]


def accumulate_touched(matrices):
    """The number of distinct rows updated up to and including each step."""
    touched = set()
    for m in matrices:
        if m.updated_row is not None:
            touched.add(m.updated_row)
        yield len(touched)


class TestPerKRows:
    @pytest.mark.parametrize("n", range(1, 65))
    def test_matches_per_step_norms_for_every_n(self, n):
        matrices = random_product_sequence(n, PARAMS, 129, rng=np.random.default_rng(n))
        assert per_k_rows(matrices, n) == dense_per_k(matrices, n)

    @pytest.mark.parametrize("horizon", [0, 1, 63, 64, 65, 128, 129])
    @pytest.mark.parametrize("n", [1, 3, 16])
    def test_matches_per_step_norms_across_block_edges(self, n, horizon):
        matrices = random_product_sequence(n, PARAMS, horizon, rng=np.random.default_rng(7))
        assert per_k_rows(matrices, n) == dense_per_k(matrices, n)

    def test_matches_per_step_norms_once_every_row_is_updated(self):
        # Every step updates a row, so all 64 rows are updated within 600
        # steps and most steps take the eigvals route.
        matrices = random_product_sequence(
            64, PARAMS, 600, rng=np.random.default_rng(0), p_identity=0.0
        )
        assert len({m.updated_row for m in matrices}) == 64
        assert per_k_rows(matrices, 64) == dense_per_k(matrices, 64)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        n=st.integers(1, 5),
        steps=st.lists(
            st.tuples(
                st.integers(-1, 4),
                st.lists(st.floats(0.0, 1.0), min_size=5, max_size=5),
            ),
            max_size=80,
        ),
    )
    def test_matches_per_step_norms_on_any_substochastic_rows(self, n, steps):
        matrices = []
        for row, weights in steps:
            if row < 0 or row >= n:
                matrices.append(identity_step(n))
                continue
            w = np.array(weights[:n])
            matrices.append(row_update(n, row, w / max(1.0, float(w.sum()))))
        rows = per_k_rows(matrices, n)
        assert rows == dense_per_k(matrices, n)
        # The unit-row rule: exactly 1 while some row is untouched.
        for (_, _, rho), seen in zip(rows, accumulate_touched(matrices)):
            if seen < n:
                assert rho == 1.0

    def test_permissive_run_writes_the_per_step_norms(self, tmp_path):
        cfg = write_config(
            tmp_path / "p.json",
            {"mode": "products", "n": 6, "horizon": 129, "seed": 3, "strict": False},
        )
        out = tmp_path / "out"
        assert main(["products", "--config", cfg, "--out", str(out)]) == EXIT_OK
        lines = (out / "per_k.csv").read_text().splitlines()[1:]
        written = [(int(k), float(a), float(b)) for k, a, b in (x.split(",") for x in lines)]
        matrices = random_product_sequence(6, PARAMS, 129, rng=np.random.default_rng(3))
        assert written == dense_per_k(matrices, 6)

    def test_no_eigensolve_while_a_row_is_untouched(self, solved):
        matrices = random_product_sequence(256, PARAMS, 300, rng=np.random.default_rng(1))
        rows = per_k_rows(matrices, 256)
        assert solved == [] and [rho for _, _, rho in rows] == [1.0] * 300

        matrices = random_product_sequence(4, PARAMS, 200, rng=np.random.default_rng(1))
        full = [k for k, seen in enumerate(accumulate_touched(matrices)) if seen == 4]
        fresh = fresh_steps(matrices, 4)
        assert 0 < len(fresh) < len(full) < 200
        per_k_rows(matrices, 4)
        # One call per 64-step block holding a fully updated non-identity
        # step, each solving only those steps.
        assert len(solved) == len({k // 64 for k in fresh}) and sum(solved) == len(fresh)

    def test_identity_steps_carry_the_radius_across_blocks(self, solved):
        matrices = random_product_sequence(
            4, PARAMS, 320, rng=np.random.default_rng(1484),
            p_stochastic=0.05, p_substochastic=0.05, p_identity=0.9,
        )
        fresh = fresh_steps(matrices, 4)
        blocks = {k // 64 for k in fresh}
        # Every row is updated by step 127, and steps 128-191 are all
        # identity steps: block 2 solves nothing and carries block 1's last
        # radius in, and block 3 carries it on until its first update.
        assert fresh[0] < 128 and 2 not in blocks and {1, 3} <= blocks
        rows = per_k_rows(matrices, 4)
        assert len(solved) == len(blocks) and sum(solved) == len(fresh)
        assert rows == dense_per_k(matrices, 4)
        carried = {rho for _, _, rho in rows[127 : min(k for k in fresh if k >= 192)]}
        assert len(carried) == 1 and carried != {1.0}

    @pytest.mark.parametrize(
        "rows, error",
        [
            ([-0.5, 1.0], NegativeEntry),
            # An entry of 1e200 overflows to infinity on the second step.
            ([1e200, 0.0], AssumptionViolated),
        ],
    )
    def test_bad_products_raise_as_spectral_radius_does(self, rows, error):
        # Row 1 is never updated, so no step reaches an eigensolve.
        matrices = [row_update(2, 0, rows)] * 2
        with np.errstate(over="ignore"):
            with pytest.raises(error):
                per_k_rows(matrices, 2)
            with pytest.raises(error):
                dense_per_k(matrices, 2)


class TestLeaderFollower:
    def test_writes_all_artifacts(self, tmp_path):
        cfg = write_config(
            tmp_path / "lf.json",
            {"mode": "lf", "n": 4, "u": 3.0, "horizon": 400, "seed": 0},
        )
        out = tmp_path / "out"
        assert main(["lf", "--config", cfg, "--out", str(out)]) == EXIT_OK
        for name in (
            "trajectory.csv",
            "positions.csv",
            "slices.csv",
            "events.csv",
            "steady_state.csv",
            "plot_states.gp",
            "plot_trajectories.gp",
        ):
            assert (out / name).exists()
        steady = (out / "steady_state.csv").read_text().splitlines()
        assert steady[0] == "slice_index,residual,ok"
        for line in steady[1:]:
            assert line.endswith(",1")

    def test_custom_regions(self, tmp_path):
        cfg = write_config(
            tmp_path / "lf.json",
            {
                "mode": "lf",
                "n": 2,
                "u": 5.0,
                "horizon": 50,
                "seed": 0,
                "regions": {
                    "sensors": [[1.5, 0.0, 1.0], [-1.5, 0.0, 1.0]],
                    "anchors": [[0.0, 0.0, 0.8]],
                },
                "comm_radius": 1.2,
            },
        )
        out = tmp_path / "out"
        assert main(["lf", "--config", cfg, "--out", str(out)]) == EXIT_OK

    def test_demo_disks_as_regions_write_the_demo_run(self, tmp_path):
        # README's lf example spells the demo layout out as regions.  Both
        # configs build their world the same way, over two draw blocks.
        horizon = slice_engine.DRAW_BLOCK + 476
        demo = {"mode": "lf", "n": 4, "u": 3.0, "horizon": horizon, "seed": 1}
        regions = {
            "sensors": [[1.9, 0.0, 1.2], [-1.9, 0.0, 1.2], [3.9, 0.0, 1.2], [-3.9, 0.0, 1.2]],
            "anchors": [[0.0, 0.0, 1.0]],
        }
        outs = []
        for name, payload in (("demo", demo), ("regions", {**demo, "regions": regions})):
            outs.append(tmp_path / name)
            cfg = write_config(tmp_path / f"{name}.json", payload)
            assert main(["lf", "--config", cfg, "--out", str(outs[-1])]) == EXIT_OK
        for name in (
            "trajectory.csv", "positions.csv", "events.csv", "slices.csv", "steady_state.csv",
            "plot_states.gp", "plot_trajectories.gp",
        ):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name

    def test_trajectory_plot_draws_every_region(self, tmp_path):
        sensors = [[1.5, 0.0, 1.0], [-1.5, 0.25, 0.75]]
        anchors = [[0.0, 0.0, 0.8], [0.0, 2.5, 0.5]]
        cfg = write_config(
            tmp_path / "lf.json",
            {
                "mode": "lf",
                "n": 2,
                "horizon": 5,
                "seed": 0,
                "regions": {"sensors": sensors, "anchors": anchors},
                "comm_radius": 1.2,
            },
        )
        out = tmp_path / "out"
        assert main(["lf", "--config", cfg, "--out", str(out)]) == EXIT_OK
        script = (out / "plot_trajectories.gp").read_text().splitlines()
        objects = [line.split() for line in script if line.startswith("set object")]
        expected = [(*c, "gray") for c in sensors] + [(*c, "red") for c in anchors]
        assert len(objects) == len(expected)
        for index, (words, (cx, cy, r, color)) in enumerate(zip(objects, expected), start=1):
            assert words[2] == str(index)
            assert tuple(float(v) for v in words[5].split(",")) == (cx, cy)
            assert float(words[7]) == r
            assert words[-1] == f'"{color}"'
        assert script[-1].startswith("plot for [i=0:3] ")

    def test_huge_regions_with_frequent_projection(self, tmp_path):
        # sigma = 1.5 often projects a move back onto a disk of radius 1e10,
        # where rounding exceeds any absolute tolerance.
        cfg = write_config(
            tmp_path / "lf.json",
            {
                "mode": "lf",
                "n": 2,
                "horizon": 300,
                "seed": 0,
                "sigma": 1.5,
                "regions": {
                    "sensors": [[2e10, 0.0, 1e10], [-2e10, 0.0, 1e10]],
                    "anchors": [[0.0, 0.0, 1e10], [0.0, 2e10, 1e10]],
                },
            },
        )
        assert main(["lf", "--config", cfg, "--out", str(tmp_path / "out")]) == EXIT_OK

    def test_far_apart_regions_run_silently(self, tmp_path, capsys):
        # Squared distances between centres 2e200 apart overflow to inf,
        # which still means "not a neighbour"; stderr stays empty.
        cfg = write_config(
            tmp_path / "lf.json",
            {
                "mode": "lf",
                "n": 2,
                "horizon": 50,
                "seed": 0,
                "regions": {
                    "sensors": [[1e200, 0.0, 1.0], [-1e200, 0.0, 1.0]],
                    "anchors": [[1e200, 0.0, 1.0], [-1e200, 0.0, 1.0]],
                },
            },
        )
        capsys.readouterr()
        assert main(["lf", "--config", cfg, "--out", str(tmp_path / "out")]) == EXIT_OK
        assert capsys.readouterr().err == ""

    def test_an_overflowing_spread_prints_inf_silently(self, tmp_path, capsys):
        # The final states minus u overflow to -inf; the summary reports an
        # inf spread and stderr stays empty.
        cfg = write_config(
            tmp_path / "lf.json",
            {"mode": "lf", "horizon": 5, "u": 1e308, "x0": [-1e308, -1e308, -1e308, -1e308]},
        )
        capsys.readouterr()
        assert main(["lf", "--config", cfg, "--out", str(tmp_path / "out")]) == EXIT_OK
        captured = capsys.readouterr()
        assert captured.err == "" and "final spread inf;" in captured.out

    @pytest.mark.parametrize("comm_radius", ["1.5*innermost", 2.0])
    def test_negative_region_radius_is_named(self, tmp_path, capsys, comm_radius):
        cfg = write_config(
            tmp_path / "lf.json",
            {
                "mode": "lf",
                "n": 1,
                "horizon": 5,
                "regions": {"sensors": [[0, 0, -1]], "anchors": [[0, 0, 1]]},
                "comm_radius": comm_radius,
            },
        )
        capsys.readouterr()
        assert main(["lf", "--config", cfg, "--out", str(tmp_path / "o")]) == EXIT_CONFIG
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: radius")

    def test_signed_zero_states_keep_their_text(self, tmp_path):
        # The writer formats each distinct state once, told apart by its
        # bits: -0.0 and 0.0 keep the text one '%.17g' each gives them.
        x0 = [-0.0, 0.0, 1.5, -0.0]
        cfg = write_config(tmp_path / "lf.json", {"mode": "lf", "n": 4, "horizon": 60, "x0": x0})
        out = tmp_path / "out"
        assert main(["lf", "--config", cfg, "--out", str(out)]) == EXIT_OK
        res = run_leader_follower(LeaderFollowerConfig(
            world=demo_world(n=4, x0=x0), params=Params(beta1=0.05, beta2=0.7), horizon=60
        ))
        lines = (out / "trajectory.csv").read_text().splitlines()
        assert lines[1:5] == ["0,0,-0", "0,1,0", "0,2,1.5", "0,3,-0"]
        assert lines[1:] == [
            "%d,%d,%.17g" % (k, i, v)
            for k, frame in enumerate(res.states.tolist())
            for i, v in enumerate(frame)
        ]
        # Both zeros last past the first frame, so one block holds both.
        assert min(sum(line.endswith(z) for line in lines[5:]) for z in (",0", ",-0")) > 0

    @pytest.mark.parametrize(
        "world, short, long", [({"mode": "lf", "n": 4}, 160, 1600), (ring_world(64), 400, 4000)],
        ids=["demo", "ring64"],
    )
    def test_memory_stays_flat_along_the_horizon(self, tmp_path, monkeypatch, world, short, long):
        # Blocks of 16 steps: ten times the horizon holds ten times the
        # blocks but only one at a time.  The ring world completes 8 more
        # slices on the long run, each a 64 x 64 product and a 64 x 8 N_t.
        monkeypatch.setattr(slice_engine, "DRAW_BLOCK", 16)

        def peak(horizon):
            cfg = write_config(tmp_path / f"{horizon}.json", {**world, "horizon": horizon})
            tracemalloc.start()
            try:
                with redirect_stdout(io.StringIO()):
                    assert main(["lf", "--config", cfg, "--out", str(tmp_path / "o")]) == EXIT_OK
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(short)  # builds the parser and warms NumPy's caches
        short_peak, long_peak = peak(short), peak(long)
        trajectory = (tmp_path / "o" / "trajectory.csv").read_text().splitlines()
        assert len(trajectory) == 1 + (long + 1) * world["n"]
        assert long_peak <= 1.3 * short_peak

    @pytest.mark.parametrize("update_prob", [1.0, 0.5])
    def test_same_bytes_at_any_draw_block(self, tmp_path, monkeypatch, update_prob):
        # 69 blocks of 16 steps against two of 1 024: each block writes the
        # skipped lines of its identity steps numbered from its first step.
        config = {"mode": "lf", "n": 4, "horizon": 1100, "seed": 3, "update_prob": update_prob}
        cfg = write_config(tmp_path / "lf.json", config)
        for block in (16, 1024):
            monkeypatch.setattr(slice_engine, "DRAW_BLOCK", block)
            with redirect_stdout(io.StringIO()):
                assert main(["lf", "--config", cfg, "--out", str(tmp_path / f"o{block}")]) == EXIT_OK
        names = ("trajectory.csv", "positions.csv", "events.csv", "slices.csv", "steady_state.csv")
        for name in names:
            assert (tmp_path / "o16" / name).read_bytes() == (tmp_path / "o1024" / name).read_bytes()
        assert (tmp_path / "o16" / "slices.csv").read_text().count("\n") > 1
        # The collected run's event log writes the same bytes.
        world = demo_world(n=4, seed=3, update_prob=update_prob)
        res = run_leader_follower(LeaderFollowerConfig(world=world, params=PARAMS, horizon=1100))
        write_event_log(res.events, tmp_path / "events.csv")
        assert (tmp_path / "events.csv").read_bytes() == (tmp_path / "o16" / "events.csv").read_bytes()

    def test_failure_after_the_first_block_keeps_the_blocks_before(
        self, tmp_path, monkeypatch, capsys
    ):
        # At beta1 = 0.6 no two sensors fit in one row.  Seed 1 meets such a
        # group in its third block of 16 steps: the two blocks before it
        # stay written, as whole frames, in every table, and nothing of the
        # end is.
        monkeypatch.setattr(slice_engine, "DRAW_BLOCK", 16)
        config = {"mode": "lf", "n": 4, "horizon": 400, "seed": 1, "beta1": 0.6}
        cfg = write_config(tmp_path / "lf.json", config)
        out = tmp_path / "out"
        capsys.readouterr()
        assert main(["lf", "--config", cfg, "--out", str(out)]) == EXIT_RUNTIME
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: 2 sensors share the row")
        names = ["events.csv", "positions.csv", "slices.csv", "steady_state.csv", "trajectory.csv"]
        assert sorted(p.name for p in out.iterdir()) == names
        config["horizon"] = 32
        assert main(["lf", "--config", write_config(tmp_path / "h32.json", config),
                     "--out", str(tmp_path / "h32")]) == EXIT_OK
        for name in names:
            assert (out / name).read_bytes() == (tmp_path / "h32" / name).read_bytes()

    def test_failure_in_the_first_block_writes_nothing(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(slice_engine, "DRAW_BLOCK", 16)
        config = {"mode": "lf", "n": 4, "horizon": 400, "seed": 0, "beta1": 0.6}
        cfg = write_config(tmp_path / "lf.json", config)
        capsys.readouterr()
        assert main(["lf", "--config", cfg, "--out", str(tmp_path / "out")]) == EXIT_RUNTIME
        assert len(capsys.readouterr().err.splitlines()) == 1
        assert not (tmp_path / "out").exists()

    def test_malformed_regions_exit_config(self, tmp_path):
        cfg = write_config(
            tmp_path / "lf.json",
            {
                "mode": "lf",
                "n": 2,
                "horizon": 10,
                "regions": {"sensors": [[0.0, 0.0, 1.0]]},
            },
        )
        assert main(["lf", "--config", cfg, "--out", str(tmp_path / "o")]) == EXIT_CONFIG


def step_shapes(text):
    """The event kinds of each step of an ``events.csv``, in step order, and
    the steps that started and completed each slice."""
    kinds, starts, ends = {}, [], []
    for line in text.splitlines()[1:]:
        k, kind = line.split(",")[:2]
        kinds.setdefault(int(k), []).append(kind)
        if kind == "started":
            starts.append(int(k))
        elif kind == "completed":
            ends.append(int(k))
    return {tuple(v) for v in kinds.values()}, list(zip(starts, ends))


# One sensor beside one anchor: a fusion that hears the anchor starts,
# succeeds and completes a slice at once.
ONE_SENSOR = {"n": 1, "regions": {"sensors": [[1.5, 0.0, 1.0]], "anchors": [[0.0, 0.0, 1.0]]}}
# Seven sensors in disks of radius 1 around an anchor disk, at tol 0: now
# and then six or seven of them fuse without the anchor, and their equal
# weights sum to just below 1, a row that fails the block screen and goes to
# push.  At seed 1 the first such row is step 1616.
RING7 = {
    "n": 7, "tol": 0.0, "comm_radius": 2.0, "seed": 1, "horizon": 2000,
    "regions": {
        "sensors": [[np.cos(a), np.sin(a), 1.0] for a in 2 * np.pi * np.arange(7) / 7],
        "anchors": [[0.0, 0.0, 0.2]],
    },
}
EVERY_CODE = {
    ("skipped",), ("absorbed",), ("success",), ("started", "success"), ("success", "completed"),
}
ALL_AT_ONCE = ("started", "success", "completed")


class TestStepCodesWriteTheEventLog:
    """Both commands write ``events.csv`` from the engine's step codes and
    row sums; :func:`write_event_log` over the same run's public events
    (``run_sequence`` for products, ``run_leader_follower`` for lf) writes
    the same bytes, in draw blocks of 16 steps."""

    BLOCK = 16

    def run(self, tmp_path, monkeypatch, mode, payload):
        """Run ``mode`` on ``payload`` in draw blocks of 16 steps, counting
        the rows the engine's block loop sends to push; returns the exit
        code, the config, ``events.csv`` and that count."""
        monkeypatch.setattr(slice_engine, "DRAW_BLOCK", self.BLOCK)
        pushed, real_push = [], slice_engine._push

        def counting(*args):
            pushed.append(args)
            return real_push(*args)

        monkeypatch.setattr(slice_engine, "_push", counting)
        cfg = write_config(tmp_path / f"{mode}.json", {"mode": mode, **payload})
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            rc = main([mode, "--config", cfg, "--out", str(tmp_path / "o")])
        text = (tmp_path / "o" / "events.csv").read_text()
        return rc, ExperimentConfig.load(cfg, mode), text, len(pushed)

    def object_text(self, tmp_path, events):
        write_event_log(events, tmp_path / "objects.csv")
        return (tmp_path / "objects.csv").read_text()

    def products_events(self, config, horizon):
        mats = random_product_sequence(config["n"], config.params, horizon, rng=config.seed)
        return run_sequence(mats, config.params, strict=config["strict"]).events

    def lf_events(self, config, horizon):
        run = LeaderFollowerConfig(
            world=_build_world(config), params=config.params, horizon=horizon,
            strict=config["strict"],
        )
        return run_leader_follower(run).events

    @pytest.mark.parametrize(
        "mode, payload, shapes, pushes",
        [
            ("products", {"n": 1, "horizon": 200}, {("skipped",), ALL_AT_ONCE}, False),
            ("products", {"n": 4, "horizon": 400, "seed": 1}, EVERY_CODE, False),
            # At tol = 0 a generated stochastic row may sum to 1 + 2**-52.
            ("products", {"n": 4, "horizon": 400, "seed": 4, "tol": 0.0, "strict": False},
             EVERY_CODE, True),
            ("lf", {**ONE_SENSOR, "horizon": 300}, {("skipped",), ALL_AT_ONCE}, False),
            ("lf", {"n": 4, "horizon": 400, "seed": 3, "update_prob": 0.5}, EVERY_CODE, False),
            ("lf", {**RING7, "strict": False}, EVERY_CODE, True),
        ],
    )
    def test_same_bytes_as_the_public_events(
        self, tmp_path, monkeypatch, mode, payload, shapes, pushes
    ):
        rc, config, text, pushed = self.run(tmp_path, monkeypatch, mode, payload)
        assert rc == EXIT_OK
        events = getattr(self, f"{mode}_events")(config, config["horizon"])
        assert text == self.object_text(tmp_path, events)
        seen, spans = step_shapes(text)
        assert shapes <= seen
        assert bool(pushed) is pushes
        if ALL_AT_ONCE not in shapes:
            # A slice open across a draw-block edge.
            assert any(k0 // self.BLOCK < k1 // self.BLOCK for k0, k1 in spans)

    @pytest.mark.parametrize(
        "mode, payload",
        [
            ("products", {"n": 4, "horizon": 400, "seed": 4, "tol": 0.0}),
            ("lf", RING7),
        ],
    )
    def test_strict_refusal_keeps_the_finished_blocks(self, tmp_path, monkeypatch, mode, payload):
        # The refused row's block writes nothing; the blocks before it hold
        # the lines of the same run cut at their end.
        rc, config, text, pushed = self.run(tmp_path, monkeypatch, mode, payload)
        assert rc == EXIT_RUNTIME and pushed
        steps = int(text.splitlines()[-1].split(",")[0]) + 1
        assert steps % self.BLOCK == 0 and steps >= self.BLOCK
        events = getattr(self, f"{mode}_events")
        assert text == self.object_text(tmp_path, events(config, steps))
        with pytest.raises(AssumptionViolated):
            events(config, steps + self.BLOCK)


class TestCertify:
    @pytest.fixture
    def slice_log(self, tmp_path, products_config):
        out = tmp_path / "prod"
        main(["products", "--config", products_config, "--out", str(out)])
        return str(out / "slices.csv")

    def test_case1_certifies_with_cap(self, tmp_path, slice_log):
        cfg = write_config(
            tmp_path / "c.json",
            {
                "mode": "certify",
                "slice_log": slice_log,
                "beta1": 0.05,
                "beta2": 0.7,
                "case1_cap": 60,
            },
        )
        out = tmp_path / "cert"
        assert main(["certify", "--config", cfg, "--out", str(out)]) == EXIT_OK
        text = (out / "certificate.txt").read_text()
        assert "verdict: certified" in text
        assert "case: case_i" in text

    def test_grid_failure_exits_three(self, tmp_path, slice_log):
        cfg = write_config(
            tmp_path / "c.json",
            {
                "mode": "certify",
                "slice_log": slice_log,
                "beta1": 0.05,
                "beta2": 0.7,
            },
        )
        out = tmp_path / "cert"
        assert (
            main(["certify", "--config", cfg, "--out", str(out)])
            == EXIT_NOT_CERTIFIED
        )
        assert "not_certified" in (out / "certificate.txt").read_text()

    def test_case2_metadata_route(self, tmp_path, slice_log):
        n_slices = len(open(slice_log).read().splitlines()) - 1
        cfg = write_config(
            tmp_path / "c.json",
            {
                "mode": "certify",
                "slice_log": slice_log,
                "beta1": 0.05,
                "beta2": 0.7,
                "case2": {
                    "cap": 60,
                    "subset": list(range(n_slices)),
                    "infinite_family": True,
                },
            },
        )
        out = tmp_path / "cert"
        assert main(["certify", "--config", cfg, "--out", str(out)]) == EXIT_OK
        assert "case: case_ii" in (out / "certificate.txt").read_text()

    def test_relative_log_path_resolves_against_config(self, tmp_path, products_config):
        out = tmp_path / "prod"
        main(["products", "--config", products_config, "--out", str(out)])
        cfg = write_config(
            tmp_path / "c.json",
            {
                "mode": "certify",
                "slice_log": "prod/slices.csv",
                "beta1": 0.05,
                "beta2": 0.7,
                "case1_cap": 60,
            },
        )
        assert main(["certify", "--config", cfg, "--out", str(tmp_path / "o")]) == EXIT_OK

    @pytest.mark.parametrize("config_dir", [5, "elsewhere"])
    def test_config_dir_key_does_not_move_the_log(self, tmp_path, capsys, config_dir):
        # An undeclared key: refused before the log is looked for.
        (tmp_path / "elsewhere").mkdir()
        (tmp_path / "slices.csv").write_text(SLICE_LOG)
        cfg = write_config(
            tmp_path / "c.json",
            {"mode": "certify", "slice_log": "slices.csv", "case1_cap": 5, "_config_dir": config_dir},
        )
        capsys.readouterr()
        assert main(["certify", "--config", cfg, "--out", str(tmp_path / "o")]) == EXIT_CONFIG
        assert capsys.readouterr().err.splitlines() == ["error: unknown key '_config_dir' for certify"]

    def test_missing_log_exits_config(self, tmp_path):
        cfg = write_config(
            tmp_path / "c.json",
            {"mode": "certify", "slice_log": "nope.csv"},
        )
        assert main(["certify", "--config", cfg, "--out", str(tmp_path / "o")]) == EXIT_CONFIG

    def test_cap_undefined_at_rate_floor_exits_three(self, tmp_path):
        log = tmp_path / "slices.csv"
        log.write_text(
            "slice_index,start_k,end_k,length,norm,bound\n0,0,0,1,0.5,0.9\n"
        )
        cfg = write_config(
            tmp_path / "c.json",
            {"mode": "certify", "slice_log": str(log), "beta1": 0.05, "beta2": 0.9995},
        )
        out = tmp_path / "cert"
        assert main(["certify", "--config", cfg, "--out", str(out)]) == EXIT_NOT_CERTIFIED
        text = (out / "certificate.txt").read_text()
        assert "verdict: not_certified" in text and "grid" in text

    def test_log_with_only_lengths_is_read(self, tmp_path, capsys):
        log = tmp_path / "slices.csv"
        log.write_text("length\n3\n4\n5\n")
        cfg = write_config(
            tmp_path / "c.json",
            {"mode": "certify", "slice_log": str(log), "beta1": 0.05, "beta2": 0.7},
        )
        capsys.readouterr()
        code = main(["certify", "--config", cfg, "--out", str(tmp_path / "cert")])
        assert code == EXIT_NOT_CERTIFIED
        assert "error:" not in capsys.readouterr().err

    @pytest.mark.parametrize(
        "log_text, lengths",
        [
            ("", []),
            ("slice_index,start_k,end_k,length,norm,bound\n", []),
            ("a,b\n", []),
            (SLICE_LOG.replace(",0.5,", ",abc,"), [5]),
            (
                "slice_index,start_k,end_k,length,norm,bound,extra\r\n"
                '0,0,4,"5",0.5,0.9,x\r\n\r\n1,5,7,3,0.5,0.9,y\r\n\r\n',
                [5, 3],
            ),
        ],
        ids=["empty-file", "header-only", "no-length-no-rows", "norm-not-a-number", "crlf-quoted-extra"],
    )
    def test_log_certifies_as_its_lengths_alone(self, tmp_path, capsys, log_text, lengths):
        # Only the length column is read: each log gives the exit code and
        # certificate of a log holding its lengths and nothing else.
        outputs = []
        for name, text in (("log", log_text), ("plain", "length\n" + "".join(f"{v}\n" for v in lengths))):
            (tmp_path / f"{name}.csv").write_bytes(text.encode())
            cfg = write_config(tmp_path / f"{name}.json", {"mode": "certify", "slice_log": f"{name}.csv"})
            capsys.readouterr()
            code = main(["certify", "--config", cfg, "--out", str(tmp_path / name)])
            assert "error:" not in capsys.readouterr().err
            outputs.append((code, (tmp_path / name / "certificate.txt").read_text()))
        assert outputs[0] == outputs[1]
        code, text = outputs[0]
        assert code in ((EXIT_OK, EXIT_NOT_CERTIFIED) if lengths else (EXIT_NOT_CERTIFIED,))
        assert f"horizon: {len(lengths)}\n" in text

    def test_growth_log_certifies_by_case_iii(self, tmp_path):
        # Lengths on the gamma1 = 1 caps, shuffled: only the last gamma1 of
        # the grid certifies, through a matching that undoes the shuffle.
        lengths = case3_lengths(40, 1.0, 1e-3, Params(beta1=0.05, beta2=0.7))
        order = np.random.default_rng(5).permutation(40)
        log = tmp_path / "slices.csv"
        log.write_text("length\n" + "".join(f"{lengths[t]}\n" for t in order))
        cfg = write_config(
            tmp_path / "c.json",
            {"mode": "certify", "slice_log": str(log), "beta1": 0.05, "beta2": 0.7},
        )
        out = tmp_path / "cert"
        assert main(["certify", "--config", cfg, "--out", str(out)]) == EXIT_OK
        text = (out / "certificate.txt").read_text()
        assert "verdict: certified" in text and "case: case_iii" in text
        assert "witness gamma1: 1\n" in text
        rows = text.split("i,slice_index,length,cap\n")[1].splitlines()
        assert sorted(int(row.split(",")[1]) for row in rows) == list(range(40))

    @pytest.mark.parametrize("case1_cap, code", [(5, EXIT_OK), (4, EXIT_CONFIG)])
    def test_case2_is_read_only_when_case1_fails(self, tmp_path, case1_cap, code):
        # The one-slice log's length is 5; the case2 metadata lacks 'subset'.
        (tmp_path / "slices.csv").write_text(SLICE_LOG)
        cfg = write_config(
            tmp_path / "c.json",
            {"mode": "certify", "slice_log": "slices.csv", "case1_cap": case1_cap, "case2": {"cap": 5}},
        )
        out = tmp_path / "cert"
        assert main(["certify", "--config", cfg, "--out", str(out)]) == code
        if code == EXIT_OK:
            assert "case: case_i\n" in (out / "certificate.txt").read_text()

    @pytest.mark.parametrize("key", ["gamma1_grid", "gamma2_grid"])
    def test_removed_grid_keys_are_refused(self, tmp_path, capsys, slice_log, key):
        cfg = write_config(
            tmp_path / "c.json",
            {"mode": "certify", "slice_log": slice_log, key: [0.5]},
        )
        capsys.readouterr()
        assert main(["certify", "--config", cfg, "--out", str(tmp_path / "o")]) == EXIT_CONFIG
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and key in err[0]


class TestConfigHandling:
    def test_missing_config_file(self, tmp_path):
        assert (
            main(["products", "--config", str(tmp_path / "absent.json")])
            == EXIT_CONFIG
        )

    def test_invalid_json(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["products", "--config", str(bad)]) == EXIT_CONFIG

    @pytest.mark.parametrize(
        "content",
        [b'\xff\xfe{"n":4}', b'{"n": ' + b"1" * 5000 + b"}", b"[" * 10**5 + b"]" * 10**5],
        ids=["not-utf8", "int-too-long", "nested-too-deep"],
    )
    def test_unreadable_config_exits_config_with_one_line(self, tmp_path, capsys, content):
        bad = tmp_path / "bad.json"
        bad.write_bytes(content)
        capsys.readouterr()
        argv = ["products", "--config", str(bad), "--out", str(tmp_path / "o")]
        assert main(argv) == EXIT_CONFIG
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:")

    @pytest.mark.parametrize(
        "payload, flag, named",
        [
            ({"seed": "a", "horizon": 3}, ["--seed", "1"], "'seed'"),
            ({"out_dir": 5, "horizon": 3}, ["--out", "o"], "'out_dir'"),
        ],
        ids=["seed", "out_dir"],
    )
    @pytest.mark.parametrize("mode", ["products", "lf"])
    def test_overridden_values_are_still_read(
        self, tmp_path, monkeypatch, capsys, mode, payload, flag, named
    ):
        # A command-line override wins, but the file's value must be valid too.
        monkeypatch.chdir(tmp_path)
        cfg = write_config(tmp_path / "c.json", {"mode": mode, **payload})
        capsys.readouterr()
        assert main([mode, "--config", cfg, *flag]) == EXIT_CONFIG
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: bad value") and named in err[0]
        assert not (tmp_path / "o").exists()

    def test_mode_mismatch(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", {"mode": "lf"})
        assert main(["products", "--config", cfg]) == EXIT_CONFIG

    def test_bad_weight_parameters(self, tmp_path):
        cfg = write_config(
            tmp_path / "c.json", {"mode": "products", "beta1": 2.0}
        )
        assert main(["products", "--config", cfg]) == EXIT_CONFIG

    def test_negative_seed(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", {"mode": "products", "seed": -1})
        assert main(["products", "--config", cfg]) == EXIT_CONFIG

    def test_config_must_be_an_object(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text("[1, 2, 3]")
        assert main(["products", "--config", str(cfg)]) == EXIT_CONFIG

    @pytest.mark.parametrize(
        "mode, payload",
        [
            ("products", {"n": "four"}),
            ("products", {"seed": "a"}),
            ("products", {"p_identity": -1}),
            ("lf", {"horizon": "x"}),
            ("certify", {"case1_cap": "abc"}),
            ("certify", {"gamma2_grid": [-1]}),
            ("certify", {"gamma1_grid": [2]}),
            ("lf", {"comm_radius": [1]}),
            ("lf", {"x0": ["a", "b", "c", "d"]}),
            ("lf", {"x0": [0.0, 1.0]}),
            ("products", {"strict": "false"}),
            ("certify", {"case2": {"cap": 5, "subset": [0], "infinite_family": "true"}}),
            ("lf", {"u": "inf"}),
            ("lf", {"x0": ["nan", 0, 0, 0]}),
            ("lf", {"sigma": "nan"}),
            ("lf", {"comm_radius": float("nan")}),
            ("lf", {"sigma": -1}),
            ("lf", {"sigma": 1e308}),
            ("lf", {"comm_radius": -1}),
            ("products", {"n": 4.7}),
            ("products", {"n": True}),
            ("products", {"horizon": True}),
            ("lf", {"horizon": 2.5}),
            ("lf", {"n": "4"}),
            ("products", {"seed": 1.5}),
            ("products", {"seed": True}),
            ("certify", {"case1_cap": 4.5}),
            ("certify", {"case1_cap": "5"}),
            ("certify", {"case2": {"cap": 5.5, "subset": [0], "infinite_family": True}}),
            ("certify", {"case2": {"cap": 5, "subset": [0.5], "infinite_family": True}}),
            ("certify", {"case2": {"cap": 5, "subset": "0", "infinite_family": True}}),
            ("products", {"beta2": False}),
            ("products", {"beta1": "0.05"}),
            ("products", {"tol": True}),
            ("products", {"p_identity": "1"}),
            ("lf", {"sigma": True}),
            ("lf", {"comm_radius": True}),
            ("lf", {"x0": ["1", "2", "3", True]}),
            ("lf", {"u": "3"}),
            ("lf", {"update_prob": True}),
            ("lf", {"n": 1, "regions": {"sensors": [[0, 0, "1"]], "anchors": [[3, 0, 1]]}}),
            ("lf", {"n": 1, "regions": {"sensors": [[0, 0, 1]], "anchors": [[3, 0, 10**400]]}}),
            ("products", {"horizon": 0, "p_stochastic": float("nan")}),
            ("products", {"horizon": 0, "p_identity": float("inf")}),
            ("products", {"p_identity": float("inf")}),
            ("products", {"p_stochastic": 1e308, "p_substochastic": 1e308}),
            ("certify", {"slice_log": "header_only.csv", "case1_cap": 0}),
            ("certify", {"slice_log": "header_only.csv", "case2": {"cap": 0, "subset": []}}),
            ("certify", {"case1_cap": 10**400}),
            ("certify", {"slice_log": "header_only.csv", "case1_cap": 10**400}),
            ("certify", {"case2": {"cap": 10**400, "subset": [0], "infinite_family": True}}),
            (
                "certify",
                {
                    "slice_log": "header_only.csv",
                    "case2": {"cap": 10**400, "subset": [], "infinite_family": True},
                },
            ),
            ("certify", {"slice_log": "header_only.csv", "case2": {"cap": 3, "subset": [0, 0]}}),
        ],
    )
    def test_bad_values_exit_config_with_one_line(self, tmp_path, capsys, mode, payload):
        log = tmp_path / "slices.csv"
        log.write_text(SLICE_LOG)
        (tmp_path / "header_only.csv").write_text(SLICE_LOG.splitlines()[0] + "\n")
        cfg = write_config(tmp_path / "c.json", {**base_config(mode, log), **payload})
        capsys.readouterr()
        assert main([mode, "--config", cfg, "--out", str(tmp_path / "o")]) == EXIT_CONFIG
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:")
        # Only the removed grid keys are undeclared; every other case
        # reaches the value it is about.
        assert ("unknown key" in err[0]) == any(key not in CONFIG_KEYS[mode] for key in payload)

    def test_integral_float_is_an_integer(self, tmp_path):
        outputs = []
        for name, n in (("int", 4), ("float", 4.0)):
            cfg = write_config(tmp_path / f"{name}.json", {"mode": "products", "n": n, "horizon": 20})
            assert main(["products", "--config", cfg, "--out", str(tmp_path / name)]) == EXIT_OK
            outputs.append((tmp_path / name / "per_k.csv").read_bytes())
        assert outputs[0] == outputs[1]

    def test_runtime_failure_exits_runtime_with_one_line(self, tmp_path, capsys):
        # beta1 = 0.6 is a valid parameter, but no row with two neighbours can
        # meet it; the run fails once the first such update is built.
        cfg = write_config(tmp_path / "c.json", {"mode": "lf", "beta1": 0.6})
        capsys.readouterr()
        assert main(["lf", "--config", cfg, "--out", str(tmp_path / "o")]) == EXIT_RUNTIME
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:")

    @pytest.mark.parametrize(
        "mode, blocked",
        [("products", "per_k.csv"), ("lf", "trajectory.csv"), ("certify", "certificate.txt")],
    )
    def test_failed_write_exits_runtime_with_one_line(self, tmp_path, capsys, mode, blocked):
        # A directory where an output file goes: the config is valid, the
        # write fails.
        log = tmp_path / "slices.csv"
        log.write_text(SLICE_LOG)
        cfg = write_config(tmp_path / "c.json", base_config(mode, log))
        (tmp_path / "o" / blocked).mkdir(parents=True)
        capsys.readouterr()
        assert main([mode, "--config", cfg, "--out", str(tmp_path / "o")]) == EXIT_RUNTIME
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and blocked in err[0]

    @pytest.mark.parametrize(
        "mode, payload",
        [
            # The n x n running product (728 TiB) cannot be allocated.
            ("products", {"n": 10_000_000, "horizon": 0}),
            # The running product's size in bytes overflows a 64-bit index.
            ("products", {"n": 3_000_000_000, "horizon": 0}),
            # n itself overflows a 64-bit index.
            ("products", {"n": 10**20, "horizon": 0}),
            # ... and is refused before any draw, which it would overflow too.
            ("products", {"n": 10**20, "horizon": 3}),
            # The default initial states (745 GiB) cannot be allocated.
            ("lf", {"n": 10**11, "horizon": 5}),
            # n overflows a 64-bit index; the config never set x0.
            ("lf", {"n": 10**19, "horizon": 5}),
        ],
    )
    def test_run_too_large_for_memory_exits_runtime_with_one_line(
        self, tmp_path, capsys, mode, payload
    ):
        # A valid config that the machine cannot hold; the request fails at
        # once.
        cfg = write_config(tmp_path / "c.json", {"mode": mode, **payload})
        capsys.readouterr()
        argv = [mode, "--config", cfg, "--out", str(tmp_path / "o")]
        assert main(argv) == EXIT_RUNTIME
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: out of memory")

    @pytest.mark.parametrize(
        "mode, payload, log_text, named",
        [
            ("certify", {"slice_log": 5}, SLICE_LOG, "slice_log"),
            ("products", {"out_dir": 5}, SLICE_LOG, "out_dir"),
            ("certify", {}, "a,b\n1,2\n", "slices.csv"),
            ("certify", {}, SLICE_LOG.replace("4,5,", "4,x,"), "slices.csv"),
            ("certify", {}, SLICE_LOG.replace(",0.5,0.9", ""), "slices.csv"),
            ("certify", {"slice_log": "no\nsuch.csv"}, SLICE_LOG, "no such.csv"),
            ("products", {"out_dir": "slices.csv"}, SLICE_LOG, "output directory"),
            ("products", {"out_dir": "a\0"}, SLICE_LOG, "out_dir"),
            ("certify", {"case1_cap": 0}, SLICE_LOG, "cap must be >= 1"),
            ("certify", {"case2": {"cap": 0, "subset": [0]}}, SLICE_LOG, "cap must be >= 1"),
            ("certify", {"case2": {"cap": 9, "subset": [7]}}, TWO_ENTRY_LOG, "out of range"),
            ("certify", {"case2": {"cap": 9, "subset": [0, 0]}}, SLICE_LOG, "duplicate"),
            ("certify", {}, SLICE_LOG.replace("4,5,", "4,0,"), "lengths must be >= 1"),
            ("certify", {}, SLICE_LOG.replace("4,5,", "4,-2,"), "lengths must be >= 1"),
            ("certify", {}, SLICE_LOG.replace("4,5,", "4,100000000000000000000,"), "64 bits"),
            ("products", {"n": 0}, SLICE_LOG, "n=0"),
            ("products", {"horizon": -1}, SLICE_LOG, "horizon=-1"),
            (
                "lf",
                {"n": 2, "regions": {"sensors": [[0, 0, 1]], "anchors": [[3, 0, 1]]}},
                SLICE_LOG,
                "regions.sensors",
            ),
            (
                "lf",
                {"n": 1, "regions": {"sensors": [[0, 0, 1]], "anchors": []}},
                SLICE_LOG,
                "regions.anchors",
            ),
            ("certify", {"slice_log": ""}, SLICE_LOG, "slice_log"),
            ("certify", {"case2": {"cap": 5}}, SLICE_LOG, "case2"),
            ("lf", {"update_prob": 1.5}, SLICE_LOG, "update_prob"),
            ("lf", {"n": 0}, SLICE_LOG, "at least one sensor"),
            ("lf", {"n": -1}, SLICE_LOG, "at least one sensor"),
            ("lf", {"comm_radius": "a*innermost"}, SLICE_LOG, "comm_radius"),
            ("lf", {"horizon": 10**19}, SLICE_LOG, "horizon must be at most 2**63"),
        ],
        ids=[
            "slice_log-number",
            "out_dir-number",
            "log-without-columns",
            "log-non-integer-length",
            "log-short-row",
            "slice_log-newline",
            "out_dir-existing-file",
            "out_dir-nul-byte",
            "case1_cap-zero",
            "case2-cap-zero",
            "case2-subset-out-of-range",
            "case2-subset-duplicate",
            "log-zero-length",
            "log-negative-length",
            "log-huge-length",
            "products-n-zero",
            "products-negative-horizon",
            "lf-regions-sensor-count",
            "lf-regions-no-anchors",
            "slice_log-empty",
            "case2-without-subset",
            "lf-update_prob-above-one",
            "lf-n-zero",
            "lf-n-negative",
            "lf-comm_radius-bad-factor",
            "lf-horizon-past-the-draws",
        ],
    )
    def test_bad_inputs_exit_config_with_one_line(
        self, tmp_path, monkeypatch, capsys, mode, payload, log_text, named
    ):
        # No --out here: out_dir comes from the config, so stay inside tmp_path.
        monkeypatch.chdir(tmp_path)
        log = tmp_path / "slices.csv"
        log.write_text(log_text)
        cfg = write_config(tmp_path / "c.json", {**base_config(mode, log), **payload})
        capsys.readouterr()
        assert main([mode, "--config", cfg]) == EXIT_CONFIG
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and named in err[0]
        assert "unknown key" not in err[0]

    @pytest.mark.parametrize(
        "mode, payload, named",
        [
            ("products", {"horizn": 5, "nn": 3}, "horizn"),
            ("lf", {"horizn": 5}, "horizn"),
            ("certify", {"horizn": 5}, "horizn"),
            ("products", {"slice_log": "slices.csv"}, "slice_log"),
            ("certify", {"case2": {"cap": 5, "subset": [0], "infinite_famly": True}}, "case2.infinite_famly"),
            (
                "lf",
                {
                    "n": 1,
                    "regions": {"sensors": [[0, 0, 1]], "anchors": [[1, 0, 1]], "anchor": [[3, 0, 1]]},
                },
                "regions.anchor",
            ),
        ],
        ids=["products", "lf", "certify", "another-mode", "case2-nested", "regions-nested"],
    )
    def test_undeclared_key_exits_config_with_one_line(self, tmp_path, capsys, mode, payload, named):
        # Refused before anything runs or is written, even where the rest of
        # the config is valid.
        log = tmp_path / "slices.csv"
        log.write_text(SLICE_LOG)
        cfg = write_config(tmp_path / "c.json", {**base_config(mode, log), **payload})
        capsys.readouterr()
        assert main([mode, "--config", cfg, "--out", str(tmp_path / "o")]) == EXIT_CONFIG
        assert capsys.readouterr().err.splitlines() == [f"error: unknown key {named!r} for {mode}"]
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("mode", ["products", "lf", "certify"])
    def test_each_mode_declares_its_keys(self, mode):
        # A key dropped, renamed or added fails here until MODE_KEYS agrees.
        sections = {
            "lf": {"regions": {"sensors", "anchors"}},
            "certify": {"case2": {"cap", "subset", "infinite_family"}},
        }
        keys = CONFIG_KEYS[mode]
        assert set(keys) == {"mode", *MODE_KEYS[mode], *COMMON_KEYS}
        nested = {key: set(kind) for key, (kind, _) in keys.items() if isinstance(kind, dict)}
        assert nested == sections.get(mode, {})


MODE_KEYS = {
    "products": ["n", "horizon", "strict", "p_stochastic", "p_substochastic", "p_identity"],
    "lf": ["n", "horizon", "strict", "u", "sigma", "update_prob", "comm_radius", "x0", "regions"],
    "certify": ["slice_log", "case1_cap", "case2"],
}
COMMON_KEYS = ["seed", "beta1", "beta2", "alpha", "tol", "out_dir"]
# Keys a mode does not declare, one of them another mode's: drawn now and
# then, so that the refusal is fuzzed as well.
STRAY_KEYS = {
    "products": ["u", "_config_dir"],
    "lf": ["case2", "horizn"],
    "certify": ["n", "gamma1_grid"],
}
NESTED_KEYS = ["sensors", "anchors", "cap", "subset", "infinite_family"]

# Numbers stay within [-3, 6] (plus NaN and +-inf) and strings within two
# characters, so that no drawn n or horizon makes a run large or slow.
JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-3, 6)
    | st.floats(-3.0, 6.0)
    | st.sampled_from([float("nan"), float("inf"), float("-inf")])
    | st.text(max_size=2),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(NESTED_KEYS) | st.text(max_size=2), inner, max_size=3),
    max_leaves=10,
)


class TestNeverTracebacks:
    @pytest.mark.parametrize("mode", sorted(MODE_KEYS))
    @settings(
        max_examples=80,
        derandomize=True,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(data=st.data())
    def test_fuzzed_config_exits_cleanly(self, tmp_path, mode, data):
        keys = st.sampled_from(MODE_KEYS[mode] + COMMON_KEYS + STRAY_KEYS[mode])
        payload = data.draw(st.dictionaries(keys, JSON_VALUES, max_size=4))
        log = tmp_path / "slices.csv"
        log.write_text(SLICE_LOG)
        cfg = write_config(tmp_path / "c.json", {**base_config(mode, log), **payload})
        err = io.StringIO()
        with redirect_stdout(io.StringIO()), redirect_stderr(err):
            code = main([mode, "--config", cfg, "--out", str(tmp_path / "o")])
        assert code in (EXIT_OK, EXIT_CONFIG, EXIT_NOT_CERTIFIED, EXIT_RUNTIME)
        lines = err.getvalue().splitlines()
        if code in (EXIT_OK, EXIT_NOT_CERTIFIED):
            # A "not certified" verdict is a result, not an error.
            assert lines == []
        else:
            assert len(lines) == 1 and lines[0].startswith("error:"), lines
        if set(payload) & set(STRAY_KEYS[mode]):
            assert code == EXIT_CONFIG and lines[0].startswith("error: unknown key"), lines
