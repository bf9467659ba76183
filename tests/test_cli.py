"""End-to-end checks of the command-line harness."""

from __future__ import annotations

import io
import json
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from slicekit import (
    AssumptionViolated,
    NegativeEntry,
    Params,
    identity_step,
    inf_norm,
    random_product_sequence,
    row_update,
    spectral_radius,
)
from slicekit.cli import EXIT_CONFIG, EXIT_NOT_CERTIFIED, EXIT_OK, EXIT_RUNTIME, _per_k_rows, main

SLICE_LOG = "slice_index,start_k,end_k,length,norm,bound\n0,0,4,5,0.5,0.9\n"
TWO_ENTRY_LOG = SLICE_LOG + "1,5,9,5,0.5,0.9\n"


def write_config(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


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


PARAMS = Params(beta1=0.05, beta2=0.7)


def dense_per_k(matrices, n):
    """The per_k rows computed one running product at a time."""
    j, rows = np.eye(n), []
    for k, m in enumerate(matrices):
        j = m.apply(j)
        rows.append((k, inf_norm(j), spectral_radius(j)))
    return rows


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
        assert list(_per_k_rows(matrices, np.eye(n))) == dense_per_k(matrices, n)

    @pytest.mark.parametrize("horizon", [0, 1, 63, 64, 65, 128, 129])
    @pytest.mark.parametrize("n", [1, 3, 16])
    def test_matches_per_step_norms_across_block_edges(self, n, horizon):
        matrices = random_product_sequence(n, PARAMS, horizon, rng=np.random.default_rng(7))
        assert list(_per_k_rows(matrices, np.eye(n))) == dense_per_k(matrices, n)

    def test_matches_per_step_norms_once_every_row_is_updated(self):
        # Every step updates a row, so all 64 rows are updated within 600
        # steps and most steps take the eigvals route.
        matrices = random_product_sequence(
            64, PARAMS, 600, rng=np.random.default_rng(0), p_identity=0.0
        )
        assert len({m.updated_row for m in matrices}) == 64
        assert list(_per_k_rows(matrices, np.eye(64))) == dense_per_k(matrices, 64)

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
        rows = list(_per_k_rows(matrices, np.eye(n)))
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

    def test_no_eigensolve_while_a_row_is_untouched(self, monkeypatch):
        solved = []
        eigvals = np.linalg.eigvals

        def counting(a):
            solved.append(len(a))
            return eigvals(a)

        monkeypatch.setattr(np.linalg, "eigvals", counting)
        matrices = random_product_sequence(256, PARAMS, 300, rng=np.random.default_rng(1))
        rows = list(_per_k_rows(matrices, np.eye(256)))
        assert solved == [] and [rho for _, _, rho in rows] == [1.0] * 300

        matrices = random_product_sequence(4, PARAMS, 200, rng=np.random.default_rng(1))
        full = [k for k, seen in enumerate(accumulate_touched(matrices)) if seen == 4]
        assert 0 < len(full) < 200
        list(_per_k_rows(matrices, np.eye(4)))
        # One call per 64-step block holding a fully updated step, each
        # solving only those steps.
        assert len(solved) == len({k // 64 for k in full}) and sum(solved) == len(full)

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
                list(_per_k_rows(matrices, np.eye(2)))
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
    def test_config_dir_key_does_not_move_the_log(self, tmp_path, config_dir):
        (tmp_path / "elsewhere").mkdir()
        (tmp_path / "slices.csv").write_text(SLICE_LOG)
        cfg = write_config(
            tmp_path / "c.json",
            {"mode": "certify", "slice_log": "slices.csv", "case1_cap": 5, "_config_dir": config_dir},
        )
        assert main(["certify", "--config", cfg, "--out", str(tmp_path / "o")]) == EXIT_OK

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
        assert code in (EXIT_OK, EXIT_NOT_CERTIFIED)
        assert "error:" not in capsys.readouterr().err

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
        ],
    )
    def test_bad_values_exit_config_with_one_line(self, tmp_path, capsys, mode, payload):
        log = tmp_path / "slices.csv"
        log.write_text(SLICE_LOG)
        cfg = write_config(
            tmp_path / "c.json",
            {"mode": mode, "slice_log": str(log), "horizon": 5, **payload},
        )
        capsys.readouterr()
        assert main([mode, "--config", cfg, "--out", str(tmp_path / "o")]) == EXIT_CONFIG
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:")

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
        cfg = write_config(
            tmp_path / "c.json", {"mode": mode, "slice_log": str(log), "horizon": 5}
        )
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
            # The state history's size in bytes overflows a 64-bit index.
            ("lf", {"horizon": 2**59}),
            # The history's row count overflows a 64-bit index.
            ("lf", {"horizon": 10**19}),
            # The running product's size in bytes overflows a 64-bit index.
            ("products", {"n": 3_000_000_000, "horizon": 0}),
            # n itself overflows a 64-bit index.
            ("products", {"n": 10**20, "horizon": 0}),
            # ... and is refused before any draw, which it would overflow too.
            ("products", {"n": 10**20, "horizon": 3}),
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
        ],
    )
    def test_bad_inputs_exit_config_with_one_line(
        self, tmp_path, monkeypatch, capsys, mode, payload, log_text, named
    ):
        # No --out here: out_dir comes from the config, so stay inside tmp_path.
        monkeypatch.chdir(tmp_path)
        log = tmp_path / "slices.csv"
        log.write_text(log_text)
        cfg = write_config(
            tmp_path / "c.json", {"mode": mode, "slice_log": str(log), **payload}
        )
        capsys.readouterr()
        assert main([mode, "--config", cfg]) == EXIT_CONFIG
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and named in err[0]


MODE_KEYS = {
    "products": ["n", "horizon", "strict", "p_stochastic", "p_substochastic", "p_identity"],
    "lf": ["n", "horizon", "strict", "u", "sigma", "update_prob", "comm_radius", "x0", "regions"],
    "certify": ["slice_log", "case1_cap", "case2"],
}
COMMON_KEYS = ["seed", "beta1", "beta2", "alpha", "tol", "out_dir", "_config_dir"]
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
        keys = st.sampled_from(MODE_KEYS[mode] + COMMON_KEYS)
        payload = data.draw(st.dictionaries(keys, JSON_VALUES, max_size=4))
        log = tmp_path / "slices.csv"
        log.write_text(SLICE_LOG)
        cfg = write_config(
            tmp_path / "c.json",
            {"mode": mode, "slice_log": str(log), "horizon": 5, **payload},
        )
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
