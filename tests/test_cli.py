"""End-to-end checks of the command-line harness."""

from __future__ import annotations

import io
import json
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from slicekit.cli import EXIT_CONFIG, EXIT_NOT_CERTIFIED, EXIT_OK, EXIT_RUNTIME, main

SLICE_LOG = "slice_index,start_k,end_k,length,norm,bound\n0,0,4,5,0.5,0.9\n"


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
        out = tmp_path / "out"
        main(["products", "--config", products_config, "--out", str(out)])
        first = {
            p.name: p.read_bytes() for p in out.iterdir() if p.is_file()
        }
        main(["products", "--config", products_config, "--out", str(out)])
        second = {
            p.name: p.read_bytes() for p in out.iterdir() if p.is_file()
        }
        assert first == second

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

    def test_runtime_failure_exits_runtime_with_one_line(self, tmp_path, capsys):
        # beta1 = 0.6 is a valid parameter, but no row with two neighbours can
        # meet it; the run fails once the first such update is built.
        cfg = write_config(tmp_path / "c.json", {"mode": "lf", "beta1": 0.6})
        capsys.readouterr()
        assert main(["lf", "--config", cfg, "--out", str(tmp_path / "o")]) == EXIT_RUNTIME
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:")

    def test_run_too_large_for_memory_exits_runtime_with_one_line(
        self, tmp_path, capsys
    ):
        # A valid config whose n x n running product (728 TiB) cannot be
        # allocated; the request fails at once.
        cfg = write_config(
            tmp_path / "c.json", {"mode": "products", "n": 10_000_000, "horizon": 0}
        )
        capsys.readouterr()
        argv = ["products", "--config", cfg, "--out", str(tmp_path / "o")]
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
COMMON_KEYS = ["seed", "beta1", "beta2", "alpha", "tol", "out_dir"]
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
