"""End-to-end checks of the command-line harness."""

from __future__ import annotations

import json

import pytest

from slicekit.cli import EXIT_CONFIG, EXIT_NOT_CERTIFIED, EXIT_OK, EXIT_RUNTIME, main


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
        ],
    )
    def test_bad_values_exit_config_with_one_line(self, tmp_path, capsys, mode, payload):
        log = tmp_path / "slices.csv"
        log.write_text(
            "slice_index,start_k,end_k,length,norm,bound\n0,0,4,5,0.5,0.9\n"
        )
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
