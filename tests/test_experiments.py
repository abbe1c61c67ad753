import math

import numpy as np
import pytest

from delayfilt import (
    BotModel,
    BotParams,
    ConfigError,
    ContractError,
    FilterVariant,
    LatencyParams,
    RngStream,
    RunMetrics,
    ScenarioConfig,
    bot_measure,
    delay_pmf,
    generate_truth,
    load_config,
    rmse,
    run_filter,
    run_identification_study,
    run_monte_carlo,
    run_sweep,
    write_outputs,
)
from delayfilt.cli import main as cli_main
from delayfilt.experiments import run_id, write_manifest


def small_config(**overrides):
    base = dict(
        model="growth", p_true=0.5, n_true=2, ns=60, n_steps=12,
        mc_runs=3, ensembles=2, m=30, sl=0.25, online_sl=0.25, seed=99,
    )
    base.update(overrides)
    return ScenarioConfig(**base)


class TestScenarioConfig:
    def test_defaults_valid(self):
        cfg = ScenarioConfig(model="growth")
        assert cfg.variants[0].name == "standard"
        assert cfg.true_params() == LatencyParams(0.5, 2)

    def test_rejects_unknown_model(self):
        with pytest.raises(ConfigError):
            ScenarioConfig(model="pendulum")

    @pytest.mark.parametrize("field,value", [("mc_runs", 0), ("ns", 0), ("m", 1), ("n_steps", 0)])
    def test_rejects_bad_counts(self, field, value):
        with pytest.raises(ConfigError):
            ScenarioConfig(model="growth", **{field: value})

    def test_variant_resolves_true_probability(self):
        v = FilterVariant("proposed_n2", max_delay=2)
        assert v.resolve_p(0.7) == 0.7
        assert FilterVariant("standard", 0, p=0.0).resolve_p(0.7) == 0.0

    def test_build_model(self):
        assert small_config(model="bot", sampling_time=0.1).build_model().params.sampling_time == 0.1


class TestGenerateTruth:
    def test_identity_channel(self):
        cfg = small_config(p_true=0.0)
        truth = generate_truth(cfg, 123)
        assert np.array_equal(truth.y, truth.z)
        assert all(not o.dropped and o.delay == 0 for o in truth.outcomes)

    def test_deterministic(self):
        cfg = small_config()
        a = generate_truth(cfg, 123)
        b = generate_truth(cfg, 123)
        assert np.array_equal(a.states, b.states)
        assert np.array_equal(a.y, b.y)

    def test_shapes(self):
        cfg = small_config(n_steps=20)
        truth = generate_truth(cfg, 5)
        assert truth.states.shape == (21, 1)
        assert truth.z.shape == (20,)
        assert len(truth.outcomes) == 20

    def test_outcome_histogram_matches_pmf(self):
        cfg = small_config(p_true=0.4, n_true=2, n_steps=10**4)
        truth = generate_truth(cfg, 7)
        counts = np.zeros(4)
        for o in truth.outcomes:
            counts[3 if o.dropped else o.delay] += 1
        freq = counts / len(truth.outcomes)
        weights, drop = delay_pmf(LatencyParams(0.4, 2))
        expected = np.append(weights, float(drop))
        for obs, exp in zip(freq, expected):
            assert abs(obs - exp) <= 3 * math.sqrt(exp * (1 - exp) / 10**4) + 2e-3

    def test_bot_truth_uses_noisy_platform(self):
        cfg = small_config(model="bot", p_true=0.0, sampling_time=0.2, n_steps=30)
        truth = generate_truth(cfg, 11)
        assert np.array_equal(truth.states[0], [80.0, 1.0])
        assert truth.platform is not None
        model = BotModel(BotParams(sampling_time=0.2))
        # measurement noise is small (3 deg); platform noise shifts bearings
        # relative to the mean-platform measurement function
        clean_mean_platform = np.array(
            [model.measure_clean(truth.states[k][None, :], k)[0] for k in range(1, 31)]
        )
        clean_true_platform = np.array(
            [
                bot_measure(truth.states[k, 0], (truth.platform.x[k], truth.platform.y[k]))
                for k in range(1, 31)
            ]
        )
        assert not np.allclose(clean_true_platform, clean_mean_platform, atol=1e-6)
        assert np.allclose(truth.z, clean_true_platform, atol=0.5)


class TestRmse:
    def test_perfect_estimates(self):
        x = RngStream(21).normal(0, 1, (4, 10, 2))
        assert np.array_equal(rmse(x, x), np.zeros((10, 2)))

    def test_constant_error(self):
        truth = np.zeros((1, 5, 1))
        est = np.full((1, 5, 1), -2.5)
        assert np.allclose(rmse(est, truth), 2.5)

    def test_two_run_hand_value(self):
        truth = np.zeros((2, 1, 1))
        est = np.array([[[3.0]], [[4.0]]])
        assert rmse(est, truth)[0, 0] == pytest.approx(3.5355339059327378, rel=1e-15)

    def test_accepts_two_dimensional(self):
        out = rmse(np.ones((3, 4)), np.zeros((3, 4)))
        assert out.shape == (4, 1)

    def test_shape_mismatch(self):
        with pytest.raises(ContractError):
            rmse(np.zeros((2, 3, 1)), np.zeros((2, 4, 1)))


class TestRunMonteCarlo:
    def test_single_run_single_variant(self):
        cfg = small_config(mc_runs=1, variants=(FilterVariant("standard", 0, 0.0),))
        metrics = run_monte_carlo(cfg)
        assert set(metrics.per_step_rmse) == {"standard"}
        assert metrics.per_step_rmse["standard"].shape == (12, 1)
        assert metrics.avg_rmse["standard"].shape == (1,)
        assert metrics.failed_runs == 0

    def test_identical_variants_identical_rmse(self):
        cfg = small_config(
            variants=(
                FilterVariant("a", max_delay=1, p=0.3),
                FilterVariant("b", max_delay=1, p=0.3),
            )
        )
        metrics = run_monte_carlo(cfg)
        assert np.array_equal(metrics.per_step_rmse["a"], metrics.per_step_rmse["b"])

    def test_deterministic(self):
        cfg = small_config()
        a = run_monte_carlo(cfg)
        b = run_monte_carlo(cfg)
        for name in a.per_step_rmse:
            assert np.array_equal(a.per_step_rmse[name], b.per_step_rmse[name])


class TestIdentificationStudy:
    def test_offline_outputs(self):
        metrics = run_identification_study(small_config(), "offline")
        assert len(metrics.offline_p_hats) == 2
        assert metrics.offline_mean == pytest.approx(float(np.mean(metrics.offline_p_hats)))

    def test_online_outputs(self):
        metrics = run_identification_study(small_config(), "online")
        assert metrics.online_trace.shape == (12, 2)
        assert np.all(metrics.online_trace[:, 1] >= 0)
        assert np.all(metrics.online_trace[:, 1] <= 1)

    def test_unknown_mode(self):
        with pytest.raises(ConfigError):
            run_identification_study(small_config(), "sideways")


class TestRunSweep:
    def test_sweep_keys_and_values(self):
        cfg = small_config(sweep_p=(0.2, 0.8))
        result = run_sweep(cfg)
        assert sorted(result) == [0.2, 0.8]
        for metrics in result.values():
            assert set(metrics.avg_rmse) == {"standard", "proposed_n1", "proposed_n2"}

    @pytest.mark.slow
    def test_gap_grows_with_latency_probability(self):
        # standard-vs-proposed average-RMSE gap is non-decreasing at this
        # sweep granularity
        cfg = ScenarioConfig(
            model="growth", p_true=0.5, n_true=2, ns=500, n_steps=50,
            mc_runs=50, seed=314, sweep_p=(0.1, 0.5, 0.9),
        )
        result = run_sweep(cfg)
        gaps = [
            float(result[p].avg_rmse["standard"][0] - result[p].avg_rmse["proposed_n2"][0])
            for p in (0.1, 0.5, 0.9)
        ]
        assert gaps[0] < gaps[1] < gaps[2], gaps


class TestLoadConfig:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "cfg.yaml"
        path.write_text(
            "model: growth\np_true: 0.4\nns: 50\nvariants:\n"
            "  - {name: standard, max_delay: 0, p: 0.0}\n"
            "  - {name: deep, max_delay: 3}\n"
        )
        cfg = load_config(path)
        assert cfg.p_true == 0.4
        assert cfg.variants[1] == FilterVariant("deep", 3, None)

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "cfg.yaml"
        path.write_text("model: growth\nwarp_speed: 9\n")
        with pytest.raises(ConfigError, match="warp_speed"):
            load_config(path)

    def test_unknown_variant_key_rejected(self, tmp_path):
        path = tmp_path / "cfg.yaml"
        path.write_text("model: growth\nvariants:\n  - {name: x, max_delay: 0, color: red}\n")
        with pytest.raises(ConfigError, match="color"):
            load_config(path)

    def test_non_mapping_rejected(self, tmp_path):
        path = tmp_path / "cfg.yaml"
        path.write_text("- 1\n- 2\n")
        with pytest.raises(ConfigError):
            load_config(path)

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(tmp_path / "nope.yaml")

    def test_invalid_yaml_rejected(self, tmp_path):
        path = tmp_path / "cfg.yaml"
        path.write_text("model: [unclosed\n")
        with pytest.raises(ConfigError):
            load_config(path)


class TestOutputs:
    def test_filter_mode_files(self, tmp_path):
        cfg = small_config(out_dir=str(tmp_path / "out"))
        metrics = run_monte_carlo(cfg)
        write_outputs(cfg.out_dir, cfg, "filter", metrics)
        out = tmp_path / "out"
        for variant in ("standard", "proposed_n1", "proposed_n2"):
            lines = (out / f"rmse_{variant}.csv").read_text().splitlines()
            assert lines[0] == "step,component,rmse"
            assert len(lines) == 1 + 12
        assert (out / "manifest").exists()

    def test_identify_offline_files(self, tmp_path):
        cfg = small_config(out_dir=str(tmp_path / "out"))
        metrics = run_identification_study(cfg, "offline")
        write_outputs(cfg.out_dir, cfg, "identify-offline", metrics)
        lines = (tmp_path / "out" / "ident_offline.csv").read_text().splitlines()
        assert lines[0] == "ensemble,p_hat"
        assert len(lines) == 3

    def test_identify_online_files(self, tmp_path):
        cfg = small_config(out_dir=str(tmp_path / "out"))
        metrics = run_identification_study(cfg, "online")
        write_outputs(cfg.out_dir, cfg, "identify-online", metrics)
        lines = (tmp_path / "out" / "ident_online.csv").read_text().splitlines()
        assert lines[0] == "step,p_hat,running_avg"
        assert len(lines) == 13

    def test_sweep_files(self, tmp_path):
        cfg = small_config(sweep_p=(0.3, 0.7), out_dir=str(tmp_path / "out"))
        result = run_sweep(cfg)
        write_outputs(cfg.out_dir, cfg, "sweep", result)
        lines = (tmp_path / "out" / "sweep.csv").read_text().splitlines()
        assert lines[0] == "p_true,variant,component,avg_rmse"
        assert len(lines) == 1 + 2 * 3

    def test_manifest_counts_failed_runs(self, tmp_path, monkeypatch):
        from delayfilt import experiments
        from delayfilt.errors import NumericError

        calls = []

        def failing_second_run(*args):
            calls.append(None)
            if len(calls) == 4:  # first variant of the second Monte Carlo run
                raise NumericError("synthetic failure")
            return run_filter(*args)

        monkeypatch.setattr(experiments, "run_filter", failing_second_run)
        cfg = small_config(out_dir=str(tmp_path / "out"))
        metrics = run_monte_carlo(cfg)
        write_outputs(cfg.out_dir, cfg, "filter", metrics)
        lines = (tmp_path / "out" / "manifest").read_text().splitlines()
        assert "failed_runs=1" in lines

    def test_non_finite_delivery_counts_as_failed_run(self, monkeypatch):
        from delayfilt import experiments

        runs = []

        def truth_with_nan_in_second_run(*args, **kwargs):
            truth = generate_truth(*args, **kwargs)
            runs.append(None)
            if len(runs) == 2:
                truth.y = truth.y.copy()
                truth.y[2] = np.nan
            return truth

        monkeypatch.setattr(experiments, "generate_truth", truth_with_nan_in_second_run)
        metrics = run_monte_carlo(small_config())
        assert len(runs) == 3
        assert metrics.failed_runs == 1

    def test_sweep_manifest_sums_failed_runs(self, tmp_path):
        cfg = small_config(out_dir=str(tmp_path / "out"))
        result = {0.3: RunMetrics(failed_runs=2), 0.7: RunMetrics(failed_runs=1)}
        write_outputs(cfg.out_dir, cfg, "sweep", result)
        lines = (tmp_path / "out" / "manifest").read_text().splitlines()
        assert "failed_runs=3" in lines

    def test_manifest_is_deterministic(self, tmp_path):
        cfg = small_config()
        write_manifest(tmp_path, cfg, "filter", 0)
        first = (tmp_path / "manifest").read_bytes()
        write_manifest(tmp_path, cfg, "filter", 0)
        assert (tmp_path / "manifest").read_bytes() == first
        assert f"run_id={run_id(cfg, 'filter')}" in first.decode()

    def test_run_id_depends_on_config(self):
        assert run_id(small_config(), "filter") != run_id(small_config(seed=100), "filter")


class TestCli:
    def write_config(self, tmp_path, extra=""):
        path = tmp_path / "cfg.yaml"
        path.write_text(
            "model: growth\nns: 40\nn_steps: 8\nmc_runs: 2\nensembles: 2\n"
            "m: 20\nsl: 0.5\nonline_sl: 0.5\nseed: 3\n" + extra
        )
        return path

    def test_run_filter_mode(self, tmp_path, capsys):
        cfg = self.write_config(tmp_path)
        code = cli_main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == 0
        assert (tmp_path / "o" / "rmse_standard.csv").exists()
        assert (tmp_path / "o" / "manifest").exists()

    def test_all_modes_run(self, tmp_path):
        cfg = self.write_config(tmp_path)
        for mode, artifact in [
            ("identify-offline", "ident_offline.csv"),
            ("identify-online", "ident_online.csv"),
        ]:
            out = tmp_path / f"o_{mode}"
            assert cli_main(["run", "--config", str(cfg), "--mode", mode, "--out", str(out)]) == 0
            assert (out / artifact).exists()

    def test_sweep_mode(self, tmp_path):
        cfg = self.write_config(tmp_path, extra="sweep_p: [0.3, 0.7]\n")
        out = tmp_path / "o_sweep"
        assert cli_main(["run", "--config", str(cfg), "--mode", "sweep", "--out", str(out)]) == 0
        assert (out / "sweep.csv").exists()

    def test_config_error_exit_code(self, tmp_path, capsys):
        path = tmp_path / "bad.yaml"
        path.write_text("model: growth\nbogus_key: 1\n")
        assert cli_main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
        assert "config error" in capsys.readouterr().err

    def test_missing_out_dir_is_config_error(self, tmp_path):
        cfg = self.write_config(tmp_path)
        assert cli_main(["run", "--config", str(cfg)]) == 2

    def test_seed_override_changes_outputs(self, tmp_path):
        cfg = self.write_config(tmp_path)
        cli_main(["run", "--config", str(cfg), "--out", str(tmp_path / "a"), "--seed", "1"])
        cli_main(["run", "--config", str(cfg), "--out", str(tmp_path / "b"), "--seed", "2"])
        a = (tmp_path / "a" / "rmse_standard.csv").read_bytes()
        b = (tmp_path / "b" / "rmse_standard.csv").read_bytes()
        assert a != b

    def test_bad_seed_is_config_error(self, tmp_path):
        cfg = self.write_config(tmp_path)
        assert cli_main(["run", "--config", str(cfg), "--out", str(tmp_path / "o"), "--seed", "-1"]) == 2

    def test_run_failure_exit_code(self, tmp_path, capsys, monkeypatch):
        from delayfilt import cli
        from delayfilt.errors import DelayFiltError

        def boom(config):
            raise DelayFiltError("synthetic failure")

        monkeypatch.setattr(cli, "run_monte_carlo", boom)
        cfg = self.write_config(tmp_path)
        assert cli_main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 3
        assert "run failed" in capsys.readouterr().err

    def test_byte_identical_reruns(self, tmp_path):
        cfg = self.write_config(tmp_path)
        for mode in ("filter", "identify-online"):
            outs = []
            for tag in ("x", "y"):
                out = tmp_path / f"{mode}_{tag}"
                assert cli_main(["run", "--config", str(cfg), "--mode", mode, "--out", str(out)]) == 0
                outs.append(out)
            for name in [p.name for p in outs[0].iterdir()]:
                assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
