import math

import numpy as np
import pytest

from delayfilt import (
    ConfigError,
    ContractError,
    GrowthModel,
    LatencyParams,
    NumericError,
    ParticleSet,
    RngStream,
    ScenarioConfig,
    delayed_likelihood,
    filter_step,
    generate_truth,
    init_filter,
    run_filter,
    systematic_resample,
    write_step_diagnostics,
)
from delayfilt import filtering
from conftest import (
    ScalarModel,
    ScriptedRng,
    oracle_delayed_likelihood,
    reference_history_filter,
    reference_sir,
)


class TestInitFilter:
    def test_single_particle(self, scalar_model):
        ps = init_filter(scalar_model, LatencyParams(0.5, 2), 1, RngStream(31))
        assert ps.ns == 1
        assert ps.weights[0] == 1.0

    @pytest.mark.parametrize("ns", [1, 7, 100])
    def test_weights_sum_to_one(self, scalar_model, ns):
        ps = init_filter(scalar_model, LatencyParams(0.3, 1), ns, RngStream(32))
        assert abs(ps.weights.sum() - 1.0) <= 1e-12

    def test_growth_prior_moments(self):
        ps = init_filter(GrowthModel(), LatencyParams(0.5, 2), 10**5, RngStream(33))
        x0 = ps.state[:, 0]
        assert abs(x0.mean()) < 0.02
        assert abs(x0.var() - 1.0) < 0.03

    def test_history_columns_repeat_prior(self, scalar_model):
        ps = init_filter(scalar_model, LatencyParams(0.5, 3), 10, RngStream(34))
        assert ps.clean.shape == (10, 4)
        for j in range(4):
            assert np.array_equal(ps.clean[:, j], scalar_model.measure_clean(ps.state, 1))

    def test_cache_initialized_to_one(self, scalar_model):
        ps = init_filter(scalar_model, LatencyParams(0.5, 2), 10, RngStream(35))
        assert np.all(ps.prev_likelihood == 1.0)

    def test_zero_particles_rejected(self, scalar_model):
        with pytest.raises(ConfigError):
            init_filter(scalar_model, LatencyParams(0.5, 2), 0, RngStream(36))


class TestDelayedLikelihood:
    def test_reduces_to_standard_likelihood(self, scalar_model):
        history = np.array([[0.7]])
        params = LatencyParams(0.0, 0)
        value = delayed_likelihood(history, 1.0, 0.5, params, scalar_model, 3)
        expected = float(scalar_model.meas_noise_pdf(np.array([1.0 - 0.7]), 3)[0])
        assert value == expected  # bitwise: no other term contributes

    def test_zero_latency_any_depth(self, scalar_model):
        history = np.array([[0.7], [5.0], [-2.0]])
        params = LatencyParams(0.0, 2)
        value = delayed_likelihood(history, 1.0, 0.9, params, scalar_model, 5)
        expected = float(scalar_model.meas_noise_pdf(np.array([0.3]), 5)[0])
        assert value == pytest.approx(expected, rel=1e-15)

    def test_matches_term_by_term_oracle(self, scalar_model):
        history = np.array([[1.0], [-0.5], [2.0]])
        params = LatencyParams(0.5, 2)
        value = delayed_likelihood(history, 0.8, 0.3, params, scalar_model, 10)
        oracle = oracle_delayed_likelihood(
            history[:, 0], 0.8, 0.3, 0.5, 2, h=lambda x: x, var=1.0
        )
        assert value == pytest.approx(oracle, rel=1e-13)
        assert value == pytest.approx(0.30013675187258143, rel=1e-13)

    def test_growth_model_oracle(self):
        model = GrowthModel()
        history = np.array([[1.0], [-0.5], [2.0]])
        params = LatencyParams(0.5, 2)
        value = delayed_likelihood(history, 0.8, 0.3, params, model, 10)
        oracle = oracle_delayed_likelihood(
            history[:, 0], 0.8, 0.3, 0.5, 2, h=lambda x: x * x / 20.0, var=1.0
        )
        assert value == pytest.approx(oracle, rel=1e-13)
        assert value == pytest.approx(0.3028668270771431, rel=1e-13)

    def test_batch_matches_single(self, scalar_model):
        rng = RngStream(37)
        histories = rng.normal(0, 1, (20, 3, 1))
        prev = np.abs(rng.normal(0, 1, 20))
        params = LatencyParams(0.4, 2)
        batch = delayed_likelihood(histories, 0.2, prev, params, scalar_model, 8)
        for i in range(20):
            single = delayed_likelihood(histories[i], 0.2, float(prev[i]), params, scalar_model, 8)
            assert batch[i] == pytest.approx(single, rel=1e-15)

    def test_bounded_for_randomized_inputs(self, scalar_model):
        rng = RngStream(38)
        for _ in range(500):
            var = float(10 ** rng.normal(0, 0.5))
            model = ScalarModel(meas_var=var)
            n = int(rng.random() * 4)
            p = float(rng.random())
            history = rng.normal(0, 5, (n + 1, 1))
            prev = float(abs(rng.normal(0, 1)))
            value = delayed_likelihood(history, float(rng.normal(0, 5)), prev,
                                       LatencyParams(p, n), model, 6)
            bound = (n + 1) / math.sqrt(2 * math.pi * var) + p ** (n + 1) * prev
            assert 0.0 <= value <= bound * (1 + 1e-12)

    def test_nan_measurement_raises(self, scalar_model):
        history = np.array([[0.0]])
        with pytest.raises(NumericError):
            delayed_likelihood(history, float("nan"), 1.0, LatencyParams(0.0, 0), scalar_model, 1)

    def test_infinite_cache_raises(self, scalar_model):
        history = np.array([[0.0]])
        with pytest.raises(NumericError):
            delayed_likelihood(history, 0.0, float("inf"), LatencyParams(0.5, 0), scalar_model, 1)

    def test_history_width_mismatch_raises(self, scalar_model):
        history = np.array([[0.0], [1.0]])
        with pytest.raises(ContractError):
            delayed_likelihood(history, 0.0, 1.0, LatencyParams(0.5, 2), scalar_model, 1)


class TestSystematicResample:
    def test_uniform_weights_cover_every_particle(self):
        ns = 64
        idx = systematic_resample(np.full(ns, 1.0 / ns), RngStream(39))
        assert np.array_equal(np.sort(idx), np.arange(ns))

    def test_degenerate_weight_selects_single_ancestor(self):
        w = np.zeros(10)
        w[4] = 1.0
        idx = systematic_resample(w, RngStream(40))
        assert np.all(idx == 4)

    def test_replication_counts_match_expectation(self):
        rng = RngStream(41)
        ns, reps = 200, 4000
        w = rng.random(ns)
        w /= w.sum()
        counts = np.zeros(ns)
        for _ in range(reps):
            idx = systematic_resample(w, rng)
            counts += np.bincount(idx, minlength=ns)
        mean_counts = counts / reps
        sigma = np.sqrt(ns * w * (1 - w) / reps)
        assert np.all(np.abs(mean_counts - ns * w) <= 3 * sigma + 1e-9)

    def test_rejects_unnormalized(self):
        with pytest.raises(ContractError):
            systematic_resample(np.array([0.5, 0.6]), RngStream(42))


class TestEstimate:
    """The step estimate is the weighted mean of the propagated states."""

    @staticmethod
    def _still_step(model, x, weights, y):
        # zero process noise leaves the propagated states at x; p = 0, N = 0
        x = np.asarray(x, dtype=float)[:, None]
        ps = ParticleSet(
            state=x,
            clean=model.measure_clean(x, 0)[:, None],
            weights=np.asarray(weights, dtype=float),
            prev_likelihood=np.ones(len(x)),
            params=LatencyParams(0.0, 0),
        )
        return filter_step(ps, y, model, 1, ScriptedRng(normals=[0.0] * len(x), randoms=[0.5]))

    def test_uniform_weights_on_symmetric_states(self, scalar_model):
        _, est = self._still_step(scalar_model, [-3.0, 3.0], [0.5, 0.5], 0.0)
        assert est.mean[0] == pytest.approx(0.0, abs=1e-15)

    def test_degenerate_weight(self, scalar_model):
        _, est = self._still_step(scalar_model, [1.0, 2.0, 3.0], [0.0, 1.0, 0.0], 2.0)
        assert est.mean[0] == 2.0

    def test_matches_compensated_summation(self, scalar_model):
        rng = RngStream(45)
        ns = 5000
        x = rng.normal(0.0, 1.0, ns)
        w = rng.random(ns)
        w /= w.sum()
        new_ps, est = self._still_step(scalar_model, x, w, 0.3)
        post = [float(li) * float(wi) for li, wi in zip(new_ps.diagnostics.likelihood, w)]
        oracle = math.fsum(pi * float(xi) for pi, xi in zip(post, x)) / math.fsum(post)
        assert est.mean[0] == pytest.approx(oracle, rel=1e-10)


class TestFilterStep:
    def test_single_particle_weight_is_one(self, scalar_model):
        ps = init_filter(scalar_model, LatencyParams(0.5, 1), 1, RngStream(46))
        new_ps, est = filter_step(ps, 0.3, scalar_model, 1, RngStream(47))
        assert new_ps.weights[0] == 1.0
        assert est.mean.shape == (1,)

    def test_two_particle_hand_computation(self, scalar_model):
        # After propagation: A = (0.2, prev state 1.0), B = (-0.4, prev 0.5);
        # caches 0.25 / 0.10; y = 0.1; p = 0.5, N = 1. Normalized weights and
        # the estimate follow by direct evaluation of the two-term mixture.
        params = LatencyParams(0.5, 1)
        ps = ParticleSet(
            state=np.array([[1.0], [0.5]]),
            clean=np.array([[1.0, 1.0], [0.5, 0.5]]),
            weights=np.array([0.5, 0.5]),
            prev_likelihood=np.array([0.25, 0.10]),
            params=params,
            step=0,
        )
        rng = ScriptedRng(normals=[-0.8, -0.9], randoms=[0.3])  # 1.0->0.2, 0.5->-0.4
        new_ps, est = filter_step(ps, 0.1, scalar_model, 1, rng)
        assert est.mean[0] == pytest.approx(-0.08337213476836397, rel=1e-12)
        assert new_ps.diagnostics.likelihood[0] == pytest.approx(0.3274975862131946, rel=1e-12)
        assert new_ps.diagnostics.likelihood[1] == pytest.approx(0.29310019845798063, rel=1e-12)

    def test_degenerates_to_reference_sir(self):
        model = GrowthModel()
        seed = 48
        truth_rng = RngStream(seed).substream(0)
        x = float(model.initial_truth(truth_rng)[0])
        ys = []
        for k in range(1, 31):
            x = float(model.propagate(np.array([[x]]), k, truth_rng)[0, 0])
            ys.append(x * x / 20.0 + float(model.meas_noise_sample(k, truth_rng)))

        filter_rng = RngStream(seed).substream(1)
        ps = init_filter(model, LatencyParams(0.0, 0), 200, filter_rng)
        _, means = run_filter(ps, ys, model, filter_rng)
        ref = reference_sir(model, ys, 200, RngStream(seed).substream(1))
        assert np.max(np.abs(means - ref)) <= 1e-12

    def test_cache_coselected_with_ancestors(self, scalar_model):
        ps = init_filter(scalar_model, LatencyParams(0.5, 2), 50, RngStream(49))
        rng = RngStream(50)
        for k in range(1, 6):
            new_ps, _ = filter_step(ps, 0.5 * k, scalar_model, k, rng)
            diag = new_ps.diagnostics
            assert np.array_equal(new_ps.prev_likelihood, diag.likelihood[diag.ancestors])
            ps = new_ps

    def test_underflow_resets_to_uniform_and_flags(self, scalar_model):
        ps = init_filter(scalar_model, LatencyParams(0.0, 0), 20, RngStream(51))
        new_ps, _ = filter_step(ps, 1e6, scalar_model, 1, RngStream(52))
        assert new_ps.diagnostics.underflow
        assert np.allclose(new_ps.weights, 1.0 / 20)

    def test_weight_normalization_every_step(self, scalar_model):
        ps = init_filter(scalar_model, LatencyParams(0.6, 2), 100, RngStream(53))
        rng = RngStream(54)
        meas = RngStream(55).normal(0, 1, 40)
        for k, y in enumerate(meas, start=1):
            ps, _ = filter_step(ps, float(y), scalar_model, k, rng)
            assert abs(ps.weights.sum() - 1.0) <= 1e-12

    def test_run_filter_equals_stepping(self, scalar_model):
        params = LatencyParams(0.4, 1)
        meas = [0.1, -0.2, 0.5]
        ps_a = init_filter(scalar_model, params, 30, RngStream(56))
        _, means = run_filter(ps_a, meas, scalar_model, RngStream(57))
        ps_b = init_filter(scalar_model, params, 30, RngStream(56))
        rng = RngStream(57)
        for k, y in enumerate(meas, start=1):
            ps_b, est = filter_step(ps_b, y, scalar_model, k, rng)
            assert np.array_equal(means[k - 1], est.mean)


@pytest.mark.parametrize("ns", [1, 50])
@pytest.mark.parametrize("p", [0.0, 0.5, 1.0])
@pytest.mark.parametrize("max_delay", [0, 1, 3])
@pytest.mark.parametrize("model_name", ["growth", "bot"])
def test_ring_matches_full_history_reference(monkeypatch, model_name, max_delay, p, ns):
    # the measurement ring must weight and resample exactly like full state
    # histories, including BOT's step-dependent h at the clamped early lags
    cfg = ScenarioConfig(model=model_name, p_true=0.5, n_true=2, n_steps=15)
    model = cfg.build_model()
    ys = generate_truth(cfg, 71).y
    params = LatencyParams(p, max_delay)
    steps = []

    def recording_step(*args):
        new_ps, est = filter_step(*args)
        steps.append(new_ps.diagnostics)
        return new_ps, est

    monkeypatch.setattr(filtering, "filter_step", recording_step)
    rng = RngStream(72)
    run_filter(init_filter(model, params, ns, rng), ys, model, rng)
    reference = list(reference_history_filter(model, params, ys, ns, RngStream(72)))
    assert len(steps) == len(reference) == len(ys)
    for diag, (like, ancestors) in zip(steps, reference):
        assert np.array_equal(diag.likelihood, like)
        assert np.array_equal(diag.ancestors, ancestors)


def test_step_diagnostics_csv(tmp_path, scalar_model):
    ps = init_filter(scalar_model, LatencyParams(0.5, 1), 10, RngStream(58))
    rng = RngStream(59)
    records = []
    for k in range(1, 4):
        ps, est = filter_step(ps, 0.1 * k, scalar_model, k, rng)
        records.append((ps.diagnostics, est))
    path = tmp_path / "diag.csv"
    write_step_diagnostics(path, records)
    lines = path.read_text().splitlines()
    assert lines[0] == "step,estimate,ess,underflow"
    assert len(lines) == 4
    assert lines[1].startswith("1,")
