import math

import numpy as np
import pytest

from delayfilt import (
    CandidateFilterState,
    ConfigError,
    DelayChannel,
    DomainError,
    GridSpec,
    GrowthModel,
    IdentificationError,
    LatencyParams,
    ParticleSet,
    Probability,
    RngStream,
    ScenarioConfig,
    content_age_weights,
    generate_truth,
    init_candidate_filters,
    init_online_identification,
    ll_step,
    offline_identify,
    online_identify_step,
    write_ll_curve,
)
from delayfilt.core import derive_seed
from delayfilt.filtering import _lag_mixture
from delayfilt.identification import repeat_probability
from conftest import ScriptedRng, norm_pdf


class TestGridSpec:
    def test_paper_grid(self):
        grid = GridSpec(0.01)
        assert len(grid.candidates) == 101
        assert grid.candidates[0] == 0.0
        assert grid.candidates[-1] == 1.0

    def test_coarse_grid(self):
        grid = GridSpec(0.05)
        assert len(grid.candidates) == 21
        assert grid.candidates[7] == pytest.approx(0.35)

    def test_explicit_candidates(self):
        grid = GridSpec.from_candidates([0.3])
        assert grid.candidates == (0.3,)

    @pytest.mark.parametrize("sl", [0.0, -0.1, 1.5])
    def test_rejects_bad_step(self, sl):
        with pytest.raises(DomainError):
            GridSpec(sl)

    def test_rejects_out_of_range_candidates(self):
        with pytest.raises(DomainError):
            GridSpec.from_candidates([0.5, 1.2])


class TestContentAgeWeights:
    def test_zero_latency_is_all_fresh(self):
        w = content_age_weights(LatencyParams(0.0, 2))
        assert np.array_equal(w, [1.0, 0.0, 0.0])

    @pytest.mark.parametrize("p", [0.1, 0.5, 0.9])
    @pytest.mark.parametrize("max_delay", [3, 4, 6])
    def test_normalized(self, p, max_delay):
        w = content_age_weights(LatencyParams(p, max_delay))
        assert w.shape == (max_delay + 1,)
        assert w.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(w >= 0)

    def test_certain_loss_vacuous_limit(self):
        # at p = 1 every delivery repeats; the conditional is vacuous and
        # collapses to a zero-delay point mass
        w = content_age_weights(LatencyParams(1.0, 2))
        assert np.array_equal(w, [1.0, 0.0, 0.0])

    def test_matches_simulated_age_distribution(self):
        # simulate the delivery process and compare the content-age
        # distribution conditioned on non-repeat steps
        p, n, steps = 0.5, 2, 200000
        rng = RngStream(60)
        flags = rng.random((steps, n + 1)) < p
        inverted = ~flags
        delays = np.where(inverted.any(axis=1), np.argmax(inverted, axis=1), n + 1)
        ages = np.empty(steps, dtype=int)
        repeats = np.empty(steps, dtype=bool)
        age = 0
        for k in range(steps):
            if delays[k] == n + 1:
                age, repeats[k] = age + 1, True
            else:
                repeats[k] = delays[k] == age + 1  # duplicate re-delivery
                age = delays[k]
            ages[k] = age
        fresh_ages = ages[~repeats][1:]
        counted = np.bincount(fresh_ages, minlength=n + 1)
        empirical = counted / counted.sum()
        expected = content_age_weights(LatencyParams(p, n))
        assert empirical.shape == expected.shape
        assert np.allclose(empirical, expected, atol=3e-3)


class TestRepeatProbability:
    def test_endpoints(self):
        assert repeat_probability(LatencyParams(0.0, 2)) == 0.0
        assert repeat_probability(LatencyParams(1.0, 2)) == 1.0

    def test_exact_value(self):
        assert repeat_probability(LatencyParams(0.5, 2)) == pytest.approx(0.2890625, abs=1e-12)

    @pytest.mark.parametrize("p", [0.2, 0.5, 0.8])
    def test_matches_channel_simulation(self, p):
        params = LatencyParams(p, 2)
        rng = RngStream(61)
        chan = DelayChannel(params, rng.substream(0))
        z = rng.substream(1).normal(0, 1, 60000)
        y_prev, repeats = None, 0
        for z_k in z:
            y, _ = chan.step(float(z_k))
            repeats += y_prev is not None and y == y_prev
            y_prev = y
        rate = repeats / (len(z) - 1)
        expected = repeat_probability(params)
        assert abs(rate - expected) <= 4 * math.sqrt(expected * (1 - expected) / len(z)) + 2e-3


class TestIdentificationLikelihood:
    def test_age_mixture_against_direct_sum(self, scalar_model):
        params = LatencyParams(0.6, 2)
        clean = np.array([[0.5, -1.0, 2.0]])
        weights = content_age_weights(params)
        expected = math.fsum(
            float(weights[d]) * norm_pdf(0.3 - float(clean[0, d])) for d in range(3)
        )
        value = _lag_mixture(clean, 0.3, weights, scalar_model, 9, np.zeros(1))
        assert value[0] == pytest.approx(expected, rel=1e-13)

    def test_ignores_cache_argument(self, scalar_model):
        # the score has no loss branch, so the likelihood cache never enters it
        runs = []
        for cache in (1.0, 123.0):
            rng = ScriptedRng(normals=[0.0], randoms=[0.5])
            cand = _single_candidate_state(0.6, 1, 0.5, rng)
            cand.filters[0].prev_likelihood[:] = cache
            cand.prev_measurement = -1.0
            runs.append(ll_step(cand, 0.3, scalar_model, k=5))
        a, b = runs
        assert np.array_equal(a.log_likelihoods, b.log_likelihoods)
        assert np.array_equal(a.filters[0].diagnostics.likelihood, b.filters[0].diagnostics.likelihood)


def _single_candidate_state(p, max_delay, x0, rng):
    """One candidate, one particle at x0 whose ring holds h(x0) = x0 at every lag."""
    params = LatencyParams(p, max_delay)
    ps = ParticleSet(
        state=np.array([[x0]]),
        clean=np.full((1, max_delay + 1), x0),
        weights=np.ones(1),
        prev_likelihood=np.ones(1),
        params=params,
        step=0,
    )
    return CandidateFilterState(
        candidates=np.array([p]),
        filters=[ps],
        log_likelihoods=np.zeros(1),
        rngs=[rng],
        age_weights=[content_age_weights(params)],
        repeat_probs=[repeat_probability(params)],
        step=0,
    )


class TestLlStep:
    def test_zero_residual_increment_is_log_mode_density(self, scalar_model):
        # p = 0, one particle landing exactly on the measurement: the
        # increment is the log of the standard normal mode
        rng = ScriptedRng(normals=[0.0], randoms=[0.5])
        cand = _single_candidate_state(0.0, 0, 0.3, rng)
        cand.prev_measurement = -123.0  # not a repeat
        cand = ll_step(cand, 0.3, scalar_model, k=2)
        assert cand.log_likelihoods[0] == pytest.approx(-0.9189385332046727, abs=1e-12)

    def test_repeat_step_scores_repeat_probability(self, scalar_model):
        rng = ScriptedRng(normals=[0.0], randoms=[0.5])
        cand = _single_candidate_state(0.5, 1, 0.3, rng)
        cand.prev_measurement = 0.7
        cand = ll_step(cand, 0.7, scalar_model, k=2)
        expected = math.log(repeat_probability(LatencyParams(0.5, 1)))
        assert cand.log_likelihoods[0] == pytest.approx(expected, rel=1e-12)

    def test_repeat_eliminates_zero_latency_candidate(self, scalar_model):
        rng = ScriptedRng(normals=[0.0], randoms=[0.5])
        cand = _single_candidate_state(0.0, 0, 0.3, rng)
        cand.prev_measurement = 0.7
        cand = ll_step(cand, 0.7, scalar_model, k=2)
        assert cand.log_likelihoods[0] == -np.inf

    def test_three_step_two_particle_oracle(self, scalar_model):
        # Full independent reimplementation on a 3-step, 2-particle case
        # with two candidates sharing draws (common random numbers).
        seed, ns, n = 77, 2, 1
        cands = [0.3, 0.7]
        ys = [0.4, -0.2, 0.1]
        n_ages = n + 1

        grid = GridSpec.from_candidates(cands)
        state = init_candidate_filters(grid, scalar_model, n, ns, seed, common_random_numbers=True)
        state = ll_step(state, ys[0], scalar_model, 1, accumulate=False, undelayed=True)
        for k in (2, 3):
            state = ll_step(state, ys[k - 1], scalar_model, k)

        # oracle: same draw protocol, independent arithmetic
        expected = []
        for p in cands:
            rng = RngStream(seed).substream(0)
            hist = np.repeat(rng.normal(0.0, 1.0, (ns, 1))[:, None, :], n_ages, axis=1)
            total = 0.0
            prev_y = None
            for k, y in enumerate(ys, start=1):
                noise = rng.normal(0.0, 1.0, ns)
                hist = np.concatenate([(hist[:, 0, 0] + noise)[:, None, None], hist[:, :-1]], axis=1)
                if k == 1:
                    like = np.array([norm_pdf(y - hist[i, 0, 0]) for i in range(ns)])
                else:
                    cw = content_age_weights(LatencyParams(p, n))
                    like = np.array(
                        [
                            math.fsum(
                                float(cw[d]) * norm_pdf(y - hist[i, d, 0])
                                for d in range(n_ages)
                            )
                            for i in range(ns)
                        ]
                    )
                    p_rep = repeat_probability(LatencyParams(p, n))
                    if y == prev_y:
                        total += math.log(p_rep)
                    else:
                        total += math.log1p(-p_rep) + math.log(math.fsum(like) / ns)
                w = like / like.sum()
                u = rng.random()
                idx = np.minimum(np.searchsorted(np.cumsum(w), (u + np.arange(ns)) / ns), ns - 1)
                hist = hist[idx]
                prev_y = y
            expected.append(total)

        assert np.allclose(state.log_likelihoods, expected, rtol=1e-12)

    def test_increments_never_nan(self, scalar_model):
        rng = RngStream(62)
        ys = rng.normal(0, 3, 50)
        ys[10] = ys[9]  # force a repeat
        state = init_candidate_filters(GridSpec(0.25), scalar_model, 2, 50, 63)
        state = ll_step(state, float(ys[0]), scalar_model, 1, accumulate=False, undelayed=True)
        for k in range(2, 51):
            state = ll_step(state, float(ys[k - 1]), scalar_model, k)
            assert not np.any(np.isnan(state.log_likelihoods))


class TestOfflineIdentify:
    def test_singleton_grid_returns_its_candidate(self, scalar_model):
        y = RngStream(64).normal(0, 1, 30)
        result = offline_identify(y, GridSpec.from_candidates([0.3]), scalar_model, 1, 20, 65)
        assert float(result.p_hat) == 0.3

    def test_identity_channel_estimates_near_zero(self):
        model = GrowthModel()
        cfg = ScenarioConfig(model="growth", p_true=0.0, n_true=2, ns=200, m=200, seed=66)
        truth = generate_truth(cfg, derive_seed(66, 0), n_steps=200)
        result = offline_identify(truth.y, GridSpec(0.05), model, 2, 200, derive_seed(66, 1))
        assert float(result.p_hat) <= 0.05

    def test_requires_two_measurements(self, scalar_model):
        with pytest.raises(ConfigError):
            offline_identify([1.0], GridSpec(0.5), scalar_model, 1, 10, 67)

    def test_bitwise_deterministic(self, scalar_model):
        y = RngStream(68).normal(0, 1, 40)
        a = offline_identify(y, GridSpec(0.2), scalar_model, 1, 30, 69)
        b = offline_identify(y, GridSpec(0.2), scalar_model, 1, 30, 69)
        assert a == b

    def test_all_eliminated_raises(self, scalar_model):
        y = np.array([0.5, 0.5, 0.7])  # exact repeat, impossible at p = 0
        with pytest.raises(IdentificationError):
            offline_identify(y, GridSpec.from_candidates([0.0]), scalar_model, 1, 10, 70)

    def test_curve_and_maximum_consistent(self, scalar_model):
        y = RngStream(71).normal(0, 1, 30)
        result = offline_identify(y, GridSpec(0.25), scalar_model, 1, 25, 72)
        lls = [ll for _, ll in result.curve]
        ps = [p for p, _ in result.curve]
        assert result.log_likelihood_max == max(lls)
        assert float(result.p_hat) == ps[int(np.argmax(lls))]

    def test_tie_breaks_to_lowest_candidate(self, scalar_model):
        state = init_candidate_filters(GridSpec(0.5), scalar_model, 1, 5, 73)
        state.log_likelihoods[:] = -5.0
        assert float(state.candidates[int(np.argmax(state.log_likelihoods))]) == 0.0


class TestOnlineIdentify:
    def test_step_one_ties_break_to_lowest(self, scalar_model):
        state = init_online_identification(GridSpec(0.05), scalar_model, 1, 20, 74)
        state, p_hat = online_identify_step(state, 0.4, scalar_model, 1)
        assert float(p_hat) == 0.0
        assert state.running_average == 0.0

    def test_running_average_within_candidate_range(self, scalar_model):
        grid = GridSpec.from_candidates([0.2, 0.8])
        state = init_online_identification(grid, scalar_model, 1, 20, 75)
        ys = RngStream(76).normal(0, 1, 60)
        for k, y in enumerate(ys, start=1):
            state, _ = online_identify_step(state, float(y), scalar_model, k)
            in_range = 0.2 - 1e-12 <= state.running_average <= 0.8 + 1e-12
            assert in_range or state.running_average == 0.0

    @pytest.mark.slow
    def test_two_candidate_grid_converges(self):
        model = GrowthModel()
        cfg = ScenarioConfig(model="growth", p_true=0.8, n_true=2, ns=300, seed=77)
        truth = generate_truth(cfg, derive_seed(77, 0), n_steps=300)
        grid = GridSpec.from_candidates([0.2, 0.8])
        state = init_online_identification(grid, model, 2, 300, derive_seed(77, 1))
        for k in range(1, 301):
            state, _ = online_identify_step(state, truth.y[k - 1], model, k)
        assert abs(state.running_average - 0.8) <= 0.15


@pytest.mark.slow
class TestRecoveryInvariants:
    @pytest.mark.parametrize("p_true", [0.2, 0.5, 0.8])
    def test_recovery_within_tolerance(self, p_true):
        model = GrowthModel()
        trials, hits = 20, 0
        estimates = []
        for t in range(trials):
            cfg = ScenarioConfig(model="growth", p_true=p_true, n_true=2, ns=500, m=500, seed=4242)
            truth = generate_truth(cfg, derive_seed(4242, 2, t), n_steps=500)
            result = offline_identify(
                truth.y, GridSpec(0.05), model, 2, 500,
                derive_seed(4242, 3, t), common_random_numbers=True,
            )
            estimates.append(float(result.p_hat))
            hits += abs(float(result.p_hat) - p_true) <= 0.1 + 1e-9
        assert hits >= 0.8 * trials, f"p*={p_true}: {estimates}"

    def test_error_shrinks_with_more_measurements(self):
        # paired design: each trial identifies from nested prefixes of one
        # measurement sequence, so the per-m means share realization luck
        model = GrowthModel()
        errors = {125: [], 250: [], 500: []}
        for t in range(20):
            cfg = ScenarioConfig(model="growth", p_true=0.5, n_true=2, ns=600, m=500, seed=555)
            truth = generate_truth(cfg, derive_seed(555, 2, t), n_steps=500)
            for m in errors:
                result = offline_identify(
                    truth.y[:m], GridSpec(0.05), model, 2, 600,
                    derive_seed(555, 3, t), common_random_numbers=True,
                )
                errors[m].append(abs(float(result.p_hat) - 0.5))
        means = {m: float(np.mean(v)) for m, v in errors.items()}
        assert means[500] < means[250] < means[125], means


def test_ll_curve_csv(tmp_path, scalar_model):
    y = RngStream(78).normal(0, 1, 20)
    result = offline_identify(y, GridSpec(0.5), scalar_model, 1, 15, 79)
    path = tmp_path / "curve.csv"
    write_ll_curve(path, result, label=3)
    lines = path.read_text().splitlines()
    assert lines[0] == "ensemble,p,L_p,p_hat"
    assert len(lines) == 1 + len(result.curve)
    assert lines[1].startswith("3,0.0,")
