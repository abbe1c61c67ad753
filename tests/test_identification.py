import math

import numpy as np
import pytest

from delayfilt import (
    BotModel,
    BotParams,
    CandidateFilterState,
    ConfigError,
    ContractError,
    DelayChannel,
    DomainError,
    GridSpec,
    GrowthModel,
    IdentificationError,
    LatencyParams,
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
from delayfilt import filtering, identification
from delayfilt.core import derive_seed
from delayfilt.filtering import _lag_mixture
from delayfilt.identification import repeat_probability
from conftest import OracleBotModel, ScalarModel, ScriptedRng, norm_pdf, reference_candidate_loop


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
        value = _lag_mixture(clean.T, 0.3, weights, scalar_model, 9, np.zeros(1))
        assert value[0] == pytest.approx(expected, rel=1e-13)

    def test_ignores_cache_argument(self, scalar_model):
        # the score has no loss branch: a loss term p^(N+1) * cache with any
        # cache value would raise the increment above the bare age mixture
        rng = ScriptedRng(normals=[0.0], randoms=[0.5])
        cand = _single_candidate_state(0.6, 1, 0.5, rng)
        cand.prev_measurement = -1.0
        cand = ll_step(cand, 0.3, scalar_model, k=5)
        p_rep = repeat_probability(LatencyParams(0.6, 1))
        expected = math.log1p(-p_rep) + math.log(norm_pdf(0.3 - 0.5))
        assert cand.log_likelihoods[0] == pytest.approx(expected, rel=1e-12)


def _single_candidate_state(p, max_delay, x0, rng):
    """A one-row bank: one particle at x0 whose ring holds h(x0) = x0 at every lag."""
    params = LatencyParams(p, max_delay)
    return CandidateFilterState(
        candidates=np.array([p]),
        state=np.array([[[x0]]]),
        clean=np.full((1, 1, max_delay + 1), x0),
        log_likelihoods=np.zeros(1),
        rngs=[rng],
        age_weights=content_age_weights(params)[None],
        repeat_probs=np.array([repeat_probability(params)]),
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


@pytest.mark.parametrize("ns", [1, 50])
@pytest.mark.parametrize("crn", [True, False])
@pytest.mark.parametrize("max_delay", [0, 1, 2])
@pytest.mark.parametrize("model_name", ["growth", "bot", "scalar"])
def test_bank_matches_per_candidate_loop(model_name, max_delay, crn, ns):
    # the batched bank must score, resample and gather exactly like one
    # filter per candidate, at the grid ends p = 0 and p = 1 included
    if model_name == "scalar":
        model = ScalarModel()
        ys = RngStream(80).normal(0.0, 2.0, 12)
    else:
        cfg = ScenarioConfig(model=model_name, p_true=0.5, n_true=2, n_steps=12)
        model = cfg.build_model()
        ys = generate_truth(cfg, 81).y.copy()
    ys[6] = ys[5]  # an exact repeat
    grid = [0.0, 0.3, 0.7, 1.0]
    cand = init_candidate_filters(GridSpec.from_candidates(grid), model, max_delay, ns, 82, crn)
    reference = reference_candidate_loop(model, grid, max_delay, ns, 82, crn, ys)
    for k, (lls, state, clean) in enumerate(reference, start=1):
        cand = ll_step(cand, ys[k - 1], model, k, accumulate=k >= 2, undelayed=k == 1)
        assert np.array_equal(cand.log_likelihoods, lls)
        assert np.array_equal(cand.state, state)
        assert np.array_equal(cand.clean, clean)
    assert k == len(ys)
    assert cand.log_likelihoods[0] == -np.inf  # the repeat eliminates p = 0


class CountingRng:
    """Wraps a stream and counts its draw calls."""

    def __init__(self, rng):
        self.rng = rng
        self.calls = {"normal": 0, "random": 0}

    def normal(self, *args, **kwargs):
        self.calls["normal"] += 1
        return self.rng.normal(*args, **kwargs)

    def random(self, *args, **kwargs):
        self.calls["random"] += 1
        return self.rng.random(*args, **kwargs)


@pytest.mark.parametrize("crn", [True, False])
@pytest.mark.parametrize("sl", [1.0, 0.25, 0.01])
def test_bank_draws_once_per_stream_and_step(crn, sl):
    # under CRN the bank keeps one stream and draws the noise and the
    # resampling uniform once per step, whatever the number of candidates
    model = GrowthModel()
    cand = init_candidate_filters(GridSpec(sl), model, 2, 20, 84, crn)
    n_cands = len(cand.candidates)
    assert len(cand.rngs) == (1 if crn else n_cands)
    if crn:
        assert all(np.array_equal(cand.state[c], cand.state[0]) for c in range(n_cands))
    cand.rngs = [CountingRng(rng) for rng in cand.rngs]
    cand = ll_step(cand, 0.4, model, 1, accumulate=False, undelayed=True)
    cand = ll_step(cand, 1.3, model, 2)
    for rng in cand.rngs:
        assert rng.calls == {"normal": 2, "random": 2}


class NotRowMajorModel(ScalarModel):
    def __init__(self, size):
        super().__init__()
        self.size = size

    def propagate(self, x, k, rng):
        return x + rng.normal(0.0, 1.0, self.size(x))


@pytest.mark.parametrize(
    "size", [lambda x: None, lambda x: (1, x.shape[0]), lambda x: x.shape[0] + 1]
)
def test_bank_rejects_a_draw_that_is_not_row_major(size):
    model = NotRowMajorModel(size)
    for crn in (True, False):
        cand = init_candidate_filters(GridSpec(0.5), model, 1, 10, 85, crn)
        with pytest.raises(ContractError, match="size"):
            ll_step(cand, 0.4, model, 1, accumulate=False, undelayed=True)


class UniformNoiseModel(ScalarModel):
    def propagate(self, x, k, rng):
        return x + rng.random(size=x.shape) - 0.5


@pytest.mark.parametrize("crn", [True, False])
def test_bank_splits_uniform_draws_by_row(crn):
    model, grid, ys = UniformNoiseModel(), [0.0, 0.5, 1.0], [0.1, 0.3, 0.2, -0.1]
    cand = init_candidate_filters(GridSpec.from_candidates(grid), model, 1, 20, 86, crn)
    reference = reference_candidate_loop(model, grid, 1, 20, 86, crn, ys)
    for k, (lls, state, clean) in enumerate(reference, start=1):
        cand = ll_step(cand, ys[k - 1], model, k, accumulate=k >= 2, undelayed=k == 1)
        assert np.array_equal(cand.log_likelihoods, lls)
        assert np.array_equal(cand.state, state)


def test_underflowing_row_resets_alone():
    # lags 0 and 1 sit near 0 and lag 2 at 10; y = 10 with a tiny noise
    # variance underflows every particle of the p = 0 row, which scores only
    # lag 0, while the other rows weight lag 2
    model = ScalarModel(meas_var=1e-4)
    grid, ns = [0.0, 0.5, 0.9], 4
    x = np.array([0.0, 0.01, 0.02, 0.03])

    def bank(probs):
        params = [LatencyParams(p, 2) for p in probs]
        return CandidateFilterState(
            candidates=np.array(probs),
            state=np.tile(x[None, :, None], (len(probs), 1, 1)),
            clean=np.tile(np.stack([x, 10.0 + x, x], axis=1), (len(probs), 1, 1)),
            log_likelihoods=np.zeros(len(probs)),
            rngs=[ScriptedRng(normals=[0.0] * ns, randoms=[0.5]) for _ in probs],
            age_weights=np.stack([content_age_weights(prm) for prm in params]),
            repeat_probs=np.array([repeat_probability(prm) for prm in params]),
            prev_measurement=-1.0,
        )

    cand = ll_step(bank(grid), 10.0, model, k=5)
    # uniform weights and offset 0.5 keep every particle once, in order
    assert cand.log_likelihoods[0] == -np.inf
    assert np.array_equal(cand.state[0, :, 0], x)
    assert np.array_equal(cand.clean[0], np.stack([x, x, 10.0 + x], axis=1))
    assert np.all(np.isfinite(cand.log_likelihoods[1:]))
    for c in (1, 2):
        alone = ll_step(bank([grid[c]]), 10.0, model, k=5)
        assert np.array_equal(cand.log_likelihoods[c], alone.log_likelihoods[0])
        assert np.array_equal(cand.state[c], alone.state[0])
        assert np.array_equal(cand.clean[c], alone.clean[0])
    assert not np.array_equal(cand.state[1], cand.state[0])


# A target far behind the platform is seen near the +-pi cut. Deliveries on
# the other side of the cut put residuals near -2 pi or 2 pi, outside the
# wrap's fast range; 40 rad is an outlier that aliases to about 2.3 rad.
_CUT_DELIVERIES = np.array(
    [np.pi - 9e-4, np.pi - 3e-4, -np.pi + 4e-4, -np.pi + 4e-4, 40.0,
     np.pi - 6e-4, -np.pi + 9e-4, np.pi - 2e-4, 40.0, -np.pi + 1e-4]
)


def _bank_arrays(cand):
    return cand.log_likelihoods.copy(), cand.state.copy(), cand.clean.copy()


@pytest.mark.parametrize("crn", [False, True])
@pytest.mark.parametrize("platform_y", [1.0, -1.0])
def test_bot_bank_matches_oracle_kernels_at_the_cut(monkeypatch, platform_y, crn):
    # platform_y -1 also runs the bearing's y <= 0 branch on every particle
    params = BotParams(x0_true=(-1000.0, 0.0), platform_y=platform_y)
    model, oracle = BotModel(params), OracleBotModel(params)
    grid = GridSpec(0.25)

    online, reference = (init_online_identification(grid, m, 2, 50, 84, crn) for m in (model, oracle))
    for k, y in enumerate(_CUT_DELIVERIES, start=1):
        online, p_hat = online_identify_step(online, y, model, k)
        reference, p_ref = online_identify_step(reference, y, oracle, k)
        assert p_hat == p_ref
        for got, want in zip(_bank_arrays(online.cand), _bank_arrays(reference.cand)):
            assert np.array_equal(got, want)
    assert 0 < oracle.wrapped_calls < oracle.density_calls
    assert np.isfinite(online.cand.log_likelihoods[1:-1]).all()

    steps = {id(model): [], id(oracle): []}
    ll_step = identification.ll_step

    def recording_ll_step(cand, y_k, m, k, **kwargs):
        cand = ll_step(cand, y_k, m, k, **kwargs)
        steps[id(m)].append(_bank_arrays(cand))
        return cand

    monkeypatch.setattr(identification, "ll_step", recording_ll_step)
    result = offline_identify(_CUT_DELIVERIES, grid, model, 2, 50, 85, crn)
    expected = offline_identify(_CUT_DELIVERIES, grid, oracle, 2, 50, 85, crn)
    assert result == expected
    assert len(steps[id(model)]) == len(_CUT_DELIVERIES)
    for got_step, want_step in zip(steps[id(model)], steps[id(oracle)]):
        for got, want in zip(got_step, want_step):
            assert np.array_equal(got, want)


@pytest.mark.parametrize("crn", [False, True])
@pytest.mark.parametrize("max_delay", [0, 2])
@pytest.mark.parametrize("model_name", ["growth", "bot"])
def test_single_particle_offline_identify(monkeypatch, model_name, max_delay, crn):
    # ns = 1 in every candidate row: each row's one particle is its only
    # ancestor with weight 1 (ESS 1) at every step; the candidates inside
    # (0, 1) score finite values, p = 0 is eliminated by the exact repeats in
    # the deliveries and p = 1 by the fresh ones
    cfg = ScenarioConfig(model=model_name, p_true=0.5, n_true=2, n_steps=30)
    model = cfg.build_model()
    ys = generate_truth(cfg, 75).y
    resample = filtering._systematic_rows
    draws = []

    def recording_rows(weights, rngs):
        ancestors = resample(weights, rngs)
        draws.append((weights.copy(), ancestors))
        return ancestors

    monkeypatch.setattr(filtering, "_systematic_rows", recording_rows)
    result = offline_identify(ys, GridSpec(0.25), model, max_delay, 1, 76, crn)
    assert len(draws) == len(ys)
    for weights, ancestors in draws:
        assert weights.shape == ancestors.shape == (5, 1)
        assert np.all(ancestors == 0)
        assert np.all(1.0 / np.sum(weights**2, axis=1) == 1.0)
    repeats = ys[1:] == ys[:-1]
    assert repeats.any() and not repeats.all()
    scores = np.array([ll for _, ll in result.curve])
    assert scores[0] == scores[-1] == -np.inf
    assert np.isfinite(scores[1:-1]).all()
    assert result.log_likelihood_max == scores.max()


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

    def test_non_finite_delivery_rejected_before_filtering(self, scalar_model, monkeypatch):
        def no_filters(*args, **kwargs):
            raise AssertionError("filters built before the deliveries were checked")

        monkeypatch.setattr(identification, "init_candidate_filters", no_filters)
        y = np.array([0.1, 0.2, np.nan, 0.4])
        with pytest.raises(DomainError, match="step 3"):
            offline_identify(y, GridSpec(0.5), scalar_model, 1, 10, 70)

    def test_all_eliminated_raises(self, scalar_model):
        y = np.array([0.5, 0.5, 0.7])  # exact repeat, impossible at p = 0
        with pytest.raises(IdentificationError):
            offline_identify(y, GridSpec.from_candidates([0.0]), scalar_model, 1, 10, 70)

    def test_stops_at_the_step_that_eliminates_every_candidate(self, scalar_model, monkeypatch):
        calls = []

        def counted(cand, y_k, model, k, **kwargs):
            calls.append(k)
            return ll_step(cand, y_k, model, k, **kwargs)

        monkeypatch.setattr(identification, "ll_step", counted)
        y = np.array([0.5, 0.5, 0.7, -0.2, 0.1, 0.9])  # the repeat at step 2 is impossible at p = 0
        with pytest.raises(IdentificationError, match="step 2"):
            offline_identify(y, GridSpec.from_candidates([0.0]), scalar_model, 1, 10, 70)
        assert calls == [1, 2]

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

    def test_non_finite_delivery_rejected_before_filtering(self, scalar_model):
        state = init_online_identification(GridSpec(0.5), scalar_model, 1, 20, 74)
        for k, y in enumerate([0.4, -0.1], start=1):
            state, _ = online_identify_step(state, y, scalar_model, k)
        before = (state.cand.state.copy(), state.cand.log_likelihoods.copy(), list(state.estimates))
        with pytest.raises(DomainError, match="step 3"):
            online_identify_step(state, float("inf"), scalar_model, 3)
        assert state.cand.step == 2
        assert np.array_equal(state.cand.state, before[0])
        assert np.array_equal(state.cand.log_likelihoods, before[1])
        assert state.estimates == before[2]

    def test_all_eliminated_raises_naming_the_step(self):
        # one outlier bearing underflows every candidate's likelihood at step
        # 11; the argmax of all -inf scores would drift to the lowest candidate
        cfg = ScenarioConfig(model="bot", p_true=0.5, n_true=2, n_steps=30)
        model = cfg.build_model()
        ys = generate_truth(cfg, 81).y.copy()
        ys[10] = 40.0
        state = init_online_identification(
            GridSpec(0.1), model, 2, 200, 3, common_random_numbers=True
        )
        for k in range(1, 11):
            state, _ = online_identify_step(state, ys[k - 1], model, k)
        assert np.isfinite(state.cand.log_likelihoods).any()
        with pytest.raises(IdentificationError, match="step 11"):
            online_identify_step(state, ys[10], model, 11)
        assert len(state.estimates) == 10

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
