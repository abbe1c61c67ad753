import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from delayfilt import (
    ConfigError,
    ContractError,
    DomainError,
    GridSpec,
    GrowthModel,
    LatencyParams,
    NumericError,
    ParticleSet,
    RngStream,
    ScenarioConfig,
    delayed_likelihood,
    filter_step,
    generate_truth,
    init_candidate_filters,
    init_filter,
    ll_step,
    run_filter,
    systematic_resample,
    write_step_diagnostics,
)
from delayfilt import filtering
from conftest import (
    ReadOnlyDensityModel,
    ScalarModel,
    ScriptedRng,
    assert_same_bits,
    oracle_delayed_likelihood,
    reference_history_filter,
    reference_ring_step,
    reference_sir,
    reference_systematic_rows,
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

    @pytest.mark.parametrize("weights", [[np.nan, 1.0], [np.inf, 0.0], [1.5, -0.5]])
    def test_rejects_non_finite_or_negative(self, weights):
        # the sum check alone lets [nan, 1] (sum nan) and [1.5, -0.5] (sum 1) through
        with pytest.raises(ContractError, match="finite and non-negative"):
            systematic_resample(np.array(weights), RngStream(42))

    @pytest.mark.parametrize("weights", [np.full((2, 2), 0.25), np.array(1.0)], ids=["2d", "0d"])
    def test_rejects_weights_that_are_not_1d(self, weights):
        # both used to fail inside the row kernel with an unnamed ValueError
        with pytest.raises(ContractError, match="1-D"):
            systematic_resample(weights, RngStream(42))


_WEIGHT_KINDS = ("zero", "one_hot", "uniform", "concentrated", "dyadic", "on_grid", "short", "random")


@st.composite
def _weight_row(draw, ns, u):
    """One row of resampling weights, of a kind chosen to stress the counts.

    ``u`` is the row's resampling offset, so that ``on_grid`` can put a
    cumulative weight exactly on one of the row's positions (u + i) / ns.
    """
    kind = draw(st.sampled_from(_WEIGHT_KINDS))
    if kind == "zero":
        return np.zeros(ns)
    if kind == "one_hot":
        return np.eye(ns)[draw(st.integers(0, ns - 1))]
    if kind == "uniform":
        return np.full(ns, 1.0 / ns)
    if kind == "dyadic":
        # exact cumulative sums, which equal positions (u + i) / ns at u = 0 or 0.5
        ints = np.array(draw(st.lists(st.integers(0, 3), min_size=ns, max_size=ns)), dtype=float)
        return ints / 2.0 ** math.ceil(math.log2(max(ints.sum(), 1.0)))
    if kind == "on_grid":
        # zeros up to particle j, whose cumulative weight is the rounded position i
        j, i = draw(st.integers(0, ns - 1)), draw(st.integers(0, ns - 1))
        w = np.zeros(ns)
        w[j] = ((u + np.arange(ns)) / ns)[i]
        if j < ns - 1:
            w[-1] = 1.0 - w[j]
        return w
    raw = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).random(ns)
    if kind == "concentrated":
        raw = np.exp(200.0 * (raw - 1.0))
    w = raw / raw.sum()
    if kind == "short":
        # the cumulative sum ends below the last position
        w *= draw(st.sampled_from([0.5, 0.9, 1.0 - 2.0**-40, 1.0 - 2.0**-52]))
    return w


@settings(max_examples=500, deadline=None)
@given(data=st.data(), ns=st.sampled_from([1, 2, 7, 200]), n_rows=st.sampled_from([1, 3]),
       shared=st.booleans())
def test_systematic_rows_match_binary_search(data, ns, n_rows, shared):
    # the counting resampler must pick the ancestors of one searchsorted per row,
    # ties and the clip to ns - 1 included, with one shared stream or one per row
    offset = st.sampled_from([0.0, 0.5, 1.0 - 2.0**-53]) | st.floats(0.0, 1.0, exclude_max=True)
    offsets = [data.draw(offset) for _ in range(1 if shared else n_rows)]
    row_offsets = offsets * n_rows if shared else offsets
    weights = np.stack([data.draw(_weight_row(ns, u)) for u in row_offsets])
    rngs = [ScriptedRng(randoms=[u]) for u in offsets]
    ancestors = filtering._systematic_rows(weights, rngs)
    assert ancestors.dtype == np.intp
    assert np.array_equal(ancestors, reference_systematic_rows(weights, offsets))


@pytest.mark.parametrize("shared", [True, False])
@pytest.mark.parametrize("ns", [7, 200])
def test_systematic_rows_on_every_grid_tie(ns, shared):
    # row i puts its first cumulative weight exactly on position i; the
    # count's first estimate can then be one over or one short, and the
    # check must move it (the last three offsets listed make it fall short)
    offsets = [0.0, 0.5, 0.1487640122324979, 0.8582685034359774, 0.8408571199526906]
    offsets += list(np.random.default_rng(ns).random(20))
    for u in offsets:
        positions = (u + np.arange(ns)) / ns
        weights = np.zeros((ns, ns))
        weights[:, 0] = positions
        weights[:, -1] = 1.0 - positions
        rngs = [ScriptedRng(randoms=[u]) for _ in range(1 if shared else ns)]
        ancestors = filtering._systematic_rows(weights, rngs)
        assert np.array_equal(ancestors, reference_systematic_rows(weights, [u]))


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

    def test_run_filter_rejects_non_finite_delivery_before_filtering(self, monkeypatch):
        def no_steps(*args, **kwargs):
            raise AssertionError("a filter step ran before the deliveries were checked")

        monkeypatch.setattr(filtering, "filter_step", no_steps)
        model = GrowthModel()
        ps = init_filter(model, LatencyParams(0.5, 2), 50, RngStream(58))
        with pytest.raises(DomainError, match="step 3"):
            run_filter(ps, [0.3, 1.0, np.nan, 2.0], model, RngStream(59))


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


@pytest.mark.parametrize("p", [0.0, 0.5, 1.0])
@pytest.mark.parametrize("max_delay", [0, 2])
@pytest.mark.parametrize("model_name", ["growth", "bot"])
def test_single_particle_filter(monkeypatch, model_name, max_delay, p):
    # ns = 1: the one particle is every step's only ancestor with normalized
    # weight 1 (ESS 1), and the likelihoods and estimates stay finite
    cfg = ScenarioConfig(model=model_name, p_true=0.5, n_true=2, n_steps=30)
    model = cfg.build_model()
    ys = generate_truth(cfg, 73).y
    steps = []

    def recording_step(*args):
        new_ps, est = filter_step(*args)
        steps.append(new_ps.diagnostics)
        return new_ps, est

    monkeypatch.setattr(filtering, "filter_step", recording_step)
    rng = RngStream(74)
    _, means = run_filter(init_filter(model, LatencyParams(p, max_delay), 1, rng), ys, model, rng)
    assert len(steps) == len(ys)
    for diag in steps:
        assert np.array_equal(diag.ancestors, [0])
        assert diag.ess == 1.0
        assert np.isfinite(diag.likelihood).all()
    assert np.isfinite(means).all()


@pytest.mark.parametrize("layout", ["lag-major", "particle-major"])
@pytest.mark.parametrize("max_delay", [0, 1, 3])
def test_sir_step_ring_matches_concatenate_then_take(layout, max_delay):
    # the lag-major gather must equal shifting the particle-major ring and
    # taking whole rows, for a C-ordered (C, ns, N+1) ring as well
    n_rows, ns, model = 3, 6, ScalarModel()
    draws = RngStream(95)
    state = draws.normal(0.0, 1.0, (n_rows, ns, 1))
    clean = draws.normal(0.0, 1.0, (n_rows, ns, max_delay + 1))
    ring = np.moveaxis(clean, -1, 0)
    if layout == "lag-major":
        ring = np.ascontiguousarray(ring)
    snapshot = clean.copy()
    weights = np.full(max_delay + 1, 1.0 / (max_delay + 1))
    rngs = [RngStream(96, (c,)) for c in range(n_rows)]
    step = filtering._sir_step(
        state, ring, np.full(ns, 1.0 / ns), np.zeros((n_rows, ns)), 0.3, model, 4, rngs, weights
    )
    fresh = model.measure_clean(step.propagated.reshape(-1, 1), 4).reshape(n_rows, ns)
    assert step.ring.flags.c_contiguous
    assert_same_bits(np.moveaxis(step.ring, 0, -1), reference_ring_step(clean, fresh, step.ancestors))
    assert_same_bits(clean, snapshot)
    assert not np.array_equal(step.ancestors, np.tile(np.arange(ns), (n_rows, 1)))


@pytest.mark.parametrize("crn", [False, True])
@pytest.mark.parametrize("max_delay", [0, 2])
def test_read_only_density_and_stored_ring(max_delay, crn):
    # the mixture writes neither into the array the density returns nor into
    # the stored ring: with both read-only, every output keeps its bits
    ys = RngStream(90).normal(0.0, 1.5, 8)
    plain, read_only = ScalarModel(), ReadOnlyDensityModel()
    params = LatencyParams(0.5, max_delay)
    ps_a, ps_b = (init_filter(plain, params, 20, RngStream(91)) for _ in range(2))
    rng_a, rng_b = RngStream(92), RngStream(92)
    grid = GridSpec(0.25)
    cand_a, cand_b = (init_candidate_filters(grid, plain, max_delay, 20, 93, crn) for _ in range(2))
    for k, y in enumerate(ys, start=1):
        ring, cand_ring = ps_b.clean, cand_b.clean
        snapshots = ring.copy(), cand_ring.copy()
        ring.flags.writeable = cand_ring.flags.writeable = False
        ps_a, est_a = filter_step(ps_a, y, plain, k, rng_a)
        ps_b, est_b = filter_step(ps_b, y, read_only, k, rng_b)
        cand_a = ll_step(cand_a, y, plain, k, accumulate=k >= 2, undelayed=k == 1)
        cand_b = ll_step(cand_b, y, read_only, k, accumulate=k >= 2, undelayed=k == 1)
        assert_same_bits(ring, snapshots[0])
        assert_same_bits(cand_ring, snapshots[1])
        assert_same_bits(est_b.mean, est_a.mean)
        for got, want in [(ps_b.state, ps_a.state), (ps_b.clean, ps_a.clean),
                          (ps_b.prev_likelihood, ps_a.prev_likelihood),
                          (cand_b.log_likelihoods, cand_a.log_likelihoods),
                          (cand_b.state, cand_a.state), (cand_b.clean, cand_a.clean)]:
            assert_same_bits(got, want)


# depths 0-3 out of order, a duplicate, and an explicit p = 0 at depth 2
BANK_PARAMS = [LatencyParams(0.6, 1), LatencyParams(0.0, 0), LatencyParams(0.6, 3),
               LatencyParams(0.6, 1), LatencyParams(0.0, 2), LatencyParams(0.3, 2)]


@pytest.mark.parametrize("ns", [1, 37])
@pytest.mark.parametrize("model_name", ["growth", "bot"])
def test_bank_rows_match_run_filter(model_name, ns):
    # every row of a bank equals, bit for bit, a filter of its own on a
    # stream seeded as the bank's, and the bank leaves its one stream where
    # that filter leaves its own: one draw per step serves every row
    cfg = ScenarioConfig(model=model_name, p_true=0.6, n_true=2, n_steps=20)
    model = cfg.build_model()
    ys = generate_truth(cfg, 75).y
    bank_rng = RngStream(76)
    bank = filtering._run_filter_bank(BANK_PARAMS, ys, model, ns, bank_rng)
    assert bank.shape == (len(BANK_PARAMS), len(ys), model.state_dim)
    for row, params in zip(bank, BANK_PARAMS):
        rng = RngStream(76)
        _, means = run_filter(init_filter(model, params, ns, rng), ys, model, rng)
        assert_same_bits(row, means)
    assert bank_rng.random() == rng.random()


def test_bank_rejects_non_finite_delivery_before_filtering():
    rng = RngStream(77)
    with pytest.raises(DomainError, match="step 2"):
        filtering._run_filter_bank(BANK_PARAMS, [0.3, np.inf, 1.0], GrowthModel(), 5, rng)
    assert rng.random() == RngStream(77).random()


class ShapeRecordingModel(ScalarModel):
    """ScalarModel that records the shape of every residual block it scores."""

    def __init__(self):
        super().__init__()
        self.shapes = []

    def meas_noise_pdf(self, residual, k):
        self.shapes.append(np.shape(residual))
        return super().meas_noise_pdf(residual, k)


def test_bank_orders_rows_deepest_first():
    # deepest-first rows let every lag stop at the last row that weights it:
    # lag 1 skips the depth-0 row, lag 2 the depth-0 and depth-1 rows, and
    # lag 3 all but the depth-3 row
    model = ShapeRecordingModel()
    filtering._run_filter_bank(BANK_PARAMS, [0.3, -0.2], model, 4, RngStream(79))
    assert model.shapes == [(6, 4), (5, 4), (3, 4), (1, 4)] * 2


def _mixture_inputs(n_rows=3, ns=7, n_lags=4):
    draws = RngStream(78)
    ring = draws.normal(0.0, 1.0, (n_lags, n_rows, ns))
    base = np.abs(draws.normal(0.0, 0.1, (n_rows, ns)))
    return ring, base


def test_lag_mixture_stops_each_lag_at_its_last_weighted_row():
    # deepest-first rows with trailing zero weights: lag j is scored only on
    # the rows up to the last that weights it, and the sums keep the bits of
    # scoring every row, where each skipped term would have added +0
    ring, base = _mixture_inputs()
    weights = np.array([[0.2, 0.16, 0.128, 0.1],
                        [0.5, 0.25, 0.0, 0.0],
                        [1.0, 0.0, 0.0, 0.0]])
    model = ShapeRecordingModel()
    got = filtering._lag_mixture(ring, 0.4, weights, model, 9, base.copy())
    assert model.shapes == [(3, 7), (2, 7), (1, 7), (1, 7)]
    expected = base.copy()
    for j in range(4):
        expected += weights[:, j, None] * ScalarModel().meas_noise_pdf(0.4 - ring[j], 9 - j)
    assert_same_bits(got, expected)


def test_lag_mixture_scores_every_row_under_shared_weights():
    ring, base = _mixture_inputs()
    weights = np.array([0.5, 0.25, 0.0, 0.125])
    model = ShapeRecordingModel()
    got = filtering._lag_mixture(ring, 0.4, weights, model, 9, base.copy())
    assert model.shapes == [(3, 7), (3, 7), (3, 7)]  # the all-zero lag 2 is skipped
    expected = base.copy()
    for j in range(4):
        expected += weights[j] * ScalarModel().meas_noise_pdf(0.4 - ring[j], 9 - j)
    assert_same_bits(got, expected)


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
