import math

import numpy as np
import pytest
from hypothesis import example, given, strategies as st
from hypothesis.extra.numpy import array_shapes, arrays
from scipy import integrate

from delayfilt import (
    BotModel,
    BotParams,
    DomainError,
    GrowthModel,
    GrowthModelParams,
    RngStream,
    wrap_angle,
)
from delayfilt.core import _normal_pdf
from delayfilt.models import (
    _wrap_to_pi,
    bot_mean,
    bot_measure,
    bot_propagate,
    bot_transition_matrix,
    generate_platform_track,
    growth_mean,
    growth_measure,
    growth_propagate,
)
from conftest import (
    ScalarModel,
    ScriptedRng,
    assert_same_bits,
    oracle_bot_mean,
    oracle_bot_measure,
    oracle_bot_propagate,
    oracle_growth_mean,
    oracle_wrap_to_pi,
)


class TestGrowthTransition:
    @pytest.mark.parametrize("k", [0, 1, 7, 40])
    def test_zero_state_leaves_only_forcing(self, k):
        assert growth_mean(0.0, k) == pytest.approx(8 * math.cos(1.2 * k), abs=1e-14)

    def test_hand_value(self):
        assert growth_mean(1.0, 0) == pytest.approx(21.0, abs=1e-12)

    @pytest.mark.parametrize("x", [0.5, 1.0, 3.7, 12.0])
    @pytest.mark.parametrize("k", [0, 3])
    def test_state_terms_odd(self, x, k):
        forcing = 8 * math.cos(1.2 * k)
        assert growth_mean(-x, k) - forcing == pytest.approx(
            -(growth_mean(x, k) - forcing), abs=1e-12
        )

    def test_propagate_adds_configured_noise(self):
        rng = RngStream(21)
        draws = growth_propagate(np.zeros(10**5), 0, rng) - 8.0
        assert abs(draws.mean()) < 0.05
        assert abs(draws.var() - 10.0) < 0.2

    def test_propagate_scripted(self):
        assert growth_propagate(1.0, 0, ScriptedRng(normals=[0.0])) == pytest.approx(21.0)

    @given(
        x=arrays(np.float64, array_shapes(min_dims=0, max_dims=2, max_side=5),
                 elements=st.floats(allow_nan=True, allow_infinity=True)
                 | st.sampled_from([-0.0, 5e-324, 1e-160, 1.5e154, 1e308])),
        k=st.integers(0, 500),
    )
    def test_in_place_mean_matches_one_expression(self, x, k):
        before = x.copy()
        with np.errstate(all="ignore"):
            got, want = growth_mean(x, k), oracle_growth_mean(x, k)
        assert type(got) is (float if x.ndim == 0 else np.ndarray)
        assert_same_bits(got, want)
        assert_same_bits(x, before)


class TestGrowthMeasurement:
    def test_values(self):
        assert growth_measure(0.0) == 0.0
        assert growth_measure(20.0) == 20.0

    @pytest.mark.parametrize("x", [0.1, 1.0, 5.0, 33.3])
    def test_even_function(self, x):
        assert growth_measure(x) == growth_measure(-x)


class TestBotTransition:
    def test_standard_matrix_preserves_velocity(self):
        params = BotParams(sampling_time=0.2)
        out = bot_mean(np.array([80.0, 1.0]), params)
        assert np.allclose(out, [80.2, 1.0], atol=1e-12)

    def test_paper_literal_matrix_decays_velocity(self):
        params = BotParams(sampling_time=0.2, paper_literal_f=True)
        out = bot_mean(np.array([80.0, 1.0]), params)
        assert np.allclose(out, [80.2, 0.2], atol=1e-12)

    def test_transition_matrix_shapes(self):
        f = bot_transition_matrix(0.5)
        assert np.array_equal(f, [[1.0, 0.5], [0.0, 1.0]])
        f_lit = bot_transition_matrix(0.5, paper_literal=True)
        assert np.array_equal(f_lit, [[1.0, 0.5], [0.0, 0.5]])

    def test_noise_gain_scales_quadratically_in_position(self):
        out_t = bot_propagate(np.zeros(2), BotParams(sampling_time=0.2), ScriptedRng(normals=[1.0]))
        out_2t = bot_propagate(np.zeros(2), BotParams(sampling_time=0.4), ScriptedRng(normals=[1.0]))
        gain_t = out_t / math.sqrt(0.01)
        gain_2t = out_2t / math.sqrt(0.01)
        assert gain_2t[0] == pytest.approx(4 * gain_t[0], rel=1e-12)  # position: T^2/2
        assert gain_2t[1] == pytest.approx(2 * gain_t[1], rel=1e-12)  # velocity: T

    @pytest.mark.parametrize("paper_literal", [False, True])
    def test_mean_is_row_count_invariant(self, paper_literal):
        # a bank propagates C*ns rows at once; each row must get the bits it
        # gets alone (a BLAS product of a large block need not give them)
        params = BotParams(paper_literal_f=paper_literal)
        rng = RngStream(15)
        x = np.column_stack([rng.normal(80.0, 3.0, 4040), rng.normal(1.0, 0.3, 4040)])
        block = bot_mean(x, params)
        assert np.array_equal(np.concatenate([bot_mean(row[None], params) for row in x]), block)
        assert np.array_equal(np.stack([bot_mean(row, params) for row in x]), block)

    @pytest.mark.parametrize("paper_literal", [False, True])
    @pytest.mark.parametrize("shape", [(2,), (1, 2), (4040, 2)])
    def test_columns_match_broadcast_oracle(self, paper_literal, shape):
        # one column at a time must give the bits of the (n, 1) x (2,) broadcasts
        params = BotParams(paper_literal_f=paper_literal)
        x = RngStream(16).normal(0.0, 50.0, shape)
        if len(x) > 6:
            x[:6] = [[0.0, -0.0], [-0.0, 0.0], [np.inf, 1.0], [1.0, -np.inf], [np.nan, 2.0], [1e308, 1e308]]
        with np.errstate(invalid="ignore", over="ignore"):
            assert_same_bits(bot_mean(x, params), oracle_bot_mean(x, params))
            assert_same_bits(
                bot_propagate(x, params, RngStream(17)),
                oracle_bot_propagate(x, params, RngStream(17)),
            )


def _assert_bearing_matches_oracle(x1, platform):
    try:
        expected = oracle_bot_measure(x1, platform)
    except DomainError:
        with pytest.raises(DomainError):
            bot_measure(x1, platform)
        return
    actual = bot_measure(x1, platform)
    assert type(actual) is type(expected)
    assert_same_bits(actual, expected)


_BEARING_X1 = [7.0, -7.0, 1.0, np.nextafter(1.0, 0.0), np.inf, -np.inf, np.nan]


class TestBotMeasurementOracle:
    @pytest.mark.parametrize("y_tp", [20.0, 5e-324, 0.0, -0.0, -3.0, np.nan])
    @pytest.mark.parametrize("x1", _BEARING_X1)
    def test_scalar(self, x1, y_tp):
        _assert_bearing_matches_oracle(x1, (1.0, y_tp))

    @pytest.mark.parametrize("y_tp", [20.0, 0.0, -0.0, -3.0])
    def test_array_of_targets(self, y_tp):
        _assert_bearing_matches_oracle(np.array(_BEARING_X1), (1.0, y_tp))
        _assert_bearing_matches_oracle(np.array([7.0, -7.0, -np.inf, np.nan]), (1.0, y_tp))

    def test_array_of_platforms(self):
        y_tp = np.array([20.0, 5e-324, 0.0, -0.0, -3.0, np.nan, 4.0])
        _assert_bearing_matches_oracle(np.array(_BEARING_X1), (1.0, y_tp))
        _assert_bearing_matches_oracle(np.full(7, -7.0), (1.0, y_tp))
        _assert_bearing_matches_oracle(np.full(7, 7.0), (1.0, np.abs(y_tp) + 1.0))


class TestBotMeasurement:
    def test_target_directly_above(self):
        assert bot_measure(10.0 + 1e-12, (10.0, 20.0)) == pytest.approx(math.pi / 2)

    def test_forty_five_degrees(self):
        assert bot_measure(30.0, (10.0, 20.0)) == pytest.approx(math.pi / 4)

    def test_behind_platform(self):
        assert bot_measure(-10.0, (10.0, 20.0)) == pytest.approx(3 * math.pi / 4)

    def test_undefined_bearing_raises(self):
        with pytest.raises(DomainError):
            bot_measure(10.0, (10.0, 0.0))

    def test_range_excludes_negative_pi(self):
        assert bot_measure(np.array([-1.0]), (0.0, np.array([-0.0])))[0] == pytest.approx(math.pi)

    @pytest.mark.parametrize("x1,xtp,ytp", [(5, 1, 20), (-8, 3, 2), (0, 9, -4)])
    def test_within_principal_range(self, x1, xtp, ytp):
        theta = bot_measure(float(x1), (float(xtp), float(ytp)))
        assert -math.pi < theta <= math.pi


class TestPlatformTrack:
    def test_mean_coordinates(self):
        params = BotParams(sampling_time=0.2)
        track = generate_platform_track(params, 100, RngStream(22))
        assert track.x_mean[0] == 0.0
        assert track.x_mean[100] == pytest.approx(80.0)
        assert np.all(track.y_mean == 20.0)
        assert len(track) == 101

    def test_noise_variance(self):
        params = BotParams(sampling_time=0.2)
        rng = RngStream(23)
        samples = np.array(
            [generate_platform_track(params, 2, rng).x[1] for _ in range(30000)]
        )
        assert abs(samples.var() - 1.0) < 0.05
        assert samples.mean() == pytest.approx(0.8, abs=0.02)

    def test_rejects_zero_steps(self):
        with pytest.raises(DomainError):
            generate_platform_track(BotParams(), 0, RngStream(24))


class TestWrapAngle:
    def test_principal_values_unchanged(self):
        assert wrap_angle(0.5) == pytest.approx(0.5)
        assert wrap_angle(math.pi) == pytest.approx(math.pi)

    def test_wraps_large_angles(self):
        assert wrap_angle(2 * math.pi + 0.3) == pytest.approx(0.3)
        assert wrap_angle(-math.pi) == pytest.approx(math.pi)

    @given(st.floats(min_value=-100.0, max_value=100.0))
    def test_range_property(self, theta):
        w = wrap_angle(theta)
        assert -math.pi < w <= math.pi
        # equivalent angle modulo 2*pi
        assert math.cos(w) == pytest.approx(math.cos(theta), abs=1e-9)
        assert math.sin(w) == pytest.approx(math.sin(theta), abs=1e-9)


def _float_neighbours(value, steps=4):
    below = above = value
    out = [value]
    for _ in range(steps):
        below, above = np.nextafter(below, -np.inf), np.nextafter(above, np.inf)
        out += [below, above]
    return out


# -pi and pi shift onto exactly 0 and 2 pi; some of their neighbours round onto them too
_WRAP_EDGES = (
    [0.0, -0.0, np.inf, -np.inf, np.nan, 0.1, 2 * np.pi, -2 * np.pi, 3 * np.pi, -3 * np.pi]
    + _float_neighbours(-np.pi)
    + _float_neighbours(np.pi)
)
_ANGLES = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(min_value=-4 * np.pi, max_value=4 * np.pi),
    st.sampled_from(_WRAP_EDGES),
)
_IN_RANGE = st.floats(min_value=-np.pi, max_value=np.nextafter(np.pi, 0.0))


def _assert_wrap_matches_oracle(theta):
    with np.errstate(invalid="ignore"):
        actual, expected = _wrap_to_pi(theta), oracle_wrap_to_pi(theta)
    assert type(actual) is type(expected)
    assert_same_bits(actual, expected)


class TestWrapOracle:
    @pytest.mark.parametrize("theta", _WRAP_EDGES)
    def test_edges(self, theta):
        _assert_wrap_matches_oracle(theta)
        _assert_wrap_matches_oracle(np.array(theta))
        _assert_wrap_matches_oracle(np.array([theta, 0.5]))

    def test_in_range_keeps_the_round_trip(self):
        # the in-range path still moves the low bits of an angle, as the remainder did
        assert _wrap_to_pi(0.1) != 0.1
        _assert_wrap_matches_oracle(0.1)

    @given(_ANGLES)
    @example(np.pi)
    @example(-np.pi)
    def test_scalars(self, theta):
        _assert_wrap_matches_oracle(theta)
        _assert_wrap_matches_oracle(np.array(theta))

    @given(arrays(np.float64, array_shapes(min_dims=0, max_dims=2, max_side=8), elements=_ANGLES))
    def test_arrays(self, theta):
        _assert_wrap_matches_oracle(theta)

    @given(st.lists(_IN_RANGE, min_size=1, max_size=30), st.lists(_ANGLES, max_size=3), st.randoms())
    def test_in_range_arrays_with_outliers_mixed_in(self, inside, others, random):
        # an all-in-range array skips the remainder; one outlier sends it back
        theta = inside + others
        random.shuffle(theta)
        _assert_wrap_matches_oracle(np.array(inside))
        _assert_wrap_matches_oracle(np.array(theta))
        _assert_wrap_matches_oracle(np.array(theta).reshape(1, -1))


class TestSystemModelContract:
    def test_growth_shapes_and_prior(self):
        model = GrowthModel()
        rng = RngStream(25)
        x0 = model.prior_sample(rng, 50)
        assert x0.shape == (50, 1)
        x1 = model.propagate(x0, 1, rng)
        assert x1.shape == (50, 1)
        z = model.measure_clean(x1, 1)
        assert z.shape == (50,)
        assert np.allclose(z, x1[:, 0] ** 2 / 20)

    def test_growth_density_mode_at_clean_measurement(self):
        model = GrowthModel()
        assert model.meas_noise_pdf(np.array([0.0]), 1)[0] == pytest.approx(
            0.3989422804014327, abs=1e-15
        )

    @pytest.mark.parametrize(
        "make_model,sigma",
        [
            (lambda: GrowthModel(), 1.0),
            (lambda: BotModel(BotParams(sampling_time=0.2)), math.radians(3.0)),
        ],
    )
    def test_noise_pdf_integrates_to_one(self, make_model, sigma):
        model = make_model()
        total, _ = integrate.quad(
            lambda r: float(model.meas_noise_pdf(np.array([r]), 3)[0]),
            -10 * sigma,
            10 * sigma,
            limit=200,
        )
        assert total == pytest.approx(1.0, abs=1e-6)

    def test_bot_initial_truth_is_exact(self):
        model = BotModel(BotParams(sampling_time=0.2))
        assert np.array_equal(model.initial_truth(RngStream(26)), [80.0, 1.0])

    def test_bot_prior_moments(self):
        model = BotModel(BotParams(sampling_time=0.2))
        draws = model.prior_sample(RngStream(27), 200000)
        assert np.allclose(draws.mean(axis=0), [80.0, 1.0], atol=0.02)
        assert np.allclose(draws.var(axis=0), [1.0, 0.1], rtol=0.05)

    def test_bot_residual_wrapping(self):
        model = BotModel(BotParams(sampling_time=0.2))
        r = 0.01
        assert model.meas_noise_pdf(np.array([r + 2 * math.pi]), 1)[0] == pytest.approx(
            model.meas_noise_pdf(np.array([r]), 1)[0], rel=1e-12
        )

    def test_bot_density_is_even_at_the_cut(self):
        # the density skips wrap_angle's -pi -> pi step; evenness makes that exact
        model = BotModel()
        assert model.meas_noise_pdf(-np.pi, 1) == model.meas_noise_pdf(np.pi, 1)
        assert model.meas_noise_logpdf(-np.pi, 1) == model.meas_noise_logpdf(np.pi, 1)
        residual = np.concatenate([[-np.pi, np.pi], RngStream(28).normal(0.0, 4.0, 1000)])
        via_wrap_angle = _normal_pdf(wrap_angle(residual), 0.0, model.params.meas_var)
        assert np.array_equal(model.meas_noise_pdf(residual, 1), via_wrap_angle)

    def test_bot_measure_clean_uses_mean_platform(self):
        params = BotParams(sampling_time=0.2)
        model = BotModel(params)
        x = np.array([[80.0, 1.0]])
        k = 10
        expected = math.atan2(20.0, 80.0 - 4 * k * 0.2)
        assert model.measure_clean(x, k)[0] == pytest.approx(expected, abs=1e-12)

    def test_degrees_to_radians_once(self):
        params = BotParams(sampling_time=0.2, bearing_noise_deg=3.0)
        assert params.meas_var == pytest.approx(math.radians(3.0) ** 2, rel=1e-15)


class TestTruthSeam:
    def test_default_has_no_context_and_measures_one_row(self):
        model = ScalarModel()
        assert model.truth_context(5, RngStream(29)) is None
        x = np.array([1.7])
        assert model.measure_truth(x, 3, None) == model.measure_clean(x[None, :], 3)[0]

    def test_growth_measures_truth_as_the_filter_does(self):
        model = GrowthModel()
        x = np.array([-4.3])
        assert model.truth_context(5, RngStream(30)) is None
        assert model.measure_truth(x, 2, None) == model.measure_clean(x[None, :], 2)[0]

    def test_bot_measures_truth_from_the_realized_platform(self):
        model = BotModel(BotParams(sampling_time=0.2))
        platform = model.truth_context(12, RngStream(31))
        track = generate_platform_track(model.params, 12, RngStream(31))
        assert np.array_equal(platform.x, track.x) and np.array_equal(platform.y, track.y)
        x = np.array([83.0, 1.2])
        for k in (1, 7, 12):
            assert model.measure_truth(x, k, platform) == bot_measure(
                x[0], (platform.x[k], platform.y[k])
            )
        assert model.measure_truth(x, 7, platform) != model.measure_clean(x[None, :], 7)[0]


class TestParamValidation:
    def test_growth_rejects_bad_variance(self):
        with pytest.raises(DomainError):
            GrowthModelParams(process_var=0.0)

    def test_bot_rejects_bad_sampling_time(self):
        with pytest.raises(DomainError):
            BotParams(sampling_time=0.0)
