import math

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy import integrate

from delayfilt import DomainError, Probability, RngStream, derive_seed
from delayfilt.core import _normal_logpdf, _normal_pdf


class TestProbability:
    def test_accepts_unit_interval(self):
        assert float(Probability(0.0)) == 0.0
        assert float(Probability(1.0)) == 1.0
        assert float(Probability(0.25)) == 0.25

    @pytest.mark.parametrize("bad", [-0.1, 1.0000001, 5, float("nan"), float("inf")])
    def test_rejects_out_of_range(self, bad):
        with pytest.raises(DomainError):
            Probability(bad)

    def test_is_a_float(self):
        assert Probability(0.5) + 0.25 == 0.75


class TestGaussianPdf:
    """The unchecked normal densities the models evaluate residuals with."""

    def test_standard_normal_at_zero(self):
        assert _normal_pdf(0.0, 0.0, 1.0) == pytest.approx(0.3989422804014327, abs=1e-15)

    @pytest.mark.parametrize("a", [0.3, 1.0, 2.5, 7.0])
    def test_symmetry(self, a):
        assert _normal_pdf(a, 0.0, 1.0) == _normal_pdf(-a, 0.0, 1.0)

    def test_mode_of_var_four(self):
        assert _normal_pdf(3.0, 3.0, 4.0) == pytest.approx(0.19947114020071635, abs=1e-15)

    def test_log_form_matches(self):
        for x in (-3.0, 0.0, 1.5, 10.0):
            assert _normal_logpdf(x, 1.5, 2.5) == pytest.approx(
                math.log(_normal_pdf(x, 1.5, 2.5)), abs=1e-12
            )

    @pytest.mark.parametrize("mean,var", [(0, 1), (3, 4), (-2, 0.25), (10, 17.3)])
    def test_integrates_to_one(self, mean, var):
        total, _ = integrate.quad(
            lambda x: float(_normal_pdf(x, mean, var)),
            mean - 10 * math.sqrt(var),
            mean + 10 * math.sqrt(var),
        )
        assert total == pytest.approx(1.0, abs=1e-6)

    def test_vectorized(self):
        out = _normal_pdf(np.array([0.0, 1.0]), 0.0, 1.0)
        assert out.shape == (2,)
        assert out[0] == pytest.approx(0.3989422804014327)


class TestGaussianSample:
    """`RngStream.normal` takes the standard deviation as its scale."""

    def test_tiny_variance_returns_near_mean(self):
        draws = RngStream(1).normal(5.0, 1e-10, size=100)
        assert np.all(np.abs(draws - 5.0) < 1e-8)

    def test_sample_mean(self):
        draws = RngStream(2).normal(0.0, 1.0, size=10**6)
        assert abs(draws.mean()) < 0.01

    def test_sample_variance(self):
        draws = RngStream(3).normal(0.0, 2.0, size=10**6)
        assert abs(draws.var() - 4.0) < 0.05


class TestBernoulli:
    def test_fair_coin_mean(self):
        rng = RngStream(5)
        draws = rng.random(10**6) < 0.5  # the channel's flag rule
        assert abs(draws.mean() - 0.5) < 0.005


class TestRngStream:
    def test_same_seed_bitwise_identical(self):
        a = RngStream(123456789).random(10**4)
        b = RngStream(123456789).random(10**4)
        assert np.array_equal(a, b)

    def test_different_seeds_differ(self):
        assert not np.array_equal(RngStream(1).random(100), RngStream(2).random(100))

    def test_substream_deterministic_and_independent(self):
        a = RngStream(7).substream(3).random(1000)
        b = RngStream(7).substream(3).random(1000)
        c = RngStream(7).substream(4).random(1000)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_substream_differs_from_parent(self):
        parent = RngStream(7).random(1000)
        child = RngStream(7).substream(0).random(1000)
        assert not np.array_equal(parent, child)

    @pytest.mark.parametrize("bad", [-1, 2**64])
    def test_rejects_bad_seed(self, bad):
        with pytest.raises(DomainError):
            RngStream(bad)

    def test_derive_seed_stable(self):
        assert derive_seed(42, 1, 2) == derive_seed(42, 1, 2)
        assert derive_seed(42, 1, 2) != derive_seed(42, 2, 1)
        assert 0 <= derive_seed(42, 9) < 2**64


@given(st.floats(min_value=0.0, max_value=1.0))
def test_probability_roundtrip(p):
    assert float(Probability(p)) == p
