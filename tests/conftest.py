"""Shared test fixtures and independent oracles.

The oracles here deliberately avoid the library's code paths: densities
via math.exp, sums via math.fsum, resampling re-derived from scratch.
"""

import math

import numpy as np
import pytest

from delayfilt import SystemModel, systematic_resample


def norm_pdf(x, var=1.0):
    """Scalar normal density via math, independent of the library."""
    return math.exp(-0.5 * x * x / var) / math.sqrt(2.0 * math.pi * var)


def oracle_delayed_likelihood(history, y, prev_like, p, max_delay, h, var):
    """Term-by-term mixture evaluation with compensated summation."""
    terms = [
        p**j * (1.0 - p) * norm_pdf(y - h(history[j]), var)
        for j in range(max_delay + 1)
    ]
    return math.fsum(terms) + p ** (max_delay + 1) * prev_like


class ScalarModel(SystemModel):
    """Controllable scalar test model: x' = x + process noise, h(x) = x."""

    state_dim = 1

    def __init__(self, process_var=1.0, meas_var=1.0, prior_mean=0.0, prior_var=1.0):
        self.process_var = process_var
        self.meas_var = meas_var
        self.prior_mean = prior_mean
        self.prior_var = prior_var

    def propagate(self, x, k, rng):
        noise = rng.normal(0.0, math.sqrt(self.process_var), size=x.shape[0])
        return x + noise[:, None]

    def measure_clean(self, x, k):
        return x[:, 0]

    def meas_noise_pdf(self, residual, k):
        r = np.asarray(residual, dtype=float)
        return np.exp(-0.5 * r * r / self.meas_var) / np.sqrt(2 * np.pi * self.meas_var)

    def meas_noise_logpdf(self, residual, k):
        r = np.asarray(residual, dtype=float)
        return -0.5 * (r * r / self.meas_var + np.log(2 * np.pi * self.meas_var))

    def meas_noise_sample(self, k, rng, size=None):
        return rng.normal(0.0, math.sqrt(self.meas_var), size)

    def prior_sample(self, rng, n):
        return rng.normal(self.prior_mean, math.sqrt(self.prior_var), size=(n, 1))

    def initial_truth(self, rng):
        return self.prior_sample(rng, 1)[0]


class ScriptedRng:
    """RngStream stand-in that replays preset draws."""

    def __init__(self, normals=(), randoms=()):
        self._normals = list(normals)
        self._randoms = list(randoms)

    def normal(self, loc=0.0, scale=1.0, size=None):
        if size is None:
            return loc + scale * self._normals.pop(0)
        n = int(np.prod(size)) if not np.isscalar(size) else int(size)
        vals = np.array([self._normals.pop(0) for _ in range(n)])
        return loc + scale * vals.reshape(size)

    def random(self, size=None):
        if size is None:
            return self._randoms.pop(0)
        n = int(np.prod(size)) if not np.isscalar(size) else int(size)
        vals = np.array([self._randoms.pop(0) for _ in range(n)])
        return vals.reshape(size)


def reference_sir(model, measurements, ns, rng):
    """Independently coded bootstrap SIR filter.

    Shares the model and the draw protocol (one vectorized propagation
    draw, one resampling uniform per step) so a shared stream stays
    aligned, but weights, estimates and resampling are its own arithmetic.
    """
    x = model.prior_sample(rng, ns)
    weights = np.full(ns, 1.0 / ns)
    means = []
    for k, y in enumerate(measurements, start=1):
        x = model.propagate(x, k, rng)
        like = model.meas_noise_pdf(y - model.measure_clean(x, k), k)
        weights = weights * like
        weights = weights / weights.sum()
        means.append(weights @ x)
        u = rng.random()
        positions = (u + np.arange(ns)) / ns
        idx = np.minimum(np.searchsorted(np.cumsum(weights), positions), ns - 1)
        x = x[idx]
        weights = np.full(ns, 1.0 / ns)
    return np.asarray(means)


def reference_history_filter(model, params, measurements, ns, rng):
    """Delayed-likelihood SIR over full (ns, N+1, state_dim) state histories.

    Measures every lag from its stored state, h(history[:, j], max(k - j, 1)),
    instead of keeping a ring of clean measurements; same draw protocol as
    `init_filter` plus `run_filter`. Yields each step's (likelihood, ancestors).
    """
    p, n_hyp = float(params.p), params.max_delay + 1
    hist = np.repeat(model.prior_sample(rng, ns)[:, None, :], n_hyp, axis=1)
    prev = np.ones(ns)
    for k, y in enumerate(measurements, start=1):
        x = model.propagate(hist[:, 0], k, rng)
        hist = np.concatenate([x[:, None, :], hist[:, :-1]], axis=1)
        like = p**n_hyp * prev
        for j in range(n_hyp):
            if p**j * (1.0 - p) != 0.0:
                k_j = max(k - j, 1)
                residual = y - model.measure_clean(hist[:, j], k_j)
                like = like + p**j * (1.0 - p) * model.meas_noise_pdf(residual, k_j)
        with np.errstate(divide="ignore"):
            log_w = np.log(like) + np.log(np.full(ns, 1.0 / ns))
        w = np.exp(log_w - log_w.max()) if np.isfinite(log_w.max()) else np.ones(ns)
        ancestors = systematic_resample(w / w.sum(), rng)
        yield like, ancestors
        hist, prev = hist[ancestors], like[ancestors]


@pytest.fixture
def scalar_model():
    return ScalarModel()
