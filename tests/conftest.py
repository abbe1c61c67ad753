"""Shared test fixtures and independent oracles.

The oracles here deliberately avoid the library's code paths: densities
via math.exp, sums via math.fsum, resampling re-derived from scratch.
"""

import math

import numpy as np
import pytest

from delayfilt import (
    BotModel,
    DomainError,
    LatencyParams,
    RngStream,
    SystemModel,
    content_age_weights,
    repeat_probability,
    systematic_resample,
)
from delayfilt.core import _normal_logpdf, _normal_pdf


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


def oracle_growth_mean(x, k):
    """The growth transition mean as one expression, with a temporary for every operation."""
    x = np.asarray(x, dtype=float)
    return 0.5 * x + 25.0 * x / (1.0 + x * x) + 8.0 * math.cos(1.2 * k)


def oracle_wrap_to_pi(theta):
    """The bearing residual wrap as one unconditional remainder."""
    return np.remainder(np.asarray(theta, dtype=float) + np.pi, 2.0 * np.pi) - np.pi


def oracle_bot_mean(x, params):
    """F x by broadcasting each state column against a column of F."""
    f = params.transition
    x = np.asarray(x, dtype=float)
    return x[..., 0, None] * f[:, 0] + x[..., 1, None] * f[:, 1]


def oracle_bot_propagate(x, params, rng):
    """F x + G q with the noise added as an outer product, one draw per row."""
    g = params.noise_gain
    x = np.asarray(x, dtype=float)
    n = x.shape[0] if x.ndim == 2 else None
    q = rng.normal(0.0, math.sqrt(params.process_var), size=n)
    if x.ndim == 2:
        return oracle_bot_mean(x, params) + np.outer(q, g)
    return oracle_bot_mean(x, params) + q * g


def oracle_bot_measure(x1, platform):
    """Bearing with the coincidence test and the -pi -> pi fix-up always run."""
    x_tp, y_tp = platform
    dx = np.asarray(x1, dtype=float) - np.asarray(x_tp, dtype=float)
    y_tp = np.asarray(y_tp, dtype=float)
    if np.any((dx == 0.0) & (y_tp == 0.0)):
        raise DomainError("bearing undefined: target coincides with platform")
    theta = np.arctan2(y_tp, dx)
    theta = np.where(theta == -np.pi, np.pi, theta)
    return float(theta) if theta.ndim == 0 else theta


class OracleBotModel(BotModel):
    """BotModel on the oracle kernels; counts density calls, and those that had to wrap."""

    density_calls = wrapped_calls = 0

    def propagate(self, x, k, rng):
        return oracle_bot_propagate(x, self.params, rng)

    def measure_clean(self, x, k):
        return oracle_bot_measure(x[:, 0], self.platform_mean(k))

    def _wrap(self, residual):
        shifted = np.asarray(residual, dtype=float) + np.pi
        self.density_calls += 1
        self.wrapped_calls += bool(np.any((shifted < 0.0) | (shifted >= 2.0 * np.pi)))
        return oracle_wrap_to_pi(residual)

    def meas_noise_pdf(self, residual, k):
        return _normal_pdf(self._wrap(residual), 0.0, self.params.meas_var)

    def meas_noise_logpdf(self, residual, k):
        return _normal_logpdf(self._wrap(residual), 0.0, self.params.meas_var)


def oracle_normal_pdf(x, mean, variance):
    """The normal density as one expression, with a temporary for every operation."""
    d = np.asarray(x, dtype=float) - mean
    return np.exp(-0.5 * d * d / variance) / np.sqrt(2.0 * math.pi * variance)


def reference_ring_step(clean, fresh, ancestors):
    """The particle-major ring update: concatenate a shifted ring, then gather rows.

    ``clean`` is the (C, ns, N+1) ring before the step, ``fresh`` the (C, ns)
    clean measurements of the propagated states and ``ancestors`` the (C, ns)
    resampling indices of each row. Returns the (C, ns, N+1) ring after it.
    """
    n_rows, ns = fresh.shape
    shifted = np.concatenate([fresh[..., None], clean[..., :-1]], axis=-1)
    rows = (ancestors + ns * np.arange(n_rows)[:, None]).ravel()
    return shifted.reshape(n_rows * ns, -1).take(rows, axis=0).reshape(shifted.shape)


class ReadOnlyDensityModel(ScalarModel):
    """ScalarModel whose density hands back a read-only array."""

    def meas_noise_pdf(self, residual, k):
        out = super().meas_noise_pdf(residual, k)
        out.flags.writeable = False
        return out


def assert_same_bits(actual, expected):
    """Equal values, NaN at the same places, the same sign bits and shape."""
    actual, expected = np.asarray(actual), np.asarray(expected)
    assert actual.shape == expected.shape
    assert np.array_equal(np.isnan(actual), np.isnan(expected))
    assert np.array_equal(np.signbit(actual), np.signbit(expected))
    assert np.array_equal(actual, expected, equal_nan=True)


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


def reference_systematic_rows(weights, offsets):
    """Systematic resampling by one left-sided binary search per row.

    ``weights`` is (C, ns); ``offsets`` holds one uniform per row, or one
    that every row shares. Row c's positions are (offsets[c] + i) / ns and
    its ancestors are clipped to ns - 1.
    """
    n_rows, ns = weights.shape
    offsets = np.broadcast_to(np.asarray(offsets, dtype=float), (n_rows,))
    ancestors = np.empty((n_rows, ns), dtype=np.intp)
    for c in range(n_rows):
        positions = (offsets[c] + np.arange(ns)) / ns
        ancestors[c] = np.minimum(np.searchsorted(np.cumsum(weights[c]), positions), ns - 1)
    return ancestors


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


def reference_candidate_loop(model, candidates, max_delay, ns, seed, crn, measurements):
    """Identification scores from one separate particle filter per candidate.

    The per-candidate loop the candidate bank replaced: each candidate owns
    an (ns, state_dim) state, an (ns, N+1) ring and its stream, and runs its
    own propagate, lag mixture, normalization, systematic resampling and
    gather in the same draw order (propagation noise, then one uniform).
    The first delivery is undelayed and unscored. Yields the
    (log-likelihoods, states, rings) after every step.
    """
    base = RngStream(seed)
    rows = []
    for idx, p in enumerate(candidates):
        params = LatencyParams(p, max_delay)
        rng = base.substream(0 if crn else idx)
        x = model.prior_sample(rng, ns)
        ring = np.repeat(model.measure_clean(x, 1)[:, None], max_delay + 1, axis=1)
        rows.append([x, ring, rng, content_age_weights(params), repeat_probability(params)])
    lls = np.zeros(len(candidates))
    prev_y = None
    for k, y in enumerate(measurements, start=1):
        is_repeat = prev_y is not None and y == prev_y
        for idx, row in enumerate(rows):
            x, ring, rng, age_weights, p_rep = row
            x = model.propagate(x, k, rng)
            ring = np.concatenate([model.measure_clean(x, k)[:, None], ring[:, :-1]], axis=1)
            like = np.zeros(ns)
            for j, w_j in enumerate((1.0,) if k == 1 else age_weights):
                if w_j != 0.0:
                    like += w_j * model.meas_noise_pdf(y - ring[:, j], max(k - j, 1))
            with np.errstate(divide="ignore"):
                log_w = np.log(like) + np.log(np.full(ns, 1.0 / ns))
            top = log_w.max()
            if np.isfinite(top):
                w = np.exp(log_w - top)
                w /= w.sum()
            else:
                w = np.full(ns, 1.0 / ns)
            positions = (rng.random() + np.arange(ns)) / ns
            ancestors = np.clip(np.searchsorted(np.cumsum(w), positions), 0, ns - 1)
            if k > 1:
                mean_like = like.mean()
                log_mean = float(np.log(mean_like)) if mean_like > 0 else -np.inf
                with np.errstate(divide="ignore"):
                    lls[idx] += np.log(p_rep) if is_repeat else np.log1p(-p_rep) + log_mean
            row[0], row[1] = x.take(ancestors, axis=0), ring.take(ancestors, axis=0)
        prev_y = y
        yield lls.copy(), np.stack([r[0] for r in rows]), np.stack([r[1] for r in rows])
