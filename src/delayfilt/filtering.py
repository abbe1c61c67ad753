"""Particle filter for randomly delayed measurements.

A sequential importance resampling filter whose particles carry their
current state plus a ring of their last max_delay+1 clean measurements
h_{k-j}(x_{k-j}), so the measurement function runs once per particle per
step. The weight of a particle is its delayed likelihood:
a mixture over every admissible delay hypothesis plus a loss branch that
recursively reuses the previous step's likelihood value,

    L_k = sum_{j=0..N} p^j (1-p) pdf(y_k - h_{k-j}(x_{k-j}))
          + p^(N+1) L_{k-1}.

With p = 0 and N = 0 this reduces exactly to the standard bootstrap
filter likelihood, and the whole filter degenerates to plain SIR.

Resampling is systematic and happens every step; ancestor selection
re-draws states, measurement rings and cached likelihood values together.

Choosing the maximum admissible delay trades off two effects: a small N
loses information when delays are long (the loss branch swallows them),
while a large N lengthens the filter memory and needs more particles to
keep Monte Carlo error in check.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import RngStream
from .delay_channel import LatencyParams, delay_pmf
from .errors import ConfigError, ContractError, NumericError
from .models import SystemModel

__all__ = [
    "ParticleSet",
    "FilterEstimate",
    "StepDiagnostics",
    "init_filter",
    "delayed_likelihood",
    "filter_step",
    "run_filter",
    "systematic_resample",
    "effective_sample_size",
    "write_step_diagnostics",
]


@dataclass(frozen=True)
class StepDiagnostics:
    """Per-step filter internals, refreshed by every `filter_step`."""

    step: int
    ess: float
    underflow: bool
    log_mean_likelihood: float
    ancestors: np.ndarray
    likelihood: np.ndarray  # per-particle likelihood, pre-resampling


@dataclass
class ParticleSet:
    """Weighted particles with a ring of clean measurements and a likelihood cache.

    ``state[i]`` is particle i's current state. ``clean[i, j]`` is its clean
    measurement h_{k-j}(x_{k-j}) from j steps ago (column 0 belongs to the
    current state); that is all the delayed likelihood reads of older
    states. ``prev_likelihood`` caches each particle's likelihood from the
    previous step, which feeds the loss branch of the recursion.
    Single-owner mutable state.
    """

    state: np.ndarray            # (ns, state_dim)
    clean: np.ndarray            # (ns, max_delay+1)
    weights: np.ndarray          # (ns,)
    prev_likelihood: np.ndarray  # (ns,)
    params: LatencyParams
    step: int = 0
    diagnostics: Optional[StepDiagnostics] = None

    @property
    def ns(self) -> int:
        return self.state.shape[0]


@dataclass(frozen=True)
class FilterEstimate:
    """Weighted-mean state estimate at one step."""

    mean: np.ndarray
    step: int


def init_filter(
    model: SystemModel, params: LatencyParams, ns: int, rng: RngStream
) -> ParticleSet:
    """Draw ns particles from the model prior with uniform weights.

    Every ring column starts as the prior draw measured at step 1, the
    step that lags reaching back past the first measurement are clamped
    to; the likelihood cache starts at 1 (a constant scale that cancels
    in normalization).
    """
    ns = int(ns)
    if ns < 1:
        raise ConfigError(f"particle count must be >= 1, got {ns}")
    x0 = model.prior_sample(rng, ns)
    clean = np.repeat(model.measure_clean(x0, 1)[:, None], params.max_delay + 1, axis=1)
    return ParticleSet(
        state=x0,
        clean=clean,
        weights=np.full(ns, 1.0 / ns),
        prev_likelihood=np.ones(ns),
        params=params,
        step=0,
    )


def _lag_mixture(clean, y_k, weights, model, k, base):
    """Add sum_j weights[j] pdf(y_k - clean[:, j]) to ``base``, in place.

    Lag j is scored at step max(k - j, 1), mirroring the channel's startup
    clamp; zero weights are skipped. Raises NumericError on a non-finite
    result rather than letting it propagate.
    """
    for j, w_j in enumerate(weights):
        if w_j == 0.0:
            continue
        k_j = max(k - j, 1)
        base += w_j * model.meas_noise_pdf(y_k - clean[:, j], k_j)
    if not np.isfinite(base).all():
        raise NumericError(f"non-finite likelihood at step {k}")
    return base


def delayed_likelihood(history, y_k, prev_like, params: LatencyParams, model, k: int):
    """Likelihood of a delivered measurement under every delay hypothesis.

    ``history`` is either one particle history of shape (max_delay+1,
    state_dim) or a batch (ns, max_delay+1, state_dim), column j holding
    the state from j steps ago; ``prev_like`` is the matching scalar or
    (ns,) cache of the previous step's value. Step indices older than the
    first measurement are clamped to 1, mirroring the channel's startup
    behavior. The filter evaluates the same mixture on its measurement
    ring; this form measures the history's columns first.

    Always finite and >= 0; a non-finite result raises NumericError rather
    than silently propagating.
    """
    history = np.asarray(history, dtype=float)
    single = history.ndim == 2
    if single:
        history = history[None, :, :]
    n_hyp = params.max_delay + 1
    if history.shape[1] != n_hyp:
        raise ContractError(
            f"history holds {history.shape[1]} states, expected {n_hyp}"
        )
    clean = np.stack(
        [model.measure_clean(history[:, j], max(k - j, 1)) for j in range(n_hyp)], axis=1
    )
    weights, drop = delay_pmf(params)
    base = drop * np.asarray(prev_like, dtype=float)
    base = np.broadcast_to(base, history.shape[:1]).astype(float, copy=True)
    like = _lag_mixture(clean, y_k, weights, model, k, base)
    return float(like[0]) if single else like


def systematic_resample(weights: np.ndarray, rng: RngStream) -> np.ndarray:
    """Systematic resampling: stratified positions with a single uniform offset.

    Expects normalized weights; returns ancestor indices whose expected
    replication count is ns * w_i.
    """
    weights = np.asarray(weights, dtype=float)
    total = weights.sum()
    if abs(total - 1.0) > 1e-9:
        raise ContractError(f"weights must be normalized, sum = {total!r}")
    ns = len(weights)
    positions = (rng.random() + np.arange(ns)) / ns
    indices = np.searchsorted(np.cumsum(weights), positions)
    return np.clip(indices, 0, ns - 1)


def effective_sample_size(weights: np.ndarray) -> float:
    w = np.asarray(weights, dtype=float)
    return float(1.0 / np.sum(w * w))


def _sir_step(ps, y_k, model, k, rng, weights, loss):
    """One SIR step weighted by a lag mixture plus a loss branch.

    The likelihood is loss * prev_likelihood plus the mixture of
    ``weights`` over the measurement ring (see `_lag_mixture`). Weights
    combine in log space; if every weight underflows to zero the set
    resets to uniform and the step is flagged. Resampling gathers states,
    rings and the likelihood cache by the same ancestors.
    """
    state = model.propagate(ps.state, k, rng)
    clean = np.concatenate([model.measure_clean(state, k)[:, None], ps.clean[:, :-1]], axis=1)

    like = _lag_mixture(clean, y_k, weights, model, k, loss * ps.prev_likelihood)

    with np.errstate(divide="ignore"):
        log_w = np.log(like) + np.log(ps.weights)
    top = log_w.max()
    underflow = not np.isfinite(top)
    if underflow:
        w = np.full(ps.ns, 1.0 / ps.ns)
    else:
        w = np.exp(log_w - top)
        w /= w.sum()

    est = FilterEstimate(mean=w @ state, step=k)

    ancestors = systematic_resample(w, rng)
    mean_like = like.mean()
    diagnostics = StepDiagnostics(
        step=k,
        ess=effective_sample_size(w),
        underflow=underflow,
        log_mean_likelihood=float(np.log(mean_like)) if mean_like > 0 else -np.inf,
        ancestors=ancestors,
        likelihood=like,
    )
    # take copies whole rows; fancy indexing is several times slower on 2-D arrays
    new_ps = ParticleSet(
        state=state.take(ancestors, axis=0),
        clean=clean.take(ancestors, axis=0),
        weights=np.full(ps.ns, 1.0 / ps.ns),
        prev_likelihood=like[ancestors],
        params=ps.params,
        step=k,
        diagnostics=diagnostics,
    )
    return new_ps, est


def filter_step(
    ps: ParticleSet, y_k, model: SystemModel, k: int, rng: RngStream
) -> tuple[ParticleSet, FilterEstimate]:
    """Advance the filter by one delivered measurement.

    Propagates every particle through the transition prior (the proposal,
    so the transition density cancels in the weight), weights by the
    delayed likelihood under the channel's own law p^j (1-p) and p^(N+1),
    estimates, then resamples every step.
    """
    weights, drop = delay_pmf(ps.params)
    return _sir_step(ps, y_k, model, k, rng, weights, drop)


def run_filter(
    ps: ParticleSet, measurements, model: SystemModel, rng: RngStream
) -> tuple[ParticleSet, np.ndarray]:
    """Run `filter_step` over a delivered-measurement sequence.

    Returns the final particle set and the (n_steps, state_dim) estimates.
    """
    means = np.empty((len(measurements), model.state_dim))
    for k, y_k in enumerate(measurements, start=1):
        ps, est = filter_step(ps, y_k, model, k, rng)
        means[k - 1] = est.mean
    return ps, means


def write_step_diagnostics(path, records) -> None:
    """Write per-step diagnostic records as CSV.

    ``records`` is an iterable of (StepDiagnostics, FilterEstimate) pairs.
    """
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["step", "estimate", "ess", "underflow"])
        for diag, est in records:
            mean = np.atleast_1d(est.mean)
            writer.writerow(
                [diag.step, " ".join(str(float(v)) for v in mean),
                 str(float(diag.ess)), int(diag.underflow)]
            )
