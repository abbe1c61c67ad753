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
The SIR step itself works on a bank of particle sets stacked on a leading
axis: the filter runs it on a one-row bank, identification on one row per
candidate latency probability, and a Monte Carlo run on one row per filter
variant, every row drawing from the run's one stream (common random
numbers), so each row equals the filter of its own on that stream.

Choosing the maximum admissible delay trades off two effects: a small N
loses information when delays are long (the loss branch swallows them),
while a large N lengthens the filter memory and needs more particles to
keep Monte Carlo error in check.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .core import RngStream
from .delay_channel import LatencyParams, delay_pmf
from .errors import ConfigError, ContractError, DomainError, NumericError
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
    states. The filter stores the ring lag-major, as an (N+1, ns) array
    whose row j is lag j for every particle, and ``clean`` is its
    transposed view; a ring built in (ns, N+1) C order works as well.
    ``prev_likelihood`` caches each particle's likelihood from the
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
    ring = np.repeat(model.measure_clean(x0, 1)[None], params.max_delay + 1, axis=0)
    return ParticleSet(
        state=x0,
        clean=ring.T,
        weights=np.full(ns, 1.0 / ns),
        prev_likelihood=np.ones(ns),
        params=params,
        step=0,
    )


def _lag_mixture(lags, y_k, weights, model, k, base):
    """Add sum_j weights[..., j] pdf(y_k - lags[j]) to ``base``, in place.

    ``lags[j]`` is the (..., ns) clean measurement of lag j, so ``lags`` is
    a lag-major (n_lags, ..., ns) ring or a sequence of its rows;
    ``base`` is (..., ns), and the leading axes, if any, are the rows of a
    bank. ``weights`` is (n_lags,), shared by every row, or (C, n_lags),
    one row each. Lag j is scored at step max(k - j, 1), mirroring the
    channel's startup clamp. Each lag's residual and weighted density pass
    through one scratch buffer; the ring and the arrays the model returns
    are only read. A lag whose weights are all zero is skipped, and with
    per-row weights a lag is scored only up to the last row that weights
    it: a zero weight adds 0 * pdf = +0, which leaves the sum's bits
    unchanged, so a bank ordered deepest-first skips what a filter of its
    own would. Raises NumericError on a non-finite result rather than
    letting it propagate.
    """
    scratch = np.empty(base.shape)
    for j in range(weights.shape[-1]):
        weighted = np.flatnonzero(weights[..., j])
        if not weighted.size:
            continue
        rows = slice(weighted[-1] + 1) if weights.ndim > 1 else slice(None)
        out, total = scratch[rows], base[rows]
        np.subtract(y_k, lags[j][rows], out=out)
        pdf = model.meas_noise_pdf(out, max(k - j, 1))
        total += np.multiply(weights[..., j, None][rows], pdf, out=out)
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
    lags = [model.measure_clean(history[:, j], max(k - j, 1)) for j in range(n_hyp)]
    weights, drop = delay_pmf(params)
    base = drop * np.asarray(prev_like, dtype=float)
    base = np.broadcast_to(base, history.shape[:1]).astype(float, copy=True)
    like = _lag_mixture(lags, y_k, weights, model, k, base)
    return float(like[0]) if single else like


def _grid_counts(cumulative: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Count each row's positions (u + i) / ns at or below its cumulative weights.

    ``cumulative`` is (C, ns) and ``offsets`` (C, 1), or (1, 1) for an
    offset every row shares. Returns the (C, ns) counts
    m_j = #{i : pos_i <= c_j}; see `_systematic_rows`.
    """
    ns = cumulative.shape[1]
    counts = cumulative * ns
    counts += 1.0 - offsets
    np.minimum(counts, ns, out=counts)
    np.trunc(counts, out=counts)
    # pos[m-1] and pos[m] are computed as (u + i) / ns, the grid's own
    # arithmetic, so they carry its bits; pos[-1] is negative and never
    # exceeds a weight, and the mask on low makes pos[ns] act as +inf
    edge = np.empty_like(counts)
    while True:
        np.subtract(counts, 1.0, out=edge)
        edge += offsets
        edge /= ns
        high = edge > cumulative
        np.add(counts, offsets, out=edge)
        edge /= ns
        low = edge <= cumulative
        low &= counts < ns
        if not (high.any() or low.any()):
            return counts.astype(np.intp)
        counts -= high
        counts += low


def _systematic_rows(weights: np.ndarray, rngs) -> np.ndarray:
    """Systematic resampling of every row of finite, non-negative (C, ns) weights.

    Row c draws its single uniform offset u from ``rngs[c]``, or every row
    shares the one offset of a single stream, so each row selects exactly
    the ancestors a one-row call with its stream would. Ancestor i is the
    first particle whose cumulative weight c_j reaches the position
    pos_i = (u + i) / ns, clipped to ns - 1: a left-sided binary search of
    each row's cumulative sum. The positions form a uniform grid, so a
    fixed number of passes over the whole bank finds the same ancestors:

    - Count m_j = #{i : pos_i <= c_j}, the positions at or below c_j. In
      exact arithmetic it is floor(ns c_j + 1 - u), whose argument is
      positive, so truncation gives it.
    - Rounding in the estimate and in the positions can leave it one off
      where c_j lies very close to a position. Each count is therefore
      checked against the rounded positions on either side of it, with
      pos[-1] = -inf and pos[ns] = +inf, and moved until
      pos[m-1] <= c_j < pos[m]. These are the search's own comparisons on
      the same bits, so exact ties fall as they did. A count only moves
      towards its target, and on real weights the first check moves none.
    - The last count is forced to ns, which does what the clip to ns - 1
      does when the cumulative sum ends below the last position.
    - Ancestor i is then #{j : m_j <= i}: one bincount of every row's
      counts, then a cumulative sum along each row.
    """
    n_rows, ns = weights.shape
    offsets = np.array([rng.random() for rng in rngs])[:, None]
    counts = _grid_counts(np.cumsum(weights, axis=1), offsets)
    counts[:, -1] = ns
    counts += np.arange(0, n_rows * (ns + 1), ns + 1)[:, None]
    tally = np.bincount(counts.ravel(), minlength=n_rows * (ns + 1)).reshape(n_rows, ns + 1)
    return np.cumsum(tally, axis=1, out=tally)[:, :ns]


def systematic_resample(weights: np.ndarray, rng: RngStream) -> np.ndarray:
    """Systematic resampling: stratified positions with a single uniform offset.

    Expects a 1-D array of finite, non-negative, normalized weights; returns
    ancestor indices whose expected replication count is ns * w_i.
    """
    weights = np.asarray(weights, dtype=float)
    if weights.ndim != 1:
        raise ContractError(f"weights must be 1-D, got shape {weights.shape}")
    if not np.isfinite(weights).all() or (weights < 0).any():
        raise ContractError(f"weights must be finite and non-negative, got {weights!r}")
    total = weights.sum()
    if abs(total - 1.0) > 1e-9:
        raise ContractError(f"weights must be normalized, sum = {total!r}")
    return _systematic_rows(weights[None], (rng,))[0]


class _SirStep(NamedTuple):
    """What `_sir_step` produced for each row of a bank."""

    propagated: np.ndarray          # (C, ns, d) states before resampling
    likelihood: np.ndarray          # (C, ns) before resampling
    weights: np.ndarray             # (C, ns) normalized
    underflow: np.ndarray           # (C,) rows reset to uniform
    log_mean_likelihood: np.ndarray  # (C,) log of each row's mean likelihood
    ancestors: np.ndarray           # (C, ns)
    rows: np.ndarray                # (C*ns,) flat index of each ancestor in the bank
    state: np.ndarray               # (C, ns, d) resampled
    ring: np.ndarray                # (N+1, C, ns) resampled, lag-major


class _RowStreams:
    """The stream that a bank's one `propagate` call on (C*ns, d) rows sees.

    Every draw must be row-major: its leading axis is the C*ns rows, and
    its parameters are scalars. Each block of ns rows gets the values its
    own stream would have drawn for it alone. One shared stream (common
    random numbers) draws a single (ns, ...) block that every row repeats;
    C streams draw one block each, in row order.
    """

    def __init__(self, rngs, n_rows: int, ns: int):
        if len(rngs) not in (1, n_rows):
            raise ContractError(
                f"a bank of {n_rows} rows needs 1 or {n_rows} streams, got {len(rngs)}"
            )
        self._rngs, self._n_rows, self._ns = rngs, n_rows, ns

    def _split(self, draw, size, *params):
        shape = () if size is None else tuple(np.atleast_1d(size).tolist())
        if not shape or shape[0] != self._n_rows * self._ns or any(np.ndim(v) for v in params):
            raise ContractError(
                f"a bank draw needs size ({self._n_rows * self._ns}, ...) and scalar "
                f"parameters, got size {size!r}"
            )
        block = (self._ns,) + shape[1:]
        if len(self._rngs) == 1:
            return np.concatenate([draw(self._rngs[0], block)] * self._n_rows)
        return np.concatenate([draw(rng, block) for rng in self._rngs])

    def normal(self, loc=0.0, scale=1.0, size=None):
        return self._split(lambda rng, block: rng.normal(loc, scale, block), size, loc, scale)

    def random(self, size=None):
        return self._split(lambda rng, block: rng.random(block), size)


def _sir_step(state, ring, prior_weights, base, y_k, model, k, rngs, weights):
    """One SIR step for a bank of C particle sets stacked on a leading axis.

    One `propagate` call moves all C*ns particles; row c draws its noise
    from ``rngs[c]``, or every row from the one stream of common random
    numbers (see `_RowStreams`; a one-row bank draws from its stream
    directly). ``ring`` is the lag-major (N+1, C, ns) measurement ring:
    ``ring[j, c]`` holds row c's clean measurements from j steps ago. Each
    particle scores as ``base[c]`` (the loss branch) plus the mixture of
    ``weights[c]`` over its lags (see `_lag_mixture`), with lag 0 the
    fresh clean measurements and lag j the stored lag j - 1; no shifted
    ring is built. ``weights`` of shape (n_lags,) is shared by every row.
    Each row combines the likelihood with ``prior_weights`` ((C, ns), or
    (ns,) shared by every row) in log space, in one buffer; a row whose
    every weight underflows to zero resets to uniform and is flagged.
    Every row then resamples systematically. States are gathered by the
    same ancestors, and the new ring in one contiguous pass: the fresh
    measurements into its lag 0, the stored lags 0..N-1 into lags 1..N.
    Each stream sees the draws of a filter of its own, in its order: the
    propagation noise, then one resampling uniform.
    """
    n_rows, ns, dim = state.shape
    rng = rngs[0] if n_rows == 1 else _RowStreams(rngs, n_rows, ns)
    flat = model.propagate(state.reshape(n_rows * ns, dim), k, rng)
    state = flat.reshape(n_rows, ns, dim)
    fresh = model.measure_clean(flat, k).reshape(n_rows, ns)
    n_lags = ring.shape[0]

    like = _lag_mixture((fresh, *ring[:-1]), y_k, weights, model, k, base)

    with np.errstate(divide="ignore", invalid="ignore"):
        w = np.log(like)
        w += np.log(prior_weights)
        top = w.max(axis=1, keepdims=True)
        w -= top
        np.exp(w, out=w)
        w /= w.sum(axis=1, keepdims=True)
        log_mean_like = np.log(like.mean(axis=1))
    underflow = ~np.isfinite(top[:, 0])
    w[underflow] = 1.0 / ns

    ancestors = _systematic_rows(w, rngs)
    # take gathers flat rows; fancy indexing is several times slower on 2-D
    # arrays. The ancestors are in range, and mode "clip", unlike "raise",
    # writes straight into ``out`` without buffering it.
    rows = (ancestors + ns * np.arange(n_rows)[:, None]).ravel()
    gathered = np.empty((n_lags, n_rows * ns))
    fresh.reshape(-1).take(rows, out=gathered[0], mode="clip")
    ring[:-1].reshape(n_lags - 1, n_rows * ns).take(
        rows, axis=1, out=gathered[1:], mode="clip"
    )
    return _SirStep(
        propagated=state,
        likelihood=like,
        weights=w,
        underflow=underflow,
        log_mean_likelihood=log_mean_like,
        ancestors=ancestors,
        rows=rows,
        state=flat.take(rows, axis=0).reshape(state.shape),
        ring=gathered.reshape(n_lags, n_rows, ns),
    )


def _filter_bank_step(state, ring, prior_weights, prev_likelihood, drops, y_k, model, k, rngs,
                      weights):
    """One filter step for a bank of C filters that may differ in (p, N).

    Row c scores its loss branch ``drops[c] * prev_likelihood[c]`` plus the
    lag mixture of its channel weights ``weights[c]``, zero-padded to the
    ring's depth (see `_sir_step`), then estimates ``w_c @ x_c`` from its
    propagated particles and carries forward the likelihoods its ancestors
    select. A filter of its own is the one-row bank. Returns the
    `_SirStep`, the (C, d) estimates and the (C, ns) carried likelihoods.
    """
    base = drops[:, None] * prev_likelihood
    step = _sir_step(state, ring, prior_weights, base, y_k, model, k, rngs, weights)
    means = np.stack([w @ x for w, x in zip(step.weights, step.propagated)])
    prev = step.likelihood.reshape(-1).take(step.rows, mode="clip")
    return step, means, prev.reshape(step.likelihood.shape)


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
    step, means, prev = _filter_bank_step(
        ps.state[None], ps.clean.T[:, None], ps.weights, ps.prev_likelihood[None],
        np.array([drop]), y_k, model, k, (rng,), weights,
    )
    w = step.weights[0]
    diagnostics = StepDiagnostics(
        step=k,
        ess=float(1.0 / np.sum(w * w)),
        underflow=bool(step.underflow[0]),
        log_mean_likelihood=float(step.log_mean_likelihood[0]),
        ancestors=step.ancestors[0],
        likelihood=step.likelihood[0],
    )
    new_ps = ParticleSet(
        state=step.state[0],
        clean=step.ring[:, 0].T,
        weights=np.full(ps.ns, 1.0 / ps.ns),
        prev_likelihood=prev[0],
        params=ps.params,
        step=k,
        diagnostics=diagnostics,
    )
    return new_ps, FilterEstimate(mean=means[0], step=k)


def _check_deliveries(y: np.ndarray) -> None:
    """Raise DomainError naming the first step whose delivery is not finite."""
    bad = np.flatnonzero(~np.isfinite(y))
    if bad.size:
        raise DomainError(f"delivery at step {bad[0] + 1} is not finite: {float(y[bad[0]])}")


def run_filter(
    ps: ParticleSet, measurements, model: SystemModel, rng: RngStream
) -> tuple[ParticleSet, np.ndarray]:
    """Run `filter_step` over a delivered-measurement sequence.

    Returns the final particle set and the (n_steps, state_dim) estimates.
    Raises DomainError, before any filter work, if a delivery is not finite.
    """
    _check_deliveries(np.asarray(measurements, dtype=float))
    means = np.empty((len(measurements), model.state_dim))
    for k, y_k in enumerate(measurements, start=1):
        ps, est = filter_step(ps, y_k, model, k, rng)
        means[k - 1] = est.mean
    return ps, means


def _init_bank(model: SystemModel, max_delay: int, ns: int, rngs, n_rows: int):
    """Prior draws of a bank of ``n_rows`` particle sets with (max_delay+1)-deep rings.

    Row c draws as `init_filter` does from ``rngs[c]``; a single stream
    (common random numbers) draws once and every row copies that draw.
    Returns the (C, ns, d) states and the lag-major (N+1, C, ns) ring.
    """
    sets = [init_filter(model, LatencyParams(0.0, max_delay), ns, rng) for rng in rngs]
    copies = n_rows // len(sets)
    state = np.repeat(np.stack([ps.state for ps in sets]), copies, axis=0)
    ring = np.repeat(np.stack([ps.clean.T for ps in sets], axis=1), copies, axis=1)
    return state, ring


def _run_filter_bank(
    params, measurements, model: SystemModel, ns: int, rng: RngStream
) -> np.ndarray:
    """Run one filter per entry of ``params`` over the same deliveries, as one bank.

    Every row shares ``rng``: the bank draws the prior, each step's
    propagation noise and each step's resampling uniform once for all rows
    (common random numbers). Row c therefore equals, bit for bit,
    ``run_filter(init_filter(model, params[c], ns, s), measurements,
    model, s)`` on a stream ``s`` seeded as ``rng``. The rows are advanced
    deepest-first, so `_lag_mixture` scores each lag only on the rows that
    weight it. Returns the (C, n_steps, state_dim) estimates in the order
    of ``params``. Raises DomainError, before any filter work, if a
    delivery is not finite.
    """
    y = np.asarray(measurements, dtype=float)
    _check_deliveries(y)
    if not params:
        return np.empty((0, len(y), model.state_dim))
    order = sorted(range(len(params)), key=lambda c: -params[c].max_delay)
    n_lags = params[order[0]].max_delay + 1
    weights = np.zeros((len(order), n_lags))
    drops = np.empty(len(order))
    for row, c in enumerate(order):
        pmf, drops[row] = delay_pmf(params[c])
        weights[row, :pmf.size] = pmf
    state, ring = _init_bank(model, n_lags - 1, ns, (rng,), len(order))
    prev = np.ones((len(order), ns))
    prior = np.full(ns, 1.0 / ns)
    means = np.empty((len(order), len(y), model.state_dim))
    for k, y_k in enumerate(y, start=1):
        step, means[:, k - 1], prev = _filter_bank_step(
            state, ring, prior, prev, drops, y_k, model, k, (rng,), weights
        )
        state, ring = step.state, step.ring
        del step  # release this step's arrays before the next step makes its own
    return means[np.argsort(order)]
