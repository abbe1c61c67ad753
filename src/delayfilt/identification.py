"""Maximum-likelihood identification of the latency probability.

A grid of candidate probabilities is scored by a bank of particle
filters, one row per candidate, stacked on a leading candidate axis
(`CandidateFilterState`). One batched SIR step advances every row over
the delivered measurement and accumulates each candidate's
log-likelihood, with the smooth part of each increment estimated as
log((1/ns) sum_i likelihood_i) over that row's particles. Each row draws
from its own random stream, or all rows from one shared stream under
common random numbers, in the order a filter of its own would draw, so
the scores equal those of one separate filter per candidate.
Offline identification returns the argmax after a fixed batch of m
measurements; online identification re-takes the argmax after every step
and smooths it with a running average.

Scoring likelihood. The channel delivers a measurement whose law mixes a
continuous part (fresh content observed through fresh noise) with atoms
(a loss repeats the previous delivery exactly, and a delayed packet can
re-deliver the previous content exactly). The score treats the two parts
on their own dominating measures:

* a delivery exactly equal to the previous one scores the closed-form
  repeat probability (see `repeat_probability`);
* any other delivery scores (1 - P(repeat)) times a smooth mixture over
  the delay hypotheses j = 0..N that can produce non-repeat content,
  with weights conditional on the step not being a repeat (see
  `content_age_weights`); every term evaluates the *current* measurement
  against the matching stored clean measurement, pdf(y_k - h_{k-j}(x_{k-j})).
  This is the filter's lag mixture with other weights and no loss branch.

Feeding the filter's raw likelihood recursion into the score instead
would let the cached loss-branch value act as a measurement-independent
"safe harbor" whose magnitude rivals the best fresh density on every
step, driving the argmax to p = 1 for any data; the decomposed form
restores an interior maximum.

The first delivered measurement is treated as undelayed and carries no
information about the latency probability: it is excluded from the
accumulation and processed with the plain no-delay likelihood.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .core import Probability, RngStream
from .delay_channel import LatencyParams
from .errors import ConfigError, DomainError, IdentificationError
from .filtering import _check_deliveries, _init_bank, _sir_step
from .models import SystemModel

__all__ = [
    "GridSpec",
    "CandidateFilterState",
    "IdentificationResult",
    "OnlineIdentState",
    "content_age_weights",
    "repeat_probability",
    "init_candidate_filters",
    "ll_step",
    "offline_identify",
    "init_online_identification",
    "online_identify_step",
]


@dataclass(frozen=True)
class GridSpec:
    """Candidate grid {0, sl, 2*sl, ...} capped at 1."""

    sl: float
    candidates: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        if not 0.0 < self.sl <= 1.0:
            raise DomainError(f"grid step must lie in (0, 1], got {self.sl}")
        if not self.candidates:
            n = int(np.floor(1.0 / self.sl + 1e-9))
            cands = tuple(round(i * self.sl, 12) for i in range(n + 1))
            object.__setattr__(self, "candidates", cands)
        if any(not 0.0 <= c <= 1.0 for c in self.candidates):
            raise DomainError("grid candidates must lie in [0, 1]")

    @classmethod
    def from_candidates(cls, candidates: Sequence[float]) -> "GridSpec":
        """Grid with an explicit candidate list (order preserved)."""
        return cls(sl=1.0, candidates=tuple(float(c) for c in candidates))


def _stationary_age_probability(p: float, n: int, d: int) -> float:
    """Stationary probability that delivered content is d steps old.

    Content of age d arises from a delivery delayed j <= n steps followed
    by l consecutive losses (d = j + l), each loss multiplying p^(n+1).
    """
    q = p ** (n + 1)
    return sum(
        q**losses * p ** (d - losses) * (1.0 - p)
        for losses in range(d + 1)
        if d - losses <= n
    )


def content_age_weights(params: LatencyParams) -> np.ndarray:
    """Content-age distribution of a delivery given it is not a repeat.

    A non-repeat delivery is a fresh packet of delay j <= N that does not
    duplicate the previous content (a duplicate needs the previous content
    to be exactly j-1 old), so

        w_j  proportional to  p^j (1-p) (1 - P(age = j-1)),   j = 0..N,

    which sums to 1 - P(repeat) before normalization. Content older than N
    can only arrive by repeating the previous delivery. At p = 1 every
    delivery is a repeat; the zero-delay point mass is returned as the
    vacuous limit.
    """
    p = float(params.p)
    n = params.max_delay
    w = np.zeros(n + 1)
    for j in range(n + 1):
        not_duplicate = 1.0 if j == 0 else 1.0 - _stationary_age_probability(p, n, j - 1)
        w[j] = p**j * (1.0 - p) * not_duplicate
    total = w.sum()
    if total == 0.0:
        w[0] = 1.0
        total = 1.0
    return w / total


def repeat_probability(params: LatencyParams) -> float:
    """Probability that a delivery exactly equals the previous one.

    Consecutive deliveries coincide when the packet is lost (the previous
    delivery is repeated) or when a delayed packet re-delivers the same
    content (a duplicate: previous content of age d arriving again needs
    delay d+1 <= N). Ages are taken at their stationary distribution, so

        P(repeat) = p^(N+1) + sum_{d=0..N-1} P(age = d) p^(d+1) (1-p).
    """
    p = float(params.p)
    n = params.max_delay
    prob = p ** (n + 1)
    for d in range(n):  # duplicate paths need age d <= N-1
        prob += _stationary_age_probability(p, n, d) * p ** (d + 1) * (1.0 - p)
    return prob


@dataclass
class CandidateFilterState:
    """A bank of particle filters, one row per grid candidate, and their scores.

    Row c of ``state`` (C, ns, state_dim) and of the clean-measurement ring
    ``clean`` (C, ns, N+1) is candidate c's particle set; every step
    resamples, so its weights are uniform between steps. The bank stores
    the ring lag-major, as an (N+1, C, ns) array whose row j is lag j of
    every particle of every candidate; ``clean`` is its view with the lag
    axis moved last, and a ring built in (C, ns, N+1) C order works as
    well. Every row consumes the identical measurement sequence. ``rngs``
    holds one stream per candidate, ``rngs[c]`` for row c, or, under
    common random numbers, a single stream whose draws every row shares.
    ``age_weights`` (C, N+1) and ``repeat_probs`` (C,) hold each
    candidate's `content_age_weights` and `repeat_probability`, which
    depend on nothing else. ``prev_measurement`` is the last delivery
    processed, used to detect exact repeats.
    """

    candidates: np.ndarray
    state: np.ndarray
    clean: np.ndarray
    log_likelihoods: np.ndarray
    rngs: list[RngStream]
    age_weights: np.ndarray
    repeat_probs: np.ndarray
    step: int = 0
    prev_measurement: object = None


@dataclass(frozen=True)
class IdentificationResult:
    """Argmax of the log-likelihood curve over the candidate grid."""

    p_hat: Probability
    log_likelihood_max: float
    curve: tuple[tuple[float, float], ...]  # (candidate p, L_p)


@dataclass
class OnlineIdentState:
    """Per-step identification state: the candidate bank plus argmax history."""

    cand: CandidateFilterState
    estimates: list[float] = field(default_factory=list)
    running_average: float = 0.0


def init_candidate_filters(
    grid: GridSpec,
    model: SystemModel,
    max_delay: int,
    ns: int,
    seed: int,
    common_random_numbers: bool = False,
) -> CandidateFilterState:
    """Stack one filter per grid candidate into a bank.

    Each candidate gets a stream derived from (seed, candidate index), so
    refining the grid never perturbs existing candidates. With
    ``common_random_numbers`` the bank keeps the single stream
    (seed, 0), draws the prior once and gives every candidate a copy, so
    all candidates share identical draws, which reduces argmax variance.
    """
    base = RngStream(seed)
    candidates = np.asarray(grid.candidates, dtype=float)
    params = [LatencyParams(p_c, max_delay) for p_c in candidates]
    rngs = [base.substream(idx) for idx in range(1 if common_random_numbers else len(params))]
    state, ring = _init_bank(model, max_delay, ns, rngs, len(params))
    return CandidateFilterState(
        candidates=candidates,
        state=state,
        clean=np.moveaxis(ring, 0, -1),
        log_likelihoods=np.zeros(len(candidates)),
        rngs=rngs,
        age_weights=np.stack([content_age_weights(prm) for prm in params]),
        repeat_probs=np.array([repeat_probability(prm) for prm in params]),
    )


def ll_step(
    cand: CandidateFilterState,
    y_k,
    model: SystemModel,
    k: int,
    accumulate: bool = True,
    undelayed: bool = False,
) -> CandidateFilterState:
    """Advance every candidate one batched SIR step and accumulate its score.

    A delivery that exactly equals the previous one is a repeat event (a
    loss or a duplicate), whose probability is in closed form per
    candidate; such a step scores log P(repeat). Any other step scores
    log(1 - P(repeat)) plus the log of the mean age-mixture density.
    Particle weighting uses the smooth mixture, with no loss branch, on
    every step.

    Repeats are detected by exact float equality with the previous
    delivery, so a sensor that quantizes its output can deliver a fresh
    value equal to the previous one; that step is scored as a repeat, and
    the score is biased toward high latency.

    ``undelayed`` processes the measurement with the plain no-delay
    likelihood (used for the first delivery). A step whose total
    likelihood underflows to zero for a candidate sends that candidate's
    score to -inf, eliminating it; its filter resets to uniform and
    continues, and the other candidates are unaffected.
    """
    is_repeat = (
        cand.prev_measurement is not None
        and bool(np.all(np.asarray(y_k) == np.asarray(cand.prev_measurement)))
    )
    n_cands, ns = cand.state.shape[:2]
    step = _sir_step(
        cand.state, np.moveaxis(cand.clean, -1, 0), np.full(ns, 1.0 / ns),
        np.zeros((n_cands, ns)), y_k, model, k, cand.rngs,
        np.ones(1) if undelayed else cand.age_weights,
    )
    if accumulate:
        with np.errstate(divide="ignore"):
            if is_repeat:
                cand.log_likelihoods += np.log(cand.repeat_probs)
            else:
                cand.log_likelihoods += np.log1p(-cand.repeat_probs) + step.log_mean_likelihood
    cand.state, cand.clean = step.state, np.moveaxis(step.ring, 0, -1)
    cand.step = k
    cand.prev_measurement = y_k
    return cand


def offline_identify(
    measurements,
    grid: GridSpec,
    model: SystemModel,
    max_delay: int,
    ns: int,
    seed: int,
    common_random_numbers: bool = False,
) -> IdentificationResult:
    """Grid-search the latency probability over a fixed measurement batch.

    Ties break toward the lowest candidate. Raises DomainError, before any
    filter work, if a delivery is not finite. A -inf score never recovers,
    so the search stops at the first step where every candidate scores
    -inf and raises IdentificationError naming that step.
    """
    y = np.asarray(measurements, dtype=float)
    if len(y) < 2:
        raise ConfigError(f"identification needs >= 2 measurements, got {len(y)}")
    _check_deliveries(y)
    cand = init_candidate_filters(grid, model, max_delay, ns, seed, common_random_numbers)
    cand = ll_step(cand, y[0], model, k=1, accumulate=False, undelayed=True)
    for k in range(2, len(y) + 1):
        cand = ll_step(cand, y[k - 1], model, k)
        if not np.isfinite(cand.log_likelihoods).any():
            raise IdentificationError(f"all candidates scored -inf at step {k}; cannot identify")
    lls = cand.log_likelihoods
    idx = int(np.argmax(lls))  # the first maximum: ties go to the lowest candidate
    return IdentificationResult(
        p_hat=Probability(cand.candidates[idx]),
        log_likelihood_max=float(lls[idx]),
        curve=tuple(zip((float(c) for c in cand.candidates), (float(v) for v in lls))),
    )


def init_online_identification(
    grid: GridSpec,
    model: SystemModel,
    max_delay: int,
    ns: int,
    seed: int,
    common_random_numbers: bool = False,
) -> OnlineIdentState:
    cand = init_candidate_filters(grid, model, max_delay, ns, seed, common_random_numbers)
    return OnlineIdentState(cand=cand)


def online_identify_step(
    state: OnlineIdentState, y_k, model: SystemModel, k: int
) -> tuple[OnlineIdentState, Probability]:
    """Advance every candidate one step and re-take the argmax.

    At step 1 the scores are still flat, so the argmax falls on the lowest
    candidate; the running average is the mean of all per-step estimates
    so far, including that one. A non-finite delivery raises DomainError
    before any candidate advances. A -inf score never recovers, so once
    every candidate scores -inf the step raises IdentificationError naming
    it, as `offline_identify` does, rather than taking an argmax of nothing.
    """
    if not np.all(np.isfinite(y_k)):
        raise DomainError(f"delivery at step {k} is not finite: {y_k}")
    state.cand = ll_step(
        state.cand, y_k, model, k, accumulate=(k >= 2), undelayed=(k == 1)
    )
    if not np.isfinite(state.cand.log_likelihoods).any():
        raise IdentificationError(f"all candidates scored -inf at step {k}; cannot identify")
    idx = int(np.argmax(state.cand.log_likelihoods))
    p_hat = Probability(state.cand.candidates[idx])
    state.estimates.append(float(p_hat))
    state.running_average = float(np.mean(state.estimates))
    return state, p_hat
