"""Maximum-likelihood identification of the latency probability.

A grid of candidate probabilities is scored by running one particle
filter per candidate over the delivered measurements and accumulating
each candidate's log-likelihood step by step, with the smooth part of
each increment estimated as log((1/ns) sum_i likelihood_i) over that
candidate's particles. Offline identification returns the argmax after a
fixed batch of m measurements; online identification re-takes the argmax
after every step and smooths it with a running average.

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

import csv
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .core import Probability, RngStream
from .delay_channel import LatencyParams
from .errors import ConfigError, DomainError, IdentificationError
from .filtering import ParticleSet, _sir_step, init_filter
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
    "write_ll_curve",
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
    """One particle filter and cumulative log-likelihood per candidate.

    Every candidate filter consumes the identical measurement sequence;
    their random streams are derived per candidate unless common random
    numbers were requested at initialization. ``age_weights`` and
    ``repeat_probs`` hold each candidate's `content_age_weights` and
    `repeat_probability`, which depend on nothing else. ``prev_measurement``
    is the last delivery processed, used to detect exact repeats.
    """

    candidates: np.ndarray
    filters: list[ParticleSet]
    log_likelihoods: np.ndarray
    rngs: list[RngStream]
    age_weights: list[np.ndarray]
    repeat_probs: list[float]
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
    """Per-step identification state: candidate filters plus argmax history."""

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
    """Spawn one filter per grid candidate.

    Each candidate gets a stream derived from (seed, candidate index), so
    refining the grid never perturbs existing candidates; with
    ``common_random_numbers`` all candidates share identical draws, which
    reduces argmax variance.
    """
    base = RngStream(seed)
    candidates = np.asarray(grid.candidates, dtype=float)
    filters = []
    rngs = []
    age_weights = []
    repeat_probs = []
    for idx, p_c in enumerate(candidates):
        params = LatencyParams(p_c, max_delay)
        rng = base.substream(0 if common_random_numbers else idx)
        filters.append(init_filter(model, params, ns, rng))
        rngs.append(rng)
        age_weights.append(content_age_weights(params))
        repeat_probs.append(repeat_probability(params))
    return CandidateFilterState(
        candidates=candidates,
        filters=filters,
        log_likelihoods=np.zeros(len(candidates)),
        rngs=rngs,
        age_weights=age_weights,
        repeat_probs=repeat_probs,
    )


def ll_step(
    cand: CandidateFilterState,
    y_k,
    model: SystemModel,
    k: int,
    accumulate: bool = True,
    undelayed: bool = False,
) -> CandidateFilterState:
    """Advance every candidate filter one step and accumulate its score.

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
    likelihood underflows to zero sends that candidate's score to -inf,
    eliminating it; the filter itself resets to uniform and continues.
    """
    is_repeat = (
        cand.prev_measurement is not None
        and bool(np.all(np.asarray(y_k) == np.asarray(cand.prev_measurement)))
    )
    for idx in range(len(cand.candidates)):
        weights = (1.0,) if undelayed else cand.age_weights[idx]
        new_ps, _ = _sir_step(cand.filters[idx], y_k, model, k, cand.rngs[idx], weights, 0.0)
        if accumulate:
            p_rep = cand.repeat_probs[idx]
            with np.errstate(divide="ignore"):
                if is_repeat:
                    increment = np.log(p_rep)
                else:
                    increment = np.log1p(-p_rep) + new_ps.diagnostics.log_mean_likelihood
            cand.log_likelihoods[idx] += increment
        cand.filters[idx] = new_ps
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

    Ties break toward the lowest candidate. Raises IdentificationError if
    every candidate's log-likelihood is -inf.
    """
    y = np.asarray(measurements, dtype=float)
    if len(y) < 2:
        raise ConfigError(f"identification needs >= 2 measurements, got {len(y)}")
    cand = init_candidate_filters(grid, model, max_delay, ns, seed, common_random_numbers)
    cand = ll_step(cand, y[0], model, k=1, accumulate=False, undelayed=True)
    for k in range(2, len(y) + 1):
        cand = ll_step(cand, y[k - 1], model, k)
    lls = cand.log_likelihoods
    if not np.any(np.isfinite(lls)):
        raise IdentificationError("all candidates scored -inf; cannot identify")
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
    so far, including that one.
    """
    state.cand = ll_step(
        state.cand, y_k, model, k, accumulate=(k >= 2), undelayed=(k == 1)
    )
    idx = int(np.argmax(state.cand.log_likelihoods))
    p_hat = Probability(state.cand.candidates[idx])
    state.estimates.append(float(p_hat))
    state.running_average = float(np.mean(state.estimates))
    return state, p_hat


def write_ll_curve(path, result: IdentificationResult, label=0) -> None:
    """Export an identification trace as CSV (label, p, L_p, p_hat)."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["ensemble", "p", "L_p", "p_hat"])
        for p_c, ll in result.curve:
            writer.writerow([label, float(p_c), float(ll), float(result.p_hat)])
