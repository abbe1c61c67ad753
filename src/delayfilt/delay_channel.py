"""Measurement-delivery channel with Bernoulli-driven random delays.

At each step the channel draws flags b_1..b_{N+1} i.i.d. Bernoulli(p).
The number of leading ones determines the delay: j leading ones with
j <= N delivers the true measurement from j steps ago; N+1 ones means
the packet is lost and the previous delivery is repeated. The same
packet may therefore arrive at the receiver more than once.

The per-step outcome distribution has closed form
P(delay = j) = p^j (1-p) and P(loss) = p^(N+1), exposed by `delay_pmf`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import Probability, RngStream
from .errors import DomainError

__all__ = [
    "LatencyParams",
    "DelayOutcome",
    "DelayChannel",
    "delay_pmf",
    "empirical_delay_histogram",
]


@dataclass(frozen=True)
class LatencyParams:
    """Latency probability p and maximum admissible delay (in steps)."""

    p: Probability
    max_delay: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "p", Probability(self.p))
        object.__setattr__(self, "max_delay", int(self.max_delay))
        if self.max_delay < 0:
            raise DomainError(f"max_delay must be >= 0, got {self.max_delay}")


@dataclass(frozen=True)
class DelayOutcome:
    """What the channel did at one step.

    ``delay`` is the delivered measurement's age in steps (0..max_delay),
    or None when the packet was lost and the previous delivery repeated.
    """

    delay: Optional[int]

    @property
    def dropped(self) -> bool:
        return self.delay is None

    @classmethod
    def delivered(cls, j: int) -> "DelayOutcome":
        if j < 0:
            raise DomainError(f"delay must be >= 0, got {j}")
        return cls(int(j))

    @classmethod
    def drop(cls) -> "DelayOutcome":
        return cls(None)


def delay_pmf(params: LatencyParams) -> tuple[np.ndarray, Probability]:
    """Closed-form per-step outcome distribution.

    Returns (weights, drop) with weights[j] = p^j (1-p) for j = 0..N and
    drop = p^(N+1). The total mass is exactly one.
    """
    p = float(params.p)
    # scalar powers: np.power on an integer array can differ in the last bit
    weights = np.array([p**j * (1.0 - p) for j in range(params.max_delay + 1)])
    return weights, Probability(p ** (params.max_delay + 1))


def _leading_ones(flags: np.ndarray) -> np.ndarray:
    """Per-row count of leading True values; rows of all True count full width."""
    inverted = ~flags
    has_zero = inverted.any(axis=-1)
    first_zero = np.argmax(inverted, axis=-1)
    return np.where(has_zero, first_zero, flags.shape[-1])


class DelayChannel:
    """Stateful simulator of the random-delay delivery process.

    Holds a ring of the last max_delay+1 true measurements (index j is the
    measurement from j steps ago) and the previous delivery. Single-owner
    mutable state; distinct channels may run concurrently.

    Startup: a drawn delay that would reference a measurement older than
    the first one is clamped to the oldest available true measurement, and
    a loss at the very first step delivers that first measurement (so the
    first delivery always exists).
    """

    def __init__(self, params: LatencyParams, rng: RngStream):
        self.params = params
        self.rng = rng
        self.z_buffer: list = []
        self.y_prev = None
        self.step_count = 0

    def step(self, z_k) -> tuple[object, DelayOutcome]:
        """Feed the true measurement for the current step; get the delivery."""
        self.step_count += 1
        self.z_buffer.insert(0, z_k)
        del self.z_buffer[self.params.max_delay + 1:]

        flags = self.rng.random(self.params.max_delay + 1) < float(self.params.p)
        drawn = int(_leading_ones(flags[None, :])[0])

        if drawn <= self.params.max_delay:
            j = min(drawn, len(self.z_buffer) - 1)  # startup clamp
            y_k = self.z_buffer[j]
            outcome = DelayOutcome.delivered(j)
        elif self.y_prev is None:
            y_k = self.z_buffer[-1]  # first step: loss still delivers z_1
            outcome = DelayOutcome.drop()
        else:
            y_k = self.y_prev
            outcome = DelayOutcome.drop()

        self.y_prev = y_k
        return y_k, outcome


def empirical_delay_histogram(
    params: LatencyParams, trials: int, rng: RngStream
) -> tuple[np.ndarray, float]:
    """Outcome frequencies over independent single-step simulations.

    Returns (delivered_freq, drop_freq) shaped like `delay_pmf` output.
    """
    trials = int(trials)
    if trials < 1:
        raise DomainError(f"trials must be >= 1, got {trials}")
    n_flags = params.max_delay + 1
    flags = rng.random((trials, n_flags)) < float(params.p)
    delays = _leading_ones(flags)
    counts = np.bincount(delays, minlength=n_flags + 1)
    freq = counts / trials
    return freq[:n_flags], float(freq[n_flags])
