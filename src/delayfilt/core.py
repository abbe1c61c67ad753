"""Shared numeric primitives.

A probability type, unchecked vectorized normal densities for the model
hot paths, and a reproducible seeded random-stream abstraction used
everywhere randomness is consumed.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError

_LOG_TWO_PI = math.log(2.0 * math.pi)


class Probability(float):
    """A float constrained to [0, 1].

    Construction outside the closed unit interval (including NaN) raises
    :class:`~delayfilt.errors.DomainError`.
    """

    __slots__ = ()

    def __new__(cls, value) -> "Probability":
        v = float(value)
        if not 0.0 <= v <= 1.0:
            raise DomainError(f"probability must lie in [0, 1], got {value!r}")
        return super().__new__(cls, v)


class RngStream:
    """Deterministic pseudo-random stream derived from a 64-bit seed.

    Two streams built from the same (seed, path) produce bitwise-identical
    draw sequences. Independent child streams are derived with
    :meth:`substream`; children never overlap their parent or siblings.
    A stream is owned by one consumer at a time (it is stateful).
    """

    __slots__ = ("seed", "path", "_gen")

    def __init__(self, seed: int, path: tuple[int, ...] = ()):
        seed = int(seed)
        if not 0 <= seed < 2**64:
            raise DomainError(f"seed must be an unsigned 64-bit integer, got {seed}")
        self.seed = seed
        self.path = tuple(int(i) for i in path)
        ss = np.random.SeedSequence(entropy=self.seed, spawn_key=self.path)
        self._gen = np.random.Generator(np.random.PCG64(ss))

    def substream(self, *ids: int) -> "RngStream":
        """Derive an independent stream identified by (seed, path + ids)."""
        return RngStream(self.seed, self.path + ids)

    def random(self, size=None):
        """Uniform draws on [0, 1)."""
        return self._gen.random(size)

    def normal(self, loc=0.0, scale=1.0, size=None):
        return self._gen.normal(loc, scale, size)

    def __repr__(self) -> str:
        return f"RngStream(seed={self.seed}, path={self.path})"


def derive_seed(seed: int, *ids: int) -> int:
    """Derive a child 64-bit seed from a master seed and an integer path.

    Deterministic, and stable against adding unrelated sibling paths.
    """
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(int(i) for i in ids))
    return int(ss.generate_state(1, np.uint64)[0])


def _normal_pdf(x, mean, variance):
    """Unchecked vectorized normal density (hot path)."""
    d = np.asarray(x, dtype=float) - mean
    return np.exp(-0.5 * d * d / variance) / np.sqrt(2.0 * math.pi * variance)


def _normal_logpdf(x, mean, variance):
    d = np.asarray(x, dtype=float) - mean
    return -0.5 * (d * d / variance + _LOG_TWO_PI + math.log(variance))
