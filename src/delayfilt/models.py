"""System models: the pluggable state-space interface and two benchmarks.

Both benchmark models are scalar-measurement nonlinear systems:

* a univariate non-stationary growth model
      x_k = 0.5 x_{k-1} + 25 x_{k-1}/(1+x_{k-1}^2) + 8 cos(1.2 k) + q_{k-1}
      z_k = x_k^2 / 20 + v_k
  with q ~ N(0, 10), v ~ N(0, 1) and prior x_0 ~ N(0, 1);

* a bearing-only tracking (BOT) model where a target moving along the
  X axis with near-constant velocity is observed as the angle
      z_k = atan2(y_platform_k, x1_k - x_platform_k) + v_k
  from a moving sensor platform whose own position is noisy.

Filters evaluate the BOT measurement function at the *mean* platform
position; the realized platform noise only enters truth generation, so
it acts as unmodeled measurement error, which is how the benchmark is
posed.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass, field

import numpy as np

from .core import RngStream, _normal_logpdf, _normal_pdf
from .errors import DomainError

__all__ = [
    "SystemModel",
    "GrowthModelParams",
    "GrowthModel",
    "BotParams",
    "BotModel",
    "PlatformTrack",
    "growth_mean",
    "growth_propagate",
    "growth_measure",
    "bot_transition_matrix",
    "bot_mean",
    "bot_propagate",
    "bot_measure",
    "generate_platform_track",
    "wrap_angle",
]


_TWO_PI = 2.0 * np.pi


def _wrap_to_pi(theta):
    """Wrap angles to [-pi, pi); enough for a density that is even in the angle.

    The result is ``remainder(theta + pi, 2 pi) - pi``, bit for bit, but the
    remainder runs only when some shifted angle lies outside [0, 2 pi). On
    that range it is the identity: fmod(a, b) is exact and equals a when
    0 <= a < b. The ``+ pi ... - pi`` round trip stays, since it is what
    moves the low bits of an angle that needs no wrap. NaN passes the range
    test and propagates; +-inf fail it and take the remainder, as before.
    """
    shifted = np.asarray(theta, dtype=float) + np.pi
    if ((shifted < 0.0) | (shifted >= _TWO_PI)).any():
        shifted = np.remainder(shifted, _TWO_PI)
    shifted -= np.pi
    return shifted


def wrap_angle(theta):
    """Wrap angles to (-pi, pi]."""
    wrapped = _wrap_to_pi(theta)
    wrapped = np.where(wrapped == -np.pi, np.pi, wrapped)
    return float(wrapped) if np.ndim(theta) == 0 else wrapped


class SystemModel(ABC):
    """Contract a state-space model must satisfy to be filtered.

    States are arrays of shape (n, state_dim); measurements are scalar.
    `measure_clean` must be deterministic and `meas_noise_pdf` a valid
    density in the residual.
    """

    state_dim: int
    meas_dim: int = 1

    @abstractmethod
    def propagate(self, x: np.ndarray, k: int, rng: RngStream) -> np.ndarray:
        """Advance states one step to index k, process noise included.

        Draw contract: every noise draw is row-major. Its ``size`` leads
        with the n rows of ``x``, its parameters are scalars, and row i of
        the result depends only on ``x[i]`` and row i of the draws. The
        candidate bank relies on this to advance all its filters in one
        call, handing each filter the draws of its own stream.
        """

    @abstractmethod
    def measure_clean(self, x: np.ndarray, k: int) -> np.ndarray:
        """Noiseless measurement of each state at step k; shape (n,)."""

    @abstractmethod
    def meas_noise_pdf(self, residual: np.ndarray, k: int) -> np.ndarray:
        """Measurement-noise density evaluated at each residual."""

    @abstractmethod
    def meas_noise_logpdf(self, residual: np.ndarray, k: int) -> np.ndarray:
        """Log form of :meth:`meas_noise_pdf`."""

    @abstractmethod
    def meas_noise_sample(self, k: int, rng: RngStream, size=None):
        """Draw measurement noise for step k."""

    @abstractmethod
    def prior_sample(self, rng: RngStream, n: int) -> np.ndarray:
        """Draw n initial states from the filter prior; shape (n, state_dim)."""

    @abstractmethod
    def initial_truth(self, rng: RngStream) -> np.ndarray:
        """The true initial state for simulation; shape (state_dim,)."""


# ---------------------------------------------------------------------------
# Univariate non-stationary growth model
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GrowthModelParams:
    process_var: float = 10.0
    meas_var: float = 1.0
    prior_mean: float = 0.0
    prior_var: float = 1.0

    def __post_init__(self) -> None:
        if self.process_var <= 0 or self.meas_var <= 0 or self.prior_var <= 0:
            raise DomainError("growth model variances must be > 0")


def growth_mean(x, k: int):
    """Deterministic part of the growth-model state transition to step k.

    Evaluates 0.5 x + 25 x / (1 + x^2) + 8 cos(1.2 k) with the rounding of
    that expression, in two buffers.
    """
    x = np.asarray(x, dtype=float)
    den = np.multiply(x, x, out=np.empty(x.shape))
    den += 1.0
    out = np.multiply(25.0, x, out=np.empty(x.shape))
    out /= den
    out += np.multiply(0.5, x, out=den)
    out += 8.0 * math.cos(1.2 * k)
    return float(out) if out.ndim == 0 else out


def growth_propagate(x, k: int, rng: RngStream, process_var: float = 10.0):
    """One state transition of the growth model, process noise included."""
    x = np.asarray(x, dtype=float)
    noise = rng.normal(0.0, math.sqrt(process_var), size=x.shape if x.ndim else None)
    out = growth_mean(x, k)
    out += noise
    return float(out) if np.ndim(out) == 0 else out


def growth_measure(x):
    """Clean growth-model measurement x^2 / 20 (even in x)."""
    x = np.asarray(x, dtype=float)
    out = x * x
    out /= 20.0
    return float(out) if out.ndim == 0 else out


class GrowthModel(SystemModel):
    """The univariate growth benchmark wrapped as a SystemModel."""

    state_dim = 1

    def __init__(self, params: GrowthModelParams | None = None):
        self.params = params if params is not None else GrowthModelParams()

    def propagate(self, x, k, rng):
        p = self.params
        return growth_propagate(x[:, 0], k, rng, p.process_var)[:, None]

    def measure_clean(self, x, k):
        return growth_measure(x[:, 0])

    def meas_noise_pdf(self, residual, k):
        return _normal_pdf(residual, 0.0, self.params.meas_var)

    def meas_noise_logpdf(self, residual, k):
        return _normal_logpdf(residual, 0.0, self.params.meas_var)

    def meas_noise_sample(self, k, rng, size=None):
        return rng.normal(0.0, math.sqrt(self.params.meas_var), size)

    def prior_sample(self, rng, n):
        p = self.params
        return rng.normal(p.prior_mean, math.sqrt(p.prior_var), size=(n, 1))

    def initial_truth(self, rng):
        return self.prior_sample(rng, 1)[0]


# ---------------------------------------------------------------------------
# Bearing-only tracking
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BotParams:
    """Bearing-only tracking scenario parameters.

    ``paper_literal_f`` switches the velocity row of the transition matrix
    from the standard constant-velocity form [0, 1] to the printed [0, T]
    variant, which makes velocity decay geometrically. ``meas_var`` (rad^2),
    the transition matrix ``transition`` (F) and the noise gain
    ``noise_gain`` (G) are derived from the fields at construction.
    """

    sampling_time: float = 0.2
    platform_noise_var: float = 1.0          # each platform coordinate, m^2
    process_var: float = 0.01                # target acceleration noise, m^2/s^4
    bearing_noise_deg: float = 3.0
    x0_true: tuple[float, float] = (80.0, 1.0)
    prior_var: tuple[float, float] = (1.0, 0.1)
    platform_speed: float = 4.0              # mean platform x position is speed*k*T
    platform_y: float = 20.0
    paper_literal_f: bool = False
    meas_var: float = field(init=False)
    transition: np.ndarray = field(init=False, repr=False, compare=False)
    noise_gain: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.sampling_time <= 0:
            raise DomainError("sampling_time must be > 0")
        if min(self.platform_noise_var, self.process_var) <= 0 or min(self.prior_var) <= 0:
            raise DomainError("BOT variances must be > 0")
        # degrees -> radians once, here; all internal angles are radians
        object.__setattr__(self, "meas_var", math.radians(self.bearing_noise_deg) ** 2)
        # F and G are built once here, not on every transition
        t = self.sampling_time
        f = bot_transition_matrix(t, self.paper_literal_f)
        g = np.array([0.5 * t * t, t])
        f.flags.writeable = g.flags.writeable = False
        object.__setattr__(self, "transition", f)
        object.__setattr__(self, "noise_gain", g)


@dataclass(frozen=True)
class PlatformTrack:
    """Realized (noisy) platform coordinates and their means, indexed by step."""

    x: np.ndarray
    y: np.ndarray
    x_mean: np.ndarray
    y_mean: np.ndarray

    def __len__(self) -> int:
        return len(self.x)


def bot_transition_matrix(sampling_time: float, paper_literal: bool = False) -> np.ndarray:
    t = float(sampling_time)
    return np.array([[1.0, t], [0.0, t if paper_literal else 1.0]])


def bot_mean(x, params: BotParams):
    """Deterministic part of the target transition, F @ x, for (2,) or (n, 2) states.

    Computed elementwise, one output column at a time as
    x0 F[i, 0] + x1 F[i, 1], so each row gets the same bits whatever the
    number of rows (a BLAS product need not).
    """
    f = params.transition
    x = np.asarray(x, dtype=float)
    x0, x1 = x[..., 0], x[..., 1]
    out = np.empty(x.shape)
    for i in range(2):
        np.multiply(x0, f[i, 0], out=out[..., i])
        out[..., i] += x1 * f[i, 1]
    return out


def bot_propagate(x, params: BotParams, rng: RngStream):
    """One target transition F x + G q with scalar acceleration noise q."""
    g = params.noise_gain
    x = np.asarray(x, dtype=float)
    n = x.shape[0] if x.ndim == 2 else None
    q = rng.normal(0.0, math.sqrt(params.process_var), size=n)
    out = bot_mean(x, params)
    for i in range(2):
        out[..., i] += q * g[i]
    return out


def bot_measure(x1, platform):
    """Full-quadrant bearing from the platform to the target, in (-pi, pi].

    ``platform`` is an (x, y) pair; either argument may be an array.
    Raises DomainError when target and platform coincide with y = 0.
    """
    x_tp, y_tp = platform
    dx = np.asarray(x1, dtype=float) - np.asarray(x_tp, dtype=float)
    y_tp = np.asarray(y_tp, dtype=float)
    # atan2(y > 0, .) lies in (0, pi]: neither the test nor the fix-up can act
    above = bool((y_tp > 0.0).all())
    if not above and np.any((dx == 0.0) & (y_tp == 0.0)):
        raise DomainError("bearing undefined: target coincides with platform")
    theta = np.arctan2(y_tp, dx)
    if not above:
        theta = np.where(theta == -np.pi, np.pi, theta)
    return float(theta) if theta.ndim == 0 else theta


def generate_platform_track(
    params: BotParams, n_steps: int, rng: RngStream
) -> PlatformTrack:
    """Noisy platform coordinates for steps 0..n_steps inclusive."""
    if n_steps < 1:
        raise DomainError(f"n_steps must be >= 1, got {n_steps}")
    k = np.arange(n_steps + 1)
    x_mean = params.platform_speed * k * params.sampling_time
    y_mean = np.full(n_steps + 1, params.platform_y)
    std = math.sqrt(params.platform_noise_var)
    x = x_mean + rng.normal(0.0, std, size=n_steps + 1)
    y = y_mean + rng.normal(0.0, std, size=n_steps + 1)
    return PlatformTrack(x=x, y=y, x_mean=x_mean, y_mean=y_mean)


class BotModel(SystemModel):
    """Bearing-only tracking wrapped as a SystemModel.

    The filter-side measurement uses mean platform positions; bearing
    residuals are wrapped into [-pi, pi) before density evaluation so that
    measurements near the +-pi cut do not produce 2*pi-sized residuals.
    """

    state_dim = 2

    def __init__(self, params: BotParams | None = None):
        self.params = params if params is not None else BotParams()

    def platform_mean(self, k: int) -> tuple[float, float]:
        p = self.params
        return (p.platform_speed * k * p.sampling_time, p.platform_y)

    def propagate(self, x, k, rng):
        return bot_propagate(x, self.params, rng)

    def measure_clean(self, x, k):
        return bot_measure(x[:, 0], self.platform_mean(k))

    def meas_noise_pdf(self, residual, k):
        return _normal_pdf(_wrap_to_pi(residual), 0.0, self.params.meas_var)

    def meas_noise_logpdf(self, residual, k):
        return _normal_logpdf(_wrap_to_pi(residual), 0.0, self.params.meas_var)

    def meas_noise_sample(self, k, rng, size=None):
        return rng.normal(0.0, math.sqrt(self.params.meas_var), size)

    def prior_sample(self, rng, n):
        p = self.params
        mean = np.asarray(p.x0_true)
        std = np.sqrt(np.asarray(p.prior_var))
        return mean + rng.normal(0.0, 1.0, size=(n, 2)) * std

    def initial_truth(self, rng):
        return np.array(self.params.x0_true, dtype=float)
