"""Truth generation, Monte Carlo harness, RMSE, and study drivers.

A ScenarioConfig plus one master seed determines every random draw in a
study, so repeated runs emit byte-identical CSVs. Within a Monte Carlo
run, every filter variant consumes the identical delivered-measurement
sequence, and the variants advance as one bank on the run's one filter
stream: they share the prior draw, each step's propagation noise and each
step's resampling uniform (common random numbers), which pairs their RMSE
comparison. A variant's estimates therefore depend only on its own (p, N),
the run's deliveries and that stream, not on which other variants run
beside it, and identically configured variants reproduce each other
exactly.
"""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np
import yaml

from .core import RngStream, derive_seed
from .delay_channel import DelayChannel, DelayOutcome, LatencyParams
from .errors import ConfigError, ContractError, DelayFiltError
from .filtering import _run_filter_bank
from .identification import (
    GridSpec,
    init_online_identification,
    offline_identify,
    online_identify_step,
)
from .models import BotModel, BotParams, GrowthModel, SystemModel, bot_measure, generate_platform_track

__all__ = [
    "FilterVariant",
    "ScenarioConfig",
    "TruthData",
    "RunMetrics",
    "load_config",
    "generate_truth",
    "rmse",
    "run_monte_carlo",
    "run_identification_study",
    "run_sweep",
    "write_outputs",
]

# Stream roles under the master seed
_ROLE_TRUTH = 0
_ROLE_FILTER = 1
_ROLE_IDENT_TRUTH = 2
_ROLE_IDENT = 3

MODES = ("filter", "identify-offline", "identify-online", "sweep")


@dataclass(frozen=True)
class FilterVariant:
    """One filter configuration to run; p = None means the true latency
    probability (how deliberately-wrong-delay filters are benchmarked)."""

    name: str
    max_delay: int
    p: Optional[float] = None

    def resolve_p(self, p_true: float) -> float:
        return float(p_true if self.p is None else self.p)


DEFAULT_VARIANTS = (
    FilterVariant("standard", max_delay=0, p=0.0),
    FilterVariant("proposed_n1", max_delay=1),
    FilterVariant("proposed_n2", max_delay=2),
)


@dataclass
class ScenarioConfig:
    """Everything one study needs; mirrors the config-file schema."""

    model: str = "growth"
    p_true: float = 0.5
    n_true: int = 2
    ns: int = 1000
    n_steps: int = 50
    mc_runs: int = 100
    ensembles: int = 20
    m: int = 500
    sl: float = 0.01
    online_sl: float = 0.05
    seed: int = 0
    out_dir: Optional[str] = None
    variants: tuple[FilterVariant, ...] = DEFAULT_VARIANTS
    sweep_p: tuple[float, ...] = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)
    sampling_time: float = 0.2
    paper_literal_f: bool = False
    common_random_numbers: bool = False

    def __post_init__(self) -> None:
        if self.model not in ("growth", "bot"):
            raise ConfigError(f"model must be 'growth' or 'bot', got {self.model!r}")
        if self.mc_runs < 1 or self.n_steps < 1 or self.ensembles < 1:
            raise ConfigError("mc_runs, n_steps and ensembles must be >= 1")
        if self.ns < 1:
            raise ConfigError(f"ns must be >= 1, got {self.ns}")
        if self.m < 2:
            raise ConfigError(f"m must be >= 2, got {self.m}")
        self.variants = tuple(
            v if isinstance(v, FilterVariant) else FilterVariant(**v)
            for v in self.variants
        )
        LatencyParams(self.p_true, self.n_true)  # validates

    def true_params(self) -> LatencyParams:
        return LatencyParams(self.p_true, self.n_true)

    def build_model(self) -> SystemModel:
        if self.model == "growth":
            return GrowthModel()
        return BotModel(
            BotParams(
                sampling_time=self.sampling_time,
                paper_literal_f=self.paper_literal_f,
            )
        )


_CONFIG_KEYS = {f.name for f in dataclasses.fields(ScenarioConfig)}
_VARIANT_KEYS = {f.name for f in dataclasses.fields(FilterVariant)}


def load_config(path) -> ScenarioConfig:
    """Parse and strictly validate a YAML config file."""
    try:
        with open(path) as fh:
            raw = yaml.safe_load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    except yaml.YAMLError as exc:
        raise ConfigError(f"cannot parse config file {path}: {exc}") from exc
    if raw is None:
        raw = {}
    if not isinstance(raw, dict):
        raise ConfigError("config file must contain a key-value mapping")
    unknown = set(raw) - _CONFIG_KEYS
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    if "variants" in raw:
        variants = []
        for item in raw["variants"]:
            if not isinstance(item, dict):
                raise ConfigError("each variant must be a key-value mapping")
            bad = set(item) - _VARIANT_KEYS
            if bad:
                raise ConfigError(f"unknown variant keys: {sorted(bad)}")
            variants.append(FilterVariant(**item))
        raw["variants"] = tuple(variants)
    if "sweep_p" in raw:
        raw["sweep_p"] = tuple(float(v) for v in raw["sweep_p"])
    try:
        return ScenarioConfig(**raw)
    except TypeError as exc:
        raise ConfigError(str(exc)) from exc


# ---------------------------------------------------------------------------
# Truth generation
# ---------------------------------------------------------------------------


@dataclass
class TruthData:
    """One simulated trajectory: states, true and delivered measurements."""

    states: np.ndarray            # (n_steps+1, state_dim); row k is x_k
    z: np.ndarray                 # (n_steps,) true measurements, z[k-1] is z_k
    y: np.ndarray                 # (n_steps,) delivered measurements
    outcomes: list[DelayOutcome]
    platform: Optional[object] = None


def generate_truth(config: ScenarioConfig, seed: int, n_steps: Optional[int] = None) -> TruthData:
    """Simulate the system and push its measurements through the channel."""
    n = int(n_steps if n_steps is not None else config.n_steps)
    model = config.build_model()
    rng = RngStream(seed)
    proc = rng.substream(0)
    meas = rng.substream(1)
    chan_rng = rng.substream(2)

    platform = None
    if config.model == "bot":
        platform = generate_platform_track(model.params, n, rng.substream(3))

    states = np.empty((n + 1, model.state_dim))
    states[0] = model.initial_truth(proc)
    z = np.empty(n)
    for k in range(1, n + 1):
        states[k] = model.propagate(states[k - 1][None, :], k, proc)[0]
        if config.model == "bot":
            clean = bot_measure(states[k, 0], (platform.x[k], platform.y[k]))
        else:
            clean = model.measure_clean(states[k][None, :], k)[0]
        z[k - 1] = clean + model.meas_noise_sample(k, meas)

    channel = DelayChannel(config.true_params(), chan_rng)
    y = np.empty(n)
    outcomes = []
    for k in range(1, n + 1):
        y[k - 1], outcome = channel.step(z[k - 1])
        outcomes.append(outcome)
    return TruthData(states=states, z=z, y=y, outcomes=outcomes, platform=platform)


def rmse(estimates, truths) -> np.ndarray:
    """Per-step, per-component RMSE across runs.

    ``estimates`` and ``truths`` are (runs, steps, components) arrays (a
    trailing component axis is added if missing); shapes must match.
    """
    est = np.asarray(estimates, dtype=float)
    tru = np.asarray(truths, dtype=float)
    if est.ndim == 2:
        est = est[:, :, None]
    if tru.ndim == 2:
        tru = tru[:, :, None]
    if est.shape != tru.shape:
        raise ContractError(f"shape mismatch: {est.shape} vs {tru.shape}")
    return np.sqrt(np.mean((est - tru) ** 2, axis=0))


# ---------------------------------------------------------------------------
# Studies
# ---------------------------------------------------------------------------


@dataclass
class RunMetrics:
    """Aggregated study outputs; which fields are filled depends on the mode."""

    per_step_rmse: dict[str, np.ndarray] = field(default_factory=dict)
    avg_rmse: dict[str, np.ndarray] = field(default_factory=dict)
    failed_runs: int = 0
    offline_p_hats: Optional[list[float]] = None
    offline_mean: Optional[float] = None
    online_trace: Optional[np.ndarray] = None   # (steps, 2): p_hat, running avg


def run_monte_carlo(config: ScenarioConfig) -> RunMetrics:
    """Fresh truth per run; every variant filters the same deliveries.

    A run's variants advance as one bank on the run's single filter stream
    (see `filtering._run_filter_bank`), so they are compared on common
    random numbers. A run in which the bank raises is counted as failed and
    left out of every variant's RMSE.
    """
    model = config.build_model()
    params = [LatencyParams(v.resolve_p(config.p_true), v.max_delay) for v in config.variants]
    estimates = []
    truths = []
    failed = 0
    for run in range(config.mc_runs):
        truth = generate_truth(config, derive_seed(config.seed, _ROLE_TRUTH, run))
        rng = RngStream(derive_seed(config.seed, _ROLE_FILTER, run))
        try:
            estimates.append(_run_filter_bank(params, truth.y, model, config.ns, rng))
        except DelayFiltError:
            failed += 1
            continue
        truths.append(truth.states[1:])

    if not truths:
        raise DelayFiltError(f"all {config.mc_runs} Monte Carlo runs failed")
    truths_arr = np.stack(truths)
    estimates_arr = np.stack(estimates)  # (runs, variants, steps, state_dim)
    metrics = RunMetrics(failed_runs=failed)
    for c, variant in enumerate(config.variants):
        series = rmse(estimates_arr[:, c], truths_arr)
        metrics.per_step_rmse[variant.name] = series
        metrics.avg_rmse[variant.name] = series.mean(axis=0)
    return metrics


def run_identification_study(config: ScenarioConfig, mode: str) -> RunMetrics:
    """Offline: one identification per ensemble on fresh data, plus the mean.
    Online: a single per-step trace of argmax and running average."""
    model = config.build_model()
    metrics = RunMetrics()
    if mode == "offline":
        p_hats = []
        failed = 0
        for ens in range(config.ensembles):
            truth = generate_truth(
                config, derive_seed(config.seed, _ROLE_IDENT_TRUTH, ens), n_steps=config.m
            )
            try:
                result = offline_identify(
                    truth.y,
                    GridSpec(config.sl),
                    model,
                    config.n_true,
                    config.ns,
                    derive_seed(config.seed, _ROLE_IDENT, ens),
                    common_random_numbers=config.common_random_numbers,
                )
            except DelayFiltError:
                failed += 1
                continue
            p_hats.append(float(result.p_hat))
        if not p_hats:
            raise DelayFiltError("every identification ensemble failed")
        metrics.offline_p_hats = p_hats
        metrics.offline_mean = float(np.mean(p_hats))
        metrics.failed_runs = failed
    elif mode == "online":
        truth = generate_truth(config, derive_seed(config.seed, _ROLE_IDENT_TRUTH, 0))
        state = init_online_identification(
            GridSpec(config.online_sl),
            model,
            config.n_true,
            config.ns,
            derive_seed(config.seed, _ROLE_IDENT, 0),
            common_random_numbers=config.common_random_numbers,
        )
        trace = np.empty((config.n_steps, 2))
        for k in range(1, config.n_steps + 1):
            state, p_hat = online_identify_step(state, truth.y[k - 1], model, k)
            trace[k - 1] = (float(p_hat), state.running_average)
        metrics.online_trace = trace
    else:
        raise ConfigError(f"identification mode must be 'offline' or 'online', got {mode!r}")
    return metrics


def run_sweep(config: ScenarioConfig) -> dict[float, RunMetrics]:
    """Monte Carlo study at each true latency probability on the sweep grid."""
    results = {}
    for p in config.sweep_p:
        cfg = dataclasses.replace(config, p_true=float(p))
        results[float(p)] = run_monte_carlo(cfg)
    return results


# ---------------------------------------------------------------------------
# Output files
# ---------------------------------------------------------------------------


def _config_echo(config: ScenarioConfig) -> dict:
    d = dataclasses.asdict(config)
    d["variants"] = [dataclasses.asdict(v) for v in config.variants]
    d.pop("out_dir")  # identifies the experiment, not where it is written
    return d


def run_id(config: ScenarioConfig, mode: str) -> str:
    payload = json.dumps({"config": _config_echo(config), "mode": mode}, sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()[:12]


def write_manifest(out_dir: Path, config: ScenarioConfig, mode: str, failed_runs: int) -> None:
    lines = [
        f"run_id={run_id(config, mode)}",
        f"mode={mode}",
        f"seed={config.seed}",
        f"failed_runs={failed_runs}",
    ]
    echo = _config_echo(config)
    for key in sorted(echo):
        lines.append(f"config.{key}={json.dumps(echo[key], sort_keys=True)}")
    (out_dir / "manifest").write_text("\n".join(lines) + "\n")


def _write_csv(path: Path, header: list[str], rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def write_outputs(out_dir, config: ScenarioConfig, mode: str, result) -> None:
    """Write the fixed CSV outputs for a study plus its manifest.

    The manifest counts the Monte Carlo runs or identification ensembles
    that failed and were left out of the averages (summed over the p
    values for a sweep).
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    if mode == "filter":
        for name, series in result.per_step_rmse.items():
            rows = [
                (step + 1, comp, str(float(series[step, comp])))
                for step in range(series.shape[0])
                for comp in range(series.shape[1])
            ]
            _write_csv(out / f"rmse_{name}.csv", ["step", "component", "rmse"], rows)
    elif mode == "identify-offline":
        rows = [(ens, str(float(p))) for ens, p in enumerate(result.offline_p_hats)]
        _write_csv(out / "ident_offline.csv", ["ensemble", "p_hat"], rows)
    elif mode == "identify-online":
        rows = [
            (k + 1, str(float(row[0])), str(float(row[1])))
            for k, row in enumerate(result.online_trace)
        ]
        _write_csv(out / "ident_online.csv", ["step", "p_hat", "running_avg"], rows)
    elif mode == "sweep":
        rows = []
        for p_true in sorted(result):
            metrics = result[p_true]
            for name in metrics.avg_rmse:
                for comp, value in enumerate(metrics.avg_rmse[name]):
                    rows.append((str(float(p_true)), name, comp, str(float(value))))
        _write_csv(out / "sweep.csv", ["p_true", "variant", "component", "avg_rmse"], rows)
    else:
        raise ConfigError(f"unknown mode {mode!r}")
    if mode == "sweep":
        failed_runs = sum(metrics.failed_runs for metrics in result.values())
    else:
        failed_runs = result.failed_runs
    write_manifest(out, config, mode, failed_runs)
