"""Output checks for the benchmark workloads.

Each check compares a study's written outputs with a property of the method
or with a computation made apart from the program. None compares with a
stored copy of an earlier output. A check returns ``(name, passed, detail)``.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path

import numpy as np

from delayfilt import experiments
from delayfilt.core import RngStream, derive_seed
from delayfilt.delay_channel import LatencyParams
from delayfilt.filtering import init_filter, run_filter
from delayfilt.identification import repeat_probability

# Band half-widths, justified in README.md from the spread between seeds.
OFFLINE_MEAN_BAND = 0.2
ONLINE_LATE_BAND = 0.2
REPEAT_SIGMAS = 4.0
REPEAT_STEPS = 4000
REFERENCE_TOL = 1e-12


def read_csv(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def rmse_n2(out_dir: Path) -> float:
    """Time-averaged RMSE of the proposed N=2 variant, from its written CSV."""
    return float(np.mean([float(r["rmse"]) for r in read_csv(out_dir / "rmse_proposed_n2.csv")]))


def _on_grid(value: float, step: float) -> bool:
    return abs(value / step - round(value / step)) < 1e-9 and 0.0 <= value <= 1.0


def reference_sir(model, measurements, ns: int, rng: RngStream) -> np.ndarray:
    """A bootstrap SIR filter written apart from the package.

    It shares the model and the draw protocol (the prior draw, one
    propagation draw and one resampling uniform per step), so a stream
    seeded alike stays aligned; weighting, estimation and resampling are
    its own arithmetic.
    """
    x = model.prior_sample(rng, ns)
    means = []
    for k, y in enumerate(measurements, start=1):
        x = model.propagate(x, k, rng)
        w = model.meas_noise_pdf(y - model.measure_clean(x, k), k)
        w = w / w.sum()
        means.append(w @ x)
        positions = (rng.random() + np.arange(ns)) / ns
        x = x[np.minimum(np.searchsorted(np.cumsum(w), positions), ns - 1)]
    return np.asarray(means)


def check_filter(config, out_dir: Path) -> list[tuple[str, bool, str]]:
    results = []
    avg = {}
    dim = config.build_model().state_dim
    for variant in config.variants:
        rows = read_csv(out_dir / f"rmse_{variant.name}.csv")
        keys = [(int(r["step"]), int(r["component"])) for r in rows]
        values = np.array([float(r["rmse"]) for r in rows])
        expected = [(k, c) for k in range(1, config.n_steps + 1) for c in range(dim)]
        results.append((f"rows_{variant.name}", keys == expected,
                         f"{len(rows)} rows, expected {len(expected)}"))
        results.append((f"rmse_{variant.name}_finite_positive",
                         bool(np.all(np.isfinite(values)) and np.all(values > 0)),
                         f"min {values.min():.4g}, max {values.max():.4g}"))
        avg[variant.name] = float(values.mean())
    results.append(("standard_worse_than_n2", avg["standard"] > avg["proposed_n2"],
                    f"standard {avg['standard']:.4f} vs N=2 {avg['proposed_n2']:.4f}"))

    # p = 0, N = 0 must reduce to plain SIR on a delivery sequence of the scenario
    model = config.build_model()
    truth = experiments.generate_truth(config, derive_seed(config.seed, 101))
    stream_seed = derive_seed(config.seed, 102)
    rng = RngStream(stream_seed)
    ps = init_filter(model, LatencyParams(0.0, 0), config.ns, rng)
    _, means = run_filter(ps, truth.y, model, rng)
    ref = reference_sir(model, truth.y, config.ns, RngStream(stream_seed))
    gap = float(np.max(np.abs(means - ref)))
    results.append(("degenerate_equals_reference_sir", gap <= REFERENCE_TOL,
                    f"max |diff| {gap:.2e} over {len(truth.y)} steps, ns {config.ns}"))
    return results


def check_offline(config, out_dir: Path) -> list[tuple[str, bool, str]]:
    rows = read_csv(out_dir / "ident_offline.csv")
    p_hats = [float(r["p_hat"]) for r in rows]
    results = [
        ("one_row_per_ensemble", len(p_hats) == config.ensembles,
         f"{len(p_hats)} rows for {config.ensembles} ensembles"),
        ("p_hat_on_grid", all(_on_grid(p, config.sl) for p in p_hats), f"p_hat {p_hats}"),
    ]
    mean = float(np.mean(p_hats)) if p_hats else math.nan
    results.append(("ensemble_mean_in_band", abs(mean - config.p_true) <= OFFLINE_MEAN_BAND,
                    f"mean {mean:.4f}, p_true {config.p_true} +- {OFFLINE_MEAN_BAND}"))

    # channel simulator against the closed-form repeat probability
    y = experiments.generate_truth(config, derive_seed(config.seed, 103), REPEAT_STEPS).y
    n = len(y) - 1
    share = float(np.mean(y[1:] == y[:-1]))
    prob = repeat_probability(config.true_params())
    sigma = math.sqrt(prob * (1.0 - prob) / n)
    results.append(("repeat_share_matches_closed_form",
                    abs(share - prob) <= REPEAT_SIGMAS * sigma,
                    f"share {share:.4f} vs {prob:.4f} over {n} deliveries, "
                    f"{abs(share - prob) / sigma:.2f} binomial sd"))
    return results


def check_online(config, out_dir: Path) -> list[tuple[str, bool, str]]:
    rows = read_csv(out_dir / "ident_online.csv")
    p_hats = np.array([float(r["p_hat"]) for r in rows])
    running = np.array([float(r["running_avg"]) for r in rows])
    n = config.n_steps
    results = [
        ("one_row_per_step", len(rows) == n and [int(r["step"]) for r in rows]
         == list(range(1, n + 1)), f"{len(rows)} rows for {n} steps"),
        ("p_hat_on_grid", all(_on_grid(p, config.online_sl) for p in p_hats),
         f"{len(set(p_hats.tolist()))} distinct values"),
    ]
    if len(rows) != n:
        return results
    own_average = np.cumsum(p_hats) / np.arange(1, n + 1)
    gap = float(np.max(np.abs(own_average - running)))
    results.append(("running_avg_is_mean_of_p_hat", gap <= 1e-9, f"max |diff| {gap:.2e}"))
    late = float(p_hats[n // 2:].mean())
    results.append(("late_estimate_in_band", abs(late - config.p_true) <= ONLINE_LATE_BAND,
                    f"mean p_hat over steps {n // 2 + 1}..{n} is {late:.4f}, final running "
                    f"average {running[-1]:.4f}, p_true {config.p_true} +- {ONLINE_LATE_BAND}"))
    return results


CHECKS = {"filter": check_filter, "identify-offline": check_offline,
          "identify-online": check_online}
