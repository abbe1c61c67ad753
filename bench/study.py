"""One benchmark run of one workload, in the process that `run.py` starts.

Set-up (imports, config files, `load_config`, and for the online workload the
truth and the candidate filters) ends at a moment on the system-wide
monotonic clock, which `run.py` turns into `setup_s`. Then either:

* untraced (``--trace 0``): whole rounds of the workload's timed study, each
  the same study on the same inputs, until the next round would pass
  ``--seconds``, and at least ``MIN_ROUNDS``; or
* traced (``--trace 1``): one warm-up round, then ``TRACED_ROUNDS`` untraced
  rounds, each followed by a round with a fresh tracer installed. The
  fastest traced round gives the per-layer metrics, and the tracing overhead
  is its time against the fastest untraced round.

A timed round is short, so that a run holds many of them. A fixed reference
kernel, which does not use the package, runs between every two rounds;
`study_ref` is the median over the rounds of each round's time divided
by the mean time of the kernels on either side of it (see README.md). After
the rounds, one larger check study of the same workload runs untimed, and
its outputs are checked (see checks.py).

The package is called in the order ``delayfilt run`` uses: `load_config` in
set-up, then in each round `run_monte_carlo` or `run_identification_study`,
then `write_outputs`. The online workload feeds deliveries one at a time to
`online_identify_step`. The last line of standard output is a JSON object
for `run.py`.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import shutil
import sys
import time
from pathlib import Path

import numpy as np

from delayfilt import experiments, identification
from delayfilt.core import derive_seed
from delayfilt.errors import DelayFiltError

import checks
from tracer import Tracer

RESULTS = Path(__file__).resolve().parent / "results"
MIN_ROUNDS = 10
TRACED_ROUNDS = 5

# Scenario of each workload's timed round, and what the untimed check study
# changes in it; the seed comes from the command line.
WORKLOADS = {
    "filter-growth": ("filter", {
        "model": "growth", "p_true": 0.8, "n_true": 2, "ns": 10000,
        "n_steps": 50, "mc_runs": 2,
    }, {"mc_runs": 20}),
    "ident-offline-growth": ("identify-offline", {
        "model": "growth", "p_true": 0.5, "n_true": 2, "ns": 200, "m": 20,
        "sl": 0.01, "ensembles": 2, "common_random_numbers": True,
    }, {"m": 200}),
    "ident-online-bot": ("identify-online", {
        "model": "bot", "p_true": 0.5, "n_true": 2, "ns": 1000, "n_steps": 40,
        "online_sl": 0.05, "common_random_numbers": True,
    }, {"n_steps": 400}),
}

# The kinds of work in each workload's reference kernel (see ReferenceKernel)
REFERENCE = {
    "filter-growth": ("python", "large", "large"),
    "ident-offline-growth": ("python", "small"),
    "ident-online-bot": ("python", "small", "large"),
}

_clock = time.perf_counter


def _digest(out_dir: Path) -> str:
    h = hashlib.sha256()
    for f in sorted(out_dir.iterdir()):
        h.update(f.name.encode())
        h.update(f.read_bytes())
    return h.hexdigest()


class Study:
    """The config file, the loaded config and one round of a study."""

    def __init__(self, workload: str, scenario: dict, seed: int, run_dir: Path):
        self.workload = workload
        self.mode = WORKLOADS[workload][0]
        self.out_dir = run_dir / "outputs"
        shutil.rmtree(self.out_dir, ignore_errors=True)  # no stale outputs to check
        run_dir.mkdir(parents=True, exist_ok=True)
        self.config_path = run_dir / "scenario.yaml"
        # JSON is valid YAML, so the file needs no YAML writer here
        self.config_path.write_text(
            json.dumps(dict(scenario, seed=seed, out_dir=str(self.out_dir)), indent=1) + "\n"
        )
        self.load()

    def load(self) -> None:
        self.config = experiments.load_config(self.config_path)
        self.model = self.config.build_model()
        self.online = self.prepare_online() if self.mode == "identify-online" else None

    def prepare_online(self):
        """Truth and fresh candidate filters; the study itself mutates the filters."""
        cfg = self.config
        truth = experiments.generate_truth(cfg, derive_seed(cfg.seed, 1))
        state = identification.init_online_identification(
            identification.GridSpec(cfg.online_sl), self.model, cfg.n_true, cfg.ns,
            derive_seed(cfg.seed, 2), common_random_numbers=cfg.common_random_numbers,
        )
        return truth.y, state

    @property
    def operations(self) -> int:
        """Operations one round attempts: MC runs, ensembles or deliveries."""
        cfg = self.config
        return {"filter": cfg.mc_runs, "identify-offline": cfg.ensembles,
                "identify-online": cfg.n_steps}[self.mode]

    def round(self, tracer: Tracer | None = None) -> dict:
        """Run the study once; return its time, failures and output digest."""
        cfg = self.config
        if self.online is None and self.mode == "identify-online":
            self.online = self.prepare_online()
        root = tracer.span("experiments.study") if tracer else contextlib.nullcontext()
        t0 = _clock()
        if self.mode == "identify-online":
            y, state = self.online
            self.online = None  # the filters are spent
            trace = np.empty((cfg.n_steps, 2))
            done = 0
            with root:
                try:
                    for k in range(1, cfg.n_steps + 1):
                        state, p_hat = identification.online_identify_step(
                            state, y[k - 1], self.model, k)
                        trace[k - 1] = (float(p_hat), state.running_average)
                        done = k
                except DelayFiltError as exc:
                    print(f"delivery {done + 1} failed: {exc}", file=sys.stderr)
            failed = cfg.n_steps - done
            result = experiments.RunMetrics(online_trace=trace[:done])
            final_ll = state.cand.log_likelihoods
        else:
            failed = 0
            with root:
                try:
                    if self.mode == "filter":
                        result = experiments.run_monte_carlo(cfg)
                    else:
                        result = experiments.run_identification_study(cfg, "offline")
                    failed = result.failed_runs
                except DelayFiltError as exc:
                    print(f"study failed: {exc}", file=sys.stderr)
                    failed, result = self.operations, None
        if result is not None:
            experiments.write_outputs(cfg.out_dir, cfg, self.mode, result)
        study_s = _clock() - t0
        if tracer and self.mode == "identify-online":
            tracer.count_eliminated(final_ll)
        return {"study_s": study_s, "failed": failed,
                "digest": _digest(self.out_dir) if result is not None else None}

    def expected_propagate_rows(self) -> int:
        """Particle steps plus truth steps of one round, from the config alone."""
        cfg = self.config
        if self.mode == "filter":
            return cfg.mc_runs * cfg.n_steps * (len(cfg.variants) * cfg.ns + 1)
        if self.mode == "identify-offline":
            return cfg.ensembles * cfg.m * ((round(1 / cfg.sl) + 1) * cfg.ns + 1)
        return cfg.n_steps * ((round(1 / cfg.online_sl) + 1) * cfg.ns + 1)


def machine_info() -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "system": " ".join(os.uname()[i] for i in (0, 2, 4)),
        "threads_env": {k: os.environ.get(k) for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS")},
    }


class ReferenceKernel:
    """A fixed piece of work made of the given kinds, timed by calling it.

    The kinds are a Python-level loop (``python``), numpy calls on 200
    elements (``small``) and in-place numpy passes over 250 000 elements
    (``large``); each takes about the same time. The kernel uses neither the
    package nor its results, so its cost is the same before and after any
    change to the package, while it slows down with the machine as a
    workload made of the same kinds does.
    """

    def __init__(self, parts: tuple[str, ...]):
        self.parts = [getattr(self, "_" + part) for part in parts]
        self.small = np.random.default_rng(0).standard_normal(200)
        self.large = np.random.default_rng(1).standard_normal(250_000)
        self.buf = np.empty_like(self.large)

    def __call__(self) -> float:
        t0 = _clock()
        for part in self.parts:
            part()
        return _clock() - t0

    def _python(self) -> None:
        acc = 0.0
        for i in range(150_000):
            acc += (i % 7) * 0.5

    def _small(self) -> None:
        for _ in range(2000):
            c = np.cumsum(np.exp(-0.5 * self.small * self.small))
            np.searchsorted(c, 0.5 * c[-1])

    def _large(self) -> None:
        for _ in range(5):
            np.multiply(self.large, self.large, out=self.buf)
            np.exp(np.negative(self.buf, out=self.buf), out=self.buf)
            self.buf.sort()


def timed_run(study: Study, seconds: float) -> tuple[dict, list[dict]]:
    rounds = []
    reference = ReferenceKernel(REFERENCE[study.workload])
    begin = _clock()
    ref_before = reference()
    while True:
        r = study.round()
        ref_after = reference()
        r["ref_s"] = 0.5 * (ref_before + ref_after)
        ref_before = ref_after
        rounds.append(r)
        spent = _clock() - begin
        if len(rounds) >= MIN_ROUNDS and spent * (len(rounds) + 1) / len(rounds) > seconds:
            break
    ratios = [r["study_s"] / r["ref_s"] for r in rounds]
    return {"study_ref": (float(np.median(ratios)), "ref")}, rounds


def traced_run(study: Study, trace_path: Path) -> tuple[dict, list[dict], list]:
    rounds = [study.round()]  # warm-up
    untraced, best = [], None
    # untraced and traced rounds alternate, so both see the host in like states
    for _ in range(TRACED_ROUNDS):
        untraced.append(study.round())
        tracer = Tracer().install()
        try:
            study.load()  # traced: load_config, and for the online workload truth and filters
            traced = study.round(tracer)
        finally:
            tracer.remove()
        if best is None or traced["study_s"] < best[1]["study_s"]:
            best = (tracer, traced)
        rounds.append(traced)
    tracer, traced = best
    tracer.save(trace_path)
    fastest_untraced = min(r["study_s"] for r in untraced)
    metrics = tracer.layer_metrics()
    metrics["trace.study_s"] = (traced["study_s"], "s")
    metrics["trace.untraced_study_s"] = (fastest_untraced, "s")
    metrics["trace.overhead_ratio"] = (traced["study_s"] / fastest_untraced, "ratio")
    rows, expected = metrics["models.propagate.rows"][0], study.expected_propagate_rows()
    extra = [("propagate_rows_match_config", rows == expected,
              f"counted {rows}, from config {expected}")]
    return metrics, rounds + untraced, extra


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)

    mode, scenario, check_changes = WORKLOADS[args.workload]
    run_dir = RESULTS / f"{args.workload}-seed{args.seed}"
    study = Study(args.workload, scenario, args.seed, run_dir / "timed")
    setup_done = time.monotonic()

    if args.trace:
        metrics, rounds, results = traced_run(study, run_dir / "trace.npz")
    else:
        metrics, rounds = timed_run(study, args.seconds)
        results = []
    digests = {r["digest"] for r in rounds}
    results.append(("rounds_byte_identical", len(digests) == 1 and None not in digests,
                    f"{len(rounds)} rounds, {len(digests)} distinct outputs"))

    # the larger study whose outputs are checked runs once, untimed
    check_study = Study(args.workload, dict(scenario, **check_changes), args.seed,
                        run_dir / "check")
    checked = check_study.round()
    if checked["digest"] is not None:
        results += checks.CHECKS[mode](check_study.config, check_study.out_dir)
    if args.trace:
        metrics["experiments.rmse_n2"] = (checks.rmse_n2(check_study.out_dir)
                                          if mode == "filter" else 0.0, "state")
    for name, passed, detail in results:
        print(f"check {'PASS' if passed else 'FAIL'} {name}: {detail}", file=sys.stderr)

    print(json.dumps({
        "correct": all(passed for _, passed, _ in results),
        "attempted": study.operations * len(rounds) + check_study.operations,
        "failed": sum(r["failed"] for r in rounds) + checked["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "setup_done": setup_done,
        "machine": machine_info(),
        "rounds": [{k: r[k] for k in ("study_s", "ref_s") if k in r} for r in rounds],
        "check_study_s": checked["study_s"],
        "checks": [{"name": n, "passed": p, "detail": d} for n, p, d in results],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
