"""In-memory span tracer that wraps delayfilt's public functions from outside.

The tracer replaces module functions and model methods with thin wrappers
that record one span per call (name, parent span, start, end) and the work
counts the layer metrics need. Nothing inside the package is changed; the
wrappers are removed again by :meth:`Tracer.remove`. A wrapped name that a
later version of the package no longer has is skipped, so its metrics read
zero instead of the benchmark failing.

Self time of a span is its duration minus the durations of its direct child
spans, so the self times of all spans add up to the traced interval.
"""

from __future__ import annotations

import math
import time
from array import array
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from delayfilt import core, delay_channel, experiments, filtering, identification, models

_clock = time.perf_counter


def _rows(x) -> int:
    shape = np.shape(x)
    return int(shape[0]) if shape else 1


def _array_bytes(obj) -> int:
    """Summed nbytes of the array fields of a particle set."""
    return sum(v.nbytes for v in vars(obj).values() if isinstance(v, np.ndarray))


class Tracer:
    """Records spans and counts for the wrapped calls; one instance per traced run."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list[list] = []  # [span index, summed child duration]
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()
        self.ess_ratios: list[float] = []
        self._patches: list[tuple] = []

    # -- span bookkeeping ---------------------------------------------------

    def _enter(self, name: str) -> int:
        name_id = self._name_ids.get(name)
        if name_id is None:
            name_id = self._name_ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.span_start)
        self.span_name.append(name_id)
        self.span_parent.append(self._stack[-1][0] if self._stack else -1)
        self.span_end.append(math.nan)
        self._stack.append([idx, 0.0])
        self.span_start.append(_clock())
        return idx

    def _exit(self, name: str) -> None:
        end = _clock()
        idx, child = self._stack.pop()
        self.span_end[idx] = end
        duration = end - self.span_start[idx]
        self.calls[name] += 1
        self.self_s[name] += duration - child
        if self._stack:
            self._stack[-1][1] += duration

    @contextmanager
    def span(self, name: str):
        """A span around benchmark code, such as the root of the study."""
        self._enter(name)
        try:
            yield
        finally:
            self._exit(name)

    # -- wrapping -----------------------------------------------------------

    def wrap(self, owner, attr: str, name: str, after=None) -> None:
        """Replace ``owner.attr`` by a span-recording wrapper.

        ``after(tracer, args, result)`` runs outside the span, so counting
        costs no layer time.
        """
        if not hasattr(owner, attr):
            return
        original = getattr(owner, attr)
        own = attr in vars(owner)
        tracer = self

        def wrapper(*args, **kwargs):
            tracer._enter(name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer._exit(name)
            if after is not None:
                after(tracer, args, result)
            return result

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original if own else None))

    def install(self) -> "Tracer":
        self.wrap(core.RngStream, "normal", "core.rng.normal", _count_normal)
        self.wrap(delay_channel.DelayChannel, "step", "delay_channel.step")
        for cls in (models.GrowthModel, models.BotModel):
            self.wrap(cls, "propagate", "models.propagate", _count_propagate)
            self.wrap(cls, "measure_clean", "models.measure_clean", _count_measure)
            self.wrap(cls, "meas_noise_pdf", "models.meas_noise_pdf")
        self.wrap(filtering, "filter_step", "filtering.filter_step", _count_filter_step)
        self.wrap(filtering, "delayed_likelihood", "filtering.delayed_likelihood")
        self.wrap(filtering, "systematic_resample", "filtering.systematic_resample")
        self.wrap(identification, "ll_step", "identification.ll_step", _count_ll_step)
        self.wrap(identification, "identification_likelihood",
                  "identification.identification_likelihood")
        self.wrap(identification, "content_age_weights", "identification.content_age_weights")
        self.wrap(identification, "repeat_probability", "identification.repeat_probability")
        self.wrap(identification, "init_candidate_filters",
                  "identification.init_candidate_filters")
        self.wrap(identification, "online_identify_step", "identification.online_identify_step")
        # run_identification_study calls offline_identify through its own import
        self.wrap(experiments, "offline_identify", "identification.offline_identify",
                  _count_offline_result)
        self.wrap(experiments, "generate_truth", "experiments.generate_truth")
        self.wrap(experiments, "load_config", "experiments.load_config")
        self.wrap(experiments, "write_outputs", "experiments.write_outputs", _count_written)
        return self

    def remove(self) -> None:
        for owner, attr, original in reversed(self._patches):
            if original is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self._patches.clear()

    # -- results ------------------------------------------------------------

    def count_eliminated(self, log_likelihoods) -> None:
        self.counts["identification.candidates_eliminated"] += int(
            np.sum(np.isneginf(np.asarray(log_likelihoods, dtype=float)))
        )

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer metrics as {name: (value, unit)}.

        Self times are given as a share of the traced interval, the summed
        duration of the root spans, so that a layer a workload never calls
        reads 0 % rather than a time of 0 s.
        """
        c, n = self.calls, self.counts
        roots = np.frombuffer(self.span_parent, dtype=np.int32) < 0
        start = np.frombuffer(self.span_start, dtype=np.float64)
        end = np.frombuffer(self.span_end, dtype=np.float64)
        total = float(np.sum(end[roots] - start[roots]))

        def pct(*names: str) -> tuple[float, str]:
            return (100.0 * sum(self.self_s[k] for k in names) / total, "%")

        prop_rows = n["models.propagate.rows"]
        ess = self.ess_ratios
        return {
            "core.rng.normal_calls": (c["core.rng.normal"], "count"),
            "core.rng.normal_values": (n["core.rng.normal_values"], "count"),
            "core.rng.normal.self_pct": pct("core.rng.normal"),
            "delay_channel.step.calls": (c["delay_channel.step"], "count"),
            "delay_channel.step.self_pct": pct("delay_channel.step"),
            "models.propagate.rows": (prop_rows, "count"),
            "models.propagate.self_pct": pct("models.propagate"),
            "models.measure_clean.rows": (n["models.measure_clean.rows"], "count"),
            "models.measure_clean.self_pct": pct("models.measure_clean"),
            "models.measure_clean.rows_per_particle_step": (
                n["models.measure_clean.rows"] / prop_rows if prop_rows else 0.0, "ratio"),
            "models.meas_noise_pdf.calls": (c["models.meas_noise_pdf"], "count"),
            "models.meas_noise_pdf.self_pct": pct("models.meas_noise_pdf"),
            "filtering.filter_step.calls": (c["filtering.filter_step"], "count"),
            "filtering.filter_step.self_pct": pct("filtering.filter_step"),
            "filtering.delayed_likelihood.self_pct": pct("filtering.delayed_likelihood"),
            "filtering.systematic_resample.calls": (c["filtering.systematic_resample"], "count"),
            "filtering.systematic_resample.self_pct": pct("filtering.systematic_resample"),
            "filtering.gathered_bytes": (n["filtering.gathered_bytes"], "bytes"),
            "filtering.ess_ratio_mean": (float(np.mean(ess)) if ess else 0.0, "ratio"),
            "filtering.ess_ratio_min": (float(np.min(ess)) if ess else 0.0, "ratio"),
            "filtering.underflow_resets": (n["filtering.underflow_resets"], "count"),
            "identification.ll_step.calls": (c["identification.ll_step"], "count"),
            "identification.ll_step.self_pct": pct("identification.ll_step"),
            "identification.candidate_steps": (n["identification.candidate_steps"], "count"),
            "identification.identification_likelihood.calls": (
                c["identification.identification_likelihood"], "count"),
            "identification.identification_likelihood.self_pct": pct(
                "identification.identification_likelihood"),
            "identification.content_age_weights.calls": (
                c["identification.content_age_weights"], "count"),
            "identification.repeat_probability.calls": (
                c["identification.repeat_probability"], "count"),
            "identification.channel_constants.self_pct": pct(
                "identification.content_age_weights", "identification.repeat_probability"),
            "identification.init_candidate_filters.self_pct": pct(
                "identification.init_candidate_filters"),
            "identification.offline_identify.self_pct": pct("identification.offline_identify"),
            "identification.online_identify_step.self_pct": pct(
                "identification.online_identify_step"),
            "identification.candidates_eliminated": (
                n["identification.candidates_eliminated"], "count"),
            "experiments.generate_truth.calls": (c["experiments.generate_truth"], "count"),
            "experiments.generate_truth.self_pct": pct("experiments.generate_truth"),
            "experiments.load_config.self_pct": pct("experiments.load_config"),
            "experiments.study.self_pct": pct("experiments.study"),
            "experiments.write_outputs.self_pct": pct("experiments.write_outputs"),
            "experiments.write_outputs.bytes": (n["experiments.write_outputs.bytes"], "bytes"),
            "trace.spans": (len(self.span_start), "count"),
        }

    def save(self, path: Path) -> None:
        """Write every span to a compressed .npz (names, name id, parent, start, end)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.span_name, dtype=np.int32),
            parent=np.frombuffer(self.span_parent, dtype=np.int32),
            start=np.frombuffer(self.span_start, dtype=np.float64),
            end=np.frombuffer(self.span_end, dtype=np.float64),
        )


# -- counters run after a wrapped call returns --------------------------------


def _count_normal(tracer, args, result):
    tracer.counts["core.rng.normal_values"] += int(np.size(result))


def _count_propagate(tracer, args, result):
    tracer.counts["models.propagate.rows"] += _rows(args[1])


def _count_measure(tracer, args, result):
    tracer.counts["models.measure_clean.rows"] += _rows(args[1])


def _count_particle_set(tracer, ps):
    tracer.counts["filtering.gathered_bytes"] += _array_bytes(ps)
    diag = getattr(ps, "diagnostics", None)
    if diag is not None:
        tracer.ess_ratios.append(float(diag.ess) / ps.ns)
        tracer.counts["filtering.underflow_resets"] += int(bool(diag.underflow))


def _count_filter_step(tracer, args, result):
    _count_particle_set(tracer, result[0])


def _count_ll_step(tracer, args, result):
    tracer.counts["identification.candidate_steps"] += len(result.candidates)
    for ps in getattr(result, "filters", ()):
        _count_particle_set(tracer, ps)


def _count_offline_result(tracer, args, result):
    tracer.count_eliminated([ll for _, ll in result.curve])


def _count_written(tracer, args, result):
    out = Path(args[0])
    tracer.counts["experiments.write_outputs.bytes"] += sum(
        f.stat().st_size for f in out.iterdir() if f.is_file()
    )
