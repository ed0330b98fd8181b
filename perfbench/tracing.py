"""Per-layer spans and counters, recorded from outside the program.

``Installation`` replaces each target function with a timing wrapper in
every qsense module (or class) that holds a reference to it, so callers
that imported the function by name are traced too; ``uninstall`` puts the
originals back.  Spans are kept in memory as ``[name, start, end, parent]``
and folded into per-name totals after every op.  A target that no longer
exists is reported as absent, together with the metrics derived from it.
The recorder assumes one thread (the benchmark clears QSENSE_WORKERS).
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Callable


class Recorder:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: defaultdict[str, float] = defaultdict(float)
        self.calls: defaultdict[str, int] = defaultdict(int)
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.hook_errors: defaultdict[str, int] = defaultdict(int)
        self.ops = 0

    def span(self, name: str, fn: Callable, before=None, after=None, rewrap=None) -> Callable:
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def wrapper(*args, **kwargs):
            if rewrap is not None and args:
                args = rewrap(self, *args)
            if before is not None:
                self._hook(name, before, *args, **kwargs)
            record = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(record)
            record[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if after is not None:
                self._hook(name, after, result, *args, **kwargs)
            return result

        return wrapper

    def _hook(self, name: str, hook: Callable, *args, **kwargs) -> None:
        # A counter hook that no longer fits the program's signature must not
        # break the traced op; the miss is reported instead.
        try:
            hook(self.counts, *args, **kwargs)
        except Exception:
            self.hook_errors[name] += 1

    def counter(self, name: str, fn: Callable) -> Callable:
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def end_op(self) -> None:
        """Fold the op's spans into the per-name totals and drop them."""
        for (name, *_), own in zip(self.spans, self_times(self.spans)):
            self.calls[name] += 1
            self.self_s[name] += own
        self.spans.clear()
        self.ops += 1


def self_times(spans: list) -> list[float]:
    """Each span's duration minus the part of it covered by its children."""
    children: defaultdict[int, list[tuple[float, float]]] = defaultdict(list)
    for name, start, end, parent in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for i, (name, start, end, parent) in enumerate(spans):
        covered, reach = 0.0, start
        for lo, hi in sorted(children.get(i, ())):
            lo, hi = max(lo, reach), min(hi, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(end - start - covered)
    return out


# -- what is wrapped -----------------------------------------------------------


def _study_bytes(counts, result, name, config, *args, **kwargs):
    out = Path(config.out_dir)
    counts["experiments.bytes_written"] += sum(
        p.stat().st_size for p in out.rglob("*") if p.is_file()
    )


def _jobs(counts, fn, items, *args, **kwargs):
    counts["workers.jobs"] += len(items)
    worker_count = getattr(sys.modules.get("qsense._workers"), "worker_count", None)
    if worker_count is not None:
        counts["workers.count"] = max(counts["workers.count"], worker_count())


def _job_spans(recorder, fn, *rest):
    """Time each job of a parallel map as a span of the layer that submitted
    it, so the map's own self time is only its overhead."""
    layer = getattr(fn, "__module__", "") or ""
    layer = layer.rsplit(".", 1)[-1].lstrip("_") or "unknown"
    return (recorder.span(f"{layer}.job", fn), *rest)


def _nodes(counts, result, *args, **kwargs):
    counts["inference.nodes"] += len(result.samples.values)


def _points(counts, poly, theta, *args, **kwargs):
    counts["trig.evaluate.points"] += getattr(theta, "size", 1)


def _csv_bytes(counts, result, path, *args, **kwargs):
    counts["trig.write_csv.bytes"] += Path(path).stat().st_size


def _density(counts, setup, *args, **kwargs):
    counts["sim.density_calls"] += bool(setup.needs_density)


def _shots(counts, setup, theta, shots, *args, **kwargs):
    _density(counts, setup)
    counts["sim.shots"] += shots


def _depolarized(counts, rho, q, p, n, *args, **kwargs):
    if p != 0.0:  # integer bytes, so the per-op figure repeats exactly
        counts["sim.depolarize.bytes"] += 16 * 4**n


def _epochs(counts, result, *args, **kwargs):
    counts["variational.epochs"] += result.epochs_used


@dataclass(frozen=True)
class Target:
    name: str
    module: str
    attr: str  # "function" or "Class.method"
    before: Callable | None = None
    after: Callable | None = None
    rewrap: Callable | None = None
    count_only: bool = False


TARGETS = (
    Target("cli", "qsense.cli", "main"),
    Target("experiments.study", "qsense.experiments", "run_study", after=_study_bytes),
    Target("workers.parallel_map", "qsense._workers", "parallel_map", before=_jobs,
           rewrap=_job_spans),
    Target("inference.infer_response", "qsense.inference", "infer_response", after=_nodes),
    Target("inference.response_polynomial", "qsense.inference", "response_polynomial"),
    Target("inference.estimate_parameter", "qsense.inference", "estimate_parameter"),
    Target("inference.cosine_fit", "qsense.inference", "cosine_fit"),
    Target("trig.coeffs", "qsense.trig", "coeffs_closed_form"),
    Target("trig.evaluate", "qsense.trig", "TrigPoly.evaluate", before=_points),
    Target("trig.mul", "qsense.trig", "TrigPoly.__mul__"),
    Target("trig.write_csv", "qsense.trig", "write_curve_csv", after=_csv_bytes),
    Target("sim.exact_response", "qsense.sim.setups", "exact_response", before=_density),
    Target("sim.sample_response", "qsense.sim.setups", "sample_response", before=_shots),
    Target("sim.channel_apply", "qsense.sim.channels", "Channel.apply"),
    Target("sim.depolarize", "qsense.sim.states", "depolarize_qubit", before=_depolarized),
    Target("sim.gate_applies", "qsense.sim.states", "apply_matrix", count_only=True),
    Target("variational.train", "qsense.variational", "train_measurement", after=_epochs),
    Target("variational.optimizer", "qsense.variational", "minimize"),
    Target("variational.mse_loss", "qsense.variational", "mse_loss"),
    Target("variational.window_mse", "qsense.variational", "window_mse"),
)


def _resolve(target: Target):
    """(owner, original) or None when the target is gone."""
    try:
        owner = importlib.import_module(target.module)
    except ImportError:
        return None
    *path, attr = target.attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
    original = getattr(owner, attr, None) if owner is not None else None
    if original is None:
        return None
    return owner, original


class Installation:
    """Wraps every resolvable target; ``absent`` names the ones that are gone."""

    def __init__(self, recorder: Recorder, targets=TARGETS) -> None:
        self.patched: list[tuple[object, str, object]] = []
        self.absent: list[str] = []
        # resolve everything first, so no module is imported half-patched
        found = [(target, _resolve(target)) for target in targets]
        modules = [
            mod for key, mod in list(sys.modules.items())
            if mod is not None and (key == "qsense" or key.startswith("qsense."))
        ]
        for target, hit in found:
            if hit is None:
                self.absent.append(target.name)
                continue
            owner, original = hit
            if target.count_only:
                wrapper = recorder.counter(target.name, original)
            else:
                wrapper = recorder.span(target.name, original, target.before, target.after,
                                        target.rewrap)
            for holder in [owner] if isinstance(owner, type) else modules:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        self.patched.append((holder, key, original))
                        setattr(holder, key, wrapper)

    def uninstall(self) -> None:
        for holder, key, original in reversed(self.patched):
            setattr(holder, key, original)
        self.patched.clear()


# -- per-layer metrics -----------------------------------------------------------


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer_metrics(rec: Recorder, absent: list[str]) -> dict[str, dict]:
    """Per-op values of every per-layer metric whose spans exist."""
    ops = max(rec.ops, 1)
    calls = lambda name: rec.calls[name] / ops
    self_s = lambda name: rec.self_s[name] / ops
    count = lambda name: rec.counts[name] / ops
    responses = rec.calls["sim.exact_response"] + rec.calls["sim.sample_response"]
    table = [
        ("cli.self_s", "s/op", ("cli",), lambda: self_s("cli")),
        ("experiments.study.calls", "count/op", ("experiments.study",),
         lambda: calls("experiments.study")),
        ("experiments.self_s", "s/op", ("experiments.study",),
         lambda: self_s("experiments.study") + self_s("experiments.job")),
        ("experiments.bytes_written", "B/op", ("experiments.study",),
         lambda: count("experiments.bytes_written")),
        ("workers.parallel_map.calls", "count/op", ("workers.parallel_map",),
         lambda: calls("workers.parallel_map")),
        ("workers.parallel_map.self_s", "s/op", ("workers.parallel_map",),
         lambda: self_s("workers.parallel_map")),
        ("workers.jobs", "count/op", ("workers.parallel_map",), lambda: count("workers.jobs")),
        ("workers.count", "count", ("workers.parallel_map",), lambda: rec.counts["workers.count"]),
        ("inference.infer_response.calls", "count/op", ("inference.infer_response",),
         lambda: calls("inference.infer_response")),
        ("inference.infer_response.self_s", "s/op", ("inference.infer_response",),
         lambda: self_s("inference.infer_response") + self_s("inference.job")),
        ("inference.nodes", "count/op", ("inference.infer_response",),
         lambda: count("inference.nodes")),
        ("inference.response_polynomial.calls", "count/op", ("inference.response_polynomial",),
         lambda: calls("inference.response_polynomial")),
        ("inference.estimate_parameter.calls", "count/op", ("inference.estimate_parameter",),
         lambda: calls("inference.estimate_parameter")),
        ("inference.estimate_parameter.self_s", "s/op", ("inference.estimate_parameter",),
         lambda: self_s("inference.estimate_parameter")),
        ("inference.cosine_fit.calls", "count/op", ("inference.cosine_fit",),
         lambda: calls("inference.cosine_fit")),
        ("inference.cosine_fit.self_s", "s/op", ("inference.cosine_fit",),
         lambda: self_s("inference.cosine_fit")),
        ("trig.coeffs.calls", "count/op", ("trig.coeffs",), lambda: calls("trig.coeffs")),
        ("trig.coeffs.self_s", "s/op", ("trig.coeffs",), lambda: self_s("trig.coeffs")),
        ("trig.evaluate.calls", "count/op", ("trig.evaluate",), lambda: calls("trig.evaluate")),
        ("trig.evaluate.self_s", "s/op", ("trig.evaluate",), lambda: self_s("trig.evaluate")),
        ("trig.evaluate.points", "count/op", ("trig.evaluate",),
         lambda: count("trig.evaluate.points")),
        ("trig.mul.calls", "count/op", ("trig.mul",), lambda: calls("trig.mul")),
        ("trig.write_csv.calls", "count/op", ("trig.write_csv",), lambda: calls("trig.write_csv")),
        ("trig.write_csv.self_s", "s/op", ("trig.write_csv",), lambda: self_s("trig.write_csv")),
        ("trig.write_csv.bytes", "B/op", ("trig.write_csv",),
         lambda: count("trig.write_csv.bytes")),
        ("sim.exact_response.calls", "count/op", ("sim.exact_response",),
         lambda: calls("sim.exact_response")),
        ("sim.exact_response.self_s", "s/op", ("sim.exact_response",),
         lambda: self_s("sim.exact_response")),
        ("sim.gate_applies", "count/op", ("sim.gate_applies",), lambda: count("sim.gate_applies")),
        ("sim.responses", "count/op", ("sim.exact_response", "sim.sample_response"),
         lambda: responses / ops),
        ("sim.gate_applies_per_response", "ratio",
         ("sim.gate_applies", "sim.exact_response", "sim.sample_response"),
         lambda: _ratio(rec.counts["sim.gate_applies"], responses)),
        ("sim.sample_response.calls", "count/op", ("sim.sample_response",),
         lambda: calls("sim.sample_response")),
        ("sim.sample_response.self_s", "s/op", ("sim.sample_response",),
         lambda: self_s("sim.sample_response")),
        ("sim.shots", "count/op", ("sim.sample_response",), lambda: count("sim.shots")),
        ("sim.density_calls", "count/op", ("sim.exact_response", "sim.sample_response"),
         lambda: count("sim.density_calls")),
        ("sim.channel_apply.calls", "count/op", ("sim.channel_apply",),
         lambda: calls("sim.channel_apply")),
        ("sim.channel_apply.self_s", "s/op", ("sim.channel_apply",),
         lambda: self_s("sim.channel_apply")),
        ("sim.depolarize.calls", "count/op", ("sim.depolarize",), lambda: calls("sim.depolarize")),
        ("sim.depolarize.self_s", "s/op", ("sim.depolarize",), lambda: self_s("sim.depolarize")),
        ("sim.depolarize.mb_computed", "MB/op", ("sim.depolarize",),
         lambda: count("sim.depolarize.bytes") / 1e6),
        ("variational.mse_loss.calls", "count/op", ("variational.mse_loss",),
         lambda: calls("variational.mse_loss")),
        ("variational.mse_loss.self_s", "s/op", ("variational.mse_loss",),
         lambda: self_s("variational.mse_loss")),
        ("variational.window_mse.calls", "count/op", ("variational.window_mse",),
         lambda: calls("variational.window_mse")),
        ("variational.window_mse.self_s", "s/op", ("variational.window_mse",),
         lambda: self_s("variational.window_mse")),
        ("variational.optimizer_self_s", "s/op", ("variational.optimizer",),
         lambda: self_s("variational.optimizer")),
        ("variational.epochs", "count/op", ("variational.train",),
         lambda: count("variational.epochs")),
        ("variational.evals_per_epoch", "ratio", ("variational.mse_loss", "variational.train"),
         lambda: _ratio(rec.calls["variational.mse_loss"], rec.counts["variational.epochs"])),
    ]
    out = {}
    for name, unit, needs, value in table:
        if not set(needs) & set(absent):
            out[name] = {"value": value(), "unit": unit}
    return out
