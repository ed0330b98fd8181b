"""qsense benchmark: one workload, one closed-loop client, one op at a time.

    python3 perfbench/run.py --workload study-pure --seed 1 --seconds 16 --trace 0

Run from the root of a qsense checkout; the program is imported from
``src/``.  With ``--trace 0`` the last stdout line holds the end-to-end
metrics; with ``--trace 1`` it holds the per-layer metrics of traced ops,
each paired with an untraced run of the same op for the tracing overhead.
The line before it records the environment and run details, with the
wall-clock figures.  Op latencies in the metrics are relative to a
reference kernel timed around each op (see reference.py).  Every op's
outputs are checked (see workloads.py); outputs go to a temporary
directory under ``.bench_build/`` that is removed at exit.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

import tracing

# Modules that import numpy (workloads, oracle, reference) are imported inside
# functions, so that a set-up probe starts its clock before numpy is loaded.
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 3
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def pin_blas_threads() -> None:
    """One BLAS thread, set before numpy loads: with a second one, a small
    matrix product waits for the host to wake the other vCPU, which on a
    busy host took 15 ms instead of 0.05 ms."""
    for key in BLAS_VARS:
        os.environ[key] = "1"


def clear_program_env() -> list[str]:
    cleared = sorted(k for k in os.environ if k.startswith("QSENSE_"))
    for key in cleared:
        del os.environ[key]
    return cleared


def import_cli():
    """Import qsense.cli from this checkout's src/, or None."""
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import qsense.cli
    except ImportError as exc:
        print(f"error: cannot import qsense from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return None
    if not Path(qsense.cli.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"error: qsense was imported from {qsense.cli.__file__}, not this checkout",
              file=sys.stderr)
        return None
    return qsense.cli


def tail_latency(latencies: list[float]) -> tuple[float, float, int]:
    """The highest order statistic with at least ten ops beyond it, its
    percentile (share of ops at or below it) and the op count."""
    ordered = sorted(latencies)
    count = len(ordered)
    rank = max(count - 11, 0)
    return ordered[rank], 100.0 * (rank + 1) / count, count


class Op(NamedTuple):
    latency: float  # seconds
    error: str | None
    extract: dict | None  # the numbers compared with the golden file
    reference: float  # mean reference-kernel seconds right before and after


class Window:
    """Latencies and failures of the ops of one measuring window."""

    def __init__(self) -> None:
        self.latencies: list[float] = []
        self.relative: list[float] = []  # latency over reference-kernel time
        self.failures: list[str] = []
        self.references: list[float] = []
        self.spent = 0.0

    def add(self, variant, op: Op) -> None:
        self.latencies.append(op.latency)
        self.spent += op.latency
        self.references.append(op.reference)
        self.relative.append(op.latency / op.reference)
        if op.error is not None:
            self.failures.append(f"variant {variant.index}: {op.error}")

    @property
    def correct(self) -> int:
        return len(self.latencies) - len(self.failures)


class Runner:
    """Runs ops of one workload in fresh output directories under ``scratch``."""

    def __init__(self, workload, seed: int, scratch: Path, golden: list | None = None):
        self.workload = workload
        self.variants = workload.variants(seed)
        self.scratch = scratch
        self.golden = golden
        self.done = 0

    def op(self, variant, corrupt: bool = False, check: bool = True) -> Op:
        """Run and check one op, timing the reference kernel right before
        and right after it."""
        import reference
        import workloads

        out = self.scratch / f"op{self.done}"
        self.done += 1
        out.mkdir(parents=True)
        variant.write_configs(out)
        argvs = variant.argvs(out)
        error, extract = None, None
        sink = io.StringIO()
        cli = sys.modules["qsense.cli"]
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            before = reference.kernel_seconds()
            start = time.perf_counter()
            try:
                codes = [cli.main(argv) for argv in argvs]
            except Exception as exc:  # an op that raises is a failed op
                codes, error = [], f"raised {type(exc).__name__}: {exc}"
            latency = time.perf_counter() - start
            ref = (before + reference.kernel_seconds()) / 2.0
        if error is None and any(codes):
            error = f"exit codes {codes}: {sink.getvalue().strip()[-300:]}"
        if error is None and check:
            try:
                if corrupt:
                    self.workload.corrupt(out)
                extract = self.workload.check(variant, out)
                if self.golden is not None:
                    workloads.compare_golden(extract, self.golden[variant.index])
            except (workloads.CheckFailed, OSError, KeyError, ValueError, IndexError) as exc:
                error = f"check failed: {exc}"
        shutil.rmtree(out)
        return Op(latency, error, extract, ref)

    def window(self, seconds: float, corrupt: bool = False, win: Window | None = None) -> Window:
        """Closed loop: ops back to back, cycling through the variants,
        until ``win`` holds ``seconds`` of op time."""
        win = Window() if win is None else win
        while win.spent < seconds:
            variant = self.variants[len(win.latencies) % len(self.variants)]
            win.add(variant, self.op(variant, corrupt))
        return win

    def traced_windows(self, seconds: float) -> tuple[Window, Window, tracing.Recorder, list[str]]:
        """Each variant runs untraced and then traced, until the traced ops
        fill ``seconds`` in whole passes over the variants (so counts per op
        repeat exactly); pairing the two puts both under the same load."""
        plain, traced, recorder = Window(), Window(), tracing.Recorder()
        absent: list[str] = []
        k = 0
        while traced.spent < seconds or k % len(self.variants):
            variant = self.variants[k % len(self.variants)]
            k += 1
            plain.add(variant, self.op(variant))
            installed = tracing.Installation(recorder)
            try:
                op = self.op(variant)
            finally:
                installed.uninstall()
            recorder.end_op()
            traced.add(variant, op)
            absent = installed.absent
        return plain, traced, recorder, absent


def load_golden(workload: str) -> list[dict]:
    import workloads

    doc = json.loads((HERE / "golden" / f"seed{workloads.DEFAULT_SEED}.json").read_text())
    return doc["workloads"][workload]


def environment(cleared: list[str]) -> dict:
    import numpy
    import scipy

    try:
        from qsense._workers import worker_count
        workers = worker_count()
    except ImportError:
        workers = None
    model = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=10, env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        sha = None
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": model or platform.processor() or None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": {k: os.environ.get(k) for k in BLAS_VARS},
        "qsense_workers": workers,
        "cleared_env": cleared,
        "git_sha": sha,
    }


def probe_setup(workload_name: str, seed: int, scratch: Path) -> float:
    """Set-up time of a fresh process: import qsense, then one warm-up op
    (whose outputs the main process checks on its own ops)."""
    start = time.perf_counter()
    if import_cli() is None:
        raise SystemExit(2)
    imported = time.perf_counter() - start
    import workloads

    runner = Runner(workloads.WORKLOADS[workload_name], seed, scratch)
    op = runner.op(runner.variants[0], check=False)
    if op.error is not None:
        print(f"error: warm-up op failed: {op.error}", file=sys.stderr)
        raise SystemExit(1)
    return imported + op.latency


def measure_setup(workload: str, seed: int, scratch: Path) -> float:
    """One set-up probe, in a fresh process."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--probe-setup",
         "--workload", workload, "--seed", str(seed), "--scratch", str(scratch)],
        cwd=ROOT, env=dict(os.environ), capture_output=True, text=True, timeout=150,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
    return float(proc.stdout.strip().splitlines()[-1])


def end_to_end(win: Window, setup: list[float]) -> dict:
    count = len(win.latencies)
    values = {
        "setup_s": (statistics.median(setup), "s"),
        "op_p50_ref": (statistics.median(win.relative), "ref"),
        "op_tail_ref": (tail_latency(win.relative)[0], "ref"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "correct_frac": (win.correct / count, "1"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}


def wall_clock(win: Window) -> dict:
    """The window's figures in wall-clock time, which the host's speed
    swings move as much as the program does."""
    return {
        "ops_per_s": win.correct / win.spent,
        "op_p50_ms": statistics.median(win.latencies) * 1e3,
        "op_tail_ms": tail_latency(win.latencies)[0] * 1e3,
        "reference_p50_ms": statistics.median(win.references) * 1e3,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=16.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--scratch", default=None, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    cleared = clear_program_env()
    pin_blas_threads()
    if args.probe_setup:
        scratch = Path(args.scratch)
        scratch.mkdir(parents=True)
        print(probe_setup(args.workload, args.seed, scratch))
        return 0

    if import_cli() is None:
        return 2
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    golden = load_golden(args.workload)
    build = ROOT / ".bench_build"
    build.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="perfbench-", dir=build))
    try:
        at_default = args.seed == workloads.DEFAULT_SEED
        runner = Runner(workload, args.seed, scratch / "ops", golden if at_default else None)
        # The warm-up op is a default-seed variant checked against the seed
        # commit's outputs, so every run also guards against output drift.
        golden_runner = Runner(workload, workloads.DEFAULT_SEED, scratch / "golden", golden)
        golden_variant = args.seed % len(golden_runner.variants)
        warm_error = golden_runner.op(golden_runner.variants[golden_variant]).error
        info = {
            "workload": args.workload, "seed": args.seed, "trace": args.trace,
            "env": environment(cleared),
            "op_inputs": runner.variants[0].size,
            "variants": len(runner.variants),
            "golden_variant": golden_variant,
            "all_ops_golden_checked": at_default,
        }
        if args.trace == 0:
            # The set-up probes are spread over the window, between ops, so
            # that their median sees the same phases of the host as the ops.
            windows, setup = [Window()], []
            for part in range(1, SETUP_PROBES + 1):
                setup.append(measure_setup(args.workload, args.seed, scratch / f"probe{part}"))
                runner.window(args.seconds * part / SETUP_PROBES, win=windows[0])
            metrics = end_to_end(windows[0], setup)
            info.update({"setup_samples_s": setup, "wall_clock": wall_clock(windows[0])})
        else:
            plain, traced, recorder, absent = runner.traced_windows(args.seconds / 2.0)
            windows = [plain, traced]
            metrics = tracing.per_layer_metrics(recorder, absent)
            untraced, with_spans = (w.correct / w.spent for w in windows)
            metrics.update({
                "trace.ops_per_s_untraced": {"value": untraced, "unit": "1/s"},
                "trace.ops_per_s_traced": {"value": with_spans, "unit": "1/s"},
                "trace.overhead_frac": {"value": untraced / with_spans - 1.0 if with_spans else 0.0,
                                        "unit": "ratio"},
                "trace.ops": {"value": float(recorder.ops), "unit": "count"},
            })
            info.update({
                "absent": absent, "hook_errors": dict(recorder.hook_errors),
                "spans": {name: {"calls": recorder.calls[name], "self_s": recorder.self_s[name]}
                          for name in sorted(recorder.calls)},
            })
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        with contextlib.suppress(OSError):
            build.rmdir()  # only when empty
    attempted = sum(len(w.latencies) for w in windows)
    failed = sum(len(w.failures) for w in windows)
    failures = ([f"warm-up golden variant {golden_variant}: {warm_error}"] if warm_error else [])
    failures += [f for w in windows for f in w.failures]
    _, pct, count = tail_latency(windows[-1].latencies)
    info.update({"ops": count, "tail_percentile": pct, "fail_frac": failed / attempted,
                 "failures": failures[:5]})
    for message in failures[:5]:
        print(f"failure: {message}", file=sys.stderr)
    print(json.dumps({"info": info}))
    print(json.dumps({"correct": not failures, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
