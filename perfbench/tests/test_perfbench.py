"""Self-tests of the benchmark harness.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import math
import os
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import oracle  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

assert run.import_cli() is not None

from qsense.sim import (  # noqa: E402
    build_ghz_setup,
    build_random_ansatz_setup,
    build_squeezing_setup,
    exact_response,
)
from qsense.variational import TrainableMeasurement  # noqa: E402

HELD_OUT_SEED = 12345


# -- spans and the tail rule ---------------------------------------------------------


def test_self_time_of_nested_spans():
    spans = [
        ["root", 0.0, 10.0, -1],
        ["a", 1.0, 4.0, 0],
        ["b", 2.0, 3.0, 1],
        ["c", 5.0, 9.0, 0],
        ["d", 6.0, 7.0, 3],
        ["e", 6.5, 8.0, 3],  # overlaps d: the union 6..8 counts once
    ]
    assert tracing.self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 2.0, 1.0, 1.5])


def test_recorder_self_times_add_up_to_the_root():
    rec = tracing.Recorder()
    leaf = rec.span("leaf", lambda: sum(range(2000)))
    mid = rec.span("mid", lambda: [leaf() for _ in range(3)])
    root = rec.span("root", lambda: (mid(), leaf()))
    root()
    durations = [end - start for _, start, end, _ in rec.spans]
    own = tracing.self_times(rec.spans)
    assert min(own) >= 0.0
    assert sum(own) == pytest.approx(durations[0], rel=1e-9)
    rec.end_op()
    assert dict(rec.calls) == {"root": 1, "mid": 1, "leaf": 4}
    assert rec.spans == [] and rec.ops == 1


def test_tail_is_the_highest_rank_with_ten_ops_beyond():
    lat = [float(x) for x in range(1, 101)]
    tail, pct, count = run.tail_latency(lat[::-1])
    assert (tail, pct, count) == (90.0, 90.0, 100)
    assert sum(x > tail for x in lat) == 10
    tail, pct, count = run.tail_latency([float(x) for x in range(1, 12)])
    assert (tail, count) == (1.0, 11) and pct == pytest.approx(100 / 11)
    # too few ops for ten beyond: the smallest latency, reported as such
    assert run.tail_latency([3.0, 1.0, 2.0])[:2] == (1.0, pytest.approx(100 / 3))


# -- the oracle ------------------------------------------------------------------------


@pytest.mark.parametrize("noise", [0.0, 0.02])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_oracle_agrees_with_exact_response(n, noise):
    thetas = np.linspace(-1.0, 7.0, 9)
    pairs = [
        (oracle.ghz(n, noise), build_ghz_setup(n, noise=noise)),
        (oracle.squeezing(n, noise), build_squeezing_setup(n, noise=noise)),
        (oracle.random_ansatz(n, 3, 17, noise), build_random_ansatz_setup(n, layers=3, seed=17, noise=noise)),
    ]
    for circ, setup in pairs:
        want = oracle.ExactResponse(circ)(thetas)
        got = [exact_response(setup, t) for t in thetas]
        assert np.allclose(got, want, atol=1e-12, rtol=0), setup.kind


def test_oracle_agrees_on_the_training_circuit():
    measurement = TrainableMeasurement.convolutional(4)
    params = np.random.default_rng(3).uniform(0, 2 * math.pi, measurement.parameter_count)
    thetas = oracle.nodes(4)
    want = oracle.ExactResponse(oracle.coarsening(4, params))(thetas)
    got = [exact_response(measurement.setup(params), t) for t in thetas]
    assert np.allclose(got, want, atol=1e-12, rtol=0)


def test_oracle_ghz_matches_the_closed_form():
    thetas = np.linspace(0, 2 * math.pi, 11)
    assert np.allclose(oracle.ExactResponse(oracle.ghz(5))(thetas), oracle.ghz_parity(5, thetas), atol=1e-13)


def test_fft_interpolation_round_trip():
    rng = np.random.default_rng(1)
    coeffs = (rng.normal(size=5), rng.normal(size=5), 0.3)
    back = oracle.interpolate(oracle.evaluate(coeffs, oracle.nodes(5)))
    assert np.allclose(np.concatenate([back[0], back[1], [back[2]]]),
                       np.concatenate([coeffs[0], coeffs[1], [0.3]]), atol=1e-13)
    loss_poly = (np.zeros(4), np.zeros(4), 0.0)  # R = 0: loss is the theta^2 term
    w = math.pi / 4
    assert oracle.window_loss(loss_poly, 4) == pytest.approx((4 / (2 * math.pi)) * 2 * w**3 / 3)


# -- correctness checks catch wrong outputs ----------------------------------------------


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_corrupted_output_drives_fail_frac_to_one(name, tmp_path):
    runner = run.Runner(workloads.WORKLOADS[name], HELD_OUT_SEED, tmp_path)
    error = runner.op(runner.variants[1]).error
    assert error is None, error
    win = runner.window(1e-9, corrupt=True)
    assert len(win.latencies) >= 1
    assert len(win.failures) == len(win.latencies)
    # timed ops are bracketed by the reference kernel
    assert len(win.relative) == len(win.latencies) and min(win.references) > 0.0
    assert win.relative[0] == pytest.approx(win.latencies[0] / win.references[0], rel=1e-12)
    metrics = run.end_to_end(win, [1.0])
    assert metrics["correct_frac"]["value"] == 0.0
    assert run.wall_clock(win)["ops_per_s"] == 0.0


def test_golden_file_covers_every_variant():
    doc = json.loads((BENCH / "golden" / f"seed{workloads.DEFAULT_SEED}.json").read_text())
    assert set(doc["workloads"]) == set(workloads.WORKLOADS)
    assert all(len(v) == workloads.WORKLOADS[name].variant_count
               for name, v in doc["workloads"].items())


# -- tracing -------------------------------------------------------------------------------


def test_traced_counts_repeat_and_wraps_come_off(tmp_path):
    runner = run.Runner(workloads.WORKLOADS["train"], HELD_OUT_SEED, tmp_path)
    variant = runner.variants[0]
    runner.op(variant)  # warm-up
    original = sys.modules["qsense.inference"].infer_response
    counts = []
    for _ in range(2):
        rec = tracing.Recorder()
        installed = tracing.Installation(rec)
        try:
            error = runner.op(variant).error
            rec.end_op()
        finally:
            installed.uninstall()
        assert error is None and installed.absent == []
        counts.append((dict(rec.calls), dict(rec.counts)))
    assert counts[0] == counts[1]
    assert counts[0][0]["variational.mse_loss"] > 0 and counts[0][1]["sim.gate_applies"] > 0
    assert sys.modules["qsense.inference"].infer_response is original


def test_missing_wrap_target_is_reported_absent():
    targets = (*tracing.TARGETS, tracing.Target("sim.depolarize", "qsense.sim.states", "gone_function"))
    targets = tuple(t for t in targets if not (t.name == "sim.depolarize" and t.attr == "depolarize_qubit"))
    rec = tracing.Recorder()
    installed = tracing.Installation(rec, targets)
    installed.uninstall()
    assert installed.absent == ["sim.depolarize"]
    metrics = tracing.per_layer_metrics(rec, installed.absent)
    assert "sim.depolarize.calls" not in metrics and "sim.exact_response.calls" in metrics


# -- the whole run ---------------------------------------------------------------------------


def _tree(root: Path) -> set[str]:
    skip = {".git", ".bench_build", "__pycache__", ".pytest_cache"}
    return {
        str(p.relative_to(root)) for p in root.rglob("*")
        if not skip & set(p.relative_to(root).parts)
    }


@pytest.mark.parametrize("trace", ["0", "1"])
def test_run_prints_every_metric_and_writes_only_its_scratch_dir(trace, capsys, monkeypatch):
    monkeypatch.setenv("QSENSE_WORKERS", "2")
    for key in run.BLAS_VARS:  # run.main pins them; put them back afterwards
        monkeypatch.delenv(key, raising=False)
    monkeypatch.setattr(run, "SETUP_PROBES", 1)
    before = _tree(run.ROOT)
    build = run.ROOT / ".bench_build"
    scratch_before = set(build.iterdir()) if build.exists() else set()
    argv = ["--workload", "estimate", "--seed", str(HELD_OUT_SEED), "--seconds", "0.1", "--trace", trace]
    assert run.main(argv) == 0
    assert _tree(run.ROOT) == before
    assert (set(build.iterdir()) if build.exists() else set()) == scratch_before
    lines = capsys.readouterr().out.strip().splitlines()
    info, result = json.loads(lines[-2])["info"], json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert info["env"]["cleared_env"] == ["QSENSE_WORKERS"] and info["env"]["qsense_workers"] == 1
    assert set(info["env"]["blas_threads"].values()) == {"1"}
    assert "QSENSE_WORKERS" not in os.environ
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    listed = spec["end_to_end"] if trace == "0" else spec["per_layer"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in listed}
