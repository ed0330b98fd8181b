"""End-to-end acceptance checks.

Each test prints one pass/fail line (visible with ``pytest -s`` or on
failure) and enforces the stated tolerance and runtime budget.
"""

import math
import time

import numpy as np

from qsense.experiments import ExperimentConfig, run_study
from qsense.inference import (
    infer_response,
    polylog_shot_schedule,
    response_polynomial,
    sensitivity,
    sensitivity_error_check,
    shot_budget,
)
from qsense.sim import (
    build_ghz_setup,
    build_random_ansatz_setup,
    build_squeezing_setup,
    exact_response,
)
from qsense.trig import (
    SampleVector,
    coeffs_closed_form,
    det_bound,
    equidistant_nodes,
    solve_lsp,
)

TWO_PI = 2.0 * math.pi


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num:2d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def _seed(*key: int) -> int:
    return int(np.random.default_rng(list(key)).integers(2**31))


def test_criterion_01_interpolation_exactness_all_setups():
    start = time.perf_counter()
    rng = np.random.default_rng(1)
    worst = 0.0
    for noise in (0.0, 0.02):
        setups = [
            build_ghz_setup(4, noise=noise),
            build_squeezing_setup(4, noise=noise),
            build_random_ansatz_setup(4, layers=4, seed=7, noise=noise),
        ]
        for setup in setups:
            poly = infer_response(setup, shots=None).poly
            thetas = rng.uniform(0.0, TWO_PI, 100)
            residual = np.abs(exact_response(setup, thetas) - poly.evaluate(thetas))
            worst = max(worst, float(residual.max()))
    elapsed = time.perf_counter() - start
    _report(
        1,
        worst < 1e-8 and elapsed < 60.0,
        f"held-out residual {worst:.2e} (< 1e-08) over 3 setups x 2 noise levels, "
        f"{elapsed:.1f}s (< 60s)",
    )


def test_criterion_02_ghz_closed_form_coefficients():
    worst_off = 0.0
    worst_main = 0.0
    for n in range(1, 9):
        poly = infer_response(build_ghz_setup(n), shots=None).poly
        worst_main = max(worst_main, abs(poly.a[n - 1] - 1.0))
        others = np.concatenate([poly.a[: n - 1], poly.b, [poly.c]])
        if len(others):
            worst_off = max(worst_off, float(np.abs(others).max()))
    _report(
        2,
        worst_main < 1e-9 and worst_off < 1e-9,
        f"cos(n theta) coefficient off by {worst_main:.2e}, others below {worst_off:.2e} "
        "(< 1e-09) for n = 1..8",
    )


def test_criterion_03_error_scaling_with_polylog_shots():
    start = time.perf_counter()
    medians = []
    trials_ok = 0
    trials_total = 0
    for n in range(2, 9):
        setup = build_ghz_setup(n)
        shots = polylog_shot_schedule(n)
        poly_exact = response_polynomial(setup)
        grid = np.random.default_rng([3, n]).uniform(0.0, TWO_PI, 10_000)
        truth = exact_response(setup, grid)
        node_angles = equidistant_nodes(n).angles
        node_truth = poly_exact.evaluate(node_angles)
        trial_medians = []
        for repeat in range(30):
            res = infer_response(setup, shots=shots, seed=_seed(3, n, repeat))
            err = np.abs(res.poly.evaluate(grid) - truth)
            eps_true = float(np.abs(res.samples.values - node_truth).max())
            bound = 5.0 * eps_true * math.log(n)
            trials_total += 1
            trials_ok += bool(err.max() < bound)
            trial_medians.append(float(np.median(err)))
        medians.append(float(np.median(trial_medians)))
    monotone = all(b <= 1.15 * a for a, b in zip(medians, medians[1:]))
    trend = monotone and medians[-1] <= medians[0]
    elapsed = time.perf_counter() - start
    _report(
        3,
        trials_ok == trials_total and trend and elapsed < 600.0,
        f"max error under 5 eps ln(n) in {trials_ok}/{trials_total} trials; medians "
        f"{medians[0]:.2e} -> {medians[-1]:.2e} non-increasing trend, {elapsed:.0f}s (< 600s)",
    )


def test_criterion_04_guaranteed_budget():
    start = time.perf_counter()
    setup = build_ghz_setup(4)
    shots = shot_budget(4, delta=0.1, alpha=0.05)
    poly_exact = response_polynomial(setup)
    grid = np.random.default_rng(4).uniform(0.0, TWO_PI, 10_000)
    truth = poly_exact.evaluate(grid)
    hits = 0
    for repeat in range(30):
        res = infer_response(setup, shots=shots, seed=_seed(4, repeat))
        hits += bool(np.abs(res.poly.evaluate(grid) - truth).max() <= 0.1)
    elapsed = time.perf_counter() - start
    _report(
        4,
        hits >= 27 and elapsed < 300.0,
        f"N={shots} kept max error <= 0.1 in {hits}/30 trials (need >= 27), "
        f"{elapsed:.0f}s (< 300s)",
    )


def test_criterion_05_heisenberg_limit_points():
    p4 = sensitivity(build_ghz_setup(4), math.pi / 8)
    p8 = sensitivity(build_ghz_setup(8), math.pi / 16)
    err4 = abs(p4.delta_theta_sq - 1.0 / 16.0)
    err8 = abs(p8.delta_theta_sq - 1.0 / 64.0)
    _report(
        5,
        err4 < 1e-6 and err8 < 1e-6,
        f"(delta theta)^2 at cosine zeros: n=4 off by {err4:.2e}, n=8 off by {err8:.2e} (< 1e-06)",
    )


def test_criterion_06_equidistant_nodes_maximize_det():
    rng = np.random.default_rng(6)
    ok = True
    details = []
    for degree in (1, 2, 3):
        count = 2 * degree + 1
        best = det_bound(equidistant_nodes(degree))
        beaten = 0
        near_best_non_rotation = 0
        for _ in range(1000):
            angles = rng.uniform(0.0, TWO_PI, count)
            value = det_bound(angles)
            if value > best + 1e-9:
                beaten += 1
            if value >= best - 1e-9:
                gaps = np.diff(np.sort(np.append(np.sort(angles), angles.min() + TWO_PI)))
                if not np.allclose(gaps, TWO_PI / count, atol=1e-6):
                    near_best_non_rotation += 1
        rotation_gap = max(
            abs(det_bound(np.mod(equidistant_nodes(degree).angles + shift, TWO_PI)) - best)
            for shift in (0.17, 1.234, 4.5)
        )
        ok = ok and beaten == 0 and near_best_non_rotation == 0 and rotation_gap <= 1e-9
        details.append(f"D={degree}: 0/{1000} beat optimum, rotations within {rotation_gap:.1e}")
    _report(6, ok, "; ".join(details))


def test_criterion_07_prediction_vs_cosine_fit(tmp_path):
    start = time.perf_counter()
    config = ExperimentConfig(
        kind="ghz",
        n_values=(2, 3, 4, 5, 6),
        noise=0.02,
        shots="polylog",
        repeats=1,
        base_seed=7,
        out_dir=str(tmp_path / "prediction"),
        prediction_fields=30,
        exact_curves=True,
    )
    records = run_study("prediction", config)
    rows = np.genfromtxt(tmp_path / "prediction" / "predictions_ghz.csv", delimiter=",", names=True)
    fit_within_window = True
    for row in rows:
        window = math.pi / (10.0 * row["n"])
        fit_within_window &= abs(row["theta_fit"] - row["theta_true"]) <= window + 1e-9
    inferred_wins = all(
        r["median_prediction_error"] <= r["median_prediction_error_baseline"] + 1e-9
        for r in records
    )
    elapsed = time.perf_counter() - start
    medians = ", ".join(
        f"n={r['n']}: {r['median_prediction_error']:.1e} "
        f"vs fit {r['median_prediction_error_baseline']:.1e}"
        for r in records
    )
    _report(
        7,
        inferred_wins and fit_within_window and elapsed < 600.0,
        f"inferred median <= fit median for every n ({medians}); fit errors capped by "
        f"pi/10n; {elapsed:.0f}s (< 600s)",
    )


def test_criterion_08_sensitivity_error_bound():
    start = time.perf_counter()
    holds = 0
    total = 0
    for n in range(2, 7):
        setup = build_ghz_setup(n)
        shots = polylog_shot_schedule(n)
        for repeat in range(30):
            report = sensitivity_error_check(setup, shots=shots, seed=_seed(8, n, repeat))
            total += 1
            holds += bool(report.holds)
    elapsed = time.perf_counter() - start
    _report(
        8,
        holds == total,
        f"|dt_exact - dt_inferred| within 5 eps ln(n)/min-slope in {holds}/{total} trials, "
        f"{elapsed:.0f}s",
    )


def _triangle_wave(thetas: np.ndarray) -> np.ndarray:
    # peak +1 at 0 (always a node), valley -1 at pi (always mid-gap);
    # the clip keeps |f| <= 1 as the approximation regime requires
    x = np.mod(thetas, TWO_PI)
    wave = np.where(x <= math.pi, 1.0 - 2.0 * x / math.pi, -3.0 + 2.0 * x / math.pi)
    return np.clip(wave, -1.0, 1.0)


def test_criterion_09_near_node_error_for_periodic_nonpolynomial():
    offsets = np.linspace(-1e-3, 1e-3, 21)
    errors = []
    for degree in (4, 8, 16, 32):
        nodes = equidistant_nodes(degree)
        poly = coeffs_closed_form(SampleVector(nodes, _triangle_wave(nodes.angles)))
        probe = (nodes.angles[:, None] + offsets[None, :]).ravel()
        errors.append(float(np.abs(poly.evaluate(probe) - _triangle_wave(probe)).max()))
    decreasing = all(b < a for a, b in zip(errors, errors[1:]))
    _report(
        9,
        decreasing,
        "near-node max error decreases with degree: "
        + " -> ".join(f"{e:.6e}" for e in errors),
    )


def test_criterion_10_variational_training():
    start = time.perf_counter()
    from qsense.variational import train_measurement

    trace = train_measurement(epochs=500, seed=1)
    finite = trace.post.delta_theta_sq[np.isfinite(trace.post.delta_theta_sq)]
    best = float(finite.min())
    elapsed = time.perf_counter() - start
    heisenberg_note = (
        f"reaches Heisenberg proximity ({best:.4f} <= 0.125)"
        if best <= 0.125
        else f"Heisenberg proximity not reached ({best:.4f} > 0.125; reported, not required)"
    )
    _report(
        10,
        trace.final_loss <= trace.initial_loss and best <= 0.25 and elapsed < 600.0,
        f"loss {trace.initial_loss:.4f} -> {trace.final_loss:.4f}; min (delta theta)^2 "
        f"{best:.4f} <= 0.25; {heisenberg_note}; {elapsed:.0f}s (< 600s)",
    )


def test_criterion_11_solver_equivalence():
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(100):
        degree = int(rng.integers(1, 13))
        nodes = equidistant_nodes(degree)
        samples = SampleVector(nodes, rng.normal(size=len(nodes)))
        closed = coeffs_closed_form(samples)
        solved, _ = solve_lsp(samples)
        worst = max(
            worst,
            float(np.abs(closed.a - solved.a).max(initial=0.0)),
            float(np.abs(closed.b - solved.b).max(initial=0.0)),
            abs(closed.c - solved.c),
        )
    _report(
        11,
        worst < 1e-8,
        f"closed-form vs matrix-solve coefficients agree within {worst:.2e} (< 1e-08) "
        "on 100 random sample vectors",
    )
