import math

import numpy as np
import pytest

from qsense.inference import (
    cosine_fit,
    error_bound,
    estimate_parameter,
    infer_response,
    polylog_shot_schedule,
    response_polynomial,
    sensitivity,
    sensitivity_curve,
    sensitivity_error_check,
    shot_budget,
)
from qsense.sim import (
    build_ghz_setup,
    build_squeezing_setup,
    exact_response,
    response_variance,
    sample_response,
)
from qsense.trig import SampleVector, TrigPoly, equidistant_nodes

TWO_PI = 2.0 * math.pi


def budget_oracle(n, delta, alpha):
    return 50.0 * math.log(n) ** 2 * math.log((4 * n + 2) / alpha) / delta**2


def test_shot_budget_matches_direct_formula():
    assert shot_budget(2, 0.1, 0.05) == math.ceil(budget_oracle(2, 0.1, 0.05)) == 12728
    assert shot_budget(8, 0.05, 0.01) == math.ceil(budget_oracle(8, 0.05, 0.01))
    assert shot_budget(4, 0.1, 0.05) == math.ceil(budget_oracle(4, 0.1, 0.05))


def test_shot_budget_quarter_delta_scaling():
    raw = budget_oracle(5, 0.2, 0.1)
    raw_half = budget_oracle(5, 0.1, 0.1)
    assert raw_half == 4.0 * raw  # exact in binary floating point


def test_shot_budget_validation():
    with pytest.raises(ValueError):
        shot_budget(1, 0.1, 0.05)
    with pytest.raises(ValueError):
        shot_budget(4, 0.0, 0.05)
    with pytest.raises(ValueError):
        shot_budget(4, 0.1, 1.5)
    for delta in (math.inf, math.nan, -math.inf):
        with pytest.raises(ValueError, match="delta"):
            shot_budget(4, delta, 0.05)


def test_polylog_schedule_values():
    assert polylog_shot_schedule(8) == 17581
    assert polylog_shot_schedule(2) == math.ceil(500 * math.log(2) ** 2 * math.log(1000))
    values = [polylog_shot_schedule(n) for n in range(2, 23)]
    assert all(b >= a for a, b in zip(values, values[1:]))
    with pytest.raises(ValueError):
        polylog_shot_schedule(1)


def test_error_bound_values():
    assert error_bound(0.0, 5) == 0.0
    assert abs(error_bound(0.01, 10) - 5 * 0.01 * math.log(10)) < 1e-15
    assert abs(error_bound(0.01, 10) - 0.11512925464970229) < 1e-15
    with pytest.raises(ValueError):
        error_bound(-0.1, 4)
    with pytest.raises(ValueError):
        error_bound(0.1, 1)


def test_infer_exact_ghz2_closed_form():
    result = infer_response(build_ghz_setup(2), shots=None)
    assert abs(result.poly.a[1] - 1.0) < 1e-9
    assert abs(result.poly.a[0]) < 1e-9
    assert np.abs(result.poly.b).max() < 1e-9
    assert abs(result.poly.c) < 1e-9
    assert result.epsilon_estimate == 0.0
    assert result.bound_value == 0.0


def test_infer_noisy_exact_mode_is_exact():
    setup = build_ghz_setup(3, noise=0.01)
    result = infer_response(setup, shots=None)
    rng = np.random.default_rng(0)
    for theta in rng.uniform(0, TWO_PI, 100):
        assert abs(exact_response(setup, theta) - result.poly.evaluate(theta)) < 1e-8


def test_infer_interpolation_property_with_shots():
    setup = build_ghz_setup(3)
    result = infer_response(setup, shots=2000, seed=5)
    nodes = result.samples.nodes.angles
    assert np.abs(result.poly.evaluate(nodes) - result.samples.values).max() < 1e-9
    assert result.shots_per_node == 2000
    assert result.epsilon_estimate == 3.0 * result.samples.standard_errors.max()
    assert result.bound_value == 5.0 * result.epsilon_estimate * math.log(3)


def test_infer_node_seeding_is_per_node():
    setup = build_ghz_setup(2)
    a = infer_response(setup, shots=500, seed=1)
    b = infer_response(setup, shots=500, seed=1)
    c = infer_response(setup, shots=500, seed=2)
    assert np.array_equal(a.samples.values, b.samples.values)
    assert not np.array_equal(a.samples.values, c.samples.values)


def test_infer_validation():
    setup = build_ghz_setup(2)
    with pytest.raises(ValueError):
        infer_response(setup, degree=0)
    with pytest.raises(ValueError):
        infer_response(setup, shots=0)


def test_infer_unbiased_coefficient_means():
    setup = build_ghz_setup(3)
    exact = response_polynomial(setup)
    coeffs = []
    for seed in range(100):
        poly = infer_response(setup, shots=1000, seed=seed).poly
        coeffs.append(np.concatenate([poly.a, poly.b, [poly.c]]))
    coeffs = np.array(coeffs)
    truth = np.concatenate([exact.a, exact.b, [exact.c]])
    mean = coeffs.mean(axis=0)
    sem = coeffs.std(axis=0, ddof=1) / math.sqrt(len(coeffs))
    assert np.all(np.abs(mean - truth) <= 3.0 * sem + 1e-12)


def test_estimate_parameter_cosine():
    poly = TrigPoly([1.0], [0.0], 0.0)
    out = estimate_parameter(poly, 0.0, (0.0, math.pi))
    assert abs(out.theta_star - math.pi / 2) < 1e-8
    assert out.bijective
    assert out.residual < 1e-9

    wide = estimate_parameter(poly, 0.0, (0.0, TWO_PI))
    assert not wide.bijective

    with pytest.raises(ValueError):
        estimate_parameter(poly, 0.0, (1.0, 1.0))


@pytest.mark.parametrize(
    "measured, domain, message",
    [
        (math.nan, (0.0, 1.0), "measured"),
        (math.inf, (0.0, 1.0), "measured"),
        (0.5, (-math.inf, 1.0), "domain"),
        (0.5, (0.0, math.inf), "domain"),
        (0.5, (math.nan, 1.0), "domain"),
        (0.5, (0.0, math.nan), "domain"),
    ],
)
def test_estimate_parameter_rejects_non_finite(measured, domain, message):
    with pytest.raises(ValueError, match=message):
        estimate_parameter(TrigPoly([1.0], [0.0], 0.0), measured, domain)


def test_estimate_parameter_out_of_range_measured():
    poly = TrigPoly([1.0], [0.0], 0.0)
    out = estimate_parameter(poly, 2.0, (0.5, math.pi))
    # closest attainable value is cos(0.5); residual is reported, not hidden
    assert abs(out.theta_star - 0.5) < 1e-6
    assert out.residual > 0.9


def test_estimate_parameter_exact_inversion_property():
    setup = build_ghz_setup(3)
    poly = response_polynomial(setup)
    rng = np.random.default_rng(17)
    checked = 0
    for theta_true in rng.uniform(0, TWO_PI, 40):
        window = math.pi / 30.0
        out = estimate_parameter(
            poly, exact_response(setup, theta_true), (theta_true - window, theta_true + window)
        )
        if out.bijective:
            checked += 1
            assert abs(out.theta_star - theta_true) < 1e-7
    assert checked >= 20


def test_sensitivity_heisenberg_point():
    point = sensitivity(build_ghz_setup(4), math.pi / 8)
    assert not point.divergent
    assert abs(point.delta_theta_sq - 1.0 / 16.0) < 1e-9


def test_sensitivity_inferred_cosine():
    point = sensitivity(TrigPoly([1.0], [0.0], 0.0), math.pi / 2)
    assert abs(point.delta_theta_sq - 1.0) < 1e-12
    assert abs(point.slope + 1.0) < 1e-12


def test_sensitivity_divergent_flag_at_extremum():
    point = sensitivity(build_ghz_setup(4), 0.0)
    assert point.divergent
    assert math.isinf(point.delta_theta_sq)


def test_sensitivity_type_and_mode_checks():
    with pytest.raises(TypeError):
        sensitivity(3.0, 0.1)
    with pytest.raises(TypeError):  # the source's type alone decides the mode
        sensitivity(TrigPoly([1.0], [0.0], 0.0), 0.1, mode="inferred")


def test_sensitivity_inferred_equals_exact_at_zero_eps():
    setup = build_ghz_setup(3)
    poly = response_polynomial(setup)
    for theta in np.linspace(0.05, math.pi / 3 - 0.05, 9):
        a = sensitivity(setup, theta, response_poly=poly)
        b = sensitivity(poly, theta)
        if not (a.divergent or b.divergent):
            assert abs(a.delta_theta_sq - b.delta_theta_sq) < 1e-8


def test_variance_numerator_cross_check():
    rng = np.random.default_rng(23)
    for setup in (build_ghz_setup(3), build_squeezing_setup(3)):
        assert setup.observable.is_single_pauli
        for theta in rng.uniform(0, TWO_PI, 10):
            r = exact_response(setup, theta)
            assert abs((1.0 - r * r) - response_variance(setup, theta)) < 1e-9


def test_sensitivity_error_check_exact_mode():
    report = sensitivity_error_check(build_ghz_setup(4), shots=None)
    assert np.nanmax(report.abs_error) <= 1e-8
    assert report.holds
    assert report.epsilon <= 1e-12  # two float paths to the same exact values


def test_sensitivity_error_check_with_shots_bound_holds():
    for n in (2, 5, 8):
        setup = build_ghz_setup(n)
        shots = polylog_shot_schedule(n)
        for trial in range(10):
            seed = int(np.random.default_rng([31, n, trial]).integers(2**31))
            report = sensitivity_error_check(setup, shots=shots, seed=seed)
            assert report.holds


def test_sensitivity_error_check_squeezing_range():
    report = sensitivity_error_check(build_squeezing_setup(4), shots=2000, seed=3)
    assert math.isfinite(report.median_relative_error)
    assert report.divergent_points == 0


def test_sensitivity_error_check_custom_setup_needs_range():
    from qsense.sim import build_random_ansatz_setup

    with pytest.raises(ValueError):
        sensitivity_error_check(build_random_ansatz_setup(3, layers=2, seed=0))


def test_sensitivity_curve_matches_pointwise():
    poly = response_polynomial(build_ghz_setup(3))
    grid = np.linspace(0.02, 0.9, 25)
    delta_sq, divergent = sensitivity_curve(poly, grid)
    for i, theta in enumerate(grid):
        point = sensitivity(poly, theta)
        assert divergent[i] == point.divergent
        if not point.divergent:
            assert abs(delta_sq[i] - point.delta_theta_sq) < 1e-12


def test_cosine_fit_recovers_planted_parameters():
    nodes = equidistant_nodes(4)
    values = 0.8 * np.cos(2.0 * nodes.angles + 0.3) + 0.1
    fit = cosine_fit(SampleVector(nodes, values))
    assert abs(fit.alpha - 0.8) < 1e-6
    assert abs(fit.beta - 2.0) < 1e-6
    assert abs(fit.gamma - 0.3) < 1e-6
    assert abs(fit.zeta - 0.1) < 1e-6
    assert fit.residual_rms < 1e-9


def test_cosine_fit_constant_samples():
    nodes = equidistant_nodes(2)
    fit = cosine_fit(SampleVector(nodes, np.full(5, 0.25)))
    assert fit.alpha == 0.0
    assert fit.zeta == 0.25
    assert fit.residual_rms == 0.0


def test_cosine_fit_needs_enough_samples():
    with pytest.raises(ValueError):
        cosine_fit(SampleVector(equidistant_nodes(1), [1.0, 0.0, 0.0]))


def test_interpolation_residual_zero_fit_residual_nonnegative():
    setup = build_ghz_setup(8, noise=0.01)
    result = infer_response(setup, shots=polylog_shot_schedule(8), seed=11)
    fit = cosine_fit(result.samples)
    node_resid = np.abs(result.poly.evaluate(result.samples.nodes.angles) - result.samples.values)
    assert node_resid.max() < 1e-9
    assert fit.residual_rms >= node_resid.max()


def test_noisy_inversion_beats_or_ties_cosine_fit():
    # exact-expectation curves, shot-sampled measured responses
    setup = build_ghz_setup(4, noise=0.02)
    shots = polylog_shot_schedule(4)
    result = infer_response(setup, shots=None)
    fit = cosine_fit(result.samples)
    rng = np.random.default_rng(29)
    window = math.pi / 40.0
    err_inf, err_fit = [], []
    for k in range(30):
        theta_true = float(rng.uniform(0, TWO_PI))
        measured = sample_response(setup, theta_true, shots, seed=[29, k]).mean
        domain = (theta_true - window, theta_true + window)
        err_inf.append(abs(estimate_parameter(result.poly, measured, domain).theta_star - theta_true))
        err_fit.append(abs(estimate_parameter(fit, measured, domain).theta_star - theta_true))
    assert np.median(err_inf) < window
    assert np.median(err_inf) <= np.median(err_fit) + 1e-9


def test_relative_inversion_error_chi_small_with_budget_shots():
    # error of estimating through the inferred curve relative to the exact one
    setup = build_ghz_setup(3)
    exact_poly = response_polynomial(setup)
    delta_target = 0.05
    shots = shot_budget(3, delta_target, 0.05)
    result = infer_response(setup, shots=shots, seed=37)
    rng = np.random.default_rng(41)
    chis = []
    for theta_true in rng.uniform(0, TWO_PI, 20):
        measured = exact_response(setup, theta_true)
        window = math.pi / 20.0
        domain = (theta_true - window, theta_true + window)
        slope = abs(exact_poly.derivative().evaluate(theta_true))
        if slope < 1.0:
            continue
        t_inf = estimate_parameter(result.poly, measured, domain).theta_star
        t_ex = estimate_parameter(exact_poly, measured, domain).theta_star
        chis.append(abs(t_inf - t_ex))
    assert len(chis) >= 5
    assert np.median(chis) <= delta_target
