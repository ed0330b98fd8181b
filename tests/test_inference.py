import dataclasses
import math

import numpy as np
import pytest

from qsense import inference
from qsense.inference import (
    CosineFit,
    cosine_fit,
    estimate_parameter,
    infer_response,
    is_bijective,
    polylog_shot_schedule,
    response_polynomial,
    sensitivity,
    sensitivity_error_check,
    shot_budget,
    sup_norm_bound,
)
from qsense.sim import (
    build_ghz_setup,
    build_setup,
    build_squeezing_setup,
    exact_response,
    sample_response,
)
from qsense.sim.setups import _encode, _prepare
from qsense.trig import NodeSet, SampleVector, TrigPoly, equidistant_nodes

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
    assert sup_norm_bound(0.0, 5) == 0.0
    assert abs(sup_norm_bound(0.01, 10) - 5 * 0.01 * math.log(10)) < 1e-15
    assert abs(sup_norm_bound(0.01, 10) - 0.11512925464970229) < 1e-15
    with pytest.raises(ValueError):
        sup_norm_bound(-0.1, 4)
    # degrees 0 and 1 use ln 2, so a nonzero epsilon never certifies a bound of 0
    assert sup_norm_bound(0.1, 1) == sup_norm_bound(0.1, 0) == 5 * 0.1 * math.log(2)


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


def test_infer_rejects_degree_below_encoding():
    # at degree 1 the nodes 0, 2 pi/3, 4 pi/3 all read cos(3 theta) = 1
    setup = build_ghz_setup(3)
    with pytest.raises(ValueError, match="degree 1 .* encoding degree 3"):
        infer_response(setup, degree=1, shots=None)
    with pytest.raises(ValueError, match="degree 2 .* encoding degree 3"):
        infer_response(setup, degree=2, shots=100)
    wide = infer_response(setup, degree=4, shots=None)
    assert wide.poly.degree == 4
    assert abs(wide.poly.a[2] - 1.0) < 1e-12


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
    assert is_bijective(poly, 0.0, math.pi)
    assert out.residual < 1e-9
    assert not is_bijective(poly, 0.0, TWO_PI)

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
        lo, hi = theta_true - math.pi / 30.0, theta_true + math.pi / 30.0
        out = estimate_parameter(poly, exact_response(setup, theta_true), (lo, hi))
        if is_bijective(poly, lo, hi):
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
    # a Pauli readout's exact variant is read from the exact polynomial
    setup = build_ghz_setup(3)
    poly = response_polynomial(setup)
    grid = np.linspace(0.05, math.pi / 3 - 0.05, 9)
    for theta in [*grid, grid]:
        a, b = sensitivity(setup, theta), sensitivity(poly, theta)
        for field in dataclasses.fields(a):
            assert np.array_equal(getattr(a, field.name), getattr(b, field.name)), field.name


def test_sensitivity_rejects_angles_that_are_not_a_float_or_1d_array():
    poly = TrigPoly([1.0], [0.0], 0.0)
    with pytest.raises(ValueError, match="1-D"):
        sensitivity(poly, np.zeros((2, 3)))
    with pytest.raises(ValueError, match="1-D"):
        sensitivity(build_ghz_setup(2), [[0.1]])
    with pytest.raises(ValueError, match="finite"):
        sensitivity(poly, [0.1, math.nan])


def _dense_variance(setup, thetas):
    """Oracle: Tr[rho O^2] - Tr[rho O]^2 with the dense matrix of O, per angle."""
    density = setup.needs_density
    prepared = _prepare(setup, density)
    obs = setup.observable.matrix()
    dim = 2**setup.n
    out = []
    for theta in thetas:
        state = _encode(setup, prepared, np.array([theta]), density)[0]
        if density:
            rho = state.reshape(dim, dim)
            mean, second = np.trace(rho @ obs).real, np.trace(rho @ obs @ obs).real
        else:
            psi = state.reshape(-1)
            mean, second = (psi.conj() @ obs @ psi).real, (psi.conj() @ obs @ obs @ psi).real
        out.append(second - mean**2)
    return np.array(out)


def test_exact_sensitivity_of_non_pauli_readout_infers_its_variance(monkeypatch):
    setup = build_setup("random", 3, 0.0, 2, 5)  # readout: the mean of X on each qubit
    assert not setup.observable.is_single_pauli
    constant, rest = setup.observable.squared()
    second = response_polynomial(dataclasses.replace(setup, observable=rest))
    poly = response_polynomial(setup)
    calls = []
    monkeypatch.setattr(
        inference, "exact_response", lambda s, th: calls.append(th) or exact_response(s, th)
    )
    thetas = np.linspace(0.1, 1.0, 40)
    curve = sensitivity(setup, thetas)
    # two node passes, one for O and one for Q, and no simulation per grid angle
    nodes = equidistant_nodes(setup.encoding_degree).angles
    assert len(calls) == 2 and all(np.array_equal(th, nodes) for th in calls)
    expected = np.clip(constant + second.evaluate(thetas) - poly.evaluate(thetas) ** 2, 0.0, None)
    assert np.array_equal(curve.variance, expected)
    assert np.abs(curve.variance - _dense_variance(setup, thetas)).max() < 1e-12
    assert np.array_equal(curve.slope, poly.derivative().evaluate(thetas))
    assert np.array_equal(curve.delta_theta_sq, curve.variance / curve.slope**2)


def test_variance_numerator_cross_check():
    rng = np.random.default_rng(23)
    for setup in (build_ghz_setup(3), build_squeezing_setup(3)):
        assert setup.observable.squared() == (1.0, None)
        thetas = rng.uniform(0, TWO_PI, 10)
        r = response_polynomial(setup).evaluate(thetas)
        variance = sensitivity(setup, thetas).variance
        assert np.array_equal(variance, np.clip(1.0 - r * r, 0.0, None))
        assert np.abs(variance - _dense_variance(setup, thetas)).max() < 1e-9


def _variance_setups():
    from qsense.variational import TrainableMeasurement, train_measurement

    measurement = TrainableMeasurement.convolutional(4)
    trained = train_measurement(measurement, epochs=20, seed=3).final_params
    cases = [build_setup(kind, n, noise, 2, 9) for kind, n in (("ghz", 4), ("squeezing", 3),
             ("random", 4)) for noise in (0.0, 0.02)]
    return cases + [measurement.setup(trained)]


@pytest.mark.parametrize("setup", _variance_setups(), ids=lambda s: f"{s.kind}{s.n}-{s.noise}")
def test_sensitivity_variance_matches_dense_oracle(setup):
    thetas = np.random.default_rng(setup.n).uniform(0.0, TWO_PI, 25)
    variance = sensitivity(setup, thetas).variance
    assert np.abs(variance - np.clip(_dense_variance(setup, thetas), 0.0, None)).max() < 1e-12
    if setup.observable.is_single_pauli:
        r = response_polynomial(setup).evaluate(thetas)
        assert np.array_equal(variance, np.clip(1.0 - r**2, 0.0, None))


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
    for empty_or_reversed in [(0.3, 0.3), (0.5, 0.1)]:
        with pytest.raises(ValueError, match="lo < hi"):
            sensitivity_error_check(build_squeezing_setup(4), theta_range=empty_or_reversed)


@pytest.mark.parametrize("shots", [None, 400])
def test_sensitivity_error_check_seed_list_equals_single_seeds(shots):
    setup = build_squeezing_setup(4, noise=0.01)
    reports = sensitivity_error_check(setup, shots=shots, seed=[3, 8, 3])
    for seed, report in zip([3, 8, 3], reports):
        alone = sensitivity_error_check(setup, shots=shots, seed=seed)
        for field in dataclasses.fields(report):
            mine, theirs = getattr(report, field.name), getattr(alone, field.name)
            assert np.array_equal(mine, theirs, equal_nan=True), field.name
    assert sensitivity_error_check(setup, shots=shots, seed=[]) == []


def test_sensitivity_error_check_custom_setup_needs_range():
    from qsense.sim import build_random_ansatz_setup

    with pytest.raises(ValueError):
        sensitivity_error_check(build_random_ansatz_setup(3, layers=2, seed=0))


def _assert_array_matches_scalar_calls(source, thetas):
    """An array call's entries, and a one-angle array's, against the float
    calls at its angles, bit for bit."""
    curve = sensitivity(source, np.array(thetas))
    for k, theta in enumerate(thetas):
        point = sensitivity(source, theta)
        one = sensitivity(source, np.array([theta]))
        for field in dataclasses.fields(point):
            value = getattr(point, field.name)
            assert type(value) is (bool if field.name == "divergent" else float)
            assert np.array_equal(getattr(one, field.name), [value]), field.name
            assert np.array_equal(getattr(curve, field.name)[k], value), field.name


def test_sensitivity_point_equals_curve_bit_for_bit():
    rng = np.random.default_rng(41)
    for degree in range(9):
        poly = TrigPoly(rng.normal(size=degree), rng.normal(size=degree), float(rng.normal()))
        thetas = list(rng.uniform(-TWO_PI, TWO_PI, 20))
        _assert_array_matches_scalar_calls(poly, thetas)
        if degree:
            # extrema of cos(D theta) + c, where the slope is at round-off level
            flat = TrigPoly(np.eye(degree)[-1], np.zeros(degree), poly.c)
            _assert_array_matches_scalar_calls(flat, [0.0, math.pi / degree] + thetas[:5])
            assert sensitivity(flat, np.array([0.0, math.pi / degree])).divergent.all()
    constant = sensitivity(TrigPoly.constant(0.3), np.array([1.0, 2.0]))
    assert constant.divergent.all() and np.isinf(constant.delta_theta_sq).all()
    _assert_array_matches_scalar_calls(TrigPoly.constant(0.3), [1.0, 2.0])


def test_sensitivity_curve_matches_pointwise():
    _assert_array_matches_scalar_calls(build_ghz_setup(3), list(np.linspace(0.02, 0.9, 25)))
    random_setup = build_setup("random", 3, 0.0, 2, 5)  # readout: the mean of X on each qubit
    assert not random_setup.observable.is_single_pauli
    _assert_array_matches_scalar_calls(random_setup, [0.3, 1.1, 2.5])


def test_sensitivity_error_check_single_qubit_bound():
    # ln 1 = 0 would make the bound 0 and fail the check at any epsilon > 0
    report = sensitivity_error_check(build_ghz_setup(1), shots=200, seed=1234)
    assert report.epsilon > 0
    assert report.bound_value == sup_norm_bound(report.epsilon, 1) / report.min_slope
    assert report.bound_value > 0
    assert report.holds


@pytest.mark.parametrize("kind, n, degree", [("squeezing", 4, 6), ("ghz", 4, 4)])
def test_sensitivity_error_check_bound_keyed_on_degree(kind, n, degree):
    # the squeezing encoding has n(n-1)/2 = 6 terms at n = 4, so its curve
    # has degree 6 and the bound carries ln 6, not ln n = ln 4
    report = sensitivity_error_check(build_setup(kind, n, 0.0, 4, 0), shots=1000, seed=1234)
    assert report.epsilon > 0
    assert report.bound_value == sup_norm_bound(report.epsilon, degree) / report.min_slope


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


# -- batched inversion and the screened cosine-fit grid ------------------------
#
# The oracles below are the scalar golden-section inversion, the slope-sign
# scan that decided bijectivity inside it, and the full lstsq coarse grid,
# as they ran before the estimator took arrays of fields.  The batched code
# and ``is_bijective`` must reproduce them bit for bit, except that a
# constant curve is no longer bijective.


def _golden_section_oracle(fn, lo, hi, width=1e-10):
    golden = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - golden * (b - a)
    d = a + golden * (b - a)
    fc, fd = fn(c), fn(d)
    while b - a > width:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - golden * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + golden * (b - a)
            fd = fn(d)
    return 0.5 * (a + b)


def _slope_sign_oracle(poly, lo, hi):
    if not np.any(np.concatenate([poly.a, poly.b])):
        return False  # a constant curve identifies no theta
    # a slope within 8 eps * sum_s s (|a_s| + |b_s|) of zero counts as zero
    s = np.arange(1, poly.degree + 1)
    floor = 8 * np.finfo(float).eps * np.sum(s * (np.abs(poly.a) + np.abs(poly.b)))
    slopes = poly.derivative().evaluate(np.linspace(lo, hi, 512))
    nonzero = np.sign(slopes[np.abs(slopes) > floor])
    return bool(len(nonzero) == 0 or np.all(nonzero == nonzero[0]))


def _estimate_oracle(response, measured, domain, branches):
    lo, hi = float(domain[0]), float(domain[1])
    grid = np.linspace(lo, hi, 1024)
    residuals = np.abs(np.asarray(response.evaluate(grid)) - measured)
    best = int(np.argmin(residuals))
    left = grid[max(best - 1, 0)]
    right = grid[min(best + 1, len(grid) - 1)]
    fn = lambda th: abs(response.evaluate(th) - measured)
    branches.append(right > left)
    theta_star = _golden_section_oracle(fn, left, right) if right > left else grid[best]
    return float(theta_star), (lo, hi), float(fn(theta_star))


def _fields(response, count, rng):
    """``count`` (measured, lo, hi) fields cycling through: a value inside
    the range, exactly +1 and -1, values outside the range, windows near
    |theta| = 1e5, two-ulp domains and one of denormal width."""
    cases = []
    while len(cases) < count:
        k = len(cases)
        centre = rng.uniform(-4.0, 4.0)
        half = rng.uniform(0.01, 0.4)
        kind = k % 7
        if kind == 0:
            measured = float(response.evaluate(centre + rng.uniform(-half, half)))
        elif kind in (1, 2):
            measured = 1.0 if kind == 1 else -1.0
        elif kind == 3:
            measured = float(rng.choice([-1.5, 2.0, 7.0]))
        elif kind == 4:
            centre = float(rng.choice([-1.0, 1.0])) * 1e5 + rng.uniform(-1.0, 1.0)
            measured = float(response.evaluate(centre))
        elif kind == 5:
            centre, half = float(rng.choice([0.5, 1.0, 3.0])), 0.0
            measured = float(rng.uniform(-1.0, 1.0))
        else:
            cases.append((0.3, 0.0, 1e-322))
            continue
        lo = centre - half
        hi = centre + half if half else np.nextafter(np.nextafter(centre, 9.0), 9.0)
        cases.append((measured, lo, float(hi)))
    return [np.array(col) for col in zip(*cases)]


def _check_batched(response, count, seed):
    measured, lo, hi = _fields(response, count, np.random.default_rng(seed))
    got = estimate_parameter(response, measured, (lo, hi))
    branches = []
    want = [_estimate_oracle(response, m, (l, h), branches) for m, l, h in zip(measured, lo, hi)]
    assert len(got) == count
    for k, name in enumerate(("theta_star", "domain", "residual")):
        assert np.array_equal([getattr(o, name) for o in got], [w[k] for w in want]), name
    for m, l, h, w in zip(measured[:9], lo, hi, want):
        one = estimate_parameter(response, float(m), (float(l), float(h)))
        assert (one.theta_star, one.domain, one.residual) == w
    if isinstance(response, TrigPoly):
        for l, h in zip(lo.tolist(), hi.tolist()):
            assert is_bijective(response, l, h) == _slope_sign_oracle(response, l, h), (l, h)
    return branches


def _block_fields(degree):
    # two full blocks of the 2**15-value cap plus a partial one
    return 2 * max(1, 2**15 // (1024 * max(degree, 1))) + 3


@pytest.mark.parametrize("degree", range(13))
def test_batched_estimate_matches_scalar_oracle(degree):
    rng = np.random.default_rng(100 + degree)
    scale = 1.0 / max(degree, 1)
    poly = TrigPoly(rng.normal(size=degree) * scale, rng.normal(size=degree) * scale,
                    rng.normal() * 0.2)
    count = _block_fields(degree)
    branches = _check_batched(poly, count, seed=degree)
    assert any(branches) and not all(branches)  # golden-section and grid-point fields
    if degree:
        flat = TrigPoly(np.eye(degree)[-1], np.zeros(degree), 0.0)  # cos(D theta), flat at +-1
        _check_batched(flat, count, seed=50 + degree)


def test_batched_estimate_matches_scalar_oracle_for_cosine_fit():
    fit = CosineFit(0.8, 3.0, 0.4, 0.1, 0.0)
    _check_batched(fit, 75, seed=7)


@pytest.mark.parametrize("poly, lo, hi, want", [
    (TrigPoly([1.0], [0.0], 0.0), 0.5, 2.5, True),  # cos, monotone
    (TrigPoly([1.0], [0.0], 0.0), 2.5, 4.0, False),  # across the minimum at pi
    (TrigPoly([0.3, 0.0], [0.0, 0.2], 0.1), -3.0, 3.0, False),
    (TrigPoly([1.0], [0.0], 0.0), 0.0, 2.0, True),  # flat maximum at the left end
    (TrigPoly([1.0], [0.0], 0.0), -1.0, 0.0, True),  # and at the right end
    (TrigPoly([0.0, 0.0, 1.0], [0.0, 0.0, 0.0], 0.0), 0.0, math.pi / 3, True),  # at both
    (TrigPoly([], [], 0.3), 0.0, 1.0, False),  # constant
    (TrigPoly([0.0, -0.0], [-0.0, 0.0], 0.3), 0.0, 1.0, False),  # constant, degree 2
    (TrigPoly([1.0], [0.0], 0.0), math.pi, 4.0, True),  # float pi sits just short of the minimum
    (TrigPoly([1.0], [0.0], 0.0), -4.0, -math.pi, True),  # and at the right end
])
def test_is_bijective(poly, lo, hi, want):
    assert is_bijective(poly, lo, hi) is want
    assert _slope_sign_oracle(poly, lo, hi) is want


def test_batched_estimate_scalar_domain_broadcasts():
    poly = TrigPoly([0.5, -0.2], [0.1, 0.3], 0.05)
    measured = np.array([0.1, 0.4, -0.3])
    got = estimate_parameter(poly, measured, (0.2, 1.4))
    assert [o.theta_star for o in got] == [
        estimate_parameter(poly, float(m), (0.2, 1.4)).theta_star for m in measured
    ]
    with pytest.raises(ValueError, match="1-D"):
        estimate_parameter(poly, np.zeros((2, 2)), (0.2, 1.4))
    with pytest.raises(ValueError, match=r"domain .*\(1\.0, 0\.5\)"):
        estimate_parameter(poly, measured, (np.array([0.0, 1.0, 0.0]), np.full(3, 0.5)))


def test_estimate_parameter_rejects_overflowing_domain_width():
    with pytest.raises(ValueError, match="domain"):
        estimate_parameter(TrigPoly([1.0], [0.0], 0.0), 0.5, (-1e308, 1e308))


def test_estimate_parameter_terminates_on_ulp_wide_brackets():
    # at |theta| = 1e6 one ulp (1.16e-10) exceeds the 1e-10 bracket width
    poly = TrigPoly([0.0, 0.0, 1.0], [0.0, 0.0, 0.0], 0.0)
    out = estimate_parameter(poly, 0.5, (1e6, 1e6 + 1.0))
    assert math.isfinite(out.theta_star) and 1e6 <= out.theta_star <= 1e6 + 1.0
    assert out.residual < 1e-6
    rng = np.random.default_rng(3)
    centres = rng.choice([-1.0, 1.0], 200) * 10.0 ** rng.uniform(5.5, 15.0, 200)
    widths = np.abs(centres) * 10.0 ** rng.uniform(-15.0, -8.0, 200)
    outs = estimate_parameter(poly, rng.uniform(-1.0, 1.0, 200), (centres, centres + widths))
    assert all(centres[k] <= o.theta_star <= centres[k] + widths[k] for k, o in enumerate(outs))


def _coarse_fit_oracle(th, d, degree):
    best_sse = math.inf
    best = None
    ones = np.ones_like(th)
    for beta in np.arange(0.5, degree + 0.5 + 1e-9, 0.25):
        for gamma in np.arange(0.0, 2.0 * math.pi, math.pi / 16.0):
            design = np.column_stack([np.cos(beta * th + gamma), ones])
            coef, *_ = np.linalg.lstsq(design, d, rcond=None)
            resid = design @ coef - d
            sse = float(resid @ resid)
            if sse < best_sse:
                best_sse = sse
                best = np.array([coef[0], beta, gamma, coef[1]])
    return best


def _screen_samples():
    samples = []
    for kind, n in (("ghz", 4), ("ghz", 8), ("random", 5), ("squeezing", 4)):
        for noise in (0.0, 0.02):
            setup = build_setup(kind, n, noise=noise, layers=2, seed=3)
            for shots in (None, 50, 1000):
                samples.append(infer_response(setup, shots=shots, seed=n).samples)
    rng = np.random.default_rng(8)
    for count in (5, 9, 13):
        nodes = NodeSet(np.sort(rng.uniform(0.0, TWO_PI, count)))
        samples.append(SampleVector(nodes, rng.normal(size=count)))
    # pure noise: no phase fits well, so the near-zero column at beta = D + 1/2,
    # gamma = pi/2 (whose closed-form SSE is far off) must not set the bound;
    # a margin blind to that column's conditioning picks a wrong point here
    for degree, seed in ((2, 2), (2, 8), (3, 8), (3, 12), (5, 14), (7, 208)):
        noise = np.random.default_rng(seed).normal(size=2 * degree + 1)
        samples.append(SampleVector(equidistant_nodes(degree), noise))
    samples.append(SampleVector(equidistant_nodes(3), np.full(7, -0.4)))
    return samples


def test_screened_cosine_grid_matches_full_lstsq(monkeypatch):
    samples = _screen_samples()
    assert any(not s.nodes.is_equidistant for s in samples)
    for s in samples[:-1]:
        th, d = s.nodes.angles, s.values
        assert np.array_equal(inference._coarse_fit(th, d, s.degree),
                              _coarse_fit_oracle(th, d, s.degree))
        betas = np.arange(0.5, s.degree + 0.5 + 1e-9, 0.25)
        gammas = np.arange(0.0, 2.0 * math.pi, math.pi / 16.0)
        # a handful of lstsq solves, not the whole grid; at beta = D + 1/2 the
        # column is (-1)^k cos(gamma) on equidistant nodes, so all 32 phases tie
        assert inference._screened_grid(th, d, betas, gammas).sum() <= 40
    screened = [cosine_fit(s) for s in samples]
    monkeypatch.setattr(inference, "_coarse_fit", _coarse_fit_oracle)
    full = [cosine_fit(s) for s in samples]
    for a, b in zip(screened, full):
        for name in ("alpha", "beta", "gamma", "zeta", "residual_rms"):
            assert getattr(a, name) == getattr(b, name), name
