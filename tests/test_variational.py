import math
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import qsense
import qsense.inference
from qsense.inference import response_polynomial
from qsense.trig import SampleVector, TrigPoly, coeffs_closed_form, equidistant_nodes
from qsense.variational import (
    TrainableMeasurement,
    minimize,
    mse_loss,
    train_measurement,
    window_mse,
)


def test_convolutional_template_structure():
    m = TrainableMeasurement.convolutional(4)
    assert m.blocks == ((0, 1), (2, 3), (1, 3))
    assert m.readout == 3
    assert m.parameter_count == 18
    obs = m.observable()
    assert obs.is_single_pauli
    np.testing.assert_allclose(obs.matrix() @ obs.matrix(), np.eye(16), atol=1e-12)


def test_template_odd_width():
    m = TrainableMeasurement.convolutional(5)
    assert m.blocks == ((0, 1), (2, 3), (1, 3), (3, 4))
    assert m.readout == 4


def test_channel_parameter_count_enforced():
    m = TrainableMeasurement.convolutional(4)
    with pytest.raises(ValueError):
        m.channel(np.zeros(5))


def test_window_mse_constant_zero_oracle():
    n = 4
    expected = (n / (2 * math.pi)) * (2.0 / 3.0) * (math.pi / n) ** 3
    assert abs(window_mse(TrigPoly.constant(0.0), n) - expected) < 1e-15


def test_loss_matches_trapezoid_quadrature():
    m = TrainableMeasurement.convolutional(4)
    rng = np.random.default_rng(2)
    w = math.pi / 4
    thetas = np.linspace(-w, w, 10_001)
    for _ in range(3):
        params = rng.uniform(0, 2 * math.pi, m.parameter_count)
        analytic = mse_loss(m, params)
        poly = response_polynomial(m.setup(params))
        quad = np.trapezoid((poly.evaluate(thetas) / 4 - thetas) ** 2, thetas) * (
            4 / (2 * math.pi)
        )
        assert abs(analytic - quad) < 1e-8


def _window_mse_by_antiderivatives(poly, n):
    """The window MSE in closed form: poly^2 through its complex coefficients
    g_m (the integral of e^{ikt} on [-w, w] is 2 sin(kw)/k), the odd part of
    poly against t, and t^2."""
    w = math.pi / n
    s = np.arange(1, poly.degree + 1)
    m = np.arange(-poly.degree, poly.degree + 1)
    g = np.r_[(0.5 * (poly.a + 1j * poly.b))[::-1], poly.c, 0.5 * (poly.a - 1j * poly.b)]
    square = (g @ (2 * w * np.sinc(np.add.outer(m, m) * w / math.pi)) @ g).real
    cross = poly.b @ (2 * (np.sin(s * w) / s**2 - w * np.cos(s * w) / s))
    return n / (2 * math.pi) * (square / n**2 - 2 * cross / n + 2 * w**3 / 3)


@pytest.mark.parametrize("n", [2, 4, 8])
def test_window_mse_matches_closed_form_at_every_node_count(n):
    rng = np.random.default_rng(n)
    for d in (1, n, 2 * n, 4 * n):
        for _ in range(20):
            poly = TrigPoly(rng.normal(size=d), rng.normal(size=d), float(rng.normal()))
            ref = _window_mse_by_antiderivatives(poly, n)
            assert abs(window_mse(poly, n) - ref) <= 1e-13 * ref


def test_setup_uses_measurement_as_premeasurement():
    m = TrainableMeasurement.convolutional(4)
    params = np.zeros(m.parameter_count)
    setup = m.setup(params)
    assert setup.n == 4
    assert setup.encoding_degree == 4
    assert len(setup.premeasurement.ops) == 3 * 7
    assert not setup.needs_density


def test_training_reduces_loss_and_reaches_standard_limit():
    trace = train_measurement(epochs=500, seed=1)
    assert trace.final_loss <= trace.initial_loss
    assert all(b <= a + 1e-15 for a, b in zip(trace.losses, trace.losses[1:]))
    finite = trace.post.delta_theta_sq[np.isfinite(trace.post.delta_theta_sq)]
    assert finite.min() <= 0.25


def test_training_deterministic_given_seed():
    a = train_measurement(epochs=40, seed=7)
    b = train_measurement(epochs=40, seed=7)
    assert a.losses == b.losses
    np.testing.assert_array_equal(a.final_params, b.final_params)


def test_training_validation_and_trace_fields():
    with pytest.raises(ValueError):
        train_measurement(epochs=0)
    trace = train_measurement(epochs=5, seed=3)
    assert trace.epochs_used >= 1
    doc = trace.to_json_dict()
    assert doc["initial_loss"] == trace.initial_loss
    assert len(doc["losses"]) == len(trace.losses)
    assert np.array_equal(trace.pre.theta, trace.post.theta)
    assert len(trace.pre.theta) == len(trace.pre.delta_theta_sq) == len(trace.post.divergent)


def _shifted(params, j, u):
    out = np.array(params, dtype=float)
    out[j] += u
    return out


def _coefficients(poly):
    return np.concatenate([poly.a, poly.b, [poly.c]])


def test_response_and_loss_are_degree_one_and_two_in_each_parameter():
    m = TrainableMeasurement.convolutional(4)
    rng = np.random.default_rng(5)
    params = rng.uniform(0, 2 * math.pi, m.parameter_count)
    three, five = equidistant_nodes(1), equidistant_nodes(2)
    for j in range(m.parameter_count):
        table = np.array([
            _coefficients(response_polynomial(m.setup(_shifted(params, j, u)))) for u in three
        ])
        curves = [coeffs_closed_form(SampleVector(three, column)) for column in table.T]
        model = coeffs_closed_form(
            SampleVector(five, [mse_loss(m, _shifted(params, j, u)) for u in five])
        )
        for u in rng.uniform(-math.pi, math.pi, 5):
            want = _coefficients(response_polynomial(m.setup(_shifted(params, j, u))))
            got = [curve.evaluate(u) for curve in curves]
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
            assert abs(model.evaluate(u) - mse_loss(m, _shifted(params, j, u))) <= 1e-12


def test_an_epoch_minimizes_the_loss_over_its_parameter():
    m = TrainableMeasurement.convolutional(3)
    x0 = np.random.default_rng(8).uniform(0, 2 * math.pi, m.parameter_count)
    poly = response_polynomial(m.setup(x0))
    grid = np.linspace(-math.pi, math.pi, 256, endpoint=False)
    for j in (0, 4, 7, 11):
        before, _ = minimize(m, x0, poly, j)
        after, losses = minimize(m, x0, poly, j + 1)
        assert np.array_equal(np.delete(after, j), np.delete(before, j))
        best = min(mse_loss(m, _shifted(before, j, u)) for u in grid)
        assert mse_loss(m, after) <= best + 1e-12
        assert abs(losses[-1] - mse_loss(m, after)) <= 1e-12


def test_an_epoch_costs_two_simulations(monkeypatch):
    m = TrainableMeasurement.convolutional(4)
    x0 = np.random.default_rng(3).uniform(0, 2 * math.pi, m.parameter_count)
    poly = response_polynomial(m.setup(x0))
    calls = []
    original = qsense.inference.exact_response

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(qsense.inference, "exact_response", counted)
    for epochs in (1, 7):
        calls.clear()
        _, losses = minimize(m, x0, poly, epochs)
        assert len(losses) == epochs + 1 and len(calls) == 2 * epochs


@pytest.mark.parametrize("n", [2, 3, 4])
def test_training_converges_to_the_heisenberg_limit(n):
    m = TrainableMeasurement.convolutional(n)
    trace = train_measurement(m, epochs=500, seed=1)
    finite = trace.post.delta_theta_sq[np.isfinite(trace.post.delta_theta_sq)]
    assert abs(finite.min() * n**2 - 1.0) <= 1e-6
    assert trace.epochs_used < 500 and trace.epochs_used % m.parameter_count == 0
    assert len(trace.losses) == trace.epochs_used + 1
    assert abs(trace.losses[-1] - trace.final_loss) <= 1e-12


def test_training_budget_can_end_mid_sweep():
    m = TrainableMeasurement.convolutional(4)
    trace = train_measurement(m, epochs=5, seed=2)
    assert trace.epochs_used == 5 < m.parameter_count
    assert len(trace.losses) == 6 and trace.final_loss < trace.initial_loss


def test_non_finite_loss_raises(monkeypatch):
    monkeypatch.setattr("qsense.variational.window_mse", lambda poly, n: math.nan)
    with pytest.raises(RuntimeError, match="non-finite loss nan"):
        train_measurement(TrainableMeasurement.convolutional(2), epochs=3)


def test_package_imports_no_scipy(tmp_path):
    script = textwrap.dedent(f"""
        import importlib, pkgutil, sys
        import qsense
        for info in pkgutil.walk_packages(qsense.__path__, "qsense."):
            importlib.import_module(info.name)
        from qsense.cli import main
        code = main(["train", "--n", "2", "--epochs", "2", "--out", {str(tmp_path / "t")!r}])
        assert code == 0, code
        loaded = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
        assert not loaded, loaded
    """)
    src = str(Path(qsense.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src), timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "t" / "trace.json").exists()
