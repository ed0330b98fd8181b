import math
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import qsense
from qsense.inference import response_polynomial
from qsense.trig import TrigPoly
from qsense.variational import (
    MAX_RESTARTS,
    TrainableMeasurement,
    _nelder_mead,
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


def test_training_restarts_stop_at_the_cap():
    # seed 1 stalls before 400 epochs, so the restart branch runs; with 1500
    # epochs the fourth stall (epoch 1364) ends the run at MAX_RESTARTS
    trace = train_measurement(TrainableMeasurement.convolutional(2), epochs=1500, seed=1)
    assert trace.restarts_used == MAX_RESTARTS == 3
    assert trace.epochs_used < 1500
    losses = np.array(trace.losses)
    assert np.all(np.diff(losses) <= 0.0)
    assert losses[0] == trace.initial_loss and losses[-1] == trace.final_loss


def _recorded(f, calls, marks):
    def g(x):
        calls.append(np.copy(x))
        return f(x)

    def step(best):
        marks.append((len(calls), best))

    return g, step


def _scipy_nelder_mead(f, x0, maxiter, initial_simplex=None):
    minimize = pytest.importorskip("scipy.optimize").minimize
    calls, marks = [], []
    g, step = _recorded(f, calls, marks)
    options = dict(maxiter=maxiter, xatol=1e-8, fatol=1e-12, adaptive=True)
    if initial_simplex is not None:
        options["initial_simplex"] = initial_simplex
    res = minimize(g, x0, method="Nelder-Mead", options=options,
                   callback=lambda intermediate_result: step(intermediate_result.fun))
    return res.x, res.fun, res.nit, calls, marks


def _port_nelder_mead(f, x0, maxiter, initial_simplex=None):
    calls, marks = [], []
    g, step = _recorded(f, calls, marks)
    x, fun, nit = _nelder_mead(g, x0, maxiter, step, initial_simplex)
    return x, fun, nit, calls, marks


def _terraced(x):
    # flat terraces: tied simplex values, failed contractions and shrink steps
    return float(np.floor(4.0 * np.sum(x**2)))


def _bowl(x):
    return float((x[0] - 1.0) ** 2 + 2.0 * (x[1] + 0.5) ** 2 + 0.5 * x[0] * x[1])


_N2 = TrainableMeasurement.convolutional(2)
_N4 = TrainableMeasurement.convolutional(4)
_START = np.random.default_rng(11)
_X2 = _START.uniform(0.0, 2.0 * math.pi, _N2.parameter_count)
_X4 = _START.uniform(0.0, 2.0 * math.pi, _N4.parameter_count)
_SIMPLEX2 = _X2 + 0.4 * _START.standard_normal((len(_X2) + 1, len(_X2)))


@pytest.mark.parametrize("f, x0, maxiter, simplex", [
    (_bowl, np.array([0.0, 2.0]), 400, None),  # stops on the x and f tolerances
    (_terraced, np.array([1.5, 0.0, -0.7]), 120, None),  # a zero coordinate
    (_terraced, np.array([1.5, 0.0, -0.7]), 120, _START.normal(size=(4, 3))),
    (_bowl, np.array([0.5, 0.5]), 1, None),  # iterations start at 1: no step
    (lambda p: mse_loss(_N2, p), _X2, 150, None),
    (lambda p: mse_loss(_N2, p), _X2, 150, _SIMPLEX2),
    (lambda p: mse_loss(_N4, p), _X4, 25, None),
], ids=["bowl-converges", "terraced", "terraced-simplex", "maxiter-1", "n2", "n2-simplex", "n4"])
def test_nelder_mead_matches_scipy_step_for_step(f, x0, maxiter, simplex):
    want = _scipy_nelder_mead(f, x0, maxiter, simplex)
    got = _port_nelder_mead(f, x0, maxiter, simplex)
    assert np.array_equal(got[0], want[0])
    assert got[1] == want[1] and got[2] == want[2]
    assert len(got[3]) == len(want[3])
    assert all(np.array_equal(a, b) for a, b in zip(got[3], want[3]))
    assert got[4] == want[4]
    if maxiter == 1:
        assert got[2] == 1 and got[4] == [] and len(got[3]) == len(x0) + 1


def test_nelder_mead_cases_reach_each_stop_and_branch():
    _, _, nit, _, _ = _port_nelder_mead(_bowl, np.array([0.0, 2.0]), 400)
    assert nit < 400  # the tolerance test ended the run
    _, _, nit, calls, marks = _port_nelder_mead(_terraced, np.array([1.5, 0.0, -0.7]), 120)
    evals = np.diff([3 + 1] + [m[0] for m in marks])  # evaluations per step
    assert 2 + 3 in evals  # a shrink step: reflect, contract, then 3 vertices


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
