import math

import numpy as np
import pytest

from qsense.inference import response_polynomial
from qsense.trig import TrigPoly
from qsense.variational import (
    MAX_RESTARTS,
    TrainableMeasurement,
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
