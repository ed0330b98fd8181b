"""Training a measurement circuit against the inferred response.

A fixed GHZ probe is encoded with H = sum_j Z_j; a parameterized
coarsening circuit (two-qubit blocks that halve the active register each
stage, ending on one readout qubit measured in Z) plays the role of the
pre-measurement channel.  The loss pushes the inferred response towards
the steepest usable curve R(theta) ~ n * theta on the window
(-pi/n, pi/n):

    L(params) = (n / 2 pi) * integral_{-pi/n}^{pi/n} (R(params; theta)/n - theta)^2 dtheta

and is evaluated from the response polynomial by Gauss-Legendre
quadrature, exact to round-off; no shot noise enters during training.

Training is exact coordinate descent (``minimize``): by the 2D+1 rule at
D = 1, the loss is a degree-2 trigonometric polynomial in each parameter,
and an epoch moves one parameter to its closed-form global minimizer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cache

import numpy as np

from .inference import Sensitivity, response_polynomial, sensitivity
from .sim import Observable, PauliString, SensingSetup, build_ghz_setup
from .sim.channels import Channel, GateOp
from .trig import SampleVector, TrigPoly, coeffs_closed_form, equidistant_nodes

PARAMS_PER_BLOCK = 6
# a parameter's shifts that fix the response (D = 1) and the loss (D = 2)
_SHIFTS = equidistant_nodes(1)
_LOSS_NODES = equidistant_nodes(2)
# a parameter moves only when its loss model's minimum lies this far below
# the current loss; the model agrees with mse_loss to within 7e-16 (every
# parameter of random starts at n = 2, 4, 5)
MOVE_MARGIN = 1e-12


@dataclass(frozen=True)
class TrainableMeasurement:
    """Coarsening measurement template.

    ``blocks`` lists (control, target) pairs; each block applies RZ, RY on
    both qubits, a CNOT onto the target, then RY, RZ on the target, which
    stays active while the control is dropped.  The readout observable is Z
    on the last remaining qubit (squares to the identity by construction).
    """

    n: int
    blocks: tuple[tuple[int, int], ...]
    readout: int

    @classmethod
    def convolutional(cls, n: int) -> "TrainableMeasurement":
        if n < 2:
            raise ValueError("need at least 2 qubits to coarsen")
        active = list(range(n))
        blocks: list[tuple[int, int]] = []
        while len(active) > 1:
            kept: list[int] = []
            for i in range(0, len(active) - 1, 2):
                blocks.append((active[i], active[i + 1]))
                kept.append(active[i + 1])
            if len(active) % 2:
                kept.append(active[-1])
            active = kept
        return cls(n, tuple(blocks), active[0])

    @property
    def parameter_count(self) -> int:
        return PARAMS_PER_BLOCK * len(self.blocks)

    def channel(self, params) -> Channel:
        params = np.asarray(params, dtype=float).reshape(-1)
        if len(params) != self.parameter_count:
            raise ValueError(
                f"expected {self.parameter_count} parameters, got {len(params)}"
            )
        ops: list[GateOp] = []
        for b, (ctrl, targ) in enumerate(self.blocks):
            p = params[PARAMS_PER_BLOCK * b : PARAMS_PER_BLOCK * (b + 1)]
            ops.append(GateOp("rz", (ctrl,), (p[0],)))
            ops.append(GateOp("ry", (ctrl,), (p[1],)))
            ops.append(GateOp("rz", (targ,), (p[2],)))
            ops.append(GateOp("ry", (targ,), (p[3],)))
            ops.append(GateOp("cnot", (ctrl, targ)))
            ops.append(GateOp("ry", (targ,), (p[4],)))
            ops.append(GateOp("rz", (targ,), (p[5],)))
        return Channel(tuple(ops))

    def observable(self) -> Observable:
        return Observable(((1.0, PauliString.on("Z", (self.readout,), self.n)),))

    def setup(self, params) -> SensingSetup:
        """GHZ probe + Z-sum encoding + this measurement circuit."""
        return replace(
            build_ghz_setup(self.n),
            premeasurement=self.channel(params),
            observable=self.observable(),
            kind="variational",
        )


@cache
def _window_rule(n: int, degree: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre angles on (-pi/n, pi/n) and weights for ``window_mse``
    at degree D; the weights carry the prefactor (n / 2 pi) (pi / n) = 1/2.

    In x = t n / pi the integrand is a sum of x^k e^{iwx}, k <= 2, with
    |w| <= 2 pi D / n.  m nodes integrate degree 2m - 1 exactly, so the
    error is of order (e |w| / 4m)^{2m}; at m = 8 ceil(D/n) + 16 the ratio
    is below e pi / 16 < 0.54, and 0.18 at D <= n, where the error is about
    1e-36: the quadrature is exact to round-off."""
    x, w = np.polynomial.legendre.leggauss(8 * -(-degree // n) + 16)
    t, weights = (math.pi / n) * x, 0.5 * w
    t.flags.writeable = weights.flags.writeable = False
    return t, weights


def window_mse(poly: TrigPoly, n: int) -> float:
    """(n / 2 pi) * integral_{-pi/n}^{pi/n} (poly(t)/n - t)^2 dt, by
    Gauss-Legendre quadrature at ``_window_rule``'s nodes."""
    t, weights = _window_rule(n, poly.degree)
    return float(weights @ (poly.evaluate(t) / n - t) ** 2)


def mse_loss(measurement: TrainableMeasurement, params) -> float:
    """Window MSE of the measurement circuit's inferred response (exact
    expectations; no shot noise enters training)."""
    poly = response_polynomial(measurement.setup(params))
    return window_mse(poly, measurement.n)


@dataclass(frozen=True)
class TrainingTrace:
    """Loss history (the initial loss, then one entry per epoch) and the
    sensitivity curves before (``pre``) and after (``post``) training over
    the working window."""

    losses: tuple[float, ...]
    initial_params: np.ndarray
    final_params: np.ndarray
    initial_loss: float
    final_loss: float
    epochs_used: int
    pre: Sensitivity
    post: Sensitivity

    def to_json_dict(self) -> dict:
        return {
            "losses": [float(v) for v in self.losses],
            "initial_params": [float(v) for v in self.initial_params],
            "final_params": [float(v) for v in self.final_params],
            "initial_loss": self.initial_loss,
            "final_loss": self.final_loss,
            "epochs_used": self.epochs_used,
        }


def _finite(value: float, params) -> float:
    if not math.isfinite(value):
        raise RuntimeError(f"non-finite loss {value!r} at parameters {np.asarray(params).tolist()}")
    return value


def minimize(
    measurement: TrainableMeasurement, x0, poly: TrigPoly, epochs: int
) -> tuple[np.ndarray, list[float]]:
    """Exact coordinate descent on the window MSE from ``x0``, whose response
    polynomial is ``poly``.  Returns the final parameters and the losses:
    the initial loss, then one entry per epoch, non-increasing.

    An epoch updates one parameter p, in turn.  By the 2D+1 rule at D = 1,
    every response coefficient is A + B cos u + C sin u in a shift u of p,
    fixed by the known curve at u = 0 and two simulated ones at 2 pi/3 and
    4 pi/3.  The loss, quadratic in the coefficients, is then a degree-2
    trigonometric polynomial in u, fixed by its values at 2 pi k/5 (the
    current loss at k = 0).  p moves to that model's global minimizer, the
    least-valued of u = 0 and its critical points, when the minimum lies
    more than MOVE_MARGIN below the current loss.  The run stops after a
    sweep over every parameter that moved none, or after ``epochs`` epochs.
    """
    n, d = measurement.n, poly.degree
    params = np.array(x0, dtype=float)
    losses = [_finite(window_mse(poly, n), params)]
    idle = 0  # epochs since the last move
    for epoch in range(epochs):
        if epoch % len(params) == 0 and idle >= len(params):
            break
        unit = np.eye(len(params))[epoch % len(params)]
        shifted = [response_polynomial(measurement.setup(params + u * unit))
                   for u in _SHIFTS.angles[1:]]
        table = np.array([np.r_[p.a, p.b, p.c] for p in (poly, *shifted)])

        def at(u: float) -> TrigPoly:  # coeffs_closed_form's D = 1 interpolant
            c = (1.0 + 2.0 * np.cos(u - _SHIFTS.angles)) / 3.0 @ table
            return TrigPoly(c[:d], c[d : 2 * d], c[2 * d])

        values = [losses[-1]] + [
            _finite(window_mse(at(u), n), params + u * unit) for u in _LOSS_NODES.angles[1:]
        ]
        model = coeffs_closed_form(SampleVector(_LOSS_NODES, values))
        shifts = np.append(0.0, model.critical_points())
        lows = model.evaluate(shifts)
        k = int(np.argmin(lows))
        moved = lows[k] < losses[-1] - MOVE_MARGIN
        if moved:
            params, poly = params + shifts[k] * unit, at(shifts[k])
        idle = 0 if moved else idle + 1
        losses.append(float(lows[k]) if moved else losses[-1])
    return params, losses


def train_measurement(
    measurement: TrainableMeasurement | None = None,
    epochs: int = 500,
    seed: int = 0,
) -> TrainingTrace:
    """Minimize the window MSE over the circuit parameters from a uniform
    random start in [0, 2 pi) by ``minimize``'s exact coordinate descent."""
    if epochs < 1:
        raise ValueError("epochs must be >= 1")
    if measurement is None:
        measurement = TrainableMeasurement.convolutional(4)
    rng = np.random.default_rng(seed)
    x0 = rng.uniform(0.0, 2.0 * math.pi, measurement.parameter_count)
    start = response_polynomial(measurement.setup(x0))
    params, losses = minimize(measurement, x0, start, epochs)
    w = math.pi / measurement.n
    grid = np.linspace(-w, w, 203)[1:-1]  # 201 interior points of the window
    return TrainingTrace(
        losses=tuple(losses),
        initial_params=x0,
        final_params=params,
        initial_loss=losses[0],
        final_loss=_finite(mse_loss(measurement, params), params),
        epochs_used=len(losses) - 1,
        pre=sensitivity(start, grid),
        post=sensitivity(response_polynomial(measurement.setup(params)), grid),
    )
