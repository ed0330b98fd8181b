"""Training a measurement circuit against the inferred response.

A fixed GHZ probe is encoded with H = sum_j Z_j; a parameterized
coarsening circuit (two-qubit blocks that halve the active register each
stage, ending on one readout qubit measured in Z) plays the role of the
pre-measurement channel.  The loss pushes the inferred response towards
the steepest usable curve R(theta) ~ n * theta on the window
(-pi/n, pi/n):

    L(params) = (n / 2 pi) * integral_{-pi/n}^{pi/n} (R(params; theta)/n - theta)^2 dtheta

and is evaluated in closed form from the response polynomial; no shot
noise enters during training.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .inference import Sensitivity, response_polynomial, sensitivity
from .sim import Observable, PauliString, SensingSetup, build_ghz_setup
from .sim.channels import Channel, GateOp
from .trig import TrigPoly

PARAMS_PER_BLOCK = 6
MAX_RESTARTS = 3


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


def _theta_weighted_integral(poly: TrigPoly, lo: float, hi: float) -> float:
    """integral theta * poly(theta) dtheta on [lo, hi], in closed form."""

    def anti(theta: float) -> float:
        total = 0.5 * poly.c * theta * theta
        for s in range(1, poly.degree + 1):
            a = poly.a[s - 1]
            b = poly.b[s - 1]
            total += a * (math.cos(s * theta) / s**2 + theta * math.sin(s * theta) / s)
            total += b * (math.sin(s * theta) / s**2 - theta * math.cos(s * theta) / s)
        return total

    return anti(hi) - anti(lo)


def window_mse(poly: TrigPoly, n: int) -> float:
    """Closed-form (n / 2 pi) * integral_{-pi/n}^{pi/n} (poly(t)/n - t)^2 dt.

    The square of the polynomial is expanded exactly (product of
    trigonometric polynomials), the linear cross term integrates in closed
    form, and the theta^2 term is elementary.
    """
    w = math.pi / n
    quad = (poly * poly).definite_integral(-w, w)
    cross = _theta_weighted_integral(poly, -w, w)
    cubic = 2.0 * w**3 / 3.0
    return float((n / (2.0 * math.pi)) * (quad / n**2 - 2.0 * cross / n + cubic))


def mse_loss(measurement: TrainableMeasurement, params) -> float:
    """Window MSE of the measurement circuit's inferred response (exact
    expectations; no shot noise enters training)."""
    poly = response_polynomial(measurement.setup(params))
    return window_mse(poly, measurement.n)


@dataclass(frozen=True)
class TrainingTrace:
    """Loss history (running best per accepted step) and the sensitivity
    curves before (``pre``) and after (``post``) training over the working
    window."""

    losses: tuple[float, ...]
    initial_params: np.ndarray
    final_params: np.ndarray
    initial_loss: float
    final_loss: float
    epochs_used: int
    restarts_used: int
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
            "restarts_used": self.restarts_used,
        }


def _nelder_mead(f, x0, maxiter: int, callback, initial_simplex=None):
    """Adaptive Nelder-Mead (Gao and Han, Comput. Optim. Appl. 51, 259
    (2012)), step for step as scipy 1.17.1's ``minimize(method="Nelder-Mead",
    options=dict(adaptive=True, xatol=1e-8, fatol=1e-12))``.

    ``initial_simplex`` (N+1 rows) replaces the default simplex: ``x0`` and
    one vertex per coordinate scaled by 1.05 (0.00025 where it is zero).
    ``callback(best)`` gets the lowest simplex value after every step.
    Returns the best vertex, its value and the iteration count, which
    starts at 1, so ``maxiter=1`` takes no step.
    """
    x0 = np.asarray(x0, dtype=float)
    dim = float(len(x0))
    rho = 1
    chi = 1 + 2 / dim
    psi = 0.75 - 1 / (2 * dim)
    sigma = 1 - 1 / dim
    if initial_simplex is None:
        sim = np.tile(x0, (len(x0) + 1, 1))
        for k in range(len(x0)):
            sim[k + 1, k] = 1.05 * x0[k] if x0[k] != 0 else 0.00025
    else:
        sim = np.array(initial_simplex, dtype=float)
    N = sim.shape[1]

    def func(x: np.ndarray) -> float:
        return f(np.copy(x))

    fsim = np.array([func(v) for v in sim], dtype=float)
    for _ in range(2):  # scipy sorts the first simplex twice
        ind = np.argsort(fsim)
        sim = np.take(sim, ind, 0)
        fsim = np.take(fsim, ind, 0)

    iterations = 1
    while iterations < maxiter:
        if (np.max(np.abs(sim[1:] - sim[0])) <= 1e-8  # xatol
                and np.max(np.abs(fsim[0] - fsim[1:])) <= 1e-12):  # fatol
            break
        xbar = np.add.reduce(sim[:-1], 0) / N
        xr = (1 + rho) * xbar - rho * sim[-1]
        fxr = func(xr)
        if fxr < fsim[0]:
            xe = (1 + rho * chi) * xbar - rho * chi * sim[-1]
            fxe = func(xe)
            sim[-1], fsim[-1] = (xe, fxe) if fxe < fxr else (xr, fxr)
        elif fxr < fsim[-2]:
            sim[-1], fsim[-1] = xr, fxr
        else:
            if fxr < fsim[-1]:  # outside contraction
                xc = (1 + psi * rho) * xbar - psi * rho * sim[-1]
                fxc = func(xc)
                accept = fxc <= fxr
            else:  # inside contraction
                xc = (1 - psi) * xbar + psi * sim[-1]
                fxc = func(xc)
                accept = fxc < fsim[-1]
            if accept:
                sim[-1], fsim[-1] = xc, fxc
            else:  # shrink towards the best vertex
                for j in range(1, N + 1):
                    sim[j] = sim[0] + sigma * (sim[j] - sim[0])
                    fsim[j] = func(sim[j])
        iterations += 1
        ind = np.argsort(fsim)
        sim = np.take(sim, ind, 0)
        fsim = np.take(fsim, ind, 0)
        callback(fsim[0])
    return sim[0], np.min(fsim), iterations


minimize = _nelder_mead  # the name perfbench's per-layer trace wraps (variational.optimizer)


def train_measurement(
    measurement: TrainableMeasurement | None = None,
    epochs: int = 500,
    seed: int = 0,
) -> TrainingTrace:
    """Minimize the window MSE over the circuit parameters with the
    adaptive Nelder-Mead simplex of Gao and Han (``_nelder_mead``, step for
    step as scipy 1.17.1's), restarting (up to ``MAX_RESTARTS`` times)
    around the incumbent with a fresh simplex whenever the search stalls
    before the epoch budget is spent.
    """
    if epochs < 1:
        raise ValueError("epochs must be >= 1")
    if measurement is None:
        measurement = TrainableMeasurement.convolutional(4)
    rng = np.random.default_rng(seed)
    x0 = rng.uniform(0.0, 2.0 * math.pi, measurement.parameter_count)

    def objective(p: np.ndarray) -> float:
        value = mse_loss(measurement, p)
        if not math.isfinite(value):
            raise RuntimeError(
                f"non-finite loss {value!r} at parameters {np.asarray(p).tolist()}"
            )
        return value

    initial_loss = objective(x0)
    best_x = np.array(x0)
    best_val = initial_loss
    losses: list[float] = [initial_loss]
    iterations = 0
    restarts = 0
    while iterations < epochs:
        initial_simplex = None
        if restarts > 0:
            spread = 0.4 * rng.standard_normal((len(best_x) + 1, len(best_x)))
            initial_simplex = best_x + spread
        # every value a step evaluates and drops is no lower than the simplex
        # minimum, so min(best_val, simplex best) is the running best loss
        x, fun, nit = _nelder_mead(
            objective,
            best_x,
            epochs - iterations,
            lambda best: losses.append(min(best_val, float(best))),
            initial_simplex,
        )
        iterations += nit
        if fun < best_val:
            best_val = float(fun)
            best_x = np.array(x)
        if iterations >= epochs or restarts >= MAX_RESTARTS:
            break
        restarts += 1

    w = math.pi / measurement.n
    grid = np.linspace(-w, w, 203)[1:-1]  # 201 interior points of the window
    return TrainingTrace(
        losses=tuple(losses),
        initial_params=x0,
        final_params=best_x,
        initial_loss=initial_loss,
        final_loss=best_val,
        epochs_used=iterations,
        restarts_used=restarts,
        pre=sensitivity(response_polynomial(measurement.setup(x0)), grid),
        post=sensitivity(response_polynomial(measurement.setup(best_x)), grid),
    )
