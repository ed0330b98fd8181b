"""Response inference from node samples, shot budgeting, error bounds,
parameter estimation, sensitivity analysis and the cosine-fit baseline.

The workflow: measure the response at the 2D+1 equidistant nodes, recover
the interpolating trigonometric polynomial, then reuse that polynomial for
everything downstream.  With exact expectations the recovery is exact for
any setup whose encoding is a sum of commuting involutory terms; with N
shots per node the sup-norm error is bounded by ``sup_norm_bound``,
5 * eps * ln(max(D, 2)), where eps is the largest node estimation error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .sim.setups import (
    MAX_STACK_AMPLITUDES,
    SensingSetup,
    _angles,
    exact_response,
    sample_rows,
)
from .trig import SampleVector, TrigPoly, coeffs_closed_form, equidistant_nodes

SLOPE_FLOOR = 1e-8
# 4097 nodes, whose D x (2D+1) cos and sin tables in coeffs_closed_form
# hold 67 MB each
MAX_DEGREE = 2048
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
_GRID_POINTS = 1024
_BRACKET_WIDTH = 1e-10
# float64 values in one block of batched temporaries: 256 KiB, the
# simulator's stack of MAX_STACK_AMPLITUDES complex amplitudes
_BLOCK_VALUES = 2 * MAX_STACK_AMPLITUDES
# relative margin of the cosine-fit screen; its measured round-off is
# below 4e-16 (see _screened_grid)
_SCREEN_RTOL = 1e-9

DEFAULT_SENSITIVITY_RANGES = {
    "ghz": lambda n: (-math.pi / (3 * n), math.pi / (3 * n)),
    "squeezing": lambda n: (math.pi / (3 * n), math.pi / n),
}


@dataclass(frozen=True)
class InferenceResult:
    """Inferred response polynomial plus the data that produced it.

    ``epsilon_estimate`` is a conservative plug-in for the maximum node
    estimation error: three binomial standard errors, maximized over nodes
    (zero in exact-expectation mode).  ``bound_value`` is the implied
    sup-norm bound ``sup_norm_bound(eps, D)``.
    """

    poly: TrigPoly
    samples: SampleVector
    shots_per_node: int | None
    epsilon_estimate: float
    bound_value: float

    def to_json_dict(self) -> dict:
        doc = {
            "poly": self.poly.to_json_dict(),
            "nodes": [float(t) for t in self.samples.nodes.angles],
            "values": [float(v) for v in self.samples.values],
            "shots_per_node": self.shots_per_node,
            "epsilon_estimate": self.epsilon_estimate,
            "bound_value": self.bound_value,
        }
        if self.samples.standard_errors is not None:
            doc["standard_errors"] = [float(s) for s in self.samples.standard_errors]
        return doc


@dataclass(frozen=True)
class EstimationOutcome:
    theta_star: float
    domain: tuple[float, float]
    residual: float


@dataclass(frozen=True)
class Sensitivity:
    """Error-propagation sensitivity at one angle or over a 1-D array of
    angles, with float or array fields to match.

    ``delta_theta_sq`` is variance / |dR/dtheta|^2; angles where the slope
    falls below SLOPE_FLOOR are flagged divergent and carry infinity."""

    theta: float | np.ndarray
    variance: float | np.ndarray
    slope: float | np.ndarray
    delta_theta_sq: float | np.ndarray
    divergent: bool | np.ndarray


@dataclass(frozen=True)
class CosineFit:
    """Least-squares fit of alpha * cos(beta * theta + gamma) + zeta."""

    alpha: float
    beta: float
    gamma: float
    zeta: float
    residual_rms: float

    def evaluate(self, theta):
        th = np.asarray(theta, dtype=float)
        out = self.alpha * np.cos(self.beta * th + self.gamma) + self.zeta
        return float(out) if np.isscalar(theta) or th.ndim == 0 else out


@dataclass(frozen=True)
class SensitivityErrorReport:
    """Exact-vs-inferred sensitivity comparison over an angle range."""

    thetas: np.ndarray
    exact_delta: np.ndarray
    inferred_delta: np.ndarray
    abs_error: np.ndarray
    epsilon: float
    min_slope: float
    bound_value: float
    holds: bool
    median_relative_error: float
    max_relative_error: float
    divergent_points: int


def shot_budget(n: int, delta: float, alpha: float) -> int:
    """Shots per node guaranteeing sup-norm inference error <= delta with
    probability >= 1 - alpha: ceil(50 ln(n)^2 ln((4n+2)/alpha) / delta^2)."""
    if n < 2:
        raise ValueError("shot budget needs n >= 2 (the bound degenerates at n = 1)")
    if not 0.0 < delta < math.inf:
        raise ValueError(f"delta must be positive and finite, got {delta}")
    if not 0.0 < alpha < 1.0:
        raise ValueError("failure probability must lie in (0, 1)")
    try:
        raw = 50.0 * math.log(n) ** 2 * math.log((4 * n + 2) / alpha) / delta**2
    except (OverflowError, ZeroDivisionError):
        raw = math.inf
    if not math.isfinite(raw):
        raise ValueError(f"delta = {delta}: delta**2 or the shot budget leaves the float range")
    return math.ceil(raw)


def polylog_shot_schedule(n: int) -> int:
    """Reference poly-logarithmic schedule ceil(500 ln(n)^2 ln(200 (2n+1)))."""
    if n < 2:
        raise ValueError("schedule needs n >= 2")
    return math.ceil(500.0 * math.log(n) ** 2 * math.log(200.0 * (2 * n + 1)))


def sup_norm_bound(epsilon: float, degree: int) -> float:
    """Sup-norm bound 5 * epsilon * ln(max(degree, 2)) on |R - R_inferred|
    for the degree-``degree`` interpolant when every node estimate is within
    epsilon of the true response."""
    if epsilon < 0.0:
        raise ValueError("epsilon must be >= 0")
    return 5.0 * epsilon * math.log(max(degree, 2))


def infer_responses(
    setup: SensingSetup, shots: int | None, seeds: Sequence[int], degree: int | None = None
) -> tuple[TrigPoly, list[InferenceResult]]:
    """The exact response polynomial and one inferred response per seed in
    ``seeds``, all from one simulation of the nodes.

    ``degree`` defaults to the encoding term count, which always suffices;
    a smaller degree raises ValueError, because its nodes would alias the
    response onto a lower-degree curve, and so does one above MAX_DEGREE
    (2048), whose coefficient recovery would take too much memory.  ``shots=None``
    means exact expectations (no sampling): every result is then the exact
    polynomial's.  With shots, each node's measurement-basis probabilities
    are read once: they give the exact polynomial and every seed's draws.
    Seed s draws node k from its own RNG seeded by (s, k), so a node's
    samples do not depend on the other nodes or seeds, and each result
    equals ``infer_response(setup, degree, shots, s)``.
    """
    d = setup.encoding_degree if degree is None else int(degree)
    if d < setup.encoding_degree:
        raise ValueError(
            f"degree {d} is below the encoding degree {setup.encoding_degree}; "
            "its nodes would alias the response"
        )
    if d > MAX_DEGREE:
        raise ValueError(f"degree {d} exceeds the largest supported degree {MAX_DEGREE}")
    nodes = equidistant_nodes(d)
    zeros = np.zeros(len(nodes))
    if shots is None:
        samples = SampleVector(nodes, exact_response(setup, nodes.angles), zeros)
        exact = InferenceResult(coeffs_closed_form(samples), samples, None, 0.0, 0.0)
        return exact.poly, [exact] * len(seeds)
    rows = [[[int(seed), k] for k in range(len(nodes))] for seed in seeds]
    means, estimates = sample_rows(setup, nodes.angles, shots, rows)
    results = []
    for row in estimates:
        samples = SampleVector(
            nodes,
            np.array([e.mean for e in row]),
            np.array([e.standard_error for e in row]),
        )
        epsilon = 3.0 * float(samples.standard_errors.max())
        results.append(InferenceResult(
            coeffs_closed_form(samples), samples, shots, epsilon, sup_norm_bound(epsilon, d)
        ))
    return coeffs_closed_form(SampleVector(nodes, means, zeros)), results


def infer_response(
    setup: SensingSetup,
    degree: int | None = None,
    shots: int | None = None,
    seed: int = 0,
) -> InferenceResult:
    """Measure the response at equidistant nodes and interpolate: the
    one-seed case of ``infer_responses``.  All nodes go through one
    simulator call, which prepares the probe once.
    """
    return infer_responses(setup, shots, [seed], degree)[1][0]


def response_polynomial(setup: SensingSetup) -> TrigPoly:
    """The exact response polynomial, from exact expectations at the nodes."""
    return infer_response(setup).poly


def _blocks(count: int, per_item: int) -> list[slice]:
    """Consecutive slices of ``range(count)`` whose items together hold at
    most ``_BLOCK_VALUES`` float64 values (at least one item each)."""
    size = max(1, _BLOCK_VALUES // max(per_item, 1))
    return [slice(start, start + size) for start in range(0, count, size)]


def _grids(lo: np.ndarray, hi: np.ndarray, num: int) -> np.ndarray:
    """``np.linspace(lo[k], hi[k], num)`` as row k, each row equal to the
    scalar call's.  np.linspace switches the whole array to a second
    formula when any row's step underflows to 0, so such rows are filled
    apart from the others."""
    grid = np.linspace(lo, hi, num, axis=-1)
    tiny = (hi - lo) / (num - 1) == 0
    if tiny.any() and not tiny.all():
        grid[~tiny] = np.linspace(lo[~tiny], hi[~tiny], num, axis=-1)
    return grid


def _golden_sections(fn, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Golden-section minima of ``fn`` on the brackets [a_k, b_k], all in
    lockstep: each round updates every live bracket exactly as a scalar
    golden-section loop would and evaluates ``fn(points, live)`` once for
    the indices ``live`` of the fields still shrinking.  A bracket stops
    once it is no wider than ``_BRACKET_WIDTH`` or than two ulps of its
    larger end.  The second rule can act first only where two ulps exceed
    1e-10 (|theta| >= 2**18); from 2**19 on, where one ulp exceeds it, a
    scalar loop could cycle forever on a bracket one ulp wide."""
    a, b = a.copy(), b.copy()
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    live = np.arange(len(a))
    fc, fd = fn(c, live), fn(d, live)
    while True:
        span = b[live] - a[live]
        ends = np.maximum(np.abs(a[live]), np.abs(b[live]))
        live = live[(span > _BRACKET_WIDTH) & (span > 2.0 * np.spacing(ends))]
        if not live.size:
            return 0.5 * (a + b)
        a0, b0, c0, d0, fc0, fd0 = (x[live] for x in (a, b, c, d, fc, fd))
        left = fc0 < fd0
        a[live] = na = np.where(left, a0, c0)
        b[live] = nb = np.where(left, d0, b0)
        x = np.where(left, nb - _GOLDEN * (nb - na), na + _GOLDEN * (nb - na))
        fx = fn(x, live)
        c[live] = np.where(left, x, d0)
        d[live] = np.where(left, c0, x)
        fc[live] = np.where(left, fx, fd0)
        fd[live] = np.where(left, fc0, fx)


def estimate_parameter(
    response, measured, domain
) -> EstimationOutcome | list[EstimationOutcome]:
    """Invert a response curve: theta* = argmin over the domain of
    |response(theta) - measured|.

    ``response`` may be a TrigPoly or a CosineFit.  ``measured`` is a float
    with ``domain = (lo, hi)`` floats, giving one EstimationOutcome, or a
    1-D array of fields with ``lo``/``hi`` arrays of the same length (or
    floats), giving a list of outcomes, each equal to the scalar call's.
    Whether the curve identifies theta on the domain is ``is_bijective``'s
    question; the inversion evaluates no slope.  The argmin runs a
    1024-point dense grid followed by golden-section refinement to a
    bracket width of 1e-10.  The grid runs over blocks of fields whose
    (fields, grid, D) temporaries hold at most 2**15 float64 values
    (256 KiB); the golden-section brackets of all fields then shrink in
    lockstep, each evaluated point by point as a scalar call would, and
    each also stops once it is two ulps wide (see ``_golden_sections``).
    A domain whose width hi - lo overflows raises ValueError.
    When ``measured`` lies outside the attainable range the
    boundary-closest extremizer is returned with a nonzero residual.
    """
    measured, lo, hi = np.broadcast_arrays(
        *(np.asarray(x, dtype=float) for x in (measured, domain[0], domain[1]))
    )
    if measured.ndim > 1:
        raise ValueError(f"measured must be a scalar or a 1-D array, got shape {measured.shape}")
    scalar = measured.ndim == 0
    measured, lo, hi = (x.reshape(-1) for x in (measured, lo, hi))
    bad = ~np.isfinite(measured)
    if bad.any():
        raise ValueError(f"measured response must be finite, got {measured[bad][0]}")
    with np.errstate(over="ignore", invalid="ignore"):
        bad = ~(np.isfinite(lo) & np.isfinite(hi) & (lo < hi) & np.isfinite(hi - lo))
    if bad.any():
        k = int(np.argmax(bad))
        raise ValueError(
            f"domain must be finite with lo < hi and a finite width hi - lo, "
            f"got ({lo[k]}, {hi[k]})"
        )

    # values per grid point in the (fields, grid, D) temporaries
    terms = max(response.degree, 1) if isinstance(response, TrigPoly) else 1
    count = len(measured)
    left, right, nearest = (np.empty(count) for _ in range(3))
    for blk in _blocks(count, _GRID_POINTS * terms):
        grid = _grids(lo[blk], hi[blk], _GRID_POINTS)
        rows = np.arange(len(grid))
        best = np.argmin(np.abs(response.evaluate(grid) - measured[blk, None]), axis=-1)
        nearest[blk] = grid[rows, best]
        left[blk] = grid[rows, np.maximum(best - 1, 0)]
        right[blk] = grid[rows, np.minimum(best + 1, _GRID_POINTS - 1)]

    fn = lambda th, live: np.abs(response.evaluate(th) - measured[live])
    theta_star = np.where(right > left, _golden_sections(fn, left, right), nearest)
    residual = fn(theta_star, slice(None))
    outcomes = [
        EstimationOutcome(float(t), (float(l), float(h)), float(r))
        for t, l, h, r in zip(theta_star, lo, hi, residual)
    ]
    return outcomes[0] if scalar else outcomes


def is_bijective(poly: TrigPoly, lo: float, hi: float) -> bool:
    """Whether ``poly`` identifies theta on [lo, hi]: it is not constant and
    its slope on ``np.linspace(lo, hi, 512)`` never strictly changes sign.

    A slope with |R'| <= 8 eps * sum_s s (|a_s| + |b_s|) (eps the float64
    machine epsilon) counts as zero: that is round-off, as at a flat
    extremum that an end point misses by an ulp."""
    scale = 8 * np.finfo(float).eps * np.arange(1, poly.degree + 1)
    floor = np.sum(scale * np.abs(poly.a) + scale * np.abs(poly.b))  # finite for finite a, b
    slopes = poly.derivative().evaluate(np.linspace(lo, hi, 512))
    signs = np.sign(slopes[np.abs(slopes) > floor])
    return bool(poly.a.any() or poly.b.any()) and bool(np.all(signs == signs[:1]))


def sensitivity(source, theta) -> Sensitivity:
    """Error-propagation sensitivity (delta theta)^2 = (delta R)^2 / |dR|^2
    on one response polynomial.

    ``source`` is a TrigPoly, the inferred variant, or a SensingSetup, the
    exact variant, read through ``response_polynomial(setup)``.  The
    variance is M2(theta) - R(theta)^2, clamped at zero.  For a setup with
    O^2 = c + Q (``Observable.squared``), M2 is c plus the response
    polynomial of the setup read out by Q, from the same nodes; a bare
    TrigPoly takes M2 = 1, as a single +/-1 Pauli readout has.  ``theta``
    is a float, giving float fields, or a 1-D array of finite angles, giving
    array fields, each entry equal to the float call at its angle.
    """
    if isinstance(source, SensingSetup):
        poly = response_polynomial(source)
        second, rest = source.observable.squared()
    elif isinstance(source, TrigPoly):
        poly, second, rest = source, 1.0, None
    else:
        raise TypeError("source must be a SensingSetup or a TrigPoly")
    thetas = _angles(theta)
    slope = poly.derivative().evaluate(thetas)
    if rest is not None:
        second = second + response_polynomial(replace(source, observable=rest)).evaluate(thetas)
    variance = np.clip(second - poly.evaluate(thetas) ** 2, 0.0, None)
    divergent = np.abs(slope) < SLOPE_FLOOR
    ok = ~divergent
    delta_sq = np.full_like(thetas, np.inf)
    delta_sq[ok] = variance[ok] / slope[ok] ** 2
    if np.ndim(theta):
        return Sensitivity(thetas, variance, slope, delta_sq, divergent)
    return Sensitivity(
        float(thetas[0]), float(variance[0]), float(slope[0]), float(delta_sq[0]),
        bool(divergent[0]),
    )


def _delta_theta(point: Sensitivity) -> np.ndarray:
    """delta theta = sqrt(variance) / |slope| over an array record, inf
    where it is divergent."""
    ok = ~point.divergent
    out = np.full_like(point.slope, np.inf)
    out[ok] = np.sqrt(point.variance[ok]) / np.abs(point.slope[ok])
    return out


def sensitivity_error_check(
    setup: SensingSetup,
    theta_range: tuple[float, float] | None = None,
    shots: int | None = None,
    seed: int | Sequence[int] = 0,
    points: int = 200,
) -> SensitivityErrorReport | list[SensitivityErrorReport]:
    """Compare exact and inferred sensitivities over a divergence-free range
    and check |dt_exact - dt_inferred| <= sup_norm_bound(eps, D) / min-slope
    for the inferred curve's degree D.

    The default ranges are (-pi/3n, pi/3n) for the GHZ setup and
    (pi/3n, pi/n) for the squeezing setup; an explicit ``theta_range``
    needs lo < hi.  ``eps`` is the realized maximum node estimation error;
    the check carries a 1e-8 additive tolerance so the exact-expectation
    case (eps = 0) passes up to round-off.  The grid
    uses an even number of interval midpoints, which keeps points of exactly
    vanishing slope (the centre of a symmetric range) off the grid.

    ``seed`` is an int, giving one report, or a sequence of seeds, giving
    one report per seed; the exact and all inferred curves come from one
    simulation of the nodes (``infer_responses``).
    """
    if not setup.observable.is_single_pauli:
        raise ValueError("sensitivity error check needs a Pauli-valued readout")
    if theta_range is None:
        try:
            theta_range = DEFAULT_SENSITIVITY_RANGES[setup.kind](setup.n)
        except KeyError:
            raise ValueError("provide theta_range for custom setups") from None
    lo, hi = theta_range
    if not lo < hi:
        raise ValueError(f"theta_range must satisfy lo < hi, got ({lo}, {hi})")
    scalar = np.ndim(seed) == 0
    exact_poly, results = infer_responses(setup, shots, [seed] if scalar else seed)
    grid = lo + (np.arange(points) + 0.5) * (hi - lo) / points
    exact = sensitivity(exact_poly, grid)
    exact_delta = _delta_theta(exact)
    min_slope = float(np.abs(exact.slope).min())
    # every result reads the same node set
    node_truth = exact_poly.evaluate(results[0].samples.nodes.angles) if results else None
    reports = []
    for result in results:
        inferred = sensitivity(result.poly, grid)
        inf_delta = _delta_theta(inferred)
        divergent = exact.divergent | inferred.divergent
        ok = ~divergent
        abs_error = np.full_like(grid, np.nan)
        abs_error[ok] = np.abs(exact_delta[ok] - inf_delta[ok])

        epsilon = float(np.abs(node_truth - result.samples.values).max())
        degree = result.poly.degree
        bound = math.inf if min_slope == 0.0 else sup_norm_bound(epsilon, degree) / min_slope
        worst = float(np.nanmax(abs_error)) if ok.any() else 0.0
        holds = worst <= bound + 1e-8

        values = np.concatenate([exact_delta[ok], inf_delta[ok]]) if ok.any() else np.zeros(1)
        denom = float(values.max() - values.min())
        if denom < 1e-15:
            denom = max(float(np.abs(values).max()), 1e-15)
        median_rel = float(np.nanmedian(abs_error) / denom) if ok.any() else 0.0
        reports.append(SensitivityErrorReport(
            thetas=grid,
            exact_delta=exact_delta,
            inferred_delta=inf_delta,
            abs_error=abs_error,
            epsilon=epsilon,
            min_slope=min_slope,
            bound_value=bound,
            holds=bool(holds),
            median_relative_error=median_rel,
            max_relative_error=worst / denom,
            divergent_points=int(divergent.sum()),
        ))
    return reports[0] if scalar else reports


def _screened_grid(th, d, betas, gammas) -> np.ndarray:
    """Mask of the (beta, gamma) grid points whose two-column least-squares
    SSE can be the smallest.

    The SSE of d on [u, 1] with u = cos(beta theta + gamma) is, in closed
    form, S_dd - S_ud^2 / S_uu over the centred u and d.  Its round-off
    grows as u nears the constant column, so each point carries the margin
    _SCREEN_RTOL * S_dd * (M + u.u) / S_uu for M nodes (the largest gap
    to ``np.linalg.lstsq`` measured over GHZ, random and squeezing data,
    exact and sampled, and random node sets is 3.7e-16 of that scale).
    A point is kept when its lower end reaches the smallest upper end, or
    when its screened value is not finite (a rank-deficient design).
    """
    dc = d - d.mean()
    sdd = dc @ dc
    screened = np.empty((len(betas), len(gammas)))
    margin = np.empty_like(screened)
    for blk in _blocks(len(betas), len(gammas) * len(th)):
        u = np.cos(betas[blk, None, None] * th + gammas[:, None])
        uc = u - u.mean(axis=-1, keepdims=True)
        suu = np.vecdot(uc, uc)
        sud = np.vecdot(uc, dc)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            screened[blk] = sdd - sud * sud / suu
            margin[blk] = _SCREEN_RTOL * sdd * (len(th) + np.vecdot(u, u)) / suu
    with np.errstate(invalid="ignore"):
        low, high = screened - margin, screened + margin
        bound = np.min(high, where=np.isfinite(high), initial=math.inf)
        return ~np.isfinite(low) | (low <= bound)


def _coarse_fit(th: np.ndarray, d: np.ndarray, degree: int) -> np.ndarray:
    """[alpha, beta, gamma, zeta] at the first coarse grid point with the
    smallest lstsq SSE, solving only the points ``_screened_grid`` keeps."""
    betas = np.arange(0.5, degree + 0.5 + 1e-9, 0.25)
    gammas = np.arange(0.0, 2.0 * math.pi, math.pi / 16.0)
    best_sse = math.inf
    best = None
    ones = np.ones_like(th)
    for i, j in np.argwhere(_screened_grid(th, d, betas, gammas)):
        beta, gamma = betas[i], gammas[j]
        design = np.column_stack([np.cos(beta * th + gamma), ones])
        coef, *_ = np.linalg.lstsq(design, d, rcond=None)
        resid = design @ coef - d
        sse = float(resid @ resid)
        if sse < best_sse:
            best_sse = sse
            best = np.array([coef[0], beta, gamma, coef[1]])
    return best


def cosine_fit(samples: SampleVector) -> CosineFit:
    """Fit alpha * cos(beta * theta + gamma) + zeta to the node samples.

    Coarse grid over beta in [0.5, D + 0.5] (step 0.25) and gamma in
    [0, 2 pi) (step pi/16) with alpha, zeta solved linearly at each grid
    point, then Gauss-Newton refinement (at most 200 iterations,
    convergence threshold 1e-10).  A closed-form screen of every grid
    point's SSE (``_screened_grid``) picks the few candidates that can
    hold the minimum; only those are solved with ``np.linalg.lstsq``, in
    beta-major order with the first strict minimum kept, so the coarse
    best point is bit for bit the one an lstsq solve at every grid point
    picks.
    """
    th = samples.nodes.angles
    d = samples.values
    if len(d) < 4:
        raise ValueError("cosine fit needs at least 4 samples")
    if float(np.ptp(d)) < 1e-15:
        return CosineFit(0.0, 1.0, 0.0, float(d.mean()), 0.0)

    params = _coarse_fit(th, d, samples.degree)
    ones = np.ones_like(th)

    def residuals(p):
        return p[0] * np.cos(p[1] * th + p[2]) + p[3] - d

    resid = residuals(params)
    sse = float(resid @ resid)
    for _ in range(200):
        alpha, beta, gamma, _ = params
        sin_term = np.sin(beta * th + gamma)
        jac = np.column_stack(
            [np.cos(beta * th + gamma), -alpha * th * sin_term, -alpha * sin_term, ones]
        )
        normal = jac.T @ jac + 1e-14 * np.eye(4)
        try:
            step = np.linalg.solve(normal, jac.T @ resid)
        except np.linalg.LinAlgError:
            break
        scale = 1.0
        accepted = False
        for _ in range(30):
            candidate = params - scale * step
            cand_resid = residuals(candidate)
            cand_sse = float(cand_resid @ cand_resid)
            if cand_sse < sse:
                improvement = sse - cand_sse
                params, resid, sse = candidate, cand_resid, cand_sse
                accepted = True
                break
            scale *= 0.5
        if not accepted:
            break
        if improvement < 1e-10 or float(np.abs(scale * step).max()) < 1e-10:
            break
    alpha, beta, gamma, zeta = params
    if alpha < 0:  # canonical form: alpha >= 0, phase shifted by pi
        alpha = -alpha
        gamma += math.pi
    gamma = math.fmod(gamma, 2.0 * math.pi)
    if gamma < 0:
        gamma += 2.0 * math.pi
    return CosineFit(
        float(alpha), float(beta), float(gamma), float(zeta),
        math.sqrt(sse / len(d)),
    )
