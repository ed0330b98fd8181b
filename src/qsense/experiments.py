"""Batch studies over system size: inference-error scaling, parameter
prediction against the cosine-fit baseline, and sensitivity reconstruction.

``run_study`` runs every study through one loop over system sizes.  At
each n the study fans its independent repeats out over the worker pool and
merges the results in a fixed order; the loop persists three artifacts
under the output directory: ``config.json`` (the config echo),
``summary.json`` (one record per system size) and per-trial / per-curve
CSV files.  Everything except the recorded runtimes is bit-reproducible
from (config, base_seed).
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from ._workers import parallel_map
from .inference import (
    SensitivityErrorReport,
    cosine_fit,
    estimate_parameter,
    infer_response,
    polylog_shot_schedule,
    response_polynomial,
    sensitivity_error_check,
    shot_budget,
    sup_norm_bound,
)
from .sim import SETUP_KINDS, SensingSetup, build_setup, exact_response, sample_response
from .trig import TrigPoly, write_curve_csv


@dataclass(frozen=True)
class ExperimentConfig:
    """Declarative description of one study run.

    ``shots`` is the policy string ``exact | <int> | paper | polylog |
    budget:<delta>,<alpha>``.  ``exact_curves`` makes the prediction study
    build its response curves from exact expectations while still sampling
    the measured test responses with the shots policy.
    """

    kind: str
    n_values: tuple[int, ...]
    noise: float = 0.0
    shots: str = "exact"
    repeats: int = 1
    base_seed: int = 0
    out_dir: str = "results"
    layers: int = 4
    test_points: int = 10_000
    prediction_fields: int = 30
    exact_curves: bool = False

    def __post_init__(self) -> None:
        if self.kind not in SETUP_KINDS:
            raise ValueError(f"kind must be one of {SETUP_KINDS}")
        values = tuple(int(n) for n in self.n_values)
        if not values:
            raise ValueError("n_values must be nonempty")
        for name in ("repeats", "test_points", "prediction_fields"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.layers < 0:
            raise ValueError(f"layers must be >= 0, got {self.layers}")
        if not 0.0 <= self.noise <= 1.0:
            raise ValueError(f"noise probability {self.noise} outside [0, 1]")
        cap = 8 if self.noise > 0 else 12
        if max(values) > cap:
            path = "noisy (density-matrix)" if self.noise > 0 else "statevector"
            raise ValueError(
                f"n={max(values)} exceeds the desk-scale {path} study cap of {cap}"
            )
        object.__setattr__(self, "n_values", values)
        for n in values:  # fail before any file is written
            resolve_shots(self.shots, n)

    def to_json_dict(self) -> dict:
        doc = asdict(self)
        doc["n_values"] = list(self.n_values)
        return doc

    @classmethod
    def from_json_dict(cls, doc: dict) -> "ExperimentConfig":
        """The config a JSON document describes; its one key that is not a
        field, ``study``, is left to the caller."""
        unknown = sorted(set(doc) - set(cls.__dataclass_fields__) - {"study"})
        if unknown:
            raise ValueError(f"unknown config keys: {', '.join(unknown)}")
        return cls(**{k: v for k, v in doc.items() if k != "study"})


def resolve_shots(policy: str, n: int) -> int | None:
    """Parse the shots mini-language for system size n.

    ``exact`` -> None (exact expectations); an integer literal -> that many
    shots; ``paper`` or ``polylog`` -> the built-in poly-logarithmic
    schedule; ``budget:<delta>,<alpha>`` -> the guaranteed-error budget.
    """
    text = str(policy).strip().lower()
    if text == "exact":
        return None
    if text in ("paper", "polylog"):
        return polylog_shot_schedule(n)
    if text.startswith("budget:"):
        parts = text[len("budget:") :].split(",")
        try:
            delta, alpha = (float(p) for p in parts)
        except ValueError:
            raise ValueError(
                f"bad budget policy {policy!r}; use budget:<delta>,<alpha>"
            ) from None
        return shot_budget(n, delta, alpha)
    try:
        shots = int(text)
    except ValueError:
        raise ValueError(f"unknown shots policy {policy!r}") from None
    if shots < 1:
        raise ValueError(f"shots policy {policy!r} must be at least 1 shot")
    return shots


def _trial_seed(base: int, n: int, repeat: int, salt: int = 0) -> int:
    return int(np.random.default_rng([base, n, repeat, salt]).integers(2**31))


def dump_json(path: Path, doc) -> None:
    path.write_text(json.dumps(doc, indent=2) + "\n")


def _write_trials_csv(path: Path, header: tuple[str, ...], rows: list[list]) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(repr(float(v)) if isinstance(v, float) else str(v) for v in row))
    path.write_text("\n".join(lines) + "\n")


_PLOT_GRID = np.linspace(0.0, 2.0 * math.pi, 1001)


def write_plot_csv(path: Path, poly: TrigPoly) -> None:
    """The curve of ``poly`` on 1001 equally spaced angles over [0, 2 pi]."""
    write_curve_csv(path, _PLOT_GRID, poly.evaluate(_PLOT_GRID))


def write_sensitivity_csv(path: Path, report: SensitivityErrorReport) -> None:
    """Exact and inferred (delta theta)^2 per angle plus a divergence flag."""
    divergent = ~np.isfinite(report.exact_delta) | ~np.isfinite(report.inferred_delta)
    columns = [report.exact_delta**2, report.inferred_delta**2, divergent.astype(float)]
    write_curve_csv(
        path,
        report.thetas,
        np.column_stack(columns),
        header=("theta", "exact_delta_sq", "inferred_delta_sq", "divergent"),
    )


def _inference_at(config: ExperimentConfig, setup: SensingSetup, n: int, shots_n: int | None):
    """Infer the response for each repeat, score |R - R~| on random test
    angles against the simulator and bound it by ``sup_norm_bound``."""
    exact_poly = response_polynomial(setup)
    grid = np.random.default_rng([config.base_seed, n, 101]).uniform(
        0.0, 2.0 * math.pi, config.test_points
    )
    truth = exact_response(setup, grid)

    def trial(repeat: int):
        res = infer_response(
            setup, shots=shots_n, seed=_trial_seed(config.base_seed, n, repeat)
        )
        err = np.abs(res.poly.evaluate(grid) - truth)
        node_truth = exact_poly.evaluate(res.samples.nodes.angles)
        eps_true = float(np.abs(res.samples.values - node_truth).max())
        bound = sup_norm_bound(eps_true, res.poly.degree)
        return [n, repeat, float(np.median(err)), float(err.max()), eps_true, bound], res.poly

    trials = parallel_map(trial, range(config.repeats))
    rows = [row for row, _ in trials]
    _, _, medians, worsts, _, bounds = zip(*rows)
    fields = dict(
        median_error=float(np.median(medians)),
        max_error=float(max(worsts)),
        bound_value=float(np.median(bounds)),
        # +1e-8 absorbs float round-off in the exact-expectation mode,
        # where both the errors and the bound sit at machine scale
        all_trials_within_bound=bool(all(w <= b + 1e-8 for w, b in zip(worsts, bounds))),
    )
    return rows, fields, trials[0][1]


def _prediction_at(config: ExperimentConfig, setup: SensingSetup, n: int, shots_n: int | None):
    """Estimate random fields from measured responses via the inferred
    polynomial and via the cosine-fit baseline, over windows theta' +/-
    pi/(10 n); the window width is also the worst possible error."""
    window = math.pi / (10.0 * n)

    def trial(repeat: int):
        curve_shots = None if config.exact_curves else shots_n
        res = infer_response(
            setup, shots=curve_shots, seed=_trial_seed(config.base_seed, n, repeat)
        )
        fit = cosine_fit(res.samples)
        rng = np.random.default_rng([config.base_seed, n, repeat, 55])
        thetas = rng.uniform(0.0, 2.0 * math.pi, config.prediction_fields)
        if shots_n is None:
            values = exact_response(setup, thetas)
        else:
            seeds = [
                [config.base_seed, n, repeat, 1000 + field]
                for field in range(config.prediction_fields)
            ]
            values = [e.mean for e in sample_response(setup, thetas, shots_n, seed=seeds)]
        domain = (thetas - window, thetas + window)
        est_inf = estimate_parameter(res.poly, values, domain)
        est_fit = estimate_parameter(fit, values, domain)
        rows = [
            [n, repeat, theta_true, by_poly.theta_star, by_fit.theta_star]
            for theta_true, by_poly, by_fit in zip(thetas.tolist(), est_inf, est_fit)
        ]
        return rows, res.poly

    trials = parallel_map(trial, range(config.repeats))
    rows = [row for repeat_rows, _ in trials for row in repeat_rows]
    err_inf = [abs(t_inf - theta_true) for _, _, theta_true, t_inf, _ in rows]
    err_fit = [abs(t_fit - theta_true) for _, _, theta_true, _, t_fit in rows]
    fields = dict(
        median_prediction_error=float(np.median(err_inf)),
        upper_quartile_prediction_error=float(np.quantile(err_inf, 0.75)),
        median_prediction_error_baseline=float(np.median(err_fit)),
        upper_quartile_prediction_error_baseline=float(np.quantile(err_fit, 0.75)),
        worst_case_prediction_error=window,
    )
    return rows, fields, trials[0][1]


def _sensitivity_at(config: ExperimentConfig, setup: SensingSetup, n: int, shots_n: int | None):
    """Reconstruct sensitivity curves from inferred responses and score the
    exact-vs-inferred error against the slope-normalized bound."""

    def trial(repeat: int):
        rep = sensitivity_error_check(
            setup, shots=shots_n, seed=_trial_seed(config.base_seed, n, repeat)
        )
        row = [n, repeat, rep.median_relative_error, rep.max_relative_error,
               rep.epsilon, rep.bound_value, int(rep.holds)]
        return row, rep

    trials = parallel_map(trial, range(config.repeats))
    rows = [row for row, _ in trials]
    _, _, medians, worsts, _, _, holds = zip(*rows)
    fields = dict(
        median_relative_sensitivity_error=float(np.median(medians)),
        max_relative_sensitivity_error=float(max(worsts)),
        bound_holds_all_trials=bool(all(holds)),
    )
    return rows, fields, trials[0][1]


# name -> (allowed kinds, per-n function, trials CSV, its header, curve
# CSV, curve writer); file names are formatted with the kind and n.  The
# per-n function runs every repeat at one system size and returns its trial
# rows, its summary.json fields in key order and the curve of the first
# repeat.
STUDIES = {
    "inference": (
        SETUP_KINDS, _inference_at, "trials_inference_{kind}.csv",
        ("n", "repeat", "median_error", "max_error", "epsilon", "bound_value"),
        "curves_{kind}_{n}.csv", write_plot_csv,
    ),
    "prediction": (
        ("ghz",), _prediction_at, "predictions_{kind}.csv",
        ("n", "repeat", "theta_true", "theta_inferred", "theta_fit"),
        "curves_{kind}_{n}.csv", write_plot_csv,
    ),
    "sensitivity": (
        ("ghz", "squeezing"), _sensitivity_at, "trials_sensitivity_{kind}.csv",
        ("n", "repeat", "median_relative_error", "max_relative_error",
         "epsilon", "bound_value", "holds"),
        "sensitivity_{kind}_{n}.csv", write_sensitivity_csv,
    ),
}


def run_study(name: str, config: ExperimentConfig) -> list[dict]:
    """Run study ``name`` over ``config.n_values``, write its artifacts and
    return one record per system size, as in ``summary.json``."""
    try:
        kinds, per_n, trials_csv, header, curve_csv, write_curve = STUDIES[name]
    except KeyError:
        raise ValueError(f"unknown study {name!r}; choose from {sorted(STUDIES)}") from None
    if config.kind not in kinds:
        raise ValueError(f"the {name} study is defined for the {' or '.join(kinds)} kind")
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    dump_json(out / "config.json", config.to_json_dict())
    records = []
    rows: list[list] = []
    for n in config.n_values:
        start = time.perf_counter()
        ansatz_seed = int(np.random.default_rng([config.base_seed, n, 424242]).integers(2**63))
        setup = build_setup(config.kind, n, config.noise, config.layers, ansatz_seed)
        n_rows, fields, curve = per_n(config, setup, n, resolve_shots(config.shots, n))
        rows += n_rows
        write_curve(out / curve_csv.format(kind=config.kind, n=n), curve)
        records.append({"n": n, "runtime_seconds": time.perf_counter() - start, **fields})
    _write_trials_csv(out / trials_csv.format(kind=config.kind), header, rows)
    dump_json(out / "summary.json", {"study": name, "kind": config.kind, "records": records})
    return records
