"""Batch studies over system size: inference-error scaling, parameter
prediction against the cosine-fit baseline, and sensitivity reconstruction.

``run_study`` runs every study through one loop over system sizes.  At
each n the study simulates the 2D+1 nodes once for all its repeats
(``infer_responses``): with sampled shots, each node's measurement-basis
probabilities give the exact response polynomial and every repeat's
draws, bit for bit those of a standalone ``infer_response`` with the
repeat's trial seed.  A sampled inference study takes its truth at the
test angles from that exact polynomial; an exact-shot one simulates every
test angle, because there the study is the check of the theorem.  The
per-repeat scoring fans out over the worker pool and merges in a fixed
order.  The loop persists three artifacts under the output directory:
``config.json`` (the config echo), ``summary.json`` (one record per
system size) and per-trial / per-curve CSV files.  Everything except the
recorded runtimes is bit-reproducible from (config, base_seed).
"""

from __future__ import annotations

import json
import math
import operator
import time
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from ._workers import parallel_map
from .inference import (
    DEFAULT_SENSITIVITY_RANGES,
    SensitivityErrorReport,
    cosine_fit,
    estimate_parameter,
    infer_responses,
    polylog_shot_schedule,
    sensitivity_error_check,
    shot_budget,
    sup_norm_bound,
)
from .sim import SETUP_KINDS, SensingSetup, build_setup, exact_response, sample_response
from .trig import TrigPoly, write_curve_csv, write_rows


@dataclass(frozen=True)
class ExperimentConfig:
    """Declarative description of one study run.

    ``shots`` is the policy string ``exact | <int> | paper | polylog |
    budget:<delta>,<alpha>``.  ``exact_curves`` makes the prediction study
    build its response curves from exact expectations while still sampling
    the measured test responses with the shots policy.  ``setups`` (not a
    field) holds the study setup of each n, built while the config is
    checked.
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
        if not isinstance(self.n_values, (list, tuple)) or not self.n_values:
            raise ValueError(f"n_values must be a nonempty list, got {self.n_values!r}")
        values = tuple(_integer("each n_values entry", n) for n in self.n_values)
        # layers is checked here because the GHZ and squeezing builders
        # ignore it; numpy would reject a negative seed only mid-study
        for name, low in (("repeats", 1), ("base_seed", 0), ("layers", 0),
                          ("test_points", 1), ("prediction_fields", 1)):
            value = _integer(name, getattr(self, name))
            if value < low:
                raise ValueError(f"{name} must be >= {low}, got {value}")
            object.__setattr__(self, name, value)
        if not isinstance(self.exact_curves, bool):
            raise ValueError(f"exact_curves must be true or false, got {self.exact_curves!r}")
        SensingSetup.check_noise(self.noise)
        cap = 8 if self.noise > 0 else 12
        if max(values) > cap:
            path = "noisy (density-matrix)" if self.noise > 0 else "statevector"
            raise ValueError(
                f"n={max(values)} exceeds the desk-scale {path} study cap of {cap}"
            )
        object.__setattr__(self, "n_values", values)
        # built here so that a config fails before any file is written;
        # not a field, so it is neither compared nor echoed
        object.__setattr__(self, "setups", tuple(
            build_setup(self.kind, n, self.noise, self.layers, _ansatz_seed(self.base_seed, n))
            for n in values
        ))
        for n in values:
            resolve_shots(self.shots, n)

    @classmethod
    def from_json_dict(cls, doc: dict) -> "ExperimentConfig":
        """The config a JSON document describes; its one key that is not a
        field, ``study``, is left to the caller."""
        if not isinstance(doc, dict):
            raise ValueError(f"a config must be a JSON object, got {type(doc).__name__}")
        unknown = sorted(set(doc) - set(cls.__dataclass_fields__) - {"study"})
        if unknown:
            raise ValueError(f"unknown config keys: {', '.join(unknown)}")
        return cls(**{k: v for k, v in doc.items() if k != "study"})


def _integer(name: str, value) -> int:
    """``value`` as an int; a bool or any non-integer raises ValueError."""
    try:
        if not isinstance(value, bool):
            return operator.index(value)
    except TypeError:
        pass
    raise ValueError(f"{name} must be an integer, got {value!r}")


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


def _ansatz_seed(base: int, n: int) -> int:
    return int(np.random.default_rng([base, n, 424242]).integers(2**63))


def _trial_seeds(config: ExperimentConfig, n: int) -> list[int]:
    """The ``infer_response`` seed of each repeat at system size n."""
    return [
        int(np.random.default_rng([config.base_seed, n, repeat, 0]).integers(2**31))
        for repeat in range(config.repeats)
    ]


def dump_json(path: Path, doc) -> None:
    path.write_text(json.dumps(doc, indent=2) + "\n")


def _write_trials_csv(path: Path, rows: list[dict]) -> None:
    """One line per row under a header of the first row's keys."""
    write_rows(path, list(rows[0]), [row.values() for row in rows], line_end="\n")


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
    angles and bound it by ``sup_norm_bound``.  With exact expectations
    the study checks the theorem, so its truth is simulated at every test
    angle; with sampled shots the truth is the exact polynomial, from the
    node simulation that also gives every repeat's draws."""
    exact_poly, results = infer_responses(setup, shots_n, _trial_seeds(config, n))
    grid = np.random.default_rng([config.base_seed, n, 101]).uniform(
        0.0, 2.0 * math.pi, config.test_points
    )
    truth = exact_response(setup, grid) if shots_n is None else exact_poly.evaluate(grid)
    # every result reads the same node set
    node_truth = exact_poly.evaluate(results[0].samples.nodes.angles)

    def trial(repeat: int):
        res = results[repeat]
        err = np.abs(res.poly.evaluate(grid) - truth)
        eps_true = float(np.abs(res.samples.values - node_truth).max())
        return dict(n=n, repeat=repeat, median_error=float(np.median(err)),
                    max_error=float(err.max()), epsilon=eps_true,
                    bound_value=sup_norm_bound(eps_true, res.poly.degree))

    rows = parallel_map(trial, range(config.repeats))
    fields = dict(
        median_error=float(np.median([r["median_error"] for r in rows])),
        max_error=float(max(r["max_error"] for r in rows)),
        bound_value=float(np.median([r["bound_value"] for r in rows])),
        # +1e-8 absorbs float round-off in the exact-expectation mode,
        # where both the errors and the bound sit at machine scale
        all_trials_within_bound=all(r["max_error"] <= r["bound_value"] + 1e-8 for r in rows),
    )
    return rows, fields, results[0].poly


def _prediction_at(config: ExperimentConfig, setup: SensingSetup, n: int, shots_n: int | None):
    """Estimate random fields from measured responses via the inferred
    polynomial and via the cosine-fit baseline, over windows theta' +/-
    pi/(10 n); the window width is also the worst possible error.  The
    curves of all repeats come from one node simulation and the measured
    responses of all repeats' fields from one simulator call.  Exact
    curves are one shared result, fitted once."""
    window = math.pi / (10.0 * n)
    repeats, count = config.repeats, config.prediction_fields
    curve_shots = None if config.exact_curves else shots_n
    _, results = infer_responses(setup, curve_shots, _trial_seeds(config, n))
    shared_fit = cosine_fit(results[0].samples) if curve_shots is None else None
    thetas = np.concatenate([
        np.random.default_rng([config.base_seed, n, repeat, 55]).uniform(0.0, 2.0 * math.pi, count)
        for repeat in range(repeats)
    ])
    if shots_n is None:
        values = exact_response(setup, thetas)
    else:
        field_seeds = [
            [config.base_seed, n, repeat, 1000 + field]
            for repeat in range(repeats) for field in range(count)
        ]
        values = [e.mean for e in sample_response(setup, thetas, shots_n, seed=field_seeds)]
    thetas, values = np.reshape(thetas, (repeats, count)), np.reshape(values, (repeats, count))

    def trial(repeat: int):
        res = results[repeat]
        fit = shared_fit or cosine_fit(res.samples)
        domain = (thetas[repeat] - window, thetas[repeat] + window)
        est_inf = estimate_parameter(res.poly, values[repeat], domain)
        est_fit = estimate_parameter(fit, values[repeat], domain)
        return [
            dict(n=n, repeat=repeat, theta_true=theta_true,
                 theta_inferred=by_poly.theta_star, theta_fit=by_fit.theta_star)
            for theta_true, by_poly, by_fit in zip(thetas[repeat].tolist(), est_inf, est_fit)
        ]

    rows = [row for repeat_rows in parallel_map(trial, range(repeats)) for row in repeat_rows]
    err_inf = [abs(r["theta_inferred"] - r["theta_true"]) for r in rows]
    err_fit = [abs(r["theta_fit"] - r["theta_true"]) for r in rows]
    fields = dict(
        median_prediction_error=float(np.median(err_inf)),
        upper_quartile_prediction_error=float(np.quantile(err_inf, 0.75)),
        median_prediction_error_baseline=float(np.median(err_fit)),
        upper_quartile_prediction_error_baseline=float(np.quantile(err_fit, 0.75)),
        worst_case_prediction_error=window,
    )
    return rows, fields, results[0].poly


def _sensitivity_at(config: ExperimentConfig, setup: SensingSetup, n: int, shots_n: int | None):
    """Reconstruct sensitivity curves from inferred responses and score the
    exact-vs-inferred error against the slope-normalized bound; the exact
    and all repeats' curves come from one node simulation."""
    reports = sensitivity_error_check(setup, shots=shots_n, seed=_trial_seeds(config, n))
    rows = [
        dict(n=n, repeat=repeat, median_relative_error=rep.median_relative_error,
             max_relative_error=rep.max_relative_error, epsilon=rep.epsilon,
             bound_value=rep.bound_value, holds=int(rep.holds))
        for repeat, rep in enumerate(reports)
    ]
    fields = dict(
        median_relative_sensitivity_error=float(
            np.median([r["median_relative_error"] for r in rows])
        ),
        max_relative_sensitivity_error=float(max(r["max_relative_error"] for r in rows)),
        bound_holds_all_trials=all(r["holds"] for r in rows),
    )
    return rows, fields, reports[0]


# name -> (allowed kinds, per-n function, trials CSV, curve CSV, curve
# writer); file names are formatted with the kind and n.  The per-n
# function runs every repeat at one system size and returns its trial rows
# (dicts in CSV column order), its summary.json fields in key order and the
# curve of the first repeat.
STUDIES = {
    "inference": (
        SETUP_KINDS, _inference_at, "trials_inference_{kind}.csv",
        "curves_{kind}_{n}.csv", write_plot_csv,
    ),
    "prediction": (
        ("ghz",), _prediction_at, "predictions_{kind}.csv",
        "curves_{kind}_{n}.csv", write_plot_csv,
    ),
    "sensitivity": (
        tuple(DEFAULT_SENSITIVITY_RANGES), _sensitivity_at, "trials_sensitivity_{kind}.csv",
        "sensitivity_{kind}_{n}.csv", write_sensitivity_csv,
    ),
}


def run_study(name: str, config: ExperimentConfig) -> list[dict]:
    """Run study ``name`` over ``config.n_values``, write its artifacts and
    return one record per system size, as in ``summary.json``."""
    try:
        kinds, per_n, trials_csv, curve_csv, write_curve = STUDIES[name]
    except KeyError:
        raise ValueError(f"unknown study {name!r}; choose from {sorted(STUDIES)}") from None
    if config.kind not in kinds:
        raise ValueError(f"the {name} study is defined for the {' or '.join(kinds)} kind")
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    dump_json(out / "config.json", asdict(config))
    records = []
    rows: list[dict] = []
    for n, setup in zip(config.n_values, config.setups):
        start = time.perf_counter()
        n_rows, fields, curve = per_n(config, setup, n, resolve_shots(config.shots, n))
        rows += n_rows
        write_curve(out / curve_csv.format(kind=config.kind, n=n), curve)
        records.append({"n": n, "runtime_seconds": time.perf_counter() - start, **fields})
    _write_trials_csv(out / trials_csv.format(kind=config.kind), rows)
    dump_json(out / "summary.json", {"study": name, "kind": config.kind, "records": records})
    return records
