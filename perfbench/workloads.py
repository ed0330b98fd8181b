"""The benchmark's four workloads.

Each workload turns the workload seed into ``variant_count`` op inputs (CLI
seeds and study ``base_seed`` values), knows the CLI calls that make one
op, checks an op's output files against the oracle, and extracts the
numbers that are compared with the seed-commit golden file at the default
seed.  Shots are integer literals throughout, so the amount of work does
not depend on the shot-budget rules.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Callable

import numpy as np

import oracle

DEFAULT_SEED = 0
VARIANTS = 8
ALPHA = 1e-9  # failure probability of each Hoeffding check
TOL = 1e-9
TWO_PI = 2.0 * math.pi
PLOT_GRID = np.linspace(0.0, TWO_PI, 1001)


def derive_seed(seed: int, index: int, salt: str) -> int:
    digest = hashlib.sha256(f"{seed}/{index}/{salt}".encode()).digest()
    return int.from_bytes(digest[:4], "big") & 0x7FFFFFFF


@dataclass
class Variant:
    """One op's inputs.  ``calls`` are (label, argv) with ``{out}`` standing
    for the op's output directory; ``configs`` are study config documents
    written there before the op; ``expect`` holds the oracle's values,
    computed on first use."""

    index: int
    calls: list[tuple[str, list[str]]]
    size: dict
    configs: dict[str, dict] = field(default_factory=dict)
    make_expect: Callable[[], dict] = dict

    @cached_property
    def expect(self) -> dict:
        return self.make_expect()

    def argvs(self, out: Path) -> list[list[str]]:
        return [[a.replace("{out}", str(out)) for a in argv] for _, argv in self.calls]

    def write_configs(self, out: Path) -> None:
        for label, doc in self.configs.items():
            doc = dict(doc, out_dir=str(out / label))
            (out / f"{label}.json").write_text(json.dumps(doc))


class CheckFailed(Exception):
    pass


def _near(got, want, tol: float, what: str) -> None:
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    if got.shape != want.shape:
        raise CheckFailed(f"{what}: shape {got.shape} != {want.shape}")
    if not np.all(np.isfinite(got)) or np.any(np.abs(got - want) > tol):
        worst = float(np.nanmax(np.abs(got - want))) if got.size else 0.0
        raise CheckFailed(f"{what}: off by {worst:.3e} (tolerance {tol:.1e})")


def _require(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


def _read_csv(path: Path) -> tuple[list[str], np.ndarray]:
    with path.open(newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], np.array([[float(x) for x in row] for row in rows[1:]])


def _coeff_list(coeffs) -> list[float]:
    a, b, c = coeffs
    return [float(x) for x in a] + [float(x) for x in b] + [float(c)]


def _curve(path: Path, degree: int):
    """Coefficients of a 1001-point curve file, checked to be a degree-D
    trigonometric polynomial on the plot grid."""
    header, data = _read_csv(path)
    _require(data.shape == (len(PLOT_GRID), 2), f"{path.name}: shape {data.shape}")
    _near(data[:, 0], PLOT_GRID, 1e-12, f"{path.name} theta column")
    coeffs, resid = oracle.fit_curve(data[:, 0], data[:, 1], degree)
    _require(resid <= TOL, f"{path.name}: not a degree-{degree} curve (residual {resid:.2e})")
    return coeffs


class Workload:
    name = ""
    why = ""
    variant_count = VARIANTS

    def variants(self, seed: int) -> list[Variant]:
        raise NotImplementedError

    def check(self, variant: Variant, out: Path) -> dict:
        """Raise CheckFailed on a wrong output; return the golden extract."""
        raise NotImplementedError

    def corrupt(self, out: Path) -> None:
        """Make a clearly wrong but well-formed change to an op's output."""
        raise NotImplementedError


# -- study-pure ---------------------------------------------------------------


class StudyPure(Workload):
    name = "study-pure"
    why = ("noiseless inference studies (GHZ n=8,12; random ansatz n=8): the "
           "statevector path, the per-angle truth grid and study file output")
    GHZ_N = (8, 12)
    RANDOM_N = (8,)
    SHOTS = 1000
    REPEATS = 1
    TEST_POINTS = 40
    LAYERS = 4

    def variants(self, seed: int) -> list[Variant]:
        out = []
        for k in range(self.variant_count):
            configs = {}
            for kind, ns in (("ghz", self.GHZ_N), ("random", self.RANDOM_N)):
                configs[kind] = {
                    "kind": kind, "n_values": list(ns), "shots": str(self.SHOTS),
                    "repeats": self.REPEATS, "test_points": self.TEST_POINTS,
                    "layers": self.LAYERS, "base_seed": derive_seed(seed, k, kind),
                }
            calls = [(kind, ["study", "--config", f"{{out}}/{kind}.json", "--study", "inference"])
                     for kind in configs]
            size = {"ghz_n": list(self.GHZ_N), "random_n": list(self.RANDOM_N),
                    "shots": self.SHOTS, "repeats": self.REPEATS,
                    "test_points": self.TEST_POINTS}
            out.append(Variant(k, calls, size, configs, lambda c=configs: self._expect(c)))
        return out

    def _expect(self, configs: dict) -> dict:
        expect = {}
        for kind, cfg in configs.items():
            for n in cfg["n_values"]:
                base = cfg["base_seed"]
                grid = np.random.default_rng([base, n, 101]).uniform(0.0, TWO_PI, cfg["test_points"])
                if kind == "ghz":
                    degree, width = n, 2.0
                    node_truth = oracle.ghz_parity(n, oracle.nodes(degree))
                    truth = oracle.ghz_parity(n, grid)
                else:
                    circ = oracle.random_ansatz(n, cfg["layers"], oracle.study_ansatz_seed(base, n))
                    degree, width = circ.degree, circ.outcome_range
                    response = oracle.ExactResponse(circ)
                    node_truth, truth = response(oracle.nodes(degree)), response(grid)
                expect[kind, n] = {
                    "degree": degree, "grid": grid, "truth": truth, "node_truth": node_truth,
                    "h": oracle.hoeffding(width, self.SHOTS, ALPHA),
                    "lebesgue": oracle.lebesgue_constant(degree),
                }
        return expect

    def check(self, variant: Variant, out: Path) -> dict:
        extract = {}
        for kind, cfg in variant.configs.items():
            d = out / kind
            summary = json.loads((d / "summary.json").read_text())
            _require(summary.get("study") == "inference" and summary.get("kind") == kind,
                     f"{kind}: summary names the wrong study")
            header, rows = _read_csv(d / f"trials_inference_{kind}.csv")
            _require(header[:5] == ["n", "repeat", "median_error", "max_error", "epsilon"],
                     f"{kind}: unexpected trials header {header}")
            records = summary["records"]
            _require([r["n"] for r in records] == cfg["n_values"], f"{kind}: records cover the wrong n")
            for n, record in zip(cfg["n_values"], records):
                exp = variant.expect[kind, n]
                trials = rows[rows[:, 0] == n]
                _require(len(trials) == cfg["repeats"], f"{kind} n={n}: {len(trials)} trial rows")
                coeffs = _curve(d / f"curves_{kind}_{n}.csv", exp["degree"])
                node_err = np.abs(oracle.evaluate(coeffs, oracle.nodes(exp["degree"])) - exp["node_truth"])
                _require(node_err.max() <= exp["h"],
                         f"{kind} n={n}: node mean off by {node_err.max():.3g} > Hoeffding {exp['h']:.3g}")
                err = np.abs(oracle.evaluate(coeffs, exp["grid"]) - exp["truth"])
                _near(trials[0, 2:5], [np.median(err), err.max(), node_err.max()], TOL,
                      f"{kind} n={n} repeat 0 errors")
                for med, worst, eps in trials[:, 2:5]:
                    _require(eps <= exp["h"], f"{kind} n={n}: epsilon {eps:.3g} above Hoeffding bound")
                    _require(med <= worst <= exp["lebesgue"] * eps + TOL,
                             f"{kind} n={n}: max error {worst:.3g} breaks the interpolation bound")
                _near([record["median_error"], record["max_error"]],
                      [np.median(trials[:, 2]), trials[:, 3].max()], 1e-12, f"{kind} n={n} summary")
                extract[f"{kind}/{n}"] = {
                    "coeffs": _coeff_list(coeffs),
                    "trials": trials[:, 2:5].tolist(),
                }
        return extract

    def corrupt(self, out: Path) -> None:
        path = out / "ghz" / "curves_ghz_8.csv"
        header, data = _read_csv(path)
        data[:, 1] += 0.5
        _write_rows(path, header, data)


# -- noisy-infer ----------------------------------------------------------------


class NoisyInfer(Workload):
    name = "noisy-infer"
    why = ("qsense infer with 1% gate noise (GHZ n=7, random ansatz n=5): only "
           "the density path and its depolarizing steps")
    NOISE = 0.01
    SHOTS = 1000
    GHZ_N = 7
    RANDOM_N = 5
    LAYERS = 4

    def variants(self, seed: int) -> list[Variant]:
        out = []
        for k in range(self.variant_count):
            seeds = {"ghz": derive_seed(seed, k, "ghz"), "random": derive_seed(seed, k, "random")}
            circuits = {
                "ghz": oracle.ghz(self.GHZ_N, self.NOISE),
                "random": oracle.random_ansatz(self.RANDOM_N, self.LAYERS, seeds["random"], self.NOISE),
            }
            calls = []
            for kind, circ in circuits.items():
                calls.append((kind, [
                    "infer", "--setup", kind, "--n", str(circ.n), "--noise", str(self.NOISE),
                    "--layers", str(self.LAYERS), "--shots", str(self.SHOTS),
                    "--seed", str(seeds[kind]), "--out", f"{{out}}/{kind}",
                ]))
            size = {"ghz_n": self.GHZ_N, "random_n": self.RANDOM_N, "noise": self.NOISE,
                    "shots": self.SHOTS, "layers": self.LAYERS}
            out.append(Variant(k, calls, size, make_expect=lambda c=circuits, s=seeds: self._expect(c, s)))
        return out

    def _expect(self, circuits: dict, seeds: dict) -> dict:
        return {
            kind: {
                "circuit": circ, "seed": seeds[kind],
                "node_truth": oracle.ExactResponse(circ)(oracle.nodes(circ.degree)),
                "h": oracle.hoeffding(circ.outcome_range, self.SHOTS, ALPHA),
            }
            for kind, circ in circuits.items()
        }

    def check(self, variant: Variant, out: Path) -> dict:
        extract = {}
        for kind, exp in variant.expect.items():
            circ = exp["circuit"]
            doc = json.loads((out / kind / "inference.json").read_text())
            _require(doc["seed"] == exp["seed"] and doc["shots_per_node"] == self.SHOTS,
                     f"{kind}: seed or shots not echoed")
            _check_setup(doc["setup"], circ)
            _near(doc["nodes"], oracle.nodes(circ.degree), 1e-12, f"{kind} nodes")
            values = np.asarray(doc["values"], dtype=float)
            dev = np.abs(values - exp["node_truth"])
            _require(dev.max() <= exp["h"],
                     f"{kind}: node mean off by {dev.max():.3g} > Hoeffding {exp['h']:.3g}")
            poly = doc["poly"]
            _require(poly["degree"] == circ.degree, f"{kind}: degree {poly['degree']}")
            coeffs = (poly["a"], poly["b"], poly["c"])
            _near(_coeff_list(coeffs), _coeff_list(oracle.interpolate(values)), TOL, f"{kind} coefficients")
            se = np.asarray(doc["standard_errors"], dtype=float)
            _require(bool(np.all(np.isfinite(se)) and np.all(se >= 0)), f"{kind}: bad standard errors")
            if kind == "ghz":  # +-1 outcomes: se = sqrt((1 - mean^2) / shots)
                _near(se, np.sqrt(np.clip(1.0 - values**2, 0.0, None) / self.SHOTS), TOL,
                      f"{kind} standard errors")
            header, data = _read_csv(out / kind / "response_curve.csv")
            _near(data[:, 0], PLOT_GRID, 1e-12, f"{kind} curve grid")
            _near(data[:, 1], oracle.evaluate(coeffs, PLOT_GRID), TOL, f"{kind} curve values")
            extract[kind] = {"coeffs": _coeff_list(coeffs), "values": values.tolist(),
                             "standard_errors": se.tolist()}
        return extract

    def corrupt(self, out: Path) -> None:
        path = out / "ghz" / "inference.json"
        doc = json.loads(path.read_text())
        doc["poly"]["c"] += 0.5
        path.write_text(json.dumps(doc, indent=2) + "\n")


def _check_setup(doc: dict, circ: oracle.Circuit) -> None:
    """The echoed setup must be the circuit the oracle simulated."""
    gates = [(g["gate"], tuple(g["targets"]), tuple(g.get("params", ()))) for g in doc["preparation"]]
    want = [(name, tuple(t), tuple(p)) for name, t, p in circ.prep]
    _require([g[:2] for g in gates] == [g[:2] for g in want], "echoed preparation differs from the oracle's")
    _near([p for g in gates for p in g[2]], [p for g in want for p in g[2]], 1e-12, "gate angles")
    _require(doc["hamiltonian"] == list(circ.terms), "echoed encoding differs from the oracle's")
    _require(abs(doc["noise"] - circ.noise) <= 1e-15, "echoed noise differs")


# -- estimate -------------------------------------------------------------------


class Estimate(Workload):
    name = "estimate"
    why = ("prediction study on noiseless GHZ n=4,8 with exact curves: the "
           "downstream layer (estimate_parameter, cosine_fit) and sampling")
    N_VALUES = (4, 8)
    SHOTS = 1000
    FIELDS = 48
    REPEATS = 1

    def variants(self, seed: int) -> list[Variant]:
        out = []
        for k in range(self.variant_count):
            config = {
                "kind": "ghz", "n_values": list(self.N_VALUES), "shots": str(self.SHOTS),
                "repeats": self.REPEATS, "prediction_fields": self.FIELDS,
                "exact_curves": True, "base_seed": derive_seed(seed, k, "estimate"),
            }
            calls = [("ghz", ["study", "--config", "{out}/ghz.json", "--study", "prediction"])]
            size = {"n_values": list(self.N_VALUES), "shots": self.SHOTS,
                    "fields": self.FIELDS, "repeats": self.REPEATS, "exact_curves": True}
            out.append(Variant(k, calls, size, {"ghz": config}))
        return out

    def check(self, variant: Variant, out: Path) -> dict:
        cfg = variant.configs["ghz"]
        d = out / "ghz"
        summary = json.loads((d / "summary.json").read_text())
        _require(summary.get("study") == "prediction", "summary names the wrong study")
        header, rows = _read_csv(d / "predictions_ghz.csv")
        _require(header == ["n", "repeat", "theta_true", "theta_inferred", "theta_fit"],
                 f"unexpected predictions header {header}")
        h = oracle.hoeffding(2.0, self.SHOTS, ALPHA)
        extract = {}
        for n, record in zip(cfg["n_values"], summary["records"]):
            _require(record["n"] == n, "records cover the wrong n")
            coeffs = _curve(d / f"curves_ghz_{n}.csv", n)
            want = np.zeros(2 * n + 1)
            want[n - 1] = 1.0  # cos(n theta)
            _near(_coeff_list(coeffs), want, TOL, f"n={n} exact curve coefficients")
            window = math.pi / (10.0 * n)
            sel = rows[rows[:, 0] == n]
            _require(len(sel) == cfg["repeats"] * cfg["prediction_fields"], f"n={n}: {len(sel)} rows")
            for repeat in range(cfg["repeats"]):
                rng = np.random.default_rng([cfg["base_seed"], n, repeat, 55])
                want_true = rng.uniform(0.0, TWO_PI, cfg["prediction_fields"])
                _near(sel[sel[:, 1] == repeat, 2], want_true, 0.0, f"n={n} field angles")
            truth = oracle.ghz_parity(n, sel[:, 2])
            for col, label, slack in ((3, "inferred", TOL), (4, "cosine-fit", 1e-6)):
                est = sel[:, col]
                _require(bool(np.all(np.abs(est - sel[:, 2]) <= window * (1 + 1e-12))),
                         f"n={n}: {label} estimate leaves its window")
                gap = np.abs(oracle.ghz_parity(n, est) - truth).max()
                # |R(est) - m| <= |R(true) - m| <= h for the measured mean m
                _require(gap <= 2 * h + slack, f"n={n}: {label} estimate misses by {gap:.3g} in response")
            errs = np.abs(sel[:, 3] - sel[:, 2])
            _near([record["median_prediction_error"], record["worst_case_prediction_error"]],
                  [np.median(errs), window], 1e-12, f"n={n} summary")
            extract[str(n)] = {"coeffs": _coeff_list(coeffs), "rows": sel[:, 2:].tolist()}
        return extract

    def corrupt(self, out: Path) -> None:
        path = out / "ghz" / "predictions_ghz.csv"
        header, data = _read_csv(path)
        data[:, 3] += 3 * math.pi / (10.0 * data[:, 0])
        _write_rows(path, header, data)


# -- train ----------------------------------------------------------------------


class Train(Workload):
    name = "train"
    why = ("qsense train n=4 for a fixed epoch count: thousands of tiny 9-node "
           "exact responses, the variational loss and the optimizer loop")
    N = 4
    EPOCHS = 20
    # Nelder-Mead takes a different number of loss evaluations per epoch for
    # each start, so op costs differ by up to 30 %; more variants keep a
    # run's latency quantiles from hanging on which starts a seed drew.
    variant_count = 2 * VARIANTS

    def variants(self, seed: int) -> list[Variant]:
        out = []
        for k in range(self.variant_count):
            s = derive_seed(seed, k, "train")
            x0 = np.random.default_rng(s).uniform(0.0, TWO_PI, oracle.coarsening_param_count(self.N))
            calls = [("train", ["train", "--n", str(self.N), "--epochs", str(self.EPOCHS),
                                "--seed", str(s), "--out", "{out}/train"])]
            size = {"n": self.N, "epochs": self.EPOCHS}
            out.append(Variant(k, calls, size, make_expect=lambda x=x0: {
                "x0": x, "initial": _loss_and_coeffs(self.N, x)}))
        return out

    def check(self, variant: Variant, out: Path) -> dict:
        d = out / "train"
        doc = json.loads((d / "trace.json").read_text())
        exp = variant.expect
        _near(doc["initial_params"], exp["x0"], 1e-12, "initial parameters")
        initial_loss, initial_coeffs = exp["initial"]
        _near(doc["initial_loss"], initial_loss, TOL, "initial loss")
        final_loss, final_coeffs = _loss_and_coeffs(self.N, doc["final_params"])
        _near(doc["final_loss"], final_loss, TOL, "final loss at the final parameters")
        losses = np.asarray(doc["losses"], dtype=float)
        _require(losses[0] == doc["initial_loss"], "loss history does not start at the initial loss")
        _require(bool(np.all(np.diff(losses) <= 0.0)), "loss history increases")
        _require(doc["final_loss"] <= doc["initial_loss"], "training made the loss worse")
        _require(1 <= doc["epochs_used"] <= self.EPOCHS, f"epochs_used {doc['epochs_used']}")
        header, data = _read_csv(d / "loss_curve.csv")
        _near(data[:, 1], losses, 0.0, "loss curve file")
        header, data = _read_csv(d / "sensitivity_training.csv")
        w = math.pi / self.N
        grid = np.linspace(-w, w, 203)[1:-1]
        _near(data[:, 0], grid, 1e-12, "sensitivity grid")
        for col, coeffs, label in ((1, initial_coeffs, "pre"), (2, final_coeffs, "post")):
            want, divergent = _delta_theta_sq(coeffs, grid)
            _require(bool(np.array_equal(data[:, col + 2] == 1.0, divergent)), f"{label} divergence flags")
            ok = ~divergent
            rel = np.abs(data[ok, col] - want[ok]) / np.maximum(np.abs(want[ok]), 1.0)
            _require(bool(np.all(rel <= 1e-6)), f"{label} sensitivity curve off by {rel.max():.2e}")
        return {"initial_loss": doc["initial_loss"], "initial_params": doc["initial_params"]}

    def corrupt(self, out: Path) -> None:
        path = out / "train" / "trace.json"
        doc = json.loads(path.read_text())
        doc["initial_loss"] *= 1.01
        doc["losses"][0] = doc["initial_loss"]
        path.write_text(json.dumps(doc, indent=2) + "\n")


def _loss_and_coeffs(n: int, params):
    circ = oracle.coarsening(n, params)
    coeffs = oracle.interpolate(oracle.ExactResponse(circ)(oracle.nodes(circ.degree)))
    return oracle.window_loss(coeffs, n), coeffs


def _delta_theta_sq(coeffs, grid):
    """(1 - R^2) / R'^2 with |R'| below 1e-8 flagged divergent."""
    values = oracle.evaluate(coeffs, grid)
    slopes = oracle.evaluate(oracle.derivative(coeffs), grid)
    divergent = np.abs(slopes) < 1e-8
    safe = np.where(divergent, 1.0, slopes)
    return np.clip(1.0 - values**2, 0.0, None) / safe**2, divergent


def _write_rows(path: Path, header, data) -> None:
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([[repr(float(v)) for v in row] for row in data])


WORKLOADS = {w.name: w for w in (StudyPure(), NoisyInfer(), Estimate(), Train())}


def compare_golden(got, want, path: str = "") -> None:
    """Every number in ``want`` must be matched in ``got`` to TOL."""
    if isinstance(want, dict):
        _require(isinstance(got, dict) and got.keys() == want.keys(), f"golden keys differ at {path or '/'}")
        for key in want:
            compare_golden(got[key], want[key], f"{path}/{key}")
    else:
        _near(got, want, TOL, f"golden {path}")
