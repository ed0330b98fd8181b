import json
import math
from dataclasses import asdict

import numpy as np
import pytest

from qsense.cli import main
from qsense import experiments
from qsense.experiments import (
    ExperimentConfig,
    _trial_seeds,
    resolve_shots,
    run_study,
)
from qsense.inference import infer_response, infer_responses, polylog_shot_schedule, shot_budget
from qsense.sim import build_setup, exact_response, setups
from qsense.trig import TrigPoly


def test_resolve_shots_policies():
    assert resolve_shots("exact", 4) is None
    assert resolve_shots("1234", 4) == 1234
    assert resolve_shots("paper", 6) == polylog_shot_schedule(6)
    assert resolve_shots("polylog", 6) == polylog_shot_schedule(6)
    assert resolve_shots("budget:0.1,0.05", 4) == shot_budget(4, 0.1, 0.05)
    with pytest.raises(ValueError):
        resolve_shots("sometimes", 4)
    with pytest.raises(ValueError):
        resolve_shots("budget:0.1", 4)
    for bad in ("0", "-4"):
        with pytest.raises(ValueError, match="at least 1 shot"):
            resolve_shots(bad, 4)
    for bad in ("budget:inf,0.05", "budget:nan,0.05", "budget:-inf,0.05"):
        with pytest.raises(ValueError, match="delta"):
            resolve_shots(bad, 4)


def test_config_validation_and_round_trip(tmp_path):
    config = ExperimentConfig(kind="ghz", n_values=(2, 3), shots="polylog", repeats=2)
    back = ExperimentConfig.from_json_dict(json.loads(json.dumps(asdict(config))))
    assert back == config
    with pytest.raises(ValueError):
        ExperimentConfig(kind="bogus", n_values=(2,))
    with pytest.raises(ValueError):
        ExperimentConfig(kind="ghz", n_values=())
    with pytest.raises(ValueError):
        ExperimentConfig(kind="ghz", n_values=(2,), repeats=0)
    with pytest.raises(ValueError):
        ExperimentConfig(kind="ghz", n_values=(2,), shots="whenever")
    with pytest.raises(ValueError):
        ExperimentConfig(kind="ghz", n_values=(13,))  # statevector study cap
    with pytest.raises(ValueError):
        ExperimentConfig(kind="ghz", n_values=(9,), noise=0.01)  # noisy study cap
    with pytest.raises(ValueError, match="test_points"):
        ExperimentConfig(kind="ghz", n_values=(2,), test_points=0)
    with pytest.raises(ValueError, match="prediction_fields"):
        ExperimentConfig(kind="ghz", n_values=(2,), prediction_fields=0)
    for kind in ("random", "ghz"):
        with pytest.raises(ValueError, match="layers"):
            ExperimentConfig(kind=kind, n_values=(3,), layers=-1)
    for noise in (math.nan, -0.1, 1.5):
        with pytest.raises(ValueError, match="noise"):
            ExperimentConfig(kind="ghz", n_values=(2,), noise=noise)
    bad_shots = [("0", [2], "shots"), ("-4", [2], "shots"), ("polylog", [1, 2], "n >= 2"),
                 ("budget:0.1,0.05", [2, 1], "n >= 2"), ("budget:inf,0.05", [2], "delta"),
                 ("budget:nan,0.05", [3], "delta"), ("budget:1e-300,0.1", [2], "delta"),
                 ("budget:1e-160,0.1", [4], "delta")]
    for shots, n_values, message in bad_shots:
        doc = {"kind": "ghz", "n_values": n_values, "shots": shots,
               "out_dir": str(tmp_path / "out"), "study": "inference"}
        with pytest.raises(ValueError, match=message):
            ExperimentConfig.from_json_dict(doc)
        (tmp_path / "config.json").write_text(json.dumps(doc))
        assert main(["study", "--config", str(tmp_path / "config.json")]) == 2
        assert not (tmp_path / "out").exists()  # rejected before any file is written


def test_config_rejects_unknown_keys_before_any_output(tmp_path, capsys):
    doc = {"kind": "ghz", "n_values": [2], "repeates": 5, "study": "inference",
           "out_dir": str(tmp_path / "out")}
    with pytest.raises(ValueError, match="repeates"):
        ExperimentConfig.from_json_dict(doc)
    (tmp_path / "config.json").write_text(json.dumps(doc))
    assert main(["study", "--config", str(tmp_path / "config.json")]) == 2
    assert "repeates" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
    del doc["repeates"]
    assert ExperimentConfig.from_json_dict(doc).repeats == 1
    for not_object in ([doc], "ghz", 2):
        with pytest.raises(ValueError, match="JSON object"):
            ExperimentConfig.from_json_dict(not_object)
        (tmp_path / "config.json").write_text(json.dumps(not_object))
        for flags in ([], ["--study", "inference"]):
            assert main(["study", "--config", str(tmp_path / "config.json"), *flags]) == 2
            assert "JSON object" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("fields, message", [
    ({"n_values": [2.7]}, "n_values entry"),
    ({"n_values": [True]}, "n_values entry"),
    ({"n_values": 2}, "n_values"),
    ({"n_values": [2], "repeats": 1.5}, "repeats"),
    ({"n_values": [2], "test_points": "10"}, "test_points"),
    ({"n_values": [2], "prediction_fields": 2.0}, "prediction_fields"),
    ({"n_values": [2], "layers": False}, "layers"),
    ({"n_values": [2], "base_seed": 0.5}, "base_seed"),
    ({"n_values": [2], "base_seed": -1}, "base_seed"),
    ({"n_values": [2], "exact_curves": "false"}, "exact_curves"),
    ({"n_values": [2], "exact_curves": 0}, "exact_curves"),
    ({"n_values": [2], "noise": True}, "noise must be a real number"),
    ({"n_values": [2], "noise": "0.1"}, "noise must be a real number"),
])
def test_config_field_types_checked_before_any_output(tmp_path, capsys, fields, message):
    doc = {"study": "prediction", "kind": "ghz", "out_dir": str(tmp_path / "out"), **fields}
    with pytest.raises(ValueError, match=message):
        ExperimentConfig.from_json_dict(doc)
    (tmp_path / "config.json").write_text(json.dumps(doc))
    assert main(["study", "--config", str(tmp_path / "config.json")]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("kind, n, message", [
    ("squeezing", 1, "n >= 2"), ("ghz", 0, "n >= 1"), ("random", 1, "n >= 2"),
    ("bogus", 2, "kind"),
])
def test_setup_rules_checked_before_any_output(tmp_path, capsys, kind, n, message):
    doc = {"study": "inference", "kind": kind, "n_values": [3, n],
           "out_dir": str(tmp_path / "out")}
    (tmp_path / "config.json").write_text(json.dumps(doc))
    assert main(["study", "--config", str(tmp_path / "config.json")]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_config_normalizes_integer_fields():
    config = ExperimentConfig(kind="ghz", n_values=[np.int64(2)], repeats=np.int64(2))
    assert config.n_values == (2,) and type(config.n_values[0]) is int
    assert type(config.repeats) is int


def test_inference_study_exact_is_machine_precise(tmp_path):
    config = ExperimentConfig(
        kind="ghz", n_values=(2, 3, 4), shots="exact", repeats=2,
        out_dir=str(tmp_path / "out"), test_points=500,
    )
    records = run_study("inference", config)
    assert [r["n"] for r in records] == [2, 3, 4]
    for record in records:
        assert record["max_error"] < 1e-8
        assert record["median_error"] <= record["max_error"]
        assert record["all_trials_within_bound"]
    out = tmp_path / "out"
    assert (out / "config.json").exists()
    assert (out / "summary.json").exists()
    assert (out / "trials_inference_ghz.csv").exists()
    assert (out / "curves_ghz_2.csv").exists()


def test_inference_study_reproducible_and_worker_invariant(tmp_path, monkeypatch):
    def run(out_dir):
        config = ExperimentConfig(
            kind="random", n_values=(4,), shots="500", repeats=2,
            base_seed=9, out_dir=str(out_dir), test_points=200,
        )
        run_study("inference", config)

    run(tmp_path / "a")
    monkeypatch.setenv("QSENSE_WORKERS", "3")
    run(tmp_path / "b")
    for name in ("trials_inference_random.csv", "curves_random_4.csv"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
    docs = []
    for sub in ("a", "b"):
        doc = json.loads((tmp_path / sub / "summary.json").read_text())
        for record in doc["records"]:
            record.pop("runtime_seconds")
        docs.append(doc)
    assert docs[0] == docs[1]


def test_inference_study_csv_round_trip(tmp_path):
    config = ExperimentConfig(
        kind="ghz", n_values=(2, 3), shots="2000", repeats=3,
        base_seed=1, out_dir=str(tmp_path), test_points=300,
    )
    records = run_study("inference", config)
    rows = np.genfromtxt(tmp_path / "trials_inference_ghz.csv", delimiter=",", names=True)
    for record in records:
        mask = rows["n"] == record["n"]
        assert float(np.median(rows["median_error"][mask])) == record["median_error"]
        assert float(rows["max_error"][mask].max()) == record["max_error"]
        assert float(np.median(rows["bound_value"][mask])) == record["bound_value"]


def test_prediction_study_exact_mode(tmp_path):
    config = ExperimentConfig(
        kind="ghz", n_values=(2, 3), shots="exact", repeats=1,
        out_dir=str(tmp_path), prediction_fields=10,
    )
    records = run_study("prediction", config)
    for record in records:
        assert record["median_prediction_error"] < 1e-7
        assert record["upper_quartile_prediction_error"] < 1e-7
        window = math.pi / (10 * record["n"])
        assert record["worst_case_prediction_error"] == window
    rows = np.genfromtxt(tmp_path / "predictions_ghz.csv", delimiter=",", names=True)
    for row in rows:
        window = math.pi / (10 * row["n"])
        assert abs(row["theta_fit"] - row["theta_true"]) <= window + 1e-9
        assert abs(row["theta_inferred"] - row["theta_true"]) <= window + 1e-9


def test_prediction_study_rejects_non_ghz(tmp_path):
    config = ExperimentConfig(kind="squeezing", n_values=(2,), out_dir=str(tmp_path))
    with pytest.raises(ValueError):
        run_study("prediction", config)
    assert not any(tmp_path.iterdir())  # rejected before any file is written


def test_prediction_study_noisy_with_exact_curves(tmp_path):
    config = ExperimentConfig(
        kind="ghz", n_values=(2, 3), noise=0.02, shots="2000", repeats=1,
        base_seed=3, out_dir=str(tmp_path), prediction_fields=12, exact_curves=True,
    )
    records = run_study("prediction", config)
    for record in records:
        median = record["median_prediction_error"]
        assert median <= record["median_prediction_error_baseline"] + 1e-9
        assert median <= record["worst_case_prediction_error"] + 1e-9


def test_sensitivity_study_ghz_exact(tmp_path):
    config = ExperimentConfig(
        kind="ghz", n_values=(4,), shots="exact", repeats=2, out_dir=str(tmp_path)
    )
    records = run_study("sensitivity", config)
    record = records[0]
    assert record["bound_holds_all_trials"]
    assert record["median_relative_sensitivity_error"] < 1e-8
    rows = np.genfromtxt(tmp_path / "sensitivity_ghz_4.csv", delimiter=",", names=True)
    finite = np.isfinite(rows["exact_delta_sq"])
    assert finite.all()
    np.testing.assert_allclose(rows["exact_delta_sq"], 1.0 / 16.0, atol=1e-6)
    np.testing.assert_allclose(rows["inferred_delta_sq"], 1.0 / 16.0, atol=1e-6)


def test_sensitivity_study_squeezing_with_shots(tmp_path):
    config = ExperimentConfig(
        kind="squeezing", n_values=(4,), shots="polylog", repeats=3,
        base_seed=2, out_dir=str(tmp_path),
    )
    records = run_study("sensitivity", config)
    record = records[0]
    assert record["bound_holds_all_trials"]
    assert math.isfinite(record["median_relative_sensitivity_error"])
    rows = np.genfromtxt(tmp_path / "sensitivity_squeezing_4.csv", delimiter=",", names=True)
    assert (rows["divergent"] == 0).all()


def test_sensitivity_curve_flags_vanishing_gradient():
    from qsense.inference import response_polynomial, sensitivity
    from qsense.sim import build_ghz_setup

    poly = response_polynomial(build_ghz_setup(4))
    grid = np.linspace(0.0, 2 * math.pi, 9)  # hits slope zeros of cos(4 theta)
    curve = sensitivity(poly, grid)
    assert curve.divergent.any()
    assert np.isinf(curve.delta_theta_sq[curve.divergent]).all()


@pytest.mark.parametrize("fields, fits", [
    (dict(shots="500", exact_curves=True), 2),
    (dict(shots="exact"), 2),
    (dict(shots="500"), 6),  # sampled curves differ per repeat
])
def test_prediction_study_fits_each_distinct_curve_once(tmp_path, monkeypatch, fields, fits):
    calls = []
    fit = experiments.cosine_fit
    monkeypatch.setattr(experiments, "cosine_fit", lambda samples: calls.append(samples) or fit(samples))
    config = ExperimentConfig(kind="ghz", n_values=(3, 4), repeats=3, prediction_fields=4,
                              out_dir=str(tmp_path), **fields)
    run_study("prediction", config)
    assert len(calls) == fits


def test_prediction_study_evaluates_no_slope(tmp_path, monkeypatch):
    calls = []
    derivative = TrigPoly.derivative
    monkeypatch.setattr(TrigPoly, "derivative", lambda p: calls.append(p) or derivative(p))
    TrigPoly([1.0], [0.0], 0.0).derivative()
    assert len(calls) == 1  # the counter sees a slope
    for fields in (dict(shots="500", exact_curves=True), dict(shots="500")):
        config = ExperimentConfig(kind="ghz", n_values=(3, 4), repeats=2, prediction_fields=6,
                                  out_dir=str(tmp_path), **fields)
        run_study("prediction", config)
    assert len(calls) == 1


@pytest.mark.parametrize(
    "study, kind, trials, curves, keys, header",
    [
        (
            "inference", "squeezing", "trials_inference_squeezing.csv",
            ("curves_squeezing_2.csv", "curves_squeezing_3.csv"),
            ["n", "runtime_seconds", "median_error", "max_error", "bound_value",
             "all_trials_within_bound"],
            "n,repeat,median_error,max_error,epsilon,bound_value",
        ),
        (
            "prediction", "ghz", "predictions_ghz.csv",
            ("curves_ghz_2.csv", "curves_ghz_3.csv"),
            ["n", "runtime_seconds", "median_prediction_error",
             "upper_quartile_prediction_error", "median_prediction_error_baseline",
             "upper_quartile_prediction_error_baseline", "worst_case_prediction_error"],
            "n,repeat,theta_true,theta_inferred,theta_fit",
        ),
        (
            "sensitivity", "ghz", "trials_sensitivity_ghz.csv",
            ("sensitivity_ghz_2.csv", "sensitivity_ghz_3.csv"),
            ["n", "runtime_seconds", "median_relative_sensitivity_error",
             "max_relative_sensitivity_error", "bound_holds_all_trials"],
            "n,repeat,median_relative_error,max_relative_error,epsilon,bound_value,holds",
        ),
    ],
)
def test_study_output_structure(tmp_path, study, kind, trials, curves, keys, header):
    config = ExperimentConfig(
        kind=kind, n_values=(2, 3), shots="exact", repeats=2,
        out_dir=str(tmp_path), test_points=50, prediction_fields=3,
    )
    run_study(study, config)
    written = {p.name for p in tmp_path.iterdir()}
    assert written == {"config.json", "summary.json", trials, *curves}
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert list(summary) == ["study", "kind", "records"]
    assert (summary["study"], summary["kind"]) == (study, kind)
    assert [record["n"] for record in summary["records"]] == [2, 3]
    for record in summary["records"]:
        assert list(record) == keys
    lines = (tmp_path / trials).read_text().splitlines()
    assert lines[0] == header
    per_repeat = config.prediction_fields if study == "prediction" else 1
    assert len(lines) == 1 + len(config.n_values) * config.repeats * per_repeat


def test_run_study_dispatch(tmp_path):
    config = ExperimentConfig(kind="ghz", n_values=(2,), out_dir=str(tmp_path), test_points=100)
    records = run_study("inference", config)
    assert records[0]["n"] == 2
    with pytest.raises(ValueError):
        run_study("nope", config)


@pytest.mark.parametrize("kind", ["ghz", "squeezing", "random"])
@pytest.mark.parametrize("noise", [0.0, 0.01])
def test_shared_node_pass_equals_standalone_inference(kind, noise):
    n = 4
    setup = build_setup(kind, n, noise, 2, 11)
    seeds = _trial_seeds(ExperimentConfig(kind=kind, n_values=[n], repeats=3, base_seed=3), n)
    exact_poly, results = infer_responses(setup, 400, seeds)
    for seed, res in zip(seeds, results):
        alone = infer_response(setup, shots=400, seed=seed)
        assert res.poly == alone.poly
        for field in ("values", "standard_errors"):
            assert np.array_equal(getattr(res.samples, field), getattr(alone.samples, field))
        assert np.array_equal(res.samples.nodes.angles, alone.samples.nodes.angles)
        assert (res.epsilon_estimate, res.bound_value) == (alone.epsilon_estimate, alone.bound_value)
    assert results[0].poly != results[1].poly
    grid = np.random.default_rng(5).uniform(0.0, 2 * math.pi, 200)
    np.testing.assert_allclose(exact_poly.evaluate(grid), exact_response(setup, grid),
                               rtol=0, atol=1e-12)


def _count_prepares(monkeypatch) -> list:
    calls = []
    prepare = setups._prepare

    def counted(setup, density):
        calls.append(setup.n)
        return prepare(setup, density)

    monkeypatch.setattr(setups, "_prepare", counted)
    return calls


@pytest.mark.parametrize("study, kind, passes", [
    ("inference", "random", 1),
    ("sensitivity", "squeezing", 1),
    ("prediction", "ghz", 2),  # the nodes, then every repeat's fields in one call
])
def test_sampled_study_simulates_nodes_once_per_n(tmp_path, monkeypatch, study, kind, passes):
    calls = _count_prepares(monkeypatch)
    config = ExperimentConfig(
        kind=kind, n_values=(3, 4), noise=0.01, shots="300", repeats=3,
        out_dir=str(tmp_path), test_points=500, prediction_fields=4,
    )
    run_study(study, config)
    assert calls == [3] * passes + [4] * passes


def test_exact_inference_study_simulates_its_truth_grid(tmp_path, monkeypatch):
    sizes = []

    def recorded(setup, theta):
        sizes.append(np.size(theta))
        return exact_response(setup, theta)

    monkeypatch.setattr(experiments, "exact_response", recorded)
    config = ExperimentConfig(
        kind="ghz", n_values=(3,), shots="exact", repeats=2, out_dir=str(tmp_path),
        test_points=123,
    )
    run_study("inference", config)
    assert sizes == [123]


def test_study_builds_each_setup_once_with_its_ansatz_seed(tmp_path, monkeypatch):
    built = []

    def recorded(kind, n, noise, layers, seed):
        built.append((n, seed))
        return build_setup(kind, n, noise, layers, seed)

    monkeypatch.setattr(experiments, "build_setup", recorded)
    config = ExperimentConfig(kind="random", n_values=(3, 4), layers=2, base_seed=5,
                              out_dir=str(tmp_path), test_points=20)
    run_study("inference", config)
    assert built == [(n, experiments._ansatz_seed(5, n)) for n in (3, 4)]
    assert config.setups == tuple(build_setup("random", n, 0.0, 2, seed) for n, seed in built)
