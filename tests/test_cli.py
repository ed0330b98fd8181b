import json
import math
from pathlib import Path

import numpy as np
import pytest

from qsense.cli import main
from qsense.trig import TrigPoly


def test_budget_prints_formula_value(capsys):
    assert main(["budget", "--n", "2", "--delta", "0.1", "--alpha", "0.05"]) == 0
    assert capsys.readouterr().out.strip() == "12728"


def test_budget_schedule_flag(capsys):
    assert main(["budget", "--n", "8", "--schedule"]) == 0
    assert capsys.readouterr().out.strip() == "17581"


def test_budget_missing_args_is_exit_2(capsys):
    assert main(["budget", "--n", "2"]) == 2
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("delta", ["inf", "nan"])
def test_budget_rejects_non_finite_delta(capsys, delta):
    assert main(["budget", "--n", "4", "--delta", delta, "--alpha", "0.05"]) == 2
    assert "delta" in capsys.readouterr().err


@pytest.mark.parametrize("delta", ["1e-300", "1e-160", "1e200"])
def test_budget_rejects_delta_whose_square_leaves_float_range(capsys, delta):
    # 1e-300 squares to 0, 1e-160 gives an infinite budget, 1e200 squares past the max
    assert main(["budget", "--n", "4", "--delta", delta, "--alpha", "0.1"]) == 2
    assert "delta" in capsys.readouterr().err


def test_infer_curve_matches_cos_4theta(tmp_path):
    out = tmp_path / "d"
    assert main(["infer", "--setup", "ghz", "--n", "4", "--shots", "exact",
                 "--out", str(out)]) == 0
    rows = np.genfromtxt(out / "response_curve.csv", delimiter=",", names=True)
    assert np.abs(rows["value"] - np.cos(4 * rows["theta"])).max() < 1e-8
    doc = json.loads((out / "inference.json").read_text())
    assert doc["poly"]["degree"] == 4
    assert doc["setup"]["kind"] == "ghz"


def test_infer_invalid_n_is_exit_2(tmp_path, capsys):
    assert main(["infer", "--setup", "ghz", "--n", "0", "--out", str(tmp_path)]) == 2
    assert "error" in capsys.readouterr().err


def test_negative_layers_is_exit_2_before_any_output(tmp_path, capsys):
    out = tmp_path / "inf"
    assert main(["infer", "--setup", "random", "--n", "3", "--layers", "-2",
                 "--out", str(out)]) == 2
    assert "layers" in capsys.readouterr().err
    assert not out.exists()
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({"kind": "random", "n_values": [3], "layers": -2,
                                    "out_dir": str(tmp_path / "res")}))
    assert main(["study", "--study", "inference", "--config", str(cfg_file)]) == 2
    assert "layers" in capsys.readouterr().err
    assert not (tmp_path / "res").exists()


def test_infer_aliasing_degree_is_exit_2_before_any_output(tmp_path, capsys):
    out = tmp_path / "inf"
    assert main(["infer", "--setup", "ghz", "--n", "3", "--degree", "1", "--shots", "exact",
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "degree 1" in err and "encoding degree 3" in err
    assert not out.exists()


def test_infer_degree_above_limit_is_exit_2_before_any_output(tmp_path, capsys):
    out = tmp_path / "inf"
    assert main(["infer", "--setup", "ghz", "--n", "3", "--degree", "100000",
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "degree 100000" in err and "2048" in err
    assert not out.exists()


def test_infer_unknown_flag_is_exit_2(tmp_path):
    with pytest.raises(SystemExit) as err:
        main(["infer", "--setup", "ghz", "--n", "2", "--out", str(tmp_path), "--bogus"])
    assert err.value.code == 2


def test_infer_outputs_byte_identical(tmp_path):
    args = ["infer", "--setup", "squeezing", "--n", "3", "--shots", "300", "--seed", "5"]
    assert main(args + ["--out", str(tmp_path / "a")]) == 0
    assert main(args + ["--out", str(tmp_path / "b")]) == 0
    for name in ("inference.json", "response_curve.csv"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_estimate_prints_half_pi(tmp_path, capsys):
    poly_file = tmp_path / "cos.json"
    poly_file.write_text(json.dumps(TrigPoly([1.0], [0.0], 0.0).to_json_dict()))
    assert main(["estimate", "--poly", str(poly_file), "--measured", "0.0",
                 "--lo", "0.0", "--hi", repr(math.pi)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert abs(doc["theta_star"] - math.pi / 2) < 1e-8
    assert doc["bijective"] is True


def test_estimate_json_keys_and_constant_curve(tmp_path, capsys):
    poly_file = tmp_path / "const.json"
    poly_file.write_text(json.dumps({"a": [], "b": [], "c": 0.3}))
    out = tmp_path / "e"
    assert main(["estimate", "--poly", str(poly_file), "--measured", "0.3",
                 "--lo", "0.0", "--hi", "1.0", "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert (out / "estimate.json").read_text() == printed
    doc = json.loads(printed)
    assert list(doc) == ["theta_star", "domain", "bijective", "residual"]
    assert doc["bijective"] is False  # a constant curve identifies no theta


def test_estimate_accepts_inference_json(tmp_path, capsys):
    out = tmp_path / "inf"
    main(["infer", "--setup", "ghz", "--n", "2", "--shots", "exact", "--out", str(out)])
    assert main(["estimate", "--poly", str(out / "inference.json"), "--measured", "1.0",
                 "--lo", "-0.5", "--hi", "0.5"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert abs(doc["theta_star"]) < 1e-6


@pytest.mark.parametrize(
    "measured, lo, hi", [("nan", "0.0", "1.0"), ("0.5", "-inf", "1.0"), ("0.5", "0.0", "inf")]
)
def test_estimate_rejects_non_finite_inputs(tmp_path, capsys, measured, lo, hi):
    poly_file = tmp_path / "cos.json"
    poly_file.write_text(json.dumps(TrigPoly([1.0], [0.0], 0.0).to_json_dict()))
    out = tmp_path / "e"
    assert main(["estimate", "--poly", str(poly_file), "--measured", measured,
                 f"--lo={lo}", f"--hi={hi}", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "finite" in captured.err
    assert not out.exists()


def test_estimate_rejects_overflowing_domain_width(tmp_path, capsys):
    poly_file = tmp_path / "cos.json"
    poly_file.write_text(json.dumps(TrigPoly([1.0], [0.0], 0.0).to_json_dict()))
    out = tmp_path / "e"
    assert main(["estimate", "--poly", str(poly_file), "--measured", "0.5",
                 "--lo=-1e308", "--hi=1e308", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "domain" in captured.err
    assert not out.exists()


def test_estimate_far_from_zero_returns(tmp_path, capsys):
    # one ulp at 1e6 (1.16e-10) is wider than the 1e-10 bracket width
    inf = tmp_path / "inf"
    main(["infer", "--setup", "ghz", "--n", "3", "--shots", "exact", "--out", str(inf)])
    capsys.readouterr()
    assert main(["estimate", "--poly", str(inf / "inference.json"), "--measured", "0.5",
                 "--lo=1000000", "--hi=1000001"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert 1e6 <= doc["theta_star"] <= 1e6 + 1.0
    assert doc["residual"] < 1e-6


_BAD_POLY_DOCS = [
    ({"a": [math.nan], "b": [0.0], "c": 0.0}, "finite"),
    ({"a": [1.0], "b": [math.inf], "c": 0.0}, "finite"),
    ({"a": [1.0], "b": [0.0], "c": -math.inf}, "finite"),
    ({}, "keys a, b and c"),
    ({"a": [1.0], "b": [0.0]}, "keys a, b and c"),
    ([1.0, 0.0, 0.0], "a polynomial must be a JSON object"),
    ("poly", "a polynomial must be a JSON object"),
    ({"poly": [1.0]}, "a polynomial must be a JSON object"),
    ({"a": [[1.0, 2.0]], "b": [[0.0, 1.0]], "c": 0.0}, "field a must be a flat list"),
    ({"a": [1.0], "b": 0.0, "c": 0.0}, "field b must be a flat list"),
    ({"a": [True], "b": [0.0], "c": 0.0}, "field a must be a flat list"),
    ({"a": [1.0], "b": [0.0], "c": True}, "field c must be a number"),
    ({"a": [1.0], "b": [0.0], "c": "0.5"}, "field c must be a number"),
    ({"a": [1.0], "b": [0.0], "c": 10**400}, "field c holds an integer beyond the float range"),
    ({"a": [1.0, -(10**400)], "b": [0.0, 0.0], "c": 0.0}, "field a holds an integer beyond"),
    ({"a": [1.0], "b": [10**400], "c": 0.0}, "field b holds an integer beyond"),
]


@pytest.mark.parametrize(
    "doc, message", _BAD_POLY_DOCS, ids=[f"doc{k}" for k in range(len(_BAD_POLY_DOCS))]
)
def test_non_finite_poly_file_is_exit_2_before_any_output(tmp_path, capsys, doc, message):
    poly_file = tmp_path / "bad.json"
    poly_file.write_text(json.dumps(doc))
    runs = [
        ["estimate", "--poly", str(poly_file), "--measured", "0.5", "--lo", "0.0", "--hi", "1.0"],
        ["sensitivity", "--poly", str(poly_file), "--lo", "0.0", "--hi", "1.0"],
    ]
    for i, argv in enumerate(runs):
        out = tmp_path / f"o{i}"
        assert main(argv + ["--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and message in captured.err
        assert not out.exists()


@pytest.mark.parametrize("missing", ["nonexistent.json", "."], ids=["nonexistent", "directory"])
@pytest.mark.parametrize(
    "argv",
    [
        ["estimate", "--poly", "{}", "--measured", "0.5", "--lo", "0.0", "--hi", "1.0"],
        ["sensitivity", "--poly", "{}", "--lo", "0.0", "--hi", "1.0"],
        ["study", "--config", "{}"],
    ],
    ids=["estimate", "sensitivity", "study"],
)
def test_unreadable_input_file_is_exit_2_before_any_output(tmp_path, capsys, monkeypatch,
                                                            argv, missing):
    monkeypatch.chdir(tmp_path)
    flag = argv[1]
    argv = [missing if arg == "{}" else arg for arg in argv]
    if argv[0] != "study":
        argv += ["--out", "o"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and f"cannot read {flag} {missing}" in captured.err
    assert list(tmp_path.iterdir()) == []


def test_sensitivity_setup_mode(tmp_path):
    out = tmp_path / "s"
    assert main(["sensitivity", "--setup", "ghz", "--n", "3", "--shots", "exact",
                 "--out", str(out)]) == 0
    doc = json.loads((out / "sensitivity.json").read_text())
    assert doc["holds"] is True
    rows = np.genfromtxt(out / "sensitivity.csv", delimiter=",", names=True)
    np.testing.assert_allclose(rows["exact_delta_sq"], 1.0 / 9.0, atol=1e-9)


def test_sensitivity_poly_mode(tmp_path):
    poly_file = tmp_path / "cos.json"
    poly_file.write_text(json.dumps(TrigPoly([1.0], [0.0], 0.0).to_json_dict()))
    out = tmp_path / "s"
    assert main(["sensitivity", "--poly", str(poly_file), "--lo", "0.5", "--hi", "2.5",
                 "--points", "40", "--out", str(out)]) == 0
    rows = np.genfromtxt(out / "sensitivity.csv", delimiter=",", names=True)
    assert len(rows) == 40
    assert (rows["divergent"] == 0).all()


@pytest.mark.parametrize("points", ["0", "-3"])
def test_sensitivity_rejects_nonpositive_points(tmp_path, capsys, points):
    poly_file = tmp_path / "cos.json"
    poly_file.write_text(json.dumps(TrigPoly([1.0], [0.0], 0.0).to_json_dict()))
    modes = [
        ["--setup", "ghz", "--n", "3"],
        ["--poly", str(poly_file), "--lo", "0.5", "--hi", "2.5"],
    ]
    for i, mode in enumerate(modes):
        out = tmp_path / f"s{i}"
        assert main(["sensitivity", *mode, "--points", points, "--out", str(out)]) == 2
        assert "--points" in capsys.readouterr().err
        assert not out.exists()


def test_sensitivity_poly_rejects_a_readout_that_is_not_one_pauli_string(tmp_path, capsys):
    # the random ansatz reads the mean of X on each qubit, whose variance is not 1 - R^2
    inf = tmp_path / "r4"
    assert main(["infer", "--setup", "random", "--n", "4", "--shots", "exact", "--seed", "7",
                 "--out", str(inf)]) == 0
    out = tmp_path / "s4"
    assert main(["sensitivity", "--poly", str(inf / "inference.json"), "--lo", "0.1",
                 "--hi", "1.0", "--points", "5", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "0.25 XIII + 0.25 IXII + 0.25 IIXI + 0.25 IIIX" in err and "Pauli" in err
    assert not out.exists()
    # a single-Pauli readout keeps the 1 - R^2 rule
    assert main(["infer", "--setup", "ghz", "--n", "3", "--shots", "exact",
                 "--out", str(tmp_path / "g3")]) == 0
    assert main(["sensitivity", "--poly", str(tmp_path / "g3" / "inference.json"), "--lo", "0.1",
                 "--hi", "0.3", "--points", "5", "--out", str(out)]) == 0
    rows = np.genfromtxt(out / "sensitivity.csv", delimiter=",", names=True)
    np.testing.assert_allclose(rows["delta_theta_sq"], 1.0 / 9.0, atol=1e-9)


@pytest.mark.parametrize(
    "argv",
    [
        ["infer", "--setup", "ghz", "--n", "3", "--shots", "100"],
        ["sensitivity", "--setup", "ghz", "--n", "3", "--shots", "exact"],
        ["train", "--n", "2", "--epochs", "2"],
    ],
    ids=["infer", "sensitivity", "train"],
)
def test_negative_seed_is_exit_2_before_any_output(tmp_path, capsys, argv):
    out = tmp_path / "o"
    assert main(argv + ["--seed", "-1", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "--seed" in captured.err
    assert not out.exists()


def test_sensitivity_poly_mode_needs_range(tmp_path, capsys):
    poly_file = tmp_path / "cos.json"
    poly_file.write_text(json.dumps(TrigPoly([1.0], [0.0], 0.0).to_json_dict()))
    assert main(["sensitivity", "--poly", str(poly_file), "--out", str(tmp_path / "x")]) == 2
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize(
    "args, message",
    [
        (["--setup", "ghz", "--n", "3", "--lo", "0.1"], "--hi"),
        (["--setup", "ghz", "--n", "3", "--hi", "0.1"], "--hi"),
        (["--poly", "cos.json", "--lo", "0.1"], "--lo/--hi"),
        (["--poly", "cos.json", "--hi", "0.1"], "--lo/--hi"),
        (["--n", "3"], "--setup"),
        (["--setup", "ghz"], "--setup"),
        (["--setup", "ghz", "--n", "3", "--lo=nan", "--hi", "0.1"], "finite"),
        (["--poly", "cos.json", "--lo", "0.1", "--hi", "inf"], "finite"),
        (["--setup", "ghz", "--n", "3", "--lo", "0.5", "--hi", "0.1"], "below --hi"),
        (["--setup", "ghz", "--n", "3", "--lo", "0.1", "--hi", "0.1"], "below --hi"),
        (["--poly", "cos.json", "--lo", "0.5", "--hi", "0.1"], "below --hi"),
        (["--poly", "cos.json", "--lo", "0.1", "--hi", "0.1"], "below --hi"),
    ],
)
def test_sensitivity_range_checked_before_out_is_created(tmp_path, capsys, monkeypatch,
                                                          args, message):
    monkeypatch.chdir(tmp_path)
    Path("cos.json").write_text(json.dumps(TrigPoly([1.0], [0.0], 0.0).to_json_dict()))
    assert main(["sensitivity", *args, "--out", "x"]) == 2
    assert message in capsys.readouterr().err
    assert not Path("x").exists()


def test_study_command_exact_inference(tmp_path, capsys):
    config = {
        "study": "inference",
        "kind": "ghz",
        "n_values": [2, 3, 4],
        "shots": "exact",
        "repeats": 2,
        "test_points": 400,
        "out_dir": str(tmp_path / "res"),
    }
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps(config))
    assert main(["study", "--config", str(cfg_file)]) == 0
    summary = json.loads((tmp_path / "res" / "summary.json").read_text())
    assert [r["n"] for r in summary["records"]] == [2, 3, 4]
    assert all(r["max_error"] < 1e-8 for r in summary["records"])


def test_study_requires_study_name(tmp_path, capsys):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({"kind": "ghz", "n_values": [2]}))
    assert main(["study", "--config", str(cfg_file)]) == 2


def test_train_command(tmp_path):
    out = tmp_path / "t"
    assert main(["train", "--n", "4", "--epochs", "25", "--seed", "3",
                 "--out", str(out)]) == 0
    doc = json.loads((out / "trace.json").read_text())
    assert doc["final_loss"] <= doc["initial_loss"]
    assert (out / "loss_curve.csv").exists()
    rows = np.genfromtxt(out / "sensitivity_training.csv", delimiter=",", names=True)
    assert "post_delta_sq" in rows.dtype.names


def test_help_exits_zero_everywhere():
    for args in (["--help"], ["infer", "--help"], ["estimate", "--help"],
                 ["sensitivity", "--help"], ["budget", "--help"],
                 ["study", "--help"], ["train", "--help"]):
        with pytest.raises(SystemExit) as err:
            main(args)
        assert err.value.code == 0
