"""Command-line entry points.

Every command is a pure function of (flags, config file, seed): outputs are
byte-identical across reruns with the same inputs.  Exit codes: 0 success,
2 invalid flags or validation failure, 1 runtime failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .sim.setups import SETUP_KINDS, build_setup

DEFAULT_SEED = 1234


def _read_input(flag: str, path: str) -> str:
    """The text of an input file; an unreadable path is an invalid flag."""
    try:
        return Path(path).read_text()
    except OSError as exc:
        raise ValueError(f"cannot read {flag} {path}: {exc.strerror or exc}") from None


def _load_poly(path: str, pauli_readout: bool = False):
    """The polynomial of a ``--poly`` file: an inference.json or a bare
    {a, b, c} object.  With ``pauli_readout``, an inference.json whose setup
    reads out anything but a single +/-1-weighted Pauli string is rejected,
    because only such a readout has the variance 1 - R^2."""
    from .sim import Observable
    from .trig import TrigPoly

    doc = json.loads(_read_input("--poly", path))
    if isinstance(doc, dict) and "poly" in doc:
        if pauli_readout and "setup" in doc:
            try:
                readout = Observable.from_json_list(doc["setup"]["observable"])
            except (KeyError, TypeError, ValueError) as exc:
                raise ValueError(f"--poly setup.observable is malformed: {exc}") from None
            if not readout.is_single_pauli:
                terms = " + ".join(f"{w:g} {p}" for w, p in readout.terms)
                raise ValueError(
                    f"--poly readout {terms} is not a single +/-1-weighted Pauli "
                    "string, so its variance is not 1 - R^2"
                )
        doc = doc["poly"]
    return TrigPoly.from_json_dict(doc)


def _add_setup_flags(parser, required: bool = True) -> None:
    parser.add_argument(
        "--setup", choices=SETUP_KINDS, required=required,
        help="built-in sensing setup",
    )
    parser.add_argument("--n", type=int, required=required, help="qubit count")
    parser.add_argument("--noise", type=float, default=0.0,
                        help="per-gate depolarizing probability (default 0)")
    parser.add_argument("--layers", type=int, default=4,
                        help="ansatz layers (random setup only)")


def cmd_infer(args) -> int:
    from .experiments import dump_json, resolve_shots, write_plot_csv
    from .inference import infer_response
    from .sim import setup_to_json

    setup = build_setup(args.setup, args.n, args.noise, args.layers, args.seed)
    shots = resolve_shots(args.shots, args.n)
    result = infer_response(setup, degree=args.degree, shots=shots, seed=args.seed)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    doc = result.to_json_dict()
    doc["setup"] = setup_to_json(setup)
    doc["seed"] = args.seed
    dump_json(out / "inference.json", doc)
    write_plot_csv(out / "response_curve.csv", result.poly)
    return 0


def cmd_estimate(args) -> int:
    from .inference import estimate_parameter, is_bijective

    poly = _load_poly(args.poly)
    outcome = estimate_parameter(poly, args.measured, (args.lo, args.hi))
    doc = dict(theta_star=outcome.theta_star, domain=outcome.domain,
               bijective=is_bijective(poly, *outcome.domain), residual=outcome.residual)
    text = json.dumps(doc, indent=2)
    print(text)
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        (out / "estimate.json").write_text(text + "\n")
    return 0


def cmd_sensitivity(args) -> int:
    from .experiments import dump_json

    if args.points < 1:
        raise ValueError(f"--points must be >= 1, got {args.points}")
    if args.poly and (args.lo is None or args.hi is None):
        raise ValueError("--poly mode needs an explicit --lo/--hi range")
    if not args.poly and (args.setup is None or args.n is None):
        raise ValueError("give --setup and --n, or --poly")
    if (args.lo is None) != (args.hi is None):
        raise ValueError("give both --lo and --hi, or neither for the default range")
    if args.lo is not None and not np.isfinite([args.lo, args.hi]).all():
        raise ValueError(f"--lo and --hi must be finite, got {args.lo} and {args.hi}")
    if args.lo is not None and not args.lo < args.hi:
        raise ValueError(f"--lo must be below --hi, got {args.lo} and {args.hi}")
    out = Path(args.out)
    if args.poly:
        from .inference import sensitivity
        from .trig import write_curve_csv

        poly = _load_poly(args.poly, pauli_readout=True)
        curve = sensitivity(poly, np.linspace(args.lo, args.hi, args.points))
        out.mkdir(parents=True, exist_ok=True)
        write_curve_csv(
            out / "sensitivity.csv",
            curve.theta,
            np.column_stack([curve.delta_theta_sq, curve.divergent.astype(float)]),
            header=("theta", "delta_theta_sq", "divergent"),
        )
        dump_json(out / "sensitivity.json", {"points": args.points, "source": "poly"})
        return 0

    from .experiments import resolve_shots, write_sensitivity_csv
    from .inference import sensitivity_error_check

    setup = build_setup(args.setup, args.n, args.noise, args.layers, args.seed)
    shots = resolve_shots(args.shots, args.n)
    rng = None if args.lo is None else (args.lo, args.hi)
    report = sensitivity_error_check(
        setup, theta_range=rng, shots=shots, seed=args.seed, points=args.points
    )
    out.mkdir(parents=True, exist_ok=True)
    write_sensitivity_csv(out / "sensitivity.csv", report)
    dump_json(
        out / "sensitivity.json",
        {
            "epsilon": report.epsilon,
            "min_slope": report.min_slope,
            "bound_value": report.bound_value,
            "holds": report.holds,
            "median_relative_error": report.median_relative_error,
            "max_relative_error": report.max_relative_error,
            "divergent_points": report.divergent_points,
            "seed": args.seed,
        },
    )
    return 0


def cmd_budget(args) -> int:
    from .inference import polylog_shot_schedule, shot_budget

    if args.schedule:
        print(polylog_shot_schedule(args.n))
        return 0
    if args.delta is None or args.alpha is None:
        raise ValueError("budget needs --delta and --alpha (or --schedule)")
    print(shot_budget(args.n, args.delta, args.alpha))
    return 0


def cmd_study(args) -> int:
    from .experiments import ExperimentConfig, run_study

    doc = json.loads(_read_input("--config", args.config))
    config = ExperimentConfig.from_json_dict(doc)
    study = args.study or doc.get("study")
    if not study:
        raise ValueError("specify the study via --study or a 'study' key in the config")
    run_study(study, config)
    print(str(Path(config.out_dir) / "summary.json"))
    return 0


def cmd_train(args) -> int:
    from .experiments import dump_json
    from .trig import write_curve_csv
    from .variational import TrainableMeasurement, train_measurement

    measurement = TrainableMeasurement.convolutional(args.n)
    trace = train_measurement(measurement, epochs=args.epochs, seed=args.seed)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    dump_json(out / "trace.json", trace.to_json_dict())
    write_curve_csv(
        out / "loss_curve.csv",
        np.arange(len(trace.losses), dtype=float),
        np.asarray(trace.losses),
        header=("step", "loss"),
    )
    pre, post = trace.pre, trace.post
    write_curve_csv(
        out / "sensitivity_training.csv",
        pre.theta,
        np.column_stack([pre.delta_theta_sq, post.delta_theta_sq,
                         pre.divergent.astype(float), post.divergent.astype(float)]),
        header=("theta", "pre_delta_sq", "post_delta_sq", "pre_divergent", "post_divergent"),
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qsense",
        description="Infer sensing responses, budget shots, estimate parameters, "
        "analyze sensitivity, run studies and train measurements.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("infer", help="infer the response polynomial of a setup")
    _add_setup_flags(p)
    p.add_argument("--shots", default="exact",
                   help="shots policy: exact | <int> | paper | polylog | budget:<delta>,<alpha>")
    p.add_argument("--degree", type=int, default=None, help="override the interpolation degree")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(fn=cmd_infer)

    p = sub.add_parser("estimate", help="invert a response polynomial for a parameter")
    p.add_argument("--poly", required=True, help="JSON file with the polynomial")
    p.add_argument("--measured", type=float, required=True, help="measured response value")
    p.add_argument("--lo", type=float, required=True, help="domain lower edge (rad)")
    p.add_argument("--hi", type=float, required=True, help="domain upper edge (rad)")
    p.add_argument("--out", default=None, help="optional output directory")
    p.set_defaults(fn=cmd_estimate)

    p = sub.add_parser("sensitivity", help="sensitivity curves (exact vs inferred)")
    _add_setup_flags(p, required=False)
    p.add_argument("--poly", default=None, help="JSON polynomial (inferred-only mode)")
    p.add_argument("--shots", default="exact", help="shots policy for the inferred curve")
    p.add_argument("--lo", type=float, default=None, help="range lower edge (rad)")
    p.add_argument("--hi", type=float, default=None, help="range upper edge (rad)")
    p.add_argument("--points", type=int, default=200)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_sensitivity)

    p = sub.add_parser("budget", help="shots per node for a target inference error")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--delta", type=float, default=None, help="target sup-norm error")
    p.add_argument("--alpha", type=float, default=None, help="failure probability")
    p.add_argument("--schedule", action="store_true",
                   help="print the built-in poly-logarithmic schedule instead")
    p.set_defaults(fn=cmd_budget)

    p = sub.add_parser("study", help="run a batch study from a config file")
    p.add_argument("--config", required=True, help="ExperimentConfig JSON")
    p.add_argument("--study", choices=("inference", "prediction", "sensitivity"),
                   default=None, help="override the config's study key")
    p.set_defaults(fn=cmd_study)

    p = sub.add_parser("train", help="train the coarsening measurement circuit")
    p.add_argument("--n", type=int, default=4, help="qubits of the GHZ probe (>= 2)")
    p.add_argument("--epochs", type=int, default=500,
                   help="most one-parameter updates (two simulations each); stops early "
                        "after a sweep that moves no parameter")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_train)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "seed", 0) < 0:
            raise ValueError(f"--seed must be >= 0, got {args.seed}")
        return args.fn(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # runtime failure
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
