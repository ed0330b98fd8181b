"""Byte-identity check of the qsense CLI outputs between two source trees.

    python3 tools/bytecheck.py PARENT_TREE CHANGE_TREE

Runs the same fixed set of ``qsense`` commands under each tree (imported
from ``<tree>/src``): ``infer`` exact and sampled on the ghz, random and
squeezing setups with and without noise (among them GHZ n = 12 exact and
at 1000 shots, whose 25 nodes run in 7 stacks of encoded states,
squeezing n = 8 exact, whose 57 nodes run in one, squeezing n = 10 exact,
whose 91 nodes are the largest node set, GHZ n = 1 at 200 shots, a
degree-1 curve and its error bound, and GHZ n = 3 at ``--degree 7``, an
oversampled node set), eleven ``study`` configs
(among them a sampled-curve prediction study at n = 6, 12 with 100
fields, whose estimates run in several blocks and whose cosine-fit grid
screen spans two, a prediction study of three repeats, whose trial
seeds and rows differ per repeat, an exact-curve prediction study of
three repeats, whose repeats share one curve and its cosine fit, and two
sampled noisy studies whose repeats share one node simulation: inference
on the random ansatz n = 5 over three repeats and sensitivity on
squeezing n = 4 over two),
``estimate --out`` on one sampled and three exact
``infer`` outputs (measured 0.3; 1.0, a flat extremum; 1.5, out of
range) and on the squeezing n = 6 exact and random n = 8 sampled curves,
each in one monotone window and one across an extremum (so ``bijective``
is read both ways off curves that are not GHZ cosines),
``sensitivity`` in setup mode (among them squeezing n = 4 at 1000 shots,
whose error bound takes its curve's degree, 6, and not n) and in
``--poly`` mode, ``train --n 4 --epochs 20``, ``train --n 5 --epochs
10`` (an odd qubit count, so the coarsening keeps one qubit back in its
first round), ``train --n 2 --epochs 1500 --seed 1`` (a sweep that
moves no parameter ends the run long before the budget) and ``train --n
2 --epochs 6 --seed 5`` (the budget ends exactly at the end of the first
sweep over the 6 parameters).
Every output file is then compared byte for byte, except that
``runtime_seconds`` in ``summary.json`` and ``out_dir`` in ``config.json``
are ignored.  Prints one line per differing output, with the largest
absolute and relative difference of its numbers, one line per failing
command and a total; exits 1 when any output differs or any command
fails, 0 otherwise.
"""

from __future__ import annotations

import json
import math
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

INFER = [
    ("ghz", 7, 0.01, "1000"),
    ("random", 5, 0.01, "1000"),
    ("squeezing", 4, 0.01, "1000"),
    ("ghz", 10, 0.0, "exact"),
    ("random", 8, 0.0, "exact"),
    ("squeezing", 6, 0.0, "exact"),
    ("random", 8, 0.0, "2000"),
    ("squeezing", 5, 0.0, "2000"),
    ("ghz", 4, 0.02, "exact"),
    ("ghz", 12, 0.0, "exact"),
    ("ghz", 12, 0.0, "1000"),
    ("squeezing", 8, 0.0, "exact"),
    ("squeezing", 10, 0.0, "exact"),
    ("ghz", 1, 0.0, "200"),
]

STUDIES = [
    ("inference", dict(kind="ghz", n_values=[2, 4, 6], shots="1000", repeats=2)),
    ("inference", dict(kind="random", n_values=[3, 5], shots="exact", layers=2)),
    ("inference", dict(kind="squeezing", n_values=[3, 4], noise=0.02, shots="2000")),
    ("prediction", dict(kind="ghz", n_values=[2, 4], shots="1000", exact_curves=True,
                        prediction_fields=10)),
    ("prediction", dict(kind="ghz", n_values=[3], noise=0.01, shots="exact",
                        prediction_fields=10)),
    ("prediction", dict(kind="ghz", n_values=[6, 12], shots="1000", exact_curves=False,
                        prediction_fields=100)),
    ("prediction", dict(kind="ghz", n_values=[3, 5], shots="500", repeats=3,
                        prediction_fields=8)),
    ("sensitivity", dict(kind="ghz", n_values=[3, 5], shots="1000", repeats=2)),
    ("inference", dict(kind="random", n_values=[5], noise=0.01, shots="1000", repeats=3)),
    ("sensitivity", dict(kind="squeezing", n_values=[4], noise=0.01, shots="1000", repeats=2)),
    ("prediction", dict(kind="ghz", n_values=[3, 4], shots="500", exact_curves=True, repeats=3,
                        prediction_fields=8)),
]

# a JSON or CSV number, or a non-finite float as either writes it
NUMBER = re.compile(rb"(?<![\w.])-?(?:\d+(?:\.\d*)?(?:[eE][-+]?\d+)?|inf|Infinity|nan|NaN)(?![\w.])")

# ignored keys: wall-clock time, and the output path a config names
VOLATILE = {"summary.json": ("records", "runtime_seconds"), "config.json": (None, "out_dir")}


def commands(work: Path) -> list[list[str]]:
    """The command lines, with paths relative to ``work``; study configs
    are written to ``work/in``, which is not compared."""
    (work / "in").mkdir()
    cmds = []
    for setup, n, noise, shots in INFER:
        cmds.append(["infer", "--setup", setup, "--n", str(n), "--noise", str(noise),
                     "--shots", shots, "--seed", "7", "--out", f"infer_{setup}_{n}_{noise}_{shots}"])
    cmds.append(["infer", "--setup", "ghz", "--n", "3", "--degree", "7", "--shots", "500",
                 "--seed", "7", "--out", "infer_ghz_3_degree_7"])
    for k, (study, fields) in enumerate(STUDIES):
        config = f"in/study_{k}.json"
        (work / config).write_text(json.dumps(
            dict(fields, out_dir=f"study_{k}_{study}", test_points=400, base_seed=k)
        ))
        cmds.append(["study", "--study", study, "--config", config])
    for poly, measured, lo, hi in [("infer_ghz_10_0.0_exact", "0.3", "0.0", "0.15"),
                                   ("infer_ghz_10_0.0_exact", "1.0", "-0.1", "0.2"),
                                   ("infer_ghz_10_0.0_exact", "1.5", "-0.1", "0.2"),
                                   ("infer_ghz_7_0.01_1000", "-0.2", "0.1", "0.4"),
                                   ("infer_squeezing_6_0.0_exact", "0.4", "0.3", "1.2"),
                                   ("infer_squeezing_6_0.0_exact", "-0.9", "2.8", "3.5"),
                                   ("infer_random_8_0.0_2000", "0.005", "1.6", "2.6"),
                                   ("infer_random_8_0.0_2000", "-0.035", "0.3", "0.9")]:
        cmds.append(["estimate", "--poly", f"{poly}/inference.json", "--measured", measured,
                     "--lo", lo, "--hi", hi, "--out", f"estimate_{poly}_{measured}"])
    cmds.append(["sensitivity", "--setup", "ghz", "--n", "4", "--shots", "1000",
                 "--out", "sens_setup"])
    cmds.append(["sensitivity", "--setup", "squeezing", "--n", "4", "--shots", "exact",
                 "--out", "sens_squeezing"])
    cmds.append(["sensitivity", "--setup", "squeezing", "--n", "4", "--shots", "1000",
                 "--out", "sens_squeezing_1000"])
    cmds.append(["sensitivity", "--poly", "infer_ghz_10_0.0_exact/inference.json",
                 "--lo", "-0.1", "--hi", "0.1", "--points", "101", "--out", "sens_poly"])
    cmds.append(["train", "--n", "4", "--epochs", "20", "--out", "train"])
    cmds.append(["train", "--n", "5", "--epochs", "10", "--out", "train_5"])
    cmds.append(["train", "--n", "2", "--epochs", "1500", "--seed", "1", "--out", "train_2_stop"])
    cmds.append(["train", "--n", "2", "--epochs", "6", "--seed", "5", "--out", "train_2_budget"])
    return cmds


def run_tree(tree: Path, work: Path) -> list[int]:
    env = {k: v for k, v in os.environ.items() if not k.startswith("QSENSE_")}
    env["PYTHONPATH"] = str(tree / "src")
    codes = []
    for argv in commands(work):
        proc = subprocess.run([sys.executable, "-m", "qsense.cli", *argv], env=env,
                              cwd=work, capture_output=True, text=True)
        if proc.returncode:
            print(f"{tree.name}: qsense {argv[0]} exited {proc.returncode}: "
                  f"{proc.stderr.strip()}")
        codes.append(proc.returncode)
    return codes


def normalized(path: Path) -> bytes:
    data = path.read_bytes()
    if path.name not in VOLATILE:
        return data
    outer, key = VOLATILE[path.name]
    doc = json.loads(data)
    for entry in doc[outer] if outer else [doc]:
        entry.pop(key, None)
    return json.dumps(doc, sort_keys=True).encode()


def number_gap(a: bytes, b: bytes) -> str:
    """The largest absolute and relative difference between the numbers of
    two outputs, paired in order, and whether the text around them differs
    (a flipped ``true``/``false``, say)."""
    xs, ys = (NUMBER.findall(data) for data in (a, b))
    if len(xs) != len(ys):
        return f"{len(xs)} vs {len(ys)} numbers"
    worst_abs = worst_rel = 0.0
    for x, y in zip(xs, ys):
        x, y = float(x), float(y)
        if x == y or (math.isnan(x) and math.isnan(y)):
            continue
        gap = abs(x - y)
        worst_abs = max(worst_abs, gap)
        worst_rel = max(worst_rel, gap / max(abs(x), abs(y)))
    text = "" if NUMBER.sub(b"#", a) == NUMBER.sub(b"#", b) else ", text differs"
    return f"max abs {worst_abs:.3g}, max rel {worst_rel:.3g}{text}"


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    parent, change = (Path(a).resolve() for a in argv)
    with tempfile.TemporaryDirectory() as tmp:
        works = [Path(tmp) / "parent", Path(tmp) / "change"]
        codes = []
        for tree, work in zip((parent, change), works):
            work.mkdir()
            codes.append(run_tree(tree, work))
        files = sorted({
            p.relative_to(w) for w in works for p in w.rglob("*")
            if p.is_file() and p.parent != w / "in"
        })
        differ = 0
        for rel in files:
            a, b = (w / rel for w in works)
            if not (a.exists() and b.exists()):
                print(f"differs: {rel} (missing in one tree)")
                differ += 1
            elif normalized(a) != normalized(b):
                print(f"differs: {rel} ({number_gap(normalized(a), normalized(b))})")
                differ += 1
    failed = any(code for tree_codes in codes for code in tree_codes)
    print(f"{len(files)} outputs compared: {len(files) - differ} byte-identical, {differ} differ")
    return int(bool(differ) or failed)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
