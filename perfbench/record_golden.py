"""Write golden/seed<DEFAULT_SEED>.json: every variant's checked outputs at
the default workload seed, from the program in this checkout.

    python3 perfbench/record_golden.py

The committed file was made from the seed commit; ``run.py`` compares ops
at the default seed against it to 1e-9.  Re-record only for a change that
is meant to alter outputs, and say so where the change is described.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

import run


def main() -> int:
    run.clear_program_env()
    if run.import_cli() is None:
        return 2
    import workloads

    build = run.ROOT / ".bench_build"
    build.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="golden-", dir=build))
    doc = {"seed": workloads.DEFAULT_SEED, "tolerance": workloads.TOL, "workloads": {}}
    try:
        for name, workload in workloads.WORKLOADS.items():
            runner = run.Runner(workload, workloads.DEFAULT_SEED, scratch)
            extracts = []
            for variant in runner.variants:
                op = runner.op(variant)
                if op.error is not None:
                    raise SystemExit(f"{name} variant {variant.index}: {op.error}")
                extracts.append(op.extract)
            doc["workloads"][name] = extracts
            print(f"{name}: {len(extracts)} variants", file=sys.stderr)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    path = run.HERE / "golden" / f"seed{workloads.DEFAULT_SEED}.json"
    path.write_text(json.dumps(doc) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
