"""Benchmark command.

    python3 perfbench/run.py --workload {train-desk,infer-full,policy-full}
        --seed N --seconds S --trace {0,1}

Run from the repository root. It prints a record of the run (environment,
latency percentiles, check report) and, as its last line, the result:
``{"correct", "attempted", "failed", "metrics"}``. With ``--trace 0`` the
metrics are the end-to-end ones, with ``--trace 1`` the per-layer ones.
The full record, and the spans of a traced run, are written under
``.perfbench/``. It exits with 1 when an output check fails and with 2
when the source tree is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SEED_SPAN = 2**32


def _seed(text: str) -> int:
    value = int(text)
    if not 0 <= value < SEED_SPAN:
        raise argparse.ArgumentTypeError(f"seed must lie in [0, {SEED_SPAN})")
    return value


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("train-desk", "infer-full", "policy-full"))
    parser.add_argument("--seed", type=_seed, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "scaleloc" / "__init__.py").is_file():
        print(f"error: no scaleloc source tree at {SRC}", file=sys.stderr)
        return 2
    # One single-threaded process: pin BLAS/OpenMP before numpy loads.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path[:0] = [str(SRC), str(HERE)]

    t0 = perf_counter()
    import numpy  # noqa: F401
    import scaleloc
    import runner
    import_s = perf_counter() - t0
    if Path(scaleloc.__file__).resolve().parent != SRC / "scaleloc":
        print(f"error: imported scaleloc from {scaleloc.__file__}, not {SRC}", file=sys.stderr)
        return 2

    result, record = runner.run(
        args.workload,
        args.seed,
        args.seconds,
        bool(args.trace),
        import_s=import_s,
        out_dir=ROOT / ".perfbench",
    )
    summary = {k: record[k] for k in ("workload", "seed", "operation", "throughput_unit",
                                      "latency", "quality", "errors", "checks", "environment")}
    print(json.dumps(summary))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
