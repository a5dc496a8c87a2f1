"""Benchmark entry point: run one workload of the rankregret benchmark.

    python3 perfbench/run.py --workload rrm2d --seed 1 --seconds 15 --trace 0

Workloads: rrm2d, rrmhd, rrr, eval (see perfbench/README.md).  The run
happens in one child process (no pool) that imports the library from
``src/`` of this checkout, with the BLAS/OpenMP thread count pinned to
the cores this process may use.  The last stdout line is the JSON
result; ``--trace 1`` reports the per-layer metrics instead of the
end-to-end ones.  Add ``--smoke`` for tiny sizes.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CHILD_TIMEOUT_S = 170
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="Run one rankregret benchmark workload.")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true")
    args = p.parse_args(argv)

    if not (ROOT / "src" / "rankregret" / "__init__.py").is_file():
        print(f"no rankregret sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    env = dict(os.environ)
    threads = str(len(os.sched_getaffinity(0)))
    env.update({var: threads for var in THREAD_VARS})
    env["PYTHONPATH"] = str(ROOT / "src")
    cmd = [sys.executable, str(ROOT / "perfbench" / "harness.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.smoke:
        cmd.append("--smoke")
    try:
        child = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                               timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"workload {args.workload} did not finish in {CHILD_TIMEOUT_S} s", file=sys.stderr)
        return 1
    if child.returncode != 0:
        return child.returncode
    sys.stdout.write(child.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
