"""One benchmark run of one workload, in one process, with one client.

Started by ``run.py`` in a fresh process whose environment pins the
BLAS/OpenMP thread count.  The run sets up its inputs several times
(the median is ``setup_s``), then runs passes over the workload's fixed
list of operations, each operation only after the previous one returned,
while the next pass is expected to end within ``--seconds``.  Every
output is checked; an operation that raises or fails its check counts as
failed.  The last line on stdout is the JSON result, with the metrics
that ``BENCHMARK.json`` lists, in its units.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import rankregret

import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPS = 5
# Time of ``import rankregret`` in a fresh interpreter that has numpy loaded.
IMPORT_PROBE = ("import time, numpy; t = time.perf_counter(); import rankregret; "
                "print(time.perf_counter() - t)")
# Quality figures come from one extra pass over the workload built at the
# smaller reference scale from this fixed seed, so that they compare
# exactly between runs; on the run's own seed they vary with the data by
# 10-30% between seeds.
REFERENCE_SEED = 0

def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="tiny sizes, for the benchmark's tests")
    return p.parse_args(argv)


class Run:
    """Timings and outputs of one run's operations, and their checks."""

    def __init__(self, tracer, kernel):
        self.tracer = tracer
        self.kernel = kernel
        self.kernel_times: list[float] = []
        self.passes: list[tuple[bool, float]] = []   # (traced, seconds in operations)
        self.per_instance: dict[str, list[float]] = {}
        self.outputs: list[tuple] = []                # (instance, output, error, reference)
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.quality: list[dict] = []
        self._checked: dict[tuple, tuple[list[str], dict]] = {}

    def one_pass(self, instances, traced: bool = False, reference: bool = False) -> None:
        """Run every instance once, keeping the outputs for ``check_all``;
        a reference pass gives the quality figures and no timings."""
        index = len(self.passes)
        wall = 0.0
        for inst in instances:
            if not reference:
                self.kernel_times.append(self.kernel())
            if self.tracer is not None:
                self.tracer.op = f"{index}:{inst.key}"
                self.tracer.phase = ("pass", index)
                self.tracer.recording = traced
            t0 = time.perf_counter()
            try:
                out, error = inst.run(), None
            except Exception as exc:  # a failing operation is counted, never fatal
                out, error = None, f"{type(exc).__name__}: {exc}"
            dt = time.perf_counter() - t0
            if self.tracer is not None:
                self.tracer.recording = False
            self.outputs.append((inst, out, error, reference))
            if not reference:
                wall += dt
                self.per_instance.setdefault(inst.key, []).append(dt)
        if not reference:
            self.passes.append((traced, wall))

    def check_all(self) -> None:
        """Check every kept output; an identical repeat reuses its verdict."""
        reported = set()
        for inst, out, error, reference in self.outputs:
            self.attempted += 1
            problems, quality = [error], None
            if error is None:
                problems, quality = self._check(inst, out)
                self.wrong += bool(problems)
            if problems:
                self.failed += 1
                if inst.key not in reported:
                    reported.add(inst.key)
                    print(f"failed {inst.key}: {'; '.join(problems)}", file=sys.stderr)
            elif reference:
                self.quality.append(quality)
                print(f"  reference {inst.key}: {quality}", file=sys.stderr)
        self.outputs.clear()

    def _check(self, inst, out):
        key = (inst.key, inst.signature(out))
        if key not in self._checked:
            try:
                self._checked[key] = inst.check(out)
            except Exception as exc:  # a malformed output fails its check
                self._checked[key] = ([f"check raised {type(exc).__name__}: {exc}"], None)
        return self._checked[key]

    def mean_quality(self, field: str) -> float:
        vals = [q[field] for q in self.quality]
        return statistics.fmean(vals) if vals else 0.0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not Path(rankregret.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"rankregret imported from {rankregret.__file__}, not from this checkout",
              file=sys.stderr)
        return 1
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    build, kernel = workloads.WORKLOADS[args.workload]
    scale = "smoke" if args.smoke else "full"

    tracer = None
    if args.trace:
        tracer = spans.Tracer()
        tracer.install()
    setup_times = []
    for rep in range(SETUP_REPS):
        probe = subprocess.run([sys.executable, "-c", IMPORT_PROBE], stdout=subprocess.PIPE,
                               text=True, check=True, timeout=60)
        import_s = float(probe.stdout)
        if tracer is not None:
            tracer.phase, tracer.op, tracer.recording = ("setup", rep), f"setup:{rep}", True
        t0 = time.perf_counter()
        instances = build(args.seed, scale, out_dir)
        setup_times.append(import_s + time.perf_counter() - t0)
    if tracer is not None:
        tracer.recording = False

    run = Run(tracer, kernel)
    start = time.perf_counter()
    while True:
        # the traced run alternates untraced and traced passes for the overhead ratio
        traced = bool(args.trace) and len(run.passes) % 2 == 1
        t0 = time.perf_counter()
        run.one_pass(instances, traced)
        # start another pass only if it should end within --seconds
        if time.perf_counter() - start + (time.perf_counter() - t0) > args.seconds \
                and (not args.trace or len(run.passes) >= 2):
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(f"  calibration kernel: median {statistics.median(run.kernel_times):.4f} s "
          f"over {len(run.kernel_times)}", file=sys.stderr)
    for key, times in run.per_instance.items():
        print(f"  {key}: median {statistics.median(times):.4f} s over {len(times)}", file=sys.stderr)

    if not args.trace:
        reference = build(REFERENCE_SEED, "smoke" if args.smoke else "reference", out_dir)
        run.one_pass(reference, reference=True)
    run.check_all()
    print(f"{args.workload} seed={args.seed}: {len(run.passes)} timed passes, "
          f"{run.attempted} operations, {run.failed} failed", file=sys.stderr)

    if args.trace:
        traced_walls = [w for t, w in run.passes if t]
        plain_walls = [w for t, w in run.passes if not t]
        values = spans.layer_metrics(tracer.spans, SETUP_REPS, len(traced_walls))
        values["trace.overhead_ratio"] = (statistics.median(traced_walls)
                                          / statistics.median(plain_walls))
        values["trace.calibration_s"] = statistics.median(run.kernel_times)
        tracer.write(out_dir / f"spans-{args.workload}-{args.seed}.jsonl")
    else:
        kernel_s = statistics.median(run.kernel_times)
        op_s = [statistics.median(t) for t in run.per_instance.values()]
        values = {
            "setup_s": statistics.median(setup_times),
            "op_p50_rel": statistics.median(op_s) / kernel_s,
            "batch_rel": sum(op_s) / kernel_s,
            "peak_rss_mb": peak_rss_mb,
            "ok_frac": (run.attempted - run.failed) / run.attempted,
            "rank_regret_mean": run.mean_quality("rank_regret"),
            "est_rank_regret_mean": run.mean_quality("est_rank_regret"),
            "set_size_mean": run.mean_quality("size"),
        }
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    listed = spec["per_layer" if args.trace else "end_to_end"]
    result = {
        "correct": run.wrong == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]}
                    for m in listed},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
