"""End-to-end and per-layer benchmark of the homocat verifier.

Usage, from the root of a checkout:

  python3 perfbench/run.py --workload f2_deep --seed 1 --seconds 30 --trace 0

Workloads (see workloads.py and context.json): f2_deep, f2_wide,
exact_rings, and smoke for the benchmark's own test.  Every pass runs in a
fresh single-threaded worker process that imports homocat from this
checkout's ``src``.  With ``--trace 0`` the run times set-up in several
probe workers, then repeats untraced passes (at least two) while the next
one still fits in ``--seconds``, and reports the medians of

  setup_s          worker start until the first check is ready
  wall_s           first check started until the last report was emitted
  slowest_check_s  longest single check
  peak_rss_mb      peak resident memory of the worker

With ``--trace 1`` it runs one untraced and one traced pass and reports the
per-layer metrics of tracer.py, including the tracing overhead.  Either way
every verdict is checked against the expected table (checks_failed_frac),
and all passes of one invocation must emit byte-identical reports.  The last
line of standard output is one JSON object: correct, attempted, failed,
metrics.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import metric_specs
from workloads import WORKLOADS, check_ids

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
DEADLINE_S = 170          # the whole invocation must end within 180 s
SETUP_PROBES = 5          # measured probes, after one discarded warm-up
MIN_PASSES = 2            # the determinism gate needs two reports
MAX_RECONCILE_ERR = 0.03  # traced layer self times must sum to the wall

END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("slowest_check_s", "s"),
              ("peak_rss_mb", "MB"))


class BenchError(Exception):
    pass


class Runner:
    def __init__(self, workload, seed):
        self.workload = workload
        self.seed = seed
        self.deadline = time.monotonic() + DEADLINE_S
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"),
                        OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
                        MKL_NUM_THREADS="1")

    def worker(self, mode, spans=None):
        """Run one worker pass; returns its result with setup_s and pass_s."""
        cmd = [sys.executable, str(HERE / "worker.py"),
               "--workload", self.workload, "--seed", str(self.seed),
               "--mode", mode]
        if spans:
            cmd += ["--spans", str(spans)]
        t0 = time.monotonic()
        timeout = self.deadline - t0
        if timeout <= 0:
            raise BenchError("time budget exhausted before the next pass")
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=self.env, text=True,
                                  capture_output=True, timeout=timeout)
        except subprocess.TimeoutExpired:
            raise BenchError(f"{mode} worker exceeded the time budget")
        if proc.returncode != 0:
            raise BenchError(f"{mode} worker exited with {proc.returncode}:\n"
                             + proc.stderr[-4000:])
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        result["setup_s"] = result["ready"] - t0
        result["pass_s"] = time.monotonic() - t0
        return result


def judge(workload, result):
    """(attempted, failed, lines): checks against the expected table."""
    attempted = failed = 0
    lines = []
    for (label, _, expected), sc in zip(WORKLOADS[workload],
                                        result["scenarios"]):
        got = dict(sc["records"])
        for cid, want in expected.items():
            status = got.get(cid, "RAISED" if sc["error"] else "MISSING")
            attempted += 1
            failed += status != want
            lines.append(f"verdict {label} {cid} {status} (expected {want})")
        if sc["error"]:
            lines.append(f"error in {label}:\n{sc['error']}")
    return attempted, failed, lines


def untraced_metrics(runner, seconds):
    probes = [runner.worker("probe")["setup_s"]
              for _ in range(SETUP_PROBES + 1)][1:]
    passes = []
    begin = time.monotonic()
    while len(passes) < MIN_PASSES or (
            time.monotonic() - begin
            + statistics.median(p["pass_s"] for p in passes) <= seconds):
        passes.append(runner.worker("run"))
    setups = probes + [p["setup_s"] for p in passes]
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "slowest_check_s": statistics.median(
            max(d for _, d in p["checks"]) for p in passes),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }
    notes = [f"setup samples: {len(setups)}, untraced passes: {len(passes)}"]
    return passes, metrics, notes, True


def traced_metrics(runner):
    OUT.mkdir(exist_ok=True)
    untraced = runner.worker("run")
    traced = runner.worker("trace", spans=OUT / f"spans-{runner.workload}")
    metrics = dict(traced["trace"])
    metrics["trace.overhead_s"] = traced["wall_s"] - untraced["wall_s"]
    notes = [f"tracing overhead: {metrics['trace.overhead_s']:.3f} s "
             f"(traced {traced['wall_s']:.3f} s, untraced "
             f"{untraced['wall_s']:.3f} s)",
             f"named layers cover {metrics['trace.coverage_frac']:.1%} "
             f"of the traced wall time",
             f"reconciliation error: "
             f"{metrics['trace.reconcile_err_frac']:.2%}",
             f"spans written to {OUT.relative_to(ROOT)}/"
             f"spans-{runner.workload}.json/.bin"]
    if traced["absent"]:
        notes.append("absent functions: " + ", ".join(traced["absent"]))
    ok = metrics["trace.reconcile_err_frac"] <= MAX_RECONCILE_ERR
    if not ok:
        notes.append("FAILED: layer self times do not add up to the wall")
    return [untraced, traced], metrics, notes, ok


def main(argv=None):
    parser = argparse.ArgumentParser(description="homocat benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; known: "
              + ", ".join(sorted(WORKLOADS)), file=sys.stderr)
        return 2
    if not (ROOT / "src" / "homocat" / "__init__.py").is_file():
        print(f"error: no homocat sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2

    runner = Runner(args.workload, args.seed)
    try:
        if args.trace:
            passes, metrics, notes, ok = traced_metrics(runner)
            specs = metric_specs(check_ids())
        else:
            passes, metrics, notes, ok = untraced_metrics(runner, args.seconds)
            specs = END_TO_END
    except BenchError as ex:
        print(f"error: {ex}", file=sys.stderr)
        return 1

    attempted = failed = 0
    first_lines = None
    for result in passes:
        a, f, lines = judge(args.workload, result)
        attempted += a
        failed += f
        if lines != first_lines:
            print("\n".join(lines))
            first_lines = first_lines or lines
    digests = {p["sha256"] for p in passes}
    deterministic = len(digests) == 1
    print(f"report sha256 {args.workload} seed {args.seed}: "
          + ", ".join(sorted(digests))
          + (f" (all {len(passes)} passes identical)" if deterministic
             else " (FAILED: passes differ)"))
    for cid, d in passes[0]["checks"]:
        print(f"check {cid} {d:.4f} s")
    print("\n".join(notes))
    print(f"checks_failed_frac {failed / attempted} frac "
          f"({failed} of {attempted} checks)")
    out = {}
    for name, unit, *_ in specs:
        out[name] = {"value": metrics[name], "unit": unit}
        print(f"{name} {metrics[name]} {unit}")
    print(json.dumps({"correct": ok and deterministic and failed == 0,
                      "attempted": attempted, "failed": failed,
                      "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
