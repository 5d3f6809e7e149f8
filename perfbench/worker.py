"""One pass of a benchmark workload, run in a fresh process by run.py.

Each scenario of the workload goes through ``homocat.cli.run_scenario`` and
``emit_report`` as ``homocat verify`` runs it.  The callables handed to
``cli.run_checks`` are wrapped to time each check; the first call to
``run_checks`` marks the end of set-up.  Modes:

  probe  stop as soon as the first check is ready (set-up time only);
  run    run every scenario untraced;
  trace  run every scenario with the layer tracer installed.

The last line of standard output is one JSON object with the pass's
timings, verdicts, report digest and peak resident memory.
"""

import argparse
import hashlib
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path

from tracer import Tracer
from workloads import WORKLOADS, check_ids


class SetupDone(Exception):
    """Raised in probe mode when the first check is ready."""


def run_pass(workload, seed, mode, spans_stem=None):
    from homocat import cli

    src = Path(__file__).resolve().parent.parent / "src"
    if src not in Path(cli.__file__).resolve().parents:
        raise RuntimeError(f"homocat imported from {cli.__file__}, not {src}")
    tracer = Tracer() if mode == "trace" else None
    ready = []
    check_times = []
    run_checks = cli.run_checks

    def timed(cid, fn):
        def check():
            t0 = time.perf_counter()
            try:
                return fn()
            finally:
                check_times.append([cid, time.perf_counter() - t0])
        return tracer.wrap(f"cli.check.{cid}", check) if tracer else check

    def run_checks_timed(order, applicable, selected=None):
        if not ready:
            ready.append(time.monotonic())
            if mode == "probe":
                raise SetupDone
            if tracer:
                tracer.install()
        return run_checks([(cid, timed(cid, fn)) for cid, fn in order],
                          applicable, selected)

    cli.run_checks = run_checks_timed
    start = time.monotonic()
    reports = []
    for label, scenario, _ in WORKLOADS[workload]:
        entry = {"label": label, "report": None, "error": None}
        try:
            report = cli.run_scenario(dict(scenario, seed=seed))
            buf = io.StringIO()
            cli.emit_report(report, "json", buf)
            entry["report"] = buf.getvalue()
        except SetupDone:
            return {"ready": ready[0]}
        except Exception:  # a raising scenario fails its checks, not the run
            entry["error"] = traceback.format_exc(limit=4)
        reports.append(entry)
    end = time.monotonic()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    ready = ready[0] if ready else start
    wall_s = end - ready

    digest = hashlib.sha256()
    scenarios = []
    for entry in reports:
        records = []
        if entry["report"] is not None:
            digest.update(entry["report"].encode())
            records = [[r["id"], r["status"]]
                       for r in json.loads(entry["report"])["checks"]]
        scenarios.append({"label": entry["label"], "records": records,
                          "error": entry["error"]})
    out = {"ready": ready, "wall_s": wall_s, "checks": check_times,
           "scenarios": scenarios, "sha256": digest.hexdigest(),
           "peak_rss_mb": peak_rss_mb}
    if tracer:
        out["trace"] = tracer.metrics(wall_s, check_ids())
        out["absent"] = tracer.absent
        if spans_stem:
            tracer.write(spans_stem)
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("probe", "run", "trace"),
                        required=True)
    parser.add_argument("--spans", help="write spans to SPANS.json/.bin")
    args = parser.parse_args(argv)
    out = run_pass(args.workload, args.seed, args.mode, args.spans)
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
