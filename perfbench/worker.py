"""Run delayfdtd CLI commands in one process and time each call.

Usage: python3 perfbench/worker.py JOB.json RESULT.json

The job lists the commands of one pass (argv lists for `delayfdtd.cli.main`,
with `{k}` in any argument replaced by the pass number) and how long to
keep repeating passes.  `trace` is "off", "on" (every pass traced), or
"alternate": even passes run untraced and odd passes traced, so one result
holds untraced times and traced spans of the same commands under the same
conditions.  With `probe` set, the speed probe (speed.py) runs before each
command and after the last one.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time
from collections import Counter


def run_pass(main, commands, k, tracer=None, probe=None):
    rows = []
    for argv in commands:
        cal = probe.seconds() if probe else None
        argv = [a.replace("{k}", str(k)) for a in argv]
        err = io.StringIO()
        if tracer is not None:
            first_span, counts_before = len(tracer.spans), dict(tracer.counts)
        start = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            rc = main(argv)
        row = {"pass": k, "argv": argv, "rc": rc, "traced": tracer is not None,
               "seconds": time.perf_counter() - start, "stderr": err.getvalue(), "cal_before": cal}
        if tracer is not None:
            # calls per span name and counter increments during this command
            calls = Counter(rec[0] for rec in tracer.spans[first_span:])
            calls.update({n: v - counts_before.get(n, 0) for n, v in tracer.counts.items()})
            row["span_counts"] = dict(calls)
        rows.append(row)
    return rows


def main() -> int:
    job_path, result_path = sys.argv[1:3]
    with open(job_path) as fh:
        job = json.load(fh)
    from delayfdtd.cli import main as cli_main

    mode = job["trace"]
    probe = None
    if job["probe"]:
        import speed

        probe = speed.SpeedProbe()
    tracer = None
    if mode != "off":
        import tracer as tracing

        tracer = tracing.Tracer()
    ops = []
    start = time.perf_counter()
    k = 0
    while True:
        traced = mode == "on" or (mode == "alternate" and k % 2 == 1)
        if traced:
            tracing.install(tracer)
        ops += run_pass(cli_main, job["commands"], k, tracer if traced else None, probe)
        if traced:
            tracer.uninstall()
        k += 1
        if time.perf_counter() - start >= job["seconds"] and (mode != "alternate" or k >= 2):
            break
    if probe:
        for op, nxt in zip(ops, ops[1:]):
            op["cal_after"] = nxt["cal_before"]
        ops[-1]["cal_after"] = probe.seconds()
        probe.close()
    result = {"ops": ops, "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    if tracer is not None:
        result["trace"] = tracer.dump()
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
