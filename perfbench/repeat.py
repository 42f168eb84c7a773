"""Run the benchmark over several seeds and summarise each metric.

Usage, from the root of a checkout:

    python3 perfbench/repeat.py --seeds 0-9 [--workloads quickstart,generator_lab]
                                [--trace 0] [--out perfbench/baseline.json]
                                [--against perfbench/baseline.json]

Seeds are the outer loop and workloads the inner one, so a slow spell of
the machine hits every workload alike.  For each workload and metric it
prints the median, the quartiles from statistics.quantiles(n=4) and the
spread (Q3 - Q1) / median, next to the metric's bound from BENCHMARK.json.
With --against, an earlier --out file, it also prints by how much each
median is worse than the earlier one, as a share of the earlier median.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path


def parse_seeds(text: str) -> list[int]:
    lo, sep, hi = text.partition("-")
    return list(range(int(lo), int(hi) + 1)) if sep else [int(s) for s in text.split(",")]


def main() -> int:
    spec = json.loads(Path("BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seeds", default="0-9")
    p.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out")
    p.add_argument("--against", help="an earlier --out file whose medians to compare with")
    args = p.parse_args()

    metrics = spec["per_layer"] if args.trace else spec["end_to_end"]
    bounds = {m["name"]: m.get("bound") for m in metrics}
    lower_is_better = {m["name"]: m["better"] == "lower" for m in metrics}
    earlier = json.loads(Path(args.against).read_text())["workloads"] if args.against else {}
    workloads = args.workloads.split(",")
    runs: dict[str, list[dict]] = {w: [] for w in workloads}
    environment = None
    for seed in parse_seeds(args.seeds):
        for w in workloads:
            cmd = spec["command"] + ["--workload", w, "--seed", str(seed),
                                     "--seconds", str(spec["run_seconds"]), "--trace", str(args.trace)]
            start = time.perf_counter()
            proc = subprocess.run(cmd, capture_output=True, text=True)
            wall = time.perf_counter() - start
            if proc.returncode != 0:
                print(f"{w} seed {seed}: exit {proc.returncode}\n{proc.stderr[-3000:]}", file=sys.stderr)
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            result.update(seed=seed, wall_s=wall)
            runs[w].append(result)
            for line in proc.stderr.splitlines():
                if line.startswith("environment: "):
                    environment = json.loads(line.split(": ", 1)[1])
            values = {k: round(v["value"], 4) for k, v in result["metrics"].items() if k in bounds}
            print(f"{w} seed {seed} ({wall:.0f} s): correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']} {values}", flush=True)

    summary: dict = {"seeds": args.seeds, "trace": args.trace, "environment": environment, "workloads": {}}
    for w, results in runs.items():
        rows = summary["workloads"][w] = {
            "correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "max_wall_s": max(r["wall_s"] for r in results),
            "metrics": {},
        }
        for name in bounds:
            values = [r["metrics"][name]["value"] for r in results]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
            spread = (q3 - q1) / med if med else 0.0
            rows["metrics"][name] = {"unit": results[0]["metrics"][name]["unit"], "median": med,
                                     "q1": q1, "q3": q3, "spread": spread, "values": values}
            bound = f" (bound {bounds[name]})" if bounds[name] is not None else ""
            print(f"{w} {name}: median {med:.6g} q1 {q1:.6g} q3 {q3:.6g} spread {spread:.3f}{bound}")
            if w in earlier:
                before = earlier[w]["metrics"][name]["median"]
                worse = (med - before) / before * (1 if lower_is_better[name] else -1) if before else 0.0
                rows["metrics"][name]["worse_than_against"] = worse
                print(f"{w} {name}: median {worse:+.3f} worse than {before:.6g} in {args.against}{bound}")
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
