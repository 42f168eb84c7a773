"""Regenerate the reference traces under perfbench/reference.

Usage, from the root of a checkout:  python3 perfbench/make_references.py

Runs every simulation the benchmark checks (the quick start, and each
ladder gain that converges, once per pulse-centre jitter variant), checks
the invariants of each trace and stores its energy.csv.  Only a change to
the benchmark's inputs, or a justified change of the program's results,
should need this.
"""

from __future__ import annotations

import shutil
import sys

import checks
import run
import workloads as W


def store(out_dir, name):
    rec = checks.check_run(out_dir, None)
    if not rec["ok"]:
        raise SystemExit(f"{name}: {rec['problems']}")
    checks.REFERENCE_DIR.mkdir(exist_ok=True)
    shutil.copyfile(out_dir / "energy.csv", checks.reference_path(name))
    print(f"{name}: {rec['records']} records, max E_xi rise {rec['max_rise_rel']:.2e}", flush=True)


def main() -> int:
    work = run.WORK / "references"
    shutil.rmtree(work, ignore_errors=True)
    (work / "out").mkdir(parents=True)
    runner = run.Runner(work)
    runner.deadline += 3600.0

    w = run.Workload("quickstart", 0, work)
    proc = runner.cli(["run", w.run_cfg(), "--out", w.out("quickstart")])
    if proc["rc"] != 0:
        raise SystemExit(proc["stderr"])
    store(run.ROOT / w.out("quickstart"), w.reference())

    for variant in range(W.JITTER_VARIANTS):
        w = run.Workload("saturating_ladder", variant, work)
        _, result = runner.worker(w.commands(), 0, "off", f"ladder_v{variant}")
        for op in result["ops"]:
            gain = run._gain(op)
            if (op["rc"] != 0) != (gain in W.LADDER_KNOWN_FAILURES):
                raise SystemExit(f"gain {gain}: exit {op['rc']} {op['stderr']}")
            if op["rc"] == 0:
                store(run.ROOT / op["argv"][op["argv"].index("--out") + 1], w.reference(gain))
    return 0


if __name__ == "__main__":
    sys.exit(main())
