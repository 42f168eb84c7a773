"""delayfdtd benchmark: workloads driven through the public CLI.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload quickstart --seed 0 --seconds 15 --trace 0

The program is run from the checkout's own `src/`, with BLAS pinned to one
thread in every process the benchmark starts, one process at a time, all on
one CPU.

--trace 0 prints the end-to-end metrics: run_s, setup_s, success_frac and
peak_rss_mb.  Times are wall times scaled to a reference machine speed by a
speed probe run around each operation (see speed.py).  --trace 1 makes a
separate traced run that wraps the public functions of each module (see
tracer.py) and prints the per-layer metrics, with the unscaled untraced and
traced times of the same commands.  Both check every output (see
checks.py); the last line of stdout is the result as one JSON object.
Progress and the environment fingerprint go to stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import checks
import speed
import tracer as tracing
import workloads as W

ROOT = Path.cwd()
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent
WORK = ROOT / ".bench_work"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_PROBES = 5
DEADLINE_S = 170.0
CLI_ENTRY = "import sys; from delayfdtd.cli import main; sys.exit(main())"
IMPORT_PROBES = 3
WORKLOADS = ("quickstart", "saturating_ladder", "generator_lab")

FINGERPRINT = """\
import json, os, platform, sys
import numpy, scipy, delayfdtd
cpu = ""
try:
    with open("/proc/cpuinfo") as fh:
        cpu = next((l.split(":", 1)[1].strip() for l in fh if l.startswith("model name")), "")
except OSError:
    pass
blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
print(json.dumps({
    "python": platform.python_version(), "numpy": numpy.__version__,
    "scipy": scipy.__version__, "blas": f"{blas.get('name')} {blas.get('version')}",
    "nproc": os.cpu_count(), "cpus_used": len(os.sched_getaffinity(0)), "cpu": cpu,
    "threads": {k: os.environ.get(k) for k in %r},
    "delayfdtd": delayfdtd.__file__,
}))
""" % (THREAD_VARS,)


class BenchError(Exception):
    """The benchmark itself could not run; no result is printed."""


def log(msg: str):
    print(msg, file=sys.stderr, flush=True)


def child_env(pinned: bool = True) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    for var in THREAD_VARS:
        if pinned:
            env[var] = "1"
        else:
            env.pop(var, None)
    return env


class Runner:
    """Starts one child process at a time and times it from spawn to exit."""

    def __init__(self, work: Path):
        self.work = work
        self.deadline = time.monotonic() + DEADLINE_S
        self.n = 0
        # One CPU for every process: the speed probe then measures the CPU
        # the operations run on, and no process migrates between CPUs.
        self.all_cpus = os.sched_getaffinity(0)
        self.cpu = {min(self.all_cpus)}
        os.sched_setaffinity(0, self.cpu)

    def spawn(self, argv: list[str], pinned: bool = True) -> dict:
        self.n += 1
        out_path = self.work / f"proc{self.n}.out"
        err_path = self.work / f"proc{self.n}.err"
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BenchError("time budget exhausted")
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            if not pinned:  # default threading: every CPU, as a user would run it
                os.sched_setaffinity(0, self.all_cpus)
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, env=child_env(pinned), cwd=ROOT)
            os.sched_setaffinity(0, self.cpu)
            timer = threading.Timer(remaining, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            seconds = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode < 0:
            raise BenchError(f"{argv[:4]} killed by signal {-proc.returncode}")
        return {
            "rc": proc.returncode,
            "seconds": seconds,
            "peak_rss_mb": usage.ru_maxrss / 1024.0,
            "stderr": err_path.read_text(errors="replace")[-2000:],
        }

    def cli(self, args: list[str], pinned: bool = True) -> dict:
        """One `delayfdtd <args>` process, as the console script runs it."""
        return self.spawn([sys.executable, "-c", CLI_ENTRY, *args], pinned)

    def worker(self, commands: list[list[str]], seconds: float, trace: str, name: str,
               probe: bool = False) -> tuple[dict, dict]:
        """Commands run in one process after one import; see worker.py."""
        job = self.work / f"{name}_job.json"
        res = self.work / f"{name}_result.json"
        job.write_text(json.dumps({"commands": commands, "seconds": seconds, "trace": trace, "probe": probe}))
        proc = self.spawn([sys.executable, str(HERE / "worker.py"), str(job), str(res)])
        if proc["rc"] != 0:
            raise BenchError(f"worker failed: {proc['stderr']}")
        return proc, json.loads(res.read_text())


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

class Workload:
    """Config files and checks of one workload for one seed."""

    def __init__(self, name: str, seed: int, work: Path):
        self.name = name
        self.seed = seed
        self.work = work
        self.variant = W.jitter_variant(seed)

    def write(self, fname: str, text: str) -> str:
        path = self.work / fname
        path.write_text(text)
        return str(path.relative_to(ROOT))

    def out(self, tag: str) -> str:
        return str((self.work / "out" / tag).relative_to(ROOT))

    def setup_probe(self, runner: Runner, i: int) -> dict:
        """The workload's command in a fresh process, cut to one step (the lab: one pair)."""
        out = self.out(f"setup{i}")
        if self.name == "generator_lab":
            cfg = self.write("lab.cfg", W.lab_cfg())
            proc = runner.cli(W.lab_argv(cfg, out, self.seed, pairs=1)[0])
            check = checks.check_operator(ROOT / out) if proc["rc"] == 0 else None
        else:
            if self.name == "quickstart":
                text = W.quickstart_cfg(one_step=True)
            else:  # the README gain
                text = W.ladder_cfg(1.0, self.variant, one_step=True)
            cfg = self.write("setup.cfg", text)
            proc = runner.cli(["run", cfg, "--out", out])
            check = checks.check_one_step(ROOT / out) if proc["rc"] == 0 else None
        ok = proc["rc"] == 0 and check["ok"]
        if not ok:
            log(f"set-up probe failed: rc={proc['rc']} {proc['stderr'][-300:]} {check}")
        return {"seconds": proc["seconds"], "ok": ok}

    def run_cfg(self) -> str:
        """Config of the quickstart, whose operation is a fresh process."""
        return self.write("run.cfg", W.quickstart_cfg())

    def reference(self, gain: float | None = None) -> str:
        if self.name == "saturating_ladder":
            return f"ladder_v{self.variant}_g{gain}"
        return "quickstart"

    def commands(self) -> list[list[str]]:
        """One pass of the in-process workloads; `{k}` is the pass number."""
        if self.name == "generator_lab":
            return W.lab_argv(self.write("lab.cfg", W.lab_cfg()), self.out("p{k}"), self.seed)
        cmds = []
        for g in W.LADDER_GAINS:
            cfg = self.write(f"ladder_g{g}.cfg", W.ladder_cfg(g, self.variant))
            cmds.append(["run", cfg, "--out", self.out(f"p{{k}}_g{g}")])
        return cmds

    def check_worker_op(self, op: dict) -> dict:
        """Outcome of one command run inside the worker."""
        argv = op["argv"]
        out = ROOT / argv[argv.index("--out") + 1]
        gain = _gain(op) if self.name == "saturating_ladder" else None
        expected_failure = gain in W.LADDER_KNOWN_FAILURES
        if op["rc"] != 0:
            return {"ok": False, "expected_failure": expected_failure,
                    "problems": [f"exit {op['rc']}: {op['stderr'].strip()[-200:]}"]}
        if argv[0] == "operator":
            return checks.check_operator(out)
        if argv[0] == "resolvent":
            return checks.check_resolvent(out)
        return checks.check_run(out, self.reference(gain), reference_required=not expected_failure)


def _op_rows(w: Workload, ops: list[dict]) -> list[dict]:
    return [{**op, "check": w.check_worker_op(op)} for op in ops]


def _tally(rows: list[dict]) -> tuple[int, int, bool]:
    """(attempted, failed, correct): a failure other than a known one is a defect."""
    failed = sum(not r["check"]["ok"] for r in rows)
    correct = all(r["check"]["ok"] or r["check"].get("expected_failure") for r in rows)
    for r in rows:
        if not r["check"]["ok"]:
            log(f"  failed: {r.get('argv', r.get('cfg'))[:2]} {r['check'].get('problems')}")
    return len(rows), failed, correct


def _fresh_op(w: Workload, runner: Runner, tag: str, pinned: bool = True) -> dict:
    cfg = w.run_cfg()
    out = w.out(tag)
    proc = runner.cli(["run", cfg, "--out", out], pinned=pinned)
    if proc["rc"] == 0:
        check = checks.check_run(ROOT / out, w.reference())
    else:
        check = {"ok": False, "problems": [f"exit {proc['rc']}: {proc['stderr'].strip()[-200:]}"]}
    return {**proc, "cfg": cfg, "check": check}


def _gain(op: dict) -> float:
    return float(Path(op["argv"][1]).stem.split("_g", 1)[1])


def _passes(rows: list[dict]) -> dict[int, list[dict]]:
    out: dict[int, list[dict]] = {}
    for r in rows:
        out.setdefault(r["pass"], []).append(r)
    return out


def _scaled(row: dict) -> float:
    return speed.scale(row["seconds"], row["cal_before"], row["cal_after"])


def _steps_per_s(rows: list[dict]) -> float:
    steps = sum(r["check"].get("steps", 0) for r in rows if r["check"]["ok"])
    return steps / sum(r["seconds"] for r in rows)


def _run_s(name: str, rows: list[dict], seconds=lambda r: r["seconds"]) -> float:
    """Median time of one operation of the workload."""
    if name == "saturating_ladder":
        return statistics.median(
            sum(seconds(r) for r in p if _gain(r) in W.LADDER_TIMED_GAINS)
            for p in _passes(rows).values()
        )
    if name == "generator_lab":
        return statistics.median(sum(seconds(r) for r in p) for p in _passes(rows).values())
    return statistics.median(seconds(r) for r in rows)


def measure(w: Workload, runner: Runner, seconds: float) -> dict:
    """End-to-end metrics; times are scaled to the reference speed (speed.py)."""
    with speed.SpeedProbe() as probe:
        return _measure(w, runner, seconds, probe)


def _measure(w: Workload, runner: Runner, seconds: float, probe: speed.SpeedProbe) -> dict:
    cal = [probe.seconds()]

    def timed(row: dict) -> dict:
        cal.append(probe.seconds())
        return {**row, "cal_before": cal[-2], "cal_after": cal[-1]}

    setup = [timed(w.setup_probe(runner, i)) for i in range(SETUP_PROBES)]
    if w.name == "quickstart":
        rows = []
        start = time.perf_counter()
        while not rows or time.perf_counter() - start < seconds:
            rows.append(timed(_fresh_op(w, runner, f"op{len(rows)}")))
        rss = max(r["peak_rss_mb"] for r in rows)
    else:
        _, result = runner.worker(w.commands(), seconds, "off", "ops", probe=True)
        rows = _op_rows(w, result["ops"])
        rss = result["peak_rss_mb"]
        cal += [r["cal_before"] for r in rows] + [rows[-1]["cal_after"]]
    attempted, failed, correct = _tally(rows)
    log(f"  unscaled: run_s {_run_s(w.name, rows):.4g} s, setup_s "
        f"{statistics.median(r['seconds'] for r in setup):.4g} s; speed probe median "
        f"{statistics.median(cal):.4g} s (reference {speed.REFERENCE_S} s)")
    metrics = {
        "run_s": _run_s(w.name, rows, _scaled),
        "setup_s": statistics.median(_scaled(r) for r in setup),
        "success_frac": (attempted - failed) / attempted,
        "peak_rss_mb": rss,
    }
    return {"correct": correct and all(r["ok"] for r in setup), "attempted": attempted, "failed": failed,
            "metrics": metrics, "rows": rows, "setup": setup, "speed_probe_s": cal}


# ---------------------------------------------------------------------------
# traced run
# ---------------------------------------------------------------------------

LAB_SPANS = ("operator_lab.random_domain_state", "operator_lab.apply_generator",
             "operator_lab.weighted_inner", "operator_lab.resolvent_solve")


def coverage_problems(w: Workload, rows: list[dict]) -> list[str]:
    """A wrapper bound to a name nobody calls shows up as a count mismatch."""
    problems = []
    for r in rows:
        c = r.get("span_counts")
        if c is None or not r["check"]["ok"]:
            continue
        tag = f"{r['argv'][0]} {Path(r['argv'][1]).name}"
        if r["argv"][0] == "run":
            steps, records = r["check"]["steps"], r["check"]["records"]
            pairs = [("solver.step", steps), ("feedback.implicit_boundary_update", steps),
                     ("analysis.energies", records), ("cli.cmd_run", 1)]
            pairs += [(n, 0) for n in LAB_SPANS]
            if w.name == "quickstart":
                pairs.append(("feedback.g_evals", 0))
            elif c.get("feedback.g_evals", 0) == 0:
                problems.append(f"{tag}: no eval_g calls inside the boundary solve")
        elif r["argv"][0] == "operator":
            n = int(r["argv"][r["argv"].index("--pairs") + 1])
            pairs = [("operator_lab.random_domain_state", 2 * n), ("operator_lab.apply_generator", 2 * n),
                     ("solver.step", 0), ("cli.cmd_operator", 1)]
        else:
            pairs = [("operator_lab.resolvent_solve", 1), ("solver.project_div_free", 1),
                     ("solver.step", 0), ("cli.cmd_resolvent", 1)]
        for name, want in pairs:
            if c.get(name, 0) != want:
                problems.append(f"{tag}: {c.get(name, 0)} {name} spans, expected {want}")
    if not any(r.get("span_counts") for r in rows):
        problems.append("no traced command")
    return problems


def import_seconds(runner: Runner) -> float:
    """Median wall time of a fresh process that only imports delayfdtd.cli."""
    times = []
    for _ in range(IMPORT_PROBES):
        proc = runner.spawn([sys.executable, "-c", "import delayfdtd.cli"])
        if proc["rc"] != 0:
            raise BenchError(f"cannot import delayfdtd.cli: {proc['stderr']}")
        times.append(proc["seconds"])
    return statistics.median(times)


def trace(w: Workload, runner: Runner, seconds: float) -> dict:
    """Untraced and traced runs of the same commands, alternated until `seconds`."""
    extra = dict.fromkeys(("env.unpinned_run_s", "env.unpinned_csv_identical", "cli.steps_per_s",
                           "cli.operator_s", "cli.resolvent_s"), 0.0)
    extra["cli.import_s"] = import_seconds(runner)
    if w.name == "quickstart":
        plain, rows, dumps = [], [], []
        start = time.perf_counter()
        while not rows or time.perf_counter() - start < seconds:
            plain.append(_fresh_op(w, runner, f"untraced{len(rows)}"))
            cmd = ["run", w.run_cfg(), "--out", w.out(f"traced{len(rows)}")]
            proc, result = runner.worker([cmd], 0, "on", f"traced{len(rows)}")
            op = _op_rows(w, result["ops"])[0]
            op["seconds"] = proc["seconds"]  # timed from spawn to exit, like the untraced run
            rows.append(op)
            dumps.append(result["trace"])
        untraced = statistics.median(r["seconds"] for r in plain)
        traced = statistics.median(r["seconds"] for r in rows)
        extra["cli.steps_per_s"] = _steps_per_s(plain)
        # information only: the same run with the BLAS thread variables unset
        unpinned = _fresh_op(w, runner, "unpinned", pinned=False)
        all_rows = plain + rows + [unpinned]
        extra["env.unpinned_run_s"] = unpinned["seconds"]
        extra["env.unpinned_csv_identical"] = float(
            unpinned["check"].get("sha256") == plain[0]["check"].get("sha256"))
    else:
        _, result = runner.worker(w.commands(), seconds, "alternate", "traced")
        all_rows = _op_rows(w, result["ops"])
        plain = [r for r in all_rows if not r["traced"]]
        rows = [r for r in all_rows if r["traced"]]
        dumps = [result["trace"]]
        untraced, traced = _run_s(w.name, plain), _run_s(w.name, rows)
        if w.name == "saturating_ladder":
            extra["cli.steps_per_s"] = _steps_per_s(plain)
        else:
            for cmd in ("operator", "resolvent"):
                extra[f"cli.{cmd}_s"] = statistics.median(r["seconds"] for r in plain if r["argv"][0] == cmd)
    attempted, failed, correct = _tally(all_rows)
    problems = coverage_problems(w, rows)
    for p in problems:
        log(f"  trace coverage: {p}")
    tracer = tracing.Tracer.merged(dumps)
    spans_path = w.work / "trace_spans.json"
    spans_path.write_text(json.dumps(tracer.spans))
    log(f"  spans written to {spans_path.relative_to(ROOT)}; overhead {traced / untraced - 1:+.1%}")
    layers = tracing.layer_metrics(tracer)
    layers.update(extra)
    layers["cli.run_s_untraced"] = untraced
    layers["cli.run_s_traced"] = traced
    layers["trace.overhead_frac"] = traced / untraced - 1.0
    return {"correct": correct and not problems, "attempted": attempted, "failed": failed,
            "metrics": layers, "rows": all_rows}


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (SRC / "delayfdtd" / "cli.py").is_file():
        log(f"no delayfdtd sources under {SRC}: run from the root of a checkout")
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    work = WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)
    (work / "out").mkdir(parents=True)
    runner = Runner(work)
    # build: compile the sources once so no timed process pays for it
    subprocess.run([sys.executable, "-m", "compileall", "-q", str(SRC)], check=True,
                   stdout=subprocess.DEVNULL, cwd=ROOT)
    env = runner.spawn([sys.executable, "-c", FINGERPRINT])
    if env["rc"] != 0:
        raise BenchError(f"cannot import delayfdtd from {SRC}: {env['stderr']}")
    fingerprint = json.loads((work / f"proc{runner.n}.out").read_text())
    imported = Path(fingerprint["delayfdtd"]).resolve()
    if not imported.is_relative_to(SRC.resolve()):
        raise BenchError(f"delayfdtd imported from {imported}, not {SRC}")
    fingerprint["delayfdtd"] = str(imported.relative_to(ROOT.resolve()))
    log("environment: " + json.dumps(fingerprint))

    w = Workload(args.workload, args.seed, work)
    res = trace(w, runner, args.seconds) if args.trace else measure(w, runner, args.seconds)
    (work / "report.json").write_text(json.dumps(
        {"args": vars(args), "environment": fingerprint, **res}, indent=1, default=str))
    if set(res["metrics"]) != set(units):
        raise BenchError(f"metrics {sorted(res['metrics'])} do not match BENCHMARK.json {sorted(units)}")
    for name, value in res["metrics"].items():
        log(f"  {name} = {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": res["correct"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in res["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        log(f"benchmark error: {exc}")
        sys.exit(1)
