"""In-memory spans around the public functions of each delayfdtd module.

A wrapper replaces a function under the name its caller looks up, records
one span per call (name, start, end, parent) and keeps the spans in memory
until the run ends.  Self time is a span's duration minus the time covered
by its child spans; since the program is single-threaded, children nest
strictly and never overlap.
"""

from __future__ import annotations

import functools
from collections import Counter, defaultdict
from time import perf_counter

STEP = "solver.step"
BOUNDARY = "feedback.implicit_boundary_update"
SPLU = "linalg.splu"


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: Counter = Counter()
        self.values: dict[str, float] = {}
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- installation ---------------------------------------------------------

    def patch(self, owner, attr: str, name: str, on_result=None):
        """Wrap `owner.attr` in place; raises AttributeError if it is gone."""
        fn = getattr(owner, attr)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack
            rec = [name, perf_counter(), 0.0, stack[-1] if stack else -1]
            stack.append(len(tracer.spans))
            tracer.spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.counts[name + ".raised"] += 1
                raise
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if on_result is not None:
                on_result(tracer, args, result)
            return result

        setattr(owner, attr, wrapper)
        self._patched.append((owner, attr, fn))

    def count_inside(self, owner, attr: str, counter: str, parent: str):
        """Count calls of `owner.attr` made while `parent` is the open span."""
        fn = getattr(owner, attr)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack
            if stack and tracer.spans[stack[-1]][0] == parent:
                tracer.counts[counter] += 1
            return fn(*args, **kwargs)

        setattr(owner, attr, wrapper)
        self._patched.append((owner, attr, fn))

    def uninstall(self):
        for owner, attr, fn in reversed(self._patched):
            setattr(owner, attr, fn)
        self._patched.clear()

    # -- persistence ----------------------------------------------------------

    def dump(self) -> dict:
        return {"spans": self.spans, "counts": dict(self.counts), "values": self.values}

    @classmethod
    def merged(cls, dumps: list[dict]) -> "Tracer":
        """One tracer holding the spans and counts of several processes."""
        out = cls()
        for d in dumps:
            base = len(out.spans)
            out.spans += [[n, s, e, p + base if p >= 0 else -1] for n, s, e, p in d["spans"]]
            out.counts.update(d["counts"])
            out.values.update(d["values"])
        return out

    # -- summaries ------------------------------------------------------------

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds and self seconds."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "total": 0.0, "self": 0.0})
        for i, (name, start, end, _) in enumerate(self.spans):
            row = out[name]
            row["calls"] += 1
            row["total"] += end - start
            row["self"] += end - start - child[i]
        return dict(out)

    def child_seconds(self, name: str, parent: str) -> float:
        """Inclusive seconds of `name` spans whose parent span is `parent`."""
        return sum(
            end - start
            for n, start, end, p in self.spans
            if n == name and p >= 0 and self.spans[p][0] == parent
        )


def _record_operator_nnz(tracer, args, ops):
    tracer.values["operators.nnz"] = float(
        sum(m.nnz for m in (ops.C, ops.G, ops.R, ops.div_eps, ops.div_plain, ops.grad_int))
    )


def _record_projection_nnz(tracer, args, result):
    lu = getattr(args[1], "_proj_lu", None)
    if lu is not None:
        tracer.values["solver.project_lu_nnz"] = float(lu.L.nnz + lu.U.nnz)


def _record_splu_nnz(tracer, args, lu):
    stack = tracer._stack
    if stack and tracer.spans[stack[-1]][0] == "operator_lab.resolvent_solve":
        tracer.values["operator_lab.resolvent_lu_nnz"] = float(lu.L.nnz + lu.U.nnz)


def _record_resolvent(tracer, args, result):
    tracer.values["operator_lab.resolvent_outer_iters"] = float(result.outer_iterations)


def install(tracer: Tracer):
    """Bind every wrapper where its caller looks the name up."""
    import scipy.sparse.linalg as spla

    from delayfdtd import analysis, cli, delay, feedback, operator_lab, solver

    for name in ("cmd_run", "cmd_operator", "cmd_resolvent"):
        tracer.patch(cli, name, "cli." + name)
    tracer.patch(cli, "parse_config", "config.parse_config")
    tracer.patch(cli, "scenario_from_config", "config.scenario_from_config")
    tracer.patch(cli, "run_scenario", "solver.run")
    for mod in (cli, solver):
        tracer.patch(mod, "build_grid", "domain.build_grid")
        tracer.patch(mod, "full_report", "materials.full_report")
        tracer.patch(mod, "build_operators", "operators.build_operators", _record_operator_nnz)
    tracer.patch(solver, "project_div_free", "solver.project_div_free", _record_projection_nnz)
    tracer.patch(spla, "splu", SPLU, _record_splu_nnz)
    tracer.patch(solver.Stepper, "step", STEP)
    tracer.patch(solver, "implicit_boundary_update", BOUNDARY)
    tracer.count_inside(feedback, "eval_g", "feedback.g_evals", BOUNDARY)
    tracer.patch(delay.DelayRing, "advance", "delay.advance")
    tracer.patch(delay.DelayRing, "s_energy", "delay.s_energy")
    tracer.patch(analysis, "energies", "analysis.energies")
    tracer.patch(analysis, "boundary_outflow", "analysis.boundary_outflow")
    for name in ("lemma31_check", "lemma32_check", "appendix_analyze", "fit_decay"):
        tracer.patch(analysis, name, "analysis.certify." + name)
    tracer.patch(analysis.EnergyTrace, "to_csv", "analysis.to_csv")
    tracer.patch(operator_lab, "random_domain_state", "operator_lab.random_domain_state")
    tracer.patch(operator_lab, "apply_generator", "operator_lab.apply_generator")
    tracer.patch(operator_lab, "weighted_inner", "operator_lab.weighted_inner")
    tracer.patch(operator_lab, "resolvent_solve", "operator_lab.resolvent_solve", _record_resolvent)


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer numbers: self time per call (averaged) and exact counts."""
    t = tracer.totals()
    zero = {"calls": 0, "total": 0.0, "self": 0.0}

    def row(name):
        return t.get(name, zero)

    def per_call(name, key="self", scale=1e3):
        r = row(name)
        return r[key] / r["calls"] * scale if r["calls"] else 0.0

    steps = row(STEP)["calls"]
    run_calls = row("cli.cmd_run")["calls"]
    config_calls = row("config.parse_config")["calls"]
    project = row("solver.project_div_free")
    resolvent = row("operator_lab.resolvent_solve")
    certify_self = sum(r["self"] for n, r in t.items() if n.startswith("analysis.certify."))
    values = tracer.values
    return {
        "config.parse_ms": (
            (row("config.parse_config")["self"] + row("config.scenario_from_config")["self"])
            / config_calls * 1e3 if config_calls else 0.0
        ),
        "domain.build_grid_ms": per_call("domain.build_grid"),
        "materials.full_report_ms": per_call("materials.full_report"),
        "operators.build_s": per_call("operators.build_operators", scale=1.0),
        "operators.nnz": values.get("operators.nnz", 0.0),
        "solver.project_s": (
            (project["self"] + tracer.child_seconds(SPLU, "solver.project_div_free"))
            / project["calls"] if project["calls"] else 0.0
        ),
        "solver.project_lu_nnz": values.get("solver.project_lu_nnz", 0.0),
        "solver.step_ms": per_call(STEP, key="total"),
        "solver.step_self_ms": per_call(STEP),
        "solver.steps": float(steps),
        "feedback.boundary_ms": per_call(BOUNDARY),
        "feedback.g_evals_per_step": tracer.counts["feedback.g_evals"] / steps if steps else 0.0,
        "feedback.boundary_failures": float(tracer.counts[BOUNDARY + ".raised"]),
        "delay.advance_ms": per_call("delay.advance"),
        "delay.s_energy_ms": per_call("delay.s_energy"),
        "analysis.energies_ms": per_call("analysis.energies"),
        "analysis.outflow_ms": per_call("analysis.boundary_outflow"),
        "analysis.records": float(row("analysis.energies")["calls"]),
        "analysis.certify_ms": certify_self / run_calls * 1e3 if run_calls else 0.0,
        "analysis.to_csv_ms": per_call("analysis.to_csv"),
        "operator_lab.random_state_ms": per_call("operator_lab.random_domain_state"),
        "operator_lab.apply_generator_ms": per_call("operator_lab.apply_generator"),
        "operator_lab.weighted_inner_ms": per_call("operator_lab.weighted_inner"),
        "operator_lab.pairs": row("operator_lab.random_domain_state")["calls"] / 2.0,
        "operator_lab.resolvent_lu_s": (
            tracer.child_seconds(SPLU, "operator_lab.resolvent_solve") / resolvent["calls"]
            if resolvent["calls"] else 0.0
        ),
        "operator_lab.resolvent_lu_nnz": values.get("operator_lab.resolvent_lu_nnz", 0.0),
        "operator_lab.resolvent_outer_iters": values.get("operator_lab.resolvent_outer_iters", 0.0),
    }
