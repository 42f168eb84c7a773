"""Command-line interface: assumption checks, runs, sweeps, analysis, labs.

Exit codes: 0 success, 2 configuration error, 3 assumption violated,
4 numerical failure, 5 certificate failure under --assert.  With --debug
(or DELAYFDTD_DEBUG=1) an unexpected exception also prints its traceback.
"""

from __future__ import annotations

import argparse
import copy
import gc
import os
import sys
import traceback
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import analysis, delay
from .config import (
    SCHEMA, Config, _parse_value, echo_config, parse_config, scenario_from_config, validate_config,
)
from .errors import (
    AssumptionError, CertificateError, ConfigError, ContractError, NumericalError, read_input,
)
from .feedback import constants
from .solver import RunOutput, require_assumptions, run as run_scenario, run_setup

# unused here: bound only because perfbench/tracer.py patches these names in this module (ROADMAP item 15)
from .domain import build_grid
from .materials import full_report
from .operators import build_operators


def _load_config(path: str) -> Config:
    return parse_config(read_input(path, "config"))


def _outdir(cfg: Config, override: str | None) -> Path:
    out = Path(override) if override else Path(cfg.get("output", "dir"))
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {out}: {exc.strerror}") from exc
    return out


def _write(path: Path, text: str):
    path.write_text(text, encoding="utf-8", newline="\n")


# ---------------------------------------------------------------------------
# check
# ---------------------------------------------------------------------------

def cmd_check(args) -> int:
    cfg = _load_config(args.config)
    out = _outdir(cfg, args.out)
    report = run_setup(scenario_from_config(cfg)).report
    text = "\n".join(report.summary_lines()) + "\n"
    sys.stdout.write(text)
    _write(out / "material_report.txt", text)
    require_assumptions(report)
    return 0


# ---------------------------------------------------------------------------
# run
# ---------------------------------------------------------------------------

def _summary_text(info: dict) -> str:
    lines = []
    for key, val in info.items():
        if isinstance(val, float):
            lines.append(f"{key} = {val:.17g}")
        else:
            lines.append(f"{key} = {val}")
    return "\n".join(lines) + "\n"


def _write_run(cfg: Config, out: RunOutput, out_dir: Path) -> tuple[dict, list[str]]:
    """Write resolved.cfg, energy.csv and summary.txt of a finished run.

    summary.txt is the run header followed by the certificate block; returns
    the summary (key -> value) and the failed checks.
    """
    _write(out_dir / "resolved.cfg", echo_config(cfg))
    _write(out_dir / "energy.csv", out.trace.to_csv())
    info: dict[str, object] = {
        "dt": out.dt, "delay_slots": out.n_slots, "xi": out.xi, "steps": out.state.step,
    }
    for key in ("alpha", "d1", "beta", "m_sup"):
        val = getattr(out.report, key)
        if val is not None:
            info[key] = val
    opts = out.scenario.analysis
    block, failures = analysis.certify(
        out.trace, out.report, out.diss, out.law.tau,
        slack_dissipation=opts.slack_dissipation,
        slack_observability=opts.slack_observability,
    )
    info.update(block)
    _write(out_dir / "summary.txt", _summary_text(info))
    return info, failures


def cmd_run(args) -> int:
    cfg = _load_config(args.config)
    sc = scenario_from_config(cfg, unsafe=args.unsafe)
    out_dir = _outdir(cfg, args.out)
    result = run_scenario(sc)
    info, failures = _write_run(cfg, result, out_dir)
    sys.stdout.write(_summary_text(info))
    if args.dump_boundary:
        delay.write_history_csv(
            out_dir / "boundary_trace.csv", result.ring, result.ops.grid.samples, result.state.step
        )
    if args.assert_certificates and failures:
        raise CertificateError(f"certificate checks failed: {', '.join(failures)}")
    return 0


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

def cmd_sweep(args) -> int:
    cfg = _load_config(args.config)
    section, _, key = args.param.partition(".")
    kind = SCHEMA.get(section, {}).get(key, (None,))[0]
    if kind is None:
        raise ConfigError(f"bad parameter path {args.param!r}")
    if kind not in ("float", "int", "xi"):
        raise ConfigError(f"parameter path {args.param!r} does not point at a numeric value")
    raw_values = args.values.replace(",", " ").split()
    if not raw_values:
        raise ConfigError("sweep needs at least one value")
    # the key's own parser; a swept xi is a number, never `auto`
    values = [
        _parse_value("float" if kind == "xi" else kind, raw, f"--values for {args.param}")
        for raw in raw_values
    ]
    rows: dict[str, float] = {}
    for value in values:
        name = f"{key}_{value:.6g}"
        if name in rows:
            raise ConfigError(
                f"sweep values {rows[name]!r} and {value!r} share the row directory {name}"
            )
        rows[name] = value

    out_root = _outdir(cfg, args.out)
    checked = []  # every row is checked, and given its directory, before the first one runs
    for name, value in rows.items():
        row = copy.deepcopy(cfg)
        row.set(section, key, value)
        validate_config(row)
        row.set("output", "dir", str(out_root / name))
        sc = scenario_from_config(row)
        if sc.analysis.xi is None:
            # pin the midpoint g1 c1 / 2, also where no weight is admissible, so that
            # such a row runs and reports no certificate; a conservative row gets 0
            law = sc.law
            xi = 0.5 * law.gamma1 * constants(law).c1 if law.gamma1 > 0 else 0.0
            row.set("analysis", "xi", xi)
            sc = replace(sc, analysis=replace(sc.analysis, xi=xi))
        checked.append((value, row, sc, _outdir(row, None)))
    lines = ["value,lambda_hat,r2,classification"]
    for value, row, sc, out in checked:
        info, _ = _write_run(row, run_scenario(sc), out)
        lam = float(info.get("lambda_hat", float("nan")))
        r2 = float(info.get("fit_r2", float("nan")))
        lines.append(f"{value:.17g},{lam:.17g},{r2:.17g},{info['classification']}")
    text = "\n".join(lines) + "\n"
    _write(out_root / "sweep_summary.csv", text)
    sys.stdout.write(text)
    return 0


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------

def cmd_analyze(args) -> int:
    _require_flag("T", args.T, args.T is None or np.isfinite(args.T), "finite")
    cfg = _load_config(args.config)
    out = _outdir(cfg, args.out)
    sc = scenario_from_config(cfg)
    trace = analysis.EnergyTrace.from_csv(read_input(args.csv, "energy CSV"))

    report = run_setup(sc).report
    require_assumptions(report)
    xi, k = analysis.delay_weight(sc.law, sc.analysis.xi)

    block, failures = analysis.certify(
        trace, report, k, sc.law.tau, T=args.T,
        slack_dissipation=sc.analysis.slack_dissipation,
        slack_observability=sc.analysis.slack_observability,
    )
    info: dict[str, object] = {"xi": xi, **block}
    info["dissipation_residual"] = (
        analysis.dissipation_residual(trace) if len(trace.t) > 1 else analysis.NEED_TWO_RECORDS
    )
    text = _summary_text(info)
    _write(out / "certificates.txt", text)
    sys.stdout.write(text)
    if args.assert_certificates and failures:
        raise CertificateError(f"certificate checks failed: {', '.join(failures)}")
    return 0


# ---------------------------------------------------------------------------
# operator / resolvent labs
# ---------------------------------------------------------------------------

def _lab_setup(cfg: Config):
    sc = scenario_from_config(cfg)
    setup = run_setup(sc)
    require_assumptions(setup.report, "material")  # the lab tests well-posedness, which needs no decay hypothesis
    return sc, setup.operators()


def _require_flag(name: str, value, ok: bool, what: str):
    """A command-line value out of its range is a configuration error, raised before any work."""
    if not ok:
        raise ConfigError(f"--{name} must be {what}, got {value}")


def cmd_operator(args) -> int:
    from . import operator_lab  # the lab commands alone need it

    _require_flag("pairs", args.pairs, args.pairs >= 1, "at least 1")
    _require_flag("m", args.m, args.m >= 1, "at least 1")
    _require_flag("seed", args.seed, args.seed >= 0, "non-negative")
    cfg = _load_config(args.config)
    out = _outdir(cfg, args.out)
    sc, ops = _lab_setup(cfg)
    mono = constants(sc.law)
    k = operator_lab.generator_constants(
        sc.law.gamma1, sc.law.gamma2, mono.c1, mono.c2, sc.law.tau
    )
    report = operator_lab.monotonicity_test(
        ops, sc.law, k, n_pairs=args.pairs, seed=args.seed, M=args.m
    )
    lines = report.summary_lines() + [
        f"xi_op = {k.xi_op:.17g}",
        f"c_weight = {k.c_weight:.17g}",
        f"C_shift = {k.C_shift:.17g}",
    ]
    text = "\n".join(lines) + "\n"
    _write(out / "monotonicity_report.txt", text)
    _write(out / "pairings.csv", report.to_csv())
    sys.stdout.write(text)
    if not report.passed:
        raise CertificateError("monotonicity floor violated")
    return 0


def cmd_resolvent(args) -> int:
    from . import operator_lab

    _require_flag("m", args.m, args.m >= 1, "at least 1")
    _require_flag("seed", args.seed, args.seed >= 0, "non-negative")
    _require_flag("b", args.b, 0 < args.b < np.inf, "positive and finite")
    cfg = _load_config(args.config)
    out = _outdir(cfg, args.out)
    sc, ops = _lab_setup(cfg)
    F = operator_lab.random_forcing(ops, args.m, np.random.default_rng(args.seed))
    result = operator_lab.resolvent_solve(F, args.b, ops, sc.law)
    lines = [f"residual = {result.residual:.6e}", f"outer_iterations = {result.outer_iterations}", f"penalty = {result.penalty:.17g}"]
    lines += [f"residual_{k} = {v:.6e}" for k, v in result.residual_parts.items()]
    lines.append(f"core_cg_iterations = {result.core_cg_iterations}")
    text = "\n".join(lines) + "\n"
    _write(out / "resolvent_report.txt", text)
    sys.stdout.write(text)
    if result.residual > 1e-8:
        raise NumericalError(f"resolvent residual {result.residual:.3e} above 1e-8")
    return 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="delayfdtd", description=__doc__)
    p.add_argument(
        "--debug",
        action="store_true",
        default=os.environ.get("DELAYFDTD_DEBUG") == "1",
        help="print the traceback of an unexpected failure (also DELAYFDTD_DEBUG=1)",
    )
    sub = p.add_subparsers(dest="command", required=True)

    pc = sub.add_parser("check", help="material and geometry assumption report")
    pc.add_argument("config")
    pc.add_argument("--out")
    pc.set_defaults(func=cmd_check)

    pr = sub.add_parser("run", help="simulate and write the energy trace")
    pr.add_argument("config")
    pr.add_argument("--out")
    pr.add_argument("--unsafe", action="store_true", help="run despite failed checks")
    pr.add_argument("--assert", dest="assert_certificates", action="store_true")
    pr.add_argument("--dump-boundary", action="store_true")
    pr.set_defaults(func=cmd_run)

    ps = sub.add_parser("sweep", help="run a scenario family over one parameter")
    ps.add_argument("config")
    ps.add_argument("--param", required=True, help="e.g. feedback.gamma2")
    ps.add_argument("--values", required=True, help="comma or space separated")
    ps.add_argument("--out")
    ps.set_defaults(func=cmd_sweep)

    pa = sub.add_parser("analyze", help="certificates from an energy CSV")
    pa.add_argument("config")
    pa.add_argument("csv")
    pa.add_argument("--T", type=float, default=None)
    pa.add_argument("--assert", dest="assert_certificates", action="store_true")
    pa.add_argument("--out")
    pa.set_defaults(func=cmd_analyze)

    po = sub.add_parser("operator", help="monotonicity report for the shifted generator")
    po.add_argument("config")
    po.add_argument("--pairs", type=int, default=200)
    po.add_argument("--seed", type=int, default=0)
    po.add_argument("--m", type=int, default=delay.LAB_S_CELLS)
    po.add_argument("--out")
    po.set_defaults(func=cmd_operator)

    pv = sub.add_parser("resolvent", help="resolvent solve report on random data")
    pv.add_argument("config")
    pv.add_argument("--b", type=float, default=2.0)
    pv.add_argument("--seed", type=int, default=0)
    pv.add_argument("--m", type=int, default=delay.LAB_S_CELLS)
    pv.add_argument("--out")
    pv.set_defaults(func=cmd_resolvent)
    return p


def main(argv=None) -> int:
    if argv is None:
        # the command owns the process: move the import-time heap into the
        # permanent generation, so no later collection and no shutdown walks it
        gc.freeze()
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except AssumptionError as exc:
        print(f"assumption violated: {exc}", file=sys.stderr)
        return 3
    except CertificateError as exc:
        print(f"certificate failure: {exc}", file=sys.stderr)
        return 5
    except (NumericalError, ContractError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 4
    except Exception as exc:  # keep the exit-code contract exhaustive
        print(f"numerical failure (unexpected): {exc}", file=sys.stderr)
        if args.debug:
            traceback.print_exc()
        return 4


if __name__ == "__main__":
    sys.exit(main())
