"""Command-line interface: assumption checks, runs, sweeps, analysis, labs.

Exit codes: 0 success, 2 configuration error, 3 assumption violated,
4 numerical failure, 5 certificate failure under --assert.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import analysis, operator_lab
from .config import Config, echo_config, parse_config, scenario_from_config
from .domain import build_grid, multiplier_field
from .errors import AssumptionError, CertificateError, ConfigError, ContractError, NumericalError
from .feedback import constants
from .materials import full_report
from .operators import build_operators
from .solver import RunOutput, run as run_scenario


NEED_TWO_RECORDS = "not applicable (need at least two records)"


def _load_config(path: str) -> Config:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return parse_config(text)


def _outdir(cfg: Config, override: str | None) -> Path:
    out = Path(override) if override else Path(cfg.get("output", "dir"))
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write(path: Path, text: str):
    path.write_text(text, encoding="utf-8", newline="\n")


# ---------------------------------------------------------------------------
# check
# ---------------------------------------------------------------------------

def cmd_check(args) -> int:
    cfg = _load_config(args.config)
    sc = scenario_from_config(cfg)
    grid = build_grid(sc.domain)
    eps = sc.eps.build(grid)
    mu = sc.mu.build(grid)
    m = multiplier_field(grid, sc.domain.x0)
    report = full_report(eps, mu, m, grid)
    lines = report.summary_lines()
    text = "\n".join(lines) + "\n"
    sys.stdout.write(text)
    out = _outdir(cfg, args.out)
    _write(out / "material_report.txt", text)
    if not report.passed:
        raise AssumptionError("material/geometry assumptions violated (see report)")
    return 0


# ---------------------------------------------------------------------------
# run
# ---------------------------------------------------------------------------

def _fit_window(trace: analysis.EnergyTrace) -> tuple[float, float]:
    t_end = trace.t[-1]
    return (t_end / 3.0, t_end)


def _classify(trace: analysis.EnergyTrace, lam: float | None) -> str:
    e0, e1 = trace.E_xi[0], trace.E_xi[-1]
    if e0 > 0 and e1 > 10.0 * e0:
        return "unstable"
    if lam is not None and np.isfinite(lam):
        return "decaying" if lam > 0 else "non-decaying"
    if e0 > 0 and e1 < e0:
        return "decaying"
    return "non-decaying"


def _analyze_output(out: RunOutput, slack_d: float, slack_o: float):
    """Certificate chain on a finished run; returns (summary dict, failed list)."""
    info: dict[str, object] = {}
    failures: list[str] = []
    trace = out.trace
    info["dt"] = out.dt
    info["delay_slots"] = out.n_slots
    info["xi"] = out.xi
    info["steps"] = out.state.step
    for key in ("alpha", "d1", "beta", "m_sup"):
        val = getattr(out.report, key)
        if val is not None:
            info[key] = val

    lam = None
    if np.all(trace.E_xi > 0) and len(trace.t) > 2:
        try:
            lam, pref, r2 = analysis.fit_decay(trace, _fit_window(trace))
            info["lambda_hat"] = lam
            info["fit_prefactor"] = pref
            info["fit_r2"] = r2
        except ContractError as exc:
            info["fit"] = f"skipped ({exc})"
    info["classification"] = _classify(trace, lam)

    if out.diss is None:
        info["certificate"] = (
            "none (no admissible delay weight: requires gamma1*c1 > gamma2*c2 and xi inside the interval)"
        )
        return info, failures

    k = out.diss
    info["c1E"] = k.c1E
    info["c2E"] = k.c2E
    if len(trace.t) < 2:
        for key in ("two_sided_dissipation", "observability", "certificate"):
            info[key] = NEED_TWO_RECORDS
        return info, failures
    rep31 = analysis.lemma31_check(trace, k, slack=slack_d)
    info["two_sided_dissipation"] = "pass" if rep31.passed else "FAIL"
    info["two_sided_worst_upper"] = rep31.worst_upper
    info["two_sided_worst_lower"] = rep31.worst_lower
    if not rep31.passed:
        failures.append("two_sided_dissipation")

    obs = None
    try:
        obs = analysis.observability_constants(
            alpha=out.report.alpha,
            d1=out.report.d1,
            beta=out.report.beta,
            m_sup=out.report.m_sup,
            lambda_max_eps=out.report.lambda_max_eps,
            lambda_max_mu=out.report.lambda_max_mu,
            c2=k.c2,
            gamma1=k.gamma1,
            gamma2=k.gamma2,
            xi=k.xi,
            tau=out.law.tau,
            weighted=out.scenario.analysis.weighting == "weighted",
        )
        info["obs_delta"] = obs.delta
        info["obs_c"] = obs.c
        info["obs_c_T"] = obs.c_T
        rep32 = analysis.lemma32_check(trace, obs, slack=slack_o)
        info["observability"] = "pass" if rep32.passed else "FAIL"
        info["observability_ratio"] = rep32.ratio
        if not rep32.passed:
            failures.append("observability")
    except AssumptionError as exc:
        info["observability"] = f"not applicable ({exc})"

    cert = None
    if obs is not None and trace.t[-1] > 4.0 * obs.c:
        try:
            cert = analysis.appendix_analyze(
                trace.t, trace.E_xi, trace.D, k.c1E, k.c2E, obs.c, obs.c_T, T=trace.t[-1]
            )
            info["certificate_gamma"] = cert.gamma
            info["certificate_lambda"] = cert.lam
            info["certificate"] = "pass" if cert.passed else "FAIL"
            if not cert.passed:
                failures.append("decay_certificate")
        except ContractError as exc:
            info["certificate"] = f"not applicable ({exc})"
    elif obs is not None:
        info["certificate"] = (
            f"not applicable (trace too short: needs t_end > 4c = {4.0 * obs.c:.6g})"
        )
    return info, failures


def _summary_text(info: dict) -> str:
    lines = []
    for key, val in info.items():
        if isinstance(val, float):
            lines.append(f"{key} = {val:.17g}")
        else:
            lines.append(f"{key} = {val}")
    return "\n".join(lines) + "\n"


def _dump_boundary(out: RunOutput, path: Path):
    rows = ["step,sample_id,s_index,vx,vy,vz"]
    for step, snap in enumerate(out.ring_snapshots):
        for sid in range(snap.shape[1]):
            for j in range(snap.shape[0]):
                v = snap[j, sid]
                rows.append(
                    f"{step},{sid},{j},{v[0]:.17g},{v[1]:.17g},{v[2]:.17g}"
                )
    _write(path, "\n".join(rows) + "\n")


def cmd_run(args) -> int:
    cfg = _load_config(args.config)
    sc = scenario_from_config(cfg, unsafe=args.unsafe)
    out_dir = _outdir(cfg, args.out)
    result = run_scenario(sc, keep_ring_snapshots=args.dump_boundary)
    _write(out_dir / "resolved.cfg", echo_config(cfg))
    _write(out_dir / "energy.csv", result.trace.to_csv())
    info, failures = _analyze_output(
        result, sc.analysis.slack_dissipation, sc.analysis.slack_observability
    )
    text = _summary_text(info)
    _write(out_dir / "summary.txt", text)
    sys.stdout.write(text)
    if args.dump_boundary:
        _dump_boundary(result, out_dir / "boundary_trace.csv")
    if args.assert_certificates and failures:
        raise CertificateError(f"certificate checks failed: {', '.join(failures)}")
    return 0


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

def _resolved_xi_for(cfg: Config) -> float:
    """Explicit delay weight for a sweep row: midpoint if admissible, else fallback."""
    sc = scenario_from_config(cfg)
    if sc.law.gamma1 <= 0:
        return 0.0
    mono = constants(sc.law)
    try:
        k = analysis.xi_default(sc.law.gamma1, sc.law.gamma2, mono.c1, mono.c2)
        return k.xi
    except AssumptionError:
        return 0.5 * sc.law.gamma1 * mono.c1


def _sweep_value(cfg_text: str, path: str, value: float, out_dir: str):
    cfg = parse_config(cfg_text)
    cfg.set_path(path, value)
    cfg.set("analysis", "xi", _resolved_xi_for(cfg))
    cfg.set("output", "dir", out_dir)
    sc = scenario_from_config(cfg)
    result = run_scenario(sc)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    _write(out / "resolved.cfg", echo_config(cfg))
    _write(out / "energy.csv", result.trace.to_csv())
    info, _ = _analyze_output(result, sc.analysis.slack_dissipation, sc.analysis.slack_observability)
    _write(out / "summary.txt", _summary_text(info))
    lam = info.get("lambda_hat", float("nan"))
    r2 = info.get("fit_r2", float("nan"))
    return value, float(lam), float(r2), str(info["classification"])


def cmd_sweep(args) -> int:
    cfg = _load_config(args.config)
    try:
        values = [float(v) for v in args.values.replace(",", " ").split()]
    except ValueError as exc:
        raise ConfigError(f"bad sweep values {args.values!r}") from exc
    if not values:
        raise ConfigError("sweep needs at least one value")
    section, _, key = args.param.partition(".")
    if section not in ("domain", "materials", "feedback", "history", "initial", "run", "analysis"):
        raise ConfigError(f"bad parameter path {args.param!r}")
    probe = parse_config(echo_config(cfg))
    current = probe.get(section, key) if key in probe.data.get(section, {}) else None
    if not isinstance(current, (int, float)) or isinstance(current, bool):
        raise ConfigError(f"parameter path {args.param!r} does not point at a numeric value")

    out_root = _outdir(cfg, args.out)
    cfg_text = echo_config(cfg)
    jobs = []
    for v in values:
        sub = out_root / f"{key}_{v:.6g}"
        jobs.append((cfg_text, args.param, v, str(sub)))

    if args.jobs > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            rows = list(pool.map(_sweep_value_star, jobs))
    else:
        rows = [_sweep_value(*job) for job in jobs]

    lines = ["value,lambda_hat,r2,classification"]
    for value, lam, r2, cls in rows:
        lines.append(f"{value:.17g},{lam:.17g},{r2:.17g},{cls}")
    text = "\n".join(lines) + "\n"
    _write(out_root / "sweep_summary.csv", text)
    sys.stdout.write(text)
    return 0


def _sweep_value_star(job):
    return _sweep_value(*job)


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------

def _certify_csv(trace, sc, report, mono, k, T, info: dict) -> list[str]:
    """Certificate chain of `analyze` on a trace of two or more records."""
    failures = []
    rep31 = analysis.lemma31_check(trace, k, slack=sc.analysis.slack_dissipation)
    info["two_sided_dissipation"] = "pass" if rep31.passed else "FAIL"
    if not rep31.passed:
        failures.append("two_sided_dissipation")
    obs = analysis.observability_constants(
        alpha=report.alpha,
        d1=report.d1,
        beta=report.beta,
        m_sup=report.m_sup,
        lambda_max_eps=report.lambda_max_eps,
        lambda_max_mu=report.lambda_max_mu,
        c2=mono.c2,
        gamma1=sc.law.gamma1,
        gamma2=sc.law.gamma2,
        xi=k.xi,
        tau=sc.law.tau,
        weighted=sc.analysis.weighting == "weighted",
    )
    T = T if T is not None else float(trace.t[-1])
    rep32 = analysis.lemma32_check(trace, obs, T=T, slack=sc.analysis.slack_observability)
    info["observability"] = "pass" if rep32.passed else "FAIL"
    info["observability_ratio"] = rep32.ratio
    if not rep32.passed:
        failures.append("observability")
    try:
        cert = analysis.appendix_analyze(
            trace.t, trace.E_xi, trace.D, k.c1E, k.c2E, obs.c, obs.c_T, T=T
        )
        info["certificate"] = "pass" if cert.passed else "FAIL"
        info["certificate_gamma"] = cert.gamma
        info["certificate_lambda"] = cert.lam
        if not cert.passed:
            failures.append("decay_certificate")
    except ContractError as exc:
        info["certificate"] = f"not applicable ({exc})"
    try:
        lam, _, r2 = analysis.fit_decay(trace, _fit_window(trace))
        info["lambda_hat"] = lam
        info["fit_r2"] = r2
    except ContractError as exc:
        info["fit"] = f"skipped ({exc})"
    info["dissipation_residual"] = analysis.dissipation_residual(trace)
    return failures


def cmd_analyze(args) -> int:
    cfg = _load_config(args.config)
    sc = scenario_from_config(cfg)
    text = Path(args.csv).read_text()
    trace = analysis.EnergyTrace.from_csv(text)

    grid = build_grid(sc.domain)
    eps = sc.eps.build(grid)
    mu = sc.mu.build(grid)
    m = multiplier_field(grid, sc.domain.x0)
    report = full_report(eps, mu, m, grid)
    if not report.passed:
        raise AssumptionError("material/geometry assumptions violated")
    mono = constants(sc.law)
    xi = sc.analysis.xi
    k = analysis.xi_default(sc.law.gamma1, sc.law.gamma2, mono.c1, mono.c2, xi=xi)

    info: dict[str, object] = {"xi": k.xi, "c1E": k.c1E, "c2E": k.c2E}
    failures = []
    if len(trace.t) < 2:
        for key in ("two_sided_dissipation", "observability", "certificate", "dissipation_residual"):
            info[key] = NEED_TWO_RECORDS
    else:
        failures = _certify_csv(trace, sc, report, mono, k, args.T, info)

    text = _summary_text(info)
    out = _outdir(cfg, args.out)
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
    grid = build_grid(sc.domain)
    eps = sc.eps.build(grid)
    mu = sc.mu.build(grid)
    ops = build_operators(grid, eps, mu)
    return sc, ops


def cmd_operator(args) -> int:
    cfg = _load_config(args.config)
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
    out = _outdir(cfg, args.out)
    _write(out / "monotonicity_report.txt", text)
    _write(out / "pairings.csv", report.to_csv())
    sys.stdout.write(text)
    if not report.passed:
        raise CertificateError("monotonicity floor violated")
    return 0


def cmd_resolvent(args) -> int:
    cfg = _load_config(args.config)
    sc, ops = _lab_setup(cfg)
    rng = np.random.default_rng(args.seed)
    from .operator_lab import ExtState
    from .solver import project_div_free

    s = ops.grid.samples
    F1 = project_div_free(rng.standard_normal(ops.layout.n_q), ops)
    F2 = rng.standard_normal(ops.layout.n_h)
    raw = rng.standard_normal((s.count, args.m + 1, 3))
    nu = s.normals[:, None, :]
    F3 = raw - np.einsum("smi,smi->sm", raw, np.broadcast_to(nu, raw.shape))[..., None] * nu
    F = ExtState(q=F1, h=F2, Z=F3)
    result = operator_lab.resolvent_solve(F, args.b, ops, sc.law)
    lines = [f"residual = {result.residual:.6e}", f"outer_iterations = {result.outer_iterations}", f"penalty = {result.penalty:.17g}"]
    lines += [f"residual_{k} = {v:.6e}" for k, v in result.residual_parts.items()]
    text = "\n".join(lines) + "\n"
    out = _outdir(cfg, args.out)
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
    ps.add_argument("--jobs", type=int, default=1)
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
    po.add_argument("--m", type=int, default=16)
    po.add_argument("--out")
    po.set_defaults(func=cmd_operator)

    pv = sub.add_parser("resolvent", help="resolvent solve report on random data")
    pv.add_argument("config")
    pv.add_argument("--b", type=float, default=2.0)
    pv.add_argument("--seed", type=int, default=0)
    pv.add_argument("--m", type=int, default=16)
    pv.add_argument("--out")
    pv.set_defaults(func=cmd_resolvent)
    return p


def main(argv=None) -> int:
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
        return 4


if __name__ == "__main__":
    sys.exit(main())
