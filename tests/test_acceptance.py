"""Acceptance criteria, one test per numbered requirement.

Shared long runs are session-scoped fixtures; each test prints one
pass/fail line (run with `pytest -s` to see them inline).
"""

import io
import time
from contextlib import redirect_stderr

import numpy as np
import pytest

from delayfdtd import analysis
from delayfdtd.cli import main
from delayfdtd.delay import init_history
from delayfdtd.domain import BoxDomain, build_grid
from delayfdtd.feedback import FeedbackLaw, constants
from delayfdtd.materials import constant_isotropic, diagonal_ramp
from delayfdtd.operator_lab import (
    ExtState,
    generator_constants,
    monotonicity_test,
    resolvent_solve,
)
from delayfdtd.operators import build_operators
from delayfdtd.solver import (
    AnalysisOptions,
    InitialSpec,
    MaterialSpec,
    RunControls,
    Scenario,
    Stepper,
    compute_dt,
    gaussian_pulse_q,
    run,
)

from conftest import boundary_trace_w, green_residual, nu_cross_nodes, random_tangential, required_H_trace

CUBE16 = BoxDomain((1.0, 1.0, 1.0), (16, 16, 16), (0.5, 0.5, 0.5))
PULSE = InitialSpec(preset="gaussian_pulse", width=0.12, amplitude=1.0)
TAU = 0.25


def report(criterion: str, passed: bool, detail: str):
    line = f"[{'PASS' if passed else 'FAIL'}] {criterion}: {detail}"
    print(line)
    assert passed, line


def steps_scenario(law, n_steps, safety=0.5, eps=MaterialSpec(), xi=None, **kw):
    grid = build_grid(CUBE16)
    dt, _ = compute_dt(grid, eps.build(grid), MaterialSpec().build(grid), safety, law.tau)
    return Scenario(
        domain=CUBE16,
        eps=eps,
        law=law,
        initial=PULSE,
        run=RunControls(t_end=n_steps * dt, cfl_safety=safety, **kw),
        analysis=AnalysisOptions(xi=xi),
    )


@pytest.fixture(scope="session")
def run3():
    """Criterion 3-5/7 shared run: linear g, g1=1, g2=0.5, xi=0.5, 2000 steps."""
    law = FeedbackLaw(kind="linear", a=1.0, gamma1=1.0, gamma2=0.5, tau=TAU)
    return run(steps_scenario(law, 2000, xi=0.5))


def test_criterion_01_pmc_conservation():
    law = FeedbackLaw(kind="linear", a=1.0, gamma1=0.0, gamma2=0.0, tau=TAU)
    start = time.monotonic()
    out = run(steps_scenario(law, 1000))
    elapsed = time.monotonic() - start
    E = out.trace.E_weighted
    drift = float(np.abs(E - E[0]).max() / E[0])
    report(
        "1 PMC conservation",
        drift <= 1e-4 and elapsed <= 10.0,
        f"relative weighted-energy drift {drift:.3e} over 1000 steps in {elapsed:.1f}s",
    )


def test_criterion_02_divergence_conservation():
    start = time.monotonic()
    grid = build_grid(CUBE16)
    eps = diagonal_ramp(grid, (1.0, 1.0, 1.0), axis=0, slope=1.0, entry=0)
    mu = constant_isotropic(grid, 1.0)
    ops = build_operators(grid, eps, mu)
    law = FeedbackLaw(kind="linear", a=1.0, gamma1=0.0, gamma2=0.0, tau=TAU)
    dt, n_slots = compute_dt(grid, eps, mu, 0.5, TAU)
    stepper = Stepper(ops, law, dt)
    state = stepper.bootstrap(gaussian_pulse_q(ops, PULSE))
    ring = init_history("zero", n_slots, grid.samples.count)
    div0 = ops.div_eps @ state.q
    scale = float((np.abs(ops.div_eps) @ np.abs(state.q)).max())
    worst = 0.0
    for _ in range(1000):
        stepper.step(state, ring)
        worst = max(worst, float(np.abs(ops.div_eps @ state.q - div0).max()))
    elapsed = time.monotonic() - start
    rel = worst / scale
    report(
        "2 divergence conservation",
        rel <= 1e-12 and elapsed <= 10.0,
        f"interior div(eps E) drift {rel:.3e} relative to field norm in {elapsed:.1f}s",
    )


def test_criterion_03_dissipativity(run3):
    dE = np.diff(run3.trace.E_xi)
    worst = float(dE.max())
    report(
        "3 dissipativity",
        worst <= 1e-12,
        f"max E_xi increase {worst:.3e} over {len(dE)} records (xi = {run3.xi})",
    )


def test_criterion_04_two_sided_bound(run3):
    k = run3.diss
    assert (k.c1E, k.c2E) == (pytest.approx(0.25), pytest.approx(1.75))
    rep = analysis.lemma31_check(run3.trace, k, slack=1.05)
    report(
        "4 two-sided dissipation bound",
        rep.passed and rep.n_pairs >= 10_000,
        f"worst margins upper {rep.worst_upper:.3e} lower {rep.worst_lower:.3e} "
        f"over {rep.n_pairs} pairs at slack 1.05",
    )


@pytest.fixture(scope="session")
def obs3(run3):
    k = run3.diss
    return analysis.observability_constants(
        alpha=run3.report.alpha,
        d1=run3.report.d1,
        beta=run3.report.beta,
        m_sup=run3.report.m_sup,
        lambda_max_eps=run3.report.lambda_max_eps,
        lambda_max_mu=run3.report.lambda_max_mu,
        c2=k.c2,
        gamma1=k.gamma1,
        gamma2=k.gamma2,
        xi=k.xi,
        tau=TAU,
    )


def test_criterion_05_observability(run3, obs3):
    rep = analysis.lemma32_check(run3.trace, obs3, T=run3.trace.t[-1], slack=1.10)
    report(
        "5 observability",
        rep.passed,
        f"ratio LHS/RHS = {rep.ratio:.3f} with c = {obs3.c:.4f}, c_T = {obs3.c_T:.4f}",
    )


def test_criterion_06_decay_rates():
    rates = {}
    for gamma2 in (0.0, 0.25, 0.5):
        law = FeedbackLaw(kind="linear", a=1.0, gamma1=1.0, gamma2=gamma2, tau=TAU)
        out = run(steps_scenario(law, 2000))
        t_end = out.trace.t[-1]
        lam, _, r2 = analysis.fit_decay(out.trace, (t_end / 3.0, t_end))
        rates[gamma2] = (lam, r2)
        assert lam > 0, f"gamma2={gamma2}: rate {lam}"
        assert r2 >= 0.99, f"gamma2={gamma2}: R^2 {r2}"
    lams = [rates[g][0] for g in (0.0, 0.25, 0.5)]
    trend = "non-increasing" if lams[0] >= lams[1] >= lams[2] else "not monotone"
    report(
        "6 decay reproduction",
        True,
        "; ".join(
            f"gamma2={g}: lambda={rates[g][0]:.4f}, R2={rates[g][1]:.5f}" for g in rates
        )
        + f"; trend in gamma2: {trend} (reported, not asserted)",
    )


def test_criterion_07_certificate_pipeline(run3, obs3):
    k = run3.diss
    T = float(run3.trace.t[-1])
    assert T > 4.0 * obs3.c
    # the chain at the default slacks 1.05 and 1.10: both hypotheses, then the contraction step
    block, failures = analysis.certify(run3.trace, run3.report, k, TAU, analysis.AnalysisOptions(), T=T)
    c_tilde = (obs3.c_T + obs3.c * k.c2E) / k.c1E
    gamma = c_tilde / (c_tilde + T / 2.0)
    lam = -np.log(gamma) / T
    arithmetic_ok = (
        abs(block["certificate_gamma"] - gamma) <= 1e-12 and abs(block["certificate_lambda"] - lam) <= 1e-12
    )

    synth_t = np.linspace(0.0, 4.0, 100)
    synth = analysis.appendix_analyze(synth_t, np.exp(-synth_t), 1.0, 1.0, c=0.5, c_T=0.5, T=4.0)
    synth_ok = (
        abs(synth.c_tilde - 1.0) <= 1e-12
        and abs(synth.gamma - 1.0 / 3.0) <= 1e-12
        and abs(synth.lam - np.log(3.0) / 4.0) <= 1e-12
    )
    report(
        "7 certificate pipeline",
        block["certificate"] == "pass" and not failures and arithmetic_ok and synth_ok,
        f"run certificate gamma={block['certificate_gamma']:.6f}, lambda={block['certificate_lambda']:.6f}; "
        f"synthetic gamma=1/3, lambda=ln(3)/4 reproduced",
    )


def test_criterion_08_generator_monotonicity():
    start = time.monotonic()
    dom = BoxDomain((1.0, 1.0, 1.0), (8, 8, 8), (0.5, 0.5, 0.5))
    grid = build_grid(dom)
    ops = build_operators(grid, constant_isotropic(grid, 1.0), constant_isotropic(grid, 1.0))
    mins = {}
    for name, law in (
        ("linear", FeedbackLaw(kind="linear", a=1.0, gamma1=1.0, gamma2=0.5, tau=TAU)),
        ("saturating", FeedbackLaw(kind="saturating", a=1.0, b=1.0, gamma1=1.0, gamma2=0.5, tau=TAU)),
    ):
        mono = constants(law)
        k = generator_constants(law.gamma1, law.gamma2, mono.c1, mono.c2, law.tau)
        rep = monotonicity_test(ops, law, k, n_pairs=1000, seed=2024, M=16)
        mins[name] = rep.min_normalized
        assert rep.passed

    strong = FeedbackLaw(kind="linear", a=1.0, gamma1=1.0, gamma2=2.0, tau=TAU)
    ks = generator_constants(1.0, 2.0, 1.0, 1.0, TAU)
    assert ks.c_weight > 0
    neg = monotonicity_test(
        ops, strong, ks, n_pairs=50, seed=2024, M=16, C_shift=0.0, z_interior_boost=4.0
    )
    elapsed = time.monotonic() - start
    report(
        "8 generator monotonicity",
        all(v >= -1e-10 for v in mins.values())
        and np.any(neg.pairings[:, 2] < 0)
        and elapsed <= 60.0,
        f"min pairings {mins} over 1000 pairs each; negative control found "
        f"{int((neg.pairings[:, 2] < 0).sum())}/50 negatives in {elapsed:.1f}s",
    )


def test_criterion_09_resolvent():
    dom = BoxDomain((1.0, 1.0, 1.0), (8, 8, 8), (0.5, 0.5, 0.5))
    grid = build_grid(dom)
    ops = build_operators(grid, constant_isotropic(grid, 1.0), constant_isotropic(grid, 1.0))
    from delayfdtd.solver import project_div_free

    M, b = 16, 2.0
    rng = np.random.default_rng(99)
    F = ExtState(
        q=project_div_free(rng.standard_normal(ops.layout.n_q), ops),
        h=rng.standard_normal(ops.layout.n_h),
        Z=nu_cross_nodes(ops.grid.samples, random_tangential(ops, rng, shape=(M + 1,)).transpose(1, 0, 2)),
    )
    lin = FeedbackLaw(kind="linear", a=1.0, gamma1=1.0, gamma2=0.5, tau=TAU)
    res = resolvent_solve(F, b, ops, lin)

    w = ops.layout.trace_view(res.V.q)
    s_nodes = np.arange(M + 1) / M
    growth = np.exp(TAU * b * s_nodes)
    integrand = F.Z * growth[None, :, None]
    T = np.zeros_like(F.Z)
    for j in range(1, M + 1):
        T[:, j] = T[:, j - 1] + 0.5 / M * (integrand[:, j] + integrand[:, j - 1])
    z_mismatch = float(np.abs(res.V.Z - (w[:, None, :] + TAU * T) / growth[None, :, None]).max())

    sat = FeedbackLaw(kind="saturating", a=1.0, b=1.0, gamma1=1.0, gamma2=0.5, tau=TAU)
    res_sat = resolvent_solve(F, b, ops, sat)
    report(
        "9 resolvent",
        res.residual <= 1e-8 and z_mismatch <= 1e-12 and res_sat.outer_iterations <= 100,
        f"linear residual {res.residual:.2e}, Z formula mismatch {z_mismatch:.2e}, "
        f"saturating converged in {res_sat.outer_iterations} outer iterations "
        f"(residual {res_sat.residual:.2e})",
    )


def test_criterion_10_hypothesis_gate(tmp_path):
    base = """
[domain]
Lx = 1.0
Ly = 1.0
Lz = 1.0
nx = 8
ny = 8
nz = 8

[feedback]
gamma1 = 1.0
gamma2 = 1.5
tau = 0.25

[initial]
preset = gaussian_pulse
width = 0.15

[run]
t_end = 0.5
cfl_safety = 0.5

[output]
dir = {out}
"""
    auto = tmp_path / "auto.cfg"
    auto.write_text(base.format(out=tmp_path / "auto_out"))
    err = io.StringIO()
    with redirect_stderr(err):
        code = main(["run", str(auto)])
    cites = "gamma1*c1 > gamma2*c2" in err.getvalue()

    explicit = tmp_path / "explicit.cfg"
    explicit.write_text(base.format(out=tmp_path / "exp_out") + "\n[analysis]\nxi = 0.9\n")
    code2 = main(["run", str(explicit)])
    summary = (tmp_path / "exp_out" / "summary.txt").read_text()
    no_cert = "certificate = none" in summary
    report(
        "10 hypothesis gate",
        code == 3 and cites and code2 == 0 and no_cert,
        f"auto-xi exit code {code} citing the admissibility condition; "
        f"explicit-xi run exits {code2} with no decay certificate",
    )


def test_criterion_11_green_identity(ops8):
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(100):
        q = rng.standard_normal(ops8.layout.n_q)
        h = rng.standard_normal(ops8.layout.n_h)
        # compatible pair: the H trace is the one the boundary relation demands
        law = FeedbackLaw(kind="saturating", a=1.0, b=1.0, gamma1=1.0, gamma2=0.5, tau=TAU)
        w = boundary_trace_w(ops8, q)
        h_tr = required_H_trace(law, w, random_tangential(ops8, rng), ops8.grid.samples.normals)
        worst = max(worst, green_residual(ops8, q, h, h_tr))
    report("11 discrete Green identity", worst <= 1e-10, f"worst relative residual {worst:.3e}")
