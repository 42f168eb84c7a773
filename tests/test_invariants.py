"""Cross-module invariants: stability margins, refinement behavior, scaling."""

import numpy as np
import pytest

from delayfdtd import analysis
from delayfdtd.domain import BoxDomain, build_grid
from delayfdtd.errors import NumericalError
from delayfdtd.feedback import FeedbackLaw
from delayfdtd.solver import (
    AnalysisOptions,
    InitialSpec,
    RunControls,
    Scenario,
    compute_dt,
    run,
)
from delayfdtd.materials import constant_isotropic

from conftest import xi_equivalence_bounds

TAU = 0.25
DAMPED = FeedbackLaw(kind="linear", a=1.0, gamma1=1.0, gamma2=0.0, tau=TAU)
SATURATING = FeedbackLaw(kind="saturating", a=1.0, b=1.0, gamma1=1.0, gamma2=0.25, tau=TAU)


def cube_scenario(n, law, n_steps, safety=0.5, amplitude=1.0, **kw):
    dom = BoxDomain((1.0, 1.0, 1.0), (n, n, n), (0.5, 0.5, 0.5))
    grid = build_grid(dom)
    eps = constant_isotropic(grid, 1.0)
    dt, _ = compute_dt(grid, eps, eps, safety, law.tau)
    return Scenario(
        domain=dom,
        law=law,
        initial=InitialSpec(preset="gaussian_pulse", width=0.15, amplitude=amplitude),
        run=RunControls(t_end=n_steps * dt, cfl_safety=safety, **kw),
        analysis=AnalysisOptions(**{k: v for k, v in kw.items() if k in ()}),
    )


def test_cfl_sharpness_negative_control():
    # above the stability bound the conservative run must diverge within
    # 2000 steps; the delay is chosen commensurate with the raw step so the
    # tau-snapping cannot pull the effective safety back below one
    dt_raw = 1.05 / (16.0 * np.sqrt(3.0))
    law = FeedbackLaw(kind="linear", a=1.0, gamma1=0.0, gamma2=0.0, tau=7 * dt_raw)
    sc = cube_scenario(16, law, 2000, safety=1.05, unsafe=True)
    try:
        out = run(sc)
        growth = out.trace.E_weighted[-1] / out.trace.E_weighted[0]
    except NumericalError:
        growth = np.inf  # overflowed to non-finite energy mid-run
    assert growth > 10.0


def test_cfl_snapped_step_never_exceeds_raw():
    dom = BoxDomain((1.0, 1.0, 1.0), (16, 16, 16), (0.5, 0.5, 0.5))
    grid = build_grid(dom)
    eps = constant_isotropic(grid, 1.0)
    for tau in (0.1, 0.25, 0.333, 1.0):
        dt, n_slots = compute_dt(grid, eps, eps, 0.95, tau)
        assert dt * n_slots == pytest.approx(tau, rel=1e-15)
        assert dt <= 0.95 / (16.0 * np.sqrt(3.0)) + 1e-15


def test_dissipation_residual_pmc_matches_drift():
    law = FeedbackLaw(kind="linear", a=1.0, gamma1=0.0, gamma2=0.0, tau=TAU)
    out = run(cube_scenario(12, law, 300))
    assert analysis.dissipation_residual(out.trace) <= 1e-4


def test_dissipation_residual_refines():
    # the trapezoid defect of the recorded outflow is second order in dt
    residuals = {}
    for n in (8, 16):
        sc = cube_scenario(n, DAMPED, n_steps=int(1.0 * n * np.sqrt(3) / 0.5), safety=0.5)
        out = run(sc)
        residuals[n] = analysis.dissipation_residual(out.trace)
    assert residuals[16] <= residuals[8] / 2.0


def test_saturating_law_monotone_decay():
    out = run(cube_scenario(10, SATURATING, 400))
    dE = np.diff(out.trace.E_xi)
    assert dE.max() <= 1e-12


def test_fit_decay_scale_invariance():
    lams = []
    for amp in (1.0, 10.0):
        out = run(cube_scenario(10, DAMPED, 600, amplitude=amp))
        t_end = out.trace.t[-1]
        lam, _, _ = analysis.fit_decay(out.trace, (t_end / 3.0, t_end))
        lams.append(lam)
    assert lams[0] == pytest.approx(lams[1], rel=0.02)


def test_xi_equivalence_bounds():
    out = run(cube_scenario(10, SATURATING, 300))
    lo, hi = xi_equivalence_bounds(out.trace, out.xi)
    tol = 1e-12 * max(1.0, out.trace.E_xi[0])
    assert lo >= -tol
    assert hi >= -tol


def test_energy_trace_metadata():
    out = run(cube_scenario(8, DAMPED, 20))
    md = out.trace.metadata
    assert md["tau"] == TAU
    assert md["n_slots"] >= 1
    assert md["dt"] * md["n_slots"] == pytest.approx(TAU, rel=1e-15)
    assert len(md["digest"]) == 16


def test_monotone_decay_heterogeneous_materials():
    # the exact energy balance is material-independent for diagonal tensors
    from delayfdtd.solver import MaterialSpec

    dom = BoxDomain((1.0, 1.0, 1.0), (10, 10, 10), (0.5, 0.5, 0.5))
    grid = build_grid(dom)
    eps_spec = MaterialSpec(kind="diagonal_ramp", diag=(1.0, 1.5, 1.2), axis=0, slope=1.0)
    mu_spec = MaterialSpec(kind="constant_diagonal", diag=(1.0, 2.0, 1.5))
    law = FeedbackLaw(kind="saturating", a=1.0, b=0.5, gamma1=1.0, gamma2=0.3, tau=0.25)
    dt, _ = compute_dt(grid, eps_spec.build(grid), mu_spec.build(grid), 0.5, law.tau)
    sc = Scenario(
        domain=dom,
        eps=eps_spec,
        mu=mu_spec,
        law=law,
        initial=InitialSpec(preset="gaussian_pulse", width=0.15),
        run=RunControls(t_end=300 * dt, cfl_safety=0.5),
    )
    out = run(sc)
    assert np.diff(out.trace.E_xi).max() <= 1e-12
    assert out.trace.E_xi[-1] < out.trace.E_xi[0]


def decay_ratio(n, law):
    """E_xi(1) / E_xi(0) on the n^3 unit cube from the pulse, with zero history."""
    dom = BoxDomain((1.0, 1.0, 1.0), (n, n, n), (0.5, 0.5, 0.5))
    sc = Scenario(
        domain=dom,
        law=law,
        initial=InitialSpec(preset="gaussian_pulse", width=0.15),
        # dt = tau / N, so t = 1 is exactly step 4N; only the end records are read
        run=RunControls(t_end=1.0, cfl_safety=0.5, record_every=10**9),
    )
    trace = run(sc).trace
    assert trace.t[-1] == pytest.approx(1.0, rel=1e-12)
    return trace.E_xi[-1] / trace.E_xi[0]


@pytest.mark.parametrize(
    "law",
    [
        FeedbackLaw(kind="linear", a=1.0, gamma1=1.0, gamma2=0.5, tau=TAU),
        FeedbackLaw(kind="saturating", a=1.0, b=1.0, gamma1=1.0, gamma2=0.25, tau=TAU),
    ],
    ids=["linear", "saturating"],
)
def test_damped_delayed_decay_converges_at_second_order(law):
    # with r(n) = r + C n^-p, the differences over the pairs (12, 24) and
    # (16, 32), both a doubling, stand in the ratio (16 / 12)^p; measured
    # p = 2.34 for the linear law and 2.31 for the saturating law
    r = {n: decay_ratio(n, law) for n in (12, 16, 24, 32)}
    order = np.log((r[12] - r[24]) / (r[16] - r[32])) / np.log(16 / 12)
    assert order >= 1.8
