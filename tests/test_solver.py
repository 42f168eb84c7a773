import dataclasses

import numpy as np
import pytest

from delayfdtd.delay import init_history
from delayfdtd.domain import BoxDomain, build_grid
from delayfdtd.errors import AssumptionError, ConfigError, NumericalError
from delayfdtd.feedback import FeedbackLaw
from delayfdtd.materials import constant_diagonal, constant_full, constant_isotropic, diagonal_ramp
from delayfdtd.operators import build_operators, sample_vector_field
from delayfdtd.solver import (
    AnalysisOptions,
    EMState,
    HistorySpec,
    InitialSpec,
    MaterialSpec,
    RunControls,
    Scenario,
    Stepper,
    compute_dt,
    gaussian_pulse_q,
    initial_state_q,
    project_div_free,
    run,
)

UNIT = BoxDomain((1.0, 1.0, 1.0), (12, 12, 12), (0.5, 0.5, 0.5))
PMC = FeedbackLaw(kind="linear", a=1.0, gamma1=0.0, gamma2=0.0, tau=0.25)
DAMPED = FeedbackLaw(kind="linear", a=1.0, gamma1=1.0, gamma2=0.0, tau=0.25)


def small_scenario(law=DAMPED, steps=50, n=8, safety=0.5, **kw):
    dom = BoxDomain((1.0, 1.0, 1.0), (n, n, n), (0.5, 0.5, 0.5))
    grid = build_grid(dom)
    eps = constant_isotropic(grid, 1.0)
    dt, _ = compute_dt(grid, eps, eps, safety, law.tau)
    return Scenario(
        domain=dom,
        law=law,
        initial=InitialSpec(preset="gaussian_pulse", width=0.15),
        run=RunControls(t_end=steps * dt, cfl_safety=safety, **kw),
    )


# -- compute_dt --------------------------------------------------------------

def test_compute_dt_unit_cube_32():
    dom = BoxDomain((1, 1, 1), (32, 32, 32), (0.5, 0.5, 0.5))
    grid = build_grid(dom)
    eps = constant_isotropic(grid, 1.0)
    dt, n_slots = compute_dt(grid, eps, eps, 0.95, 0.25)
    # dt_raw = 0.95/(32 sqrt(3)) ~ 0.01714 -> N = 15, dt = 1/60
    assert n_slots == 15
    assert dt == pytest.approx(1.0 / 60.0, abs=1e-15)

    dt, n_slots = compute_dt(grid, eps, eps, 1.0, 0.25)
    assert n_slots == 14
    assert dt == pytest.approx(0.25 / 14, abs=1e-15)


def test_compute_dt_commensurate():
    dom = BoxDomain((1, 1, 1), (16, 16, 16), (0.5, 0.5, 0.5))
    grid = build_grid(dom)
    eps = constant_isotropic(grid, 1.0)
    dt_raw = 0.5 / (np.sqrt(3.0) * 16)
    dt, n_slots = compute_dt(grid, eps, eps, 0.5, 10 * dt_raw)
    assert n_slots == 10
    assert dt == pytest.approx(dt_raw, rel=1e-14)


def test_compute_dt_material_speed():
    dom = BoxDomain((1, 1, 1), (16, 16, 16), (0.5, 0.5, 0.5))
    grid = build_grid(dom)
    eps = constant_isotropic(grid, 4.0)
    mu = constant_isotropic(grid, 1.0)
    dt4, _ = compute_dt(grid, eps, mu, 0.5, 0.25)
    eps1 = constant_isotropic(grid, 1.0)
    dt1, _ = compute_dt(grid, eps1, mu, 0.5, 0.25)
    assert dt4 > dt1  # slower medium allows a larger step

    with pytest.raises(ConfigError):
        compute_dt(grid, eps, mu, 0.5, 0.0)


# -- projection ---------------------------------------------------------------

@pytest.fixture(scope="module")
def ramp_ops():
    grid = build_grid(BoxDomain((1, 1, 1), (8, 8, 8), (0.5, 0.5, 0.5)))
    eps = diagonal_ramp(grid, (1.0, 1.0, 1.0), axis=0, slope=1.0, entry=0)
    return build_operators(grid, eps, constant_isotropic(grid, 1.0))


def test_projection_idempotent(ramp_ops):
    rng = np.random.default_rng(0)
    q = project_div_free(rng.standard_normal(ramp_ops.layout.n_q), ramp_ops)
    q2 = project_div_free(q, ramp_ops)
    assert np.abs(q - q2).max() <= 1e-10 * (1 + np.abs(q).max())


def test_projection_annihilates_gradients(ops8):
    nx, ny, nz = ops8.grid.shape
    dx, dy, dz = ops8.grid.spacings
    xi = np.arange(1, nx) * dx
    X, Y, Z = np.meshgrid(xi, xi, xi, indexing="ij")
    psi = (X * (1 - X) * Y * (1 - Y) * Z * (1 - Z)).ravel()
    q = ops8.grad_int @ psi
    q0 = project_div_free(q, ops8)
    assert np.abs(q0).max() <= 1e-9


def test_projection_kills_divergence(ramp_ops):
    rng = np.random.default_rng(1)
    q0 = project_div_free(rng.standard_normal(ramp_ops.layout.n_q), ramp_ops)
    assert np.abs(ramp_ops.div_eps @ q0).max() <= 1e-10 * np.abs(q0).max() / 0.125


def test_projection_preserves_traces(ops8):
    rng = np.random.default_rng(2)
    q = rng.standard_normal(ops8.layout.n_q)
    q0 = project_div_free(q, ops8)
    tr = ops8.layout.trace_offset
    assert np.array_equal(q[tr:], q0[tr:])


# -- stepping -----------------------------------------------------------------

def test_zero_state_is_fixed_point(ops8):
    law = FeedbackLaw(kind="saturating", a=1.0, b=1.0, gamma1=1.0, gamma2=0.5, tau=0.25)
    dt, n_slots = compute_dt(ops8.grid, ops8.eps, ops8.mu, 0.5, law.tau)
    stepper = Stepper(ops8, law, dt)
    state = stepper.bootstrap(np.zeros(ops8.layout.n_q))
    ring = init_history("zero", n_slots, ops8.grid.samples.normals)
    for _ in range(10):
        stepper.step(state, ring)
    assert np.abs(state.q).max() == 0.0
    assert np.abs(state.h).max() == 0.0


def test_pmc_interior_update_matches_damped(ops8):
    # the interior stencil is independent of the boundary gains
    rng = np.random.default_rng(4)
    q0 = rng.standard_normal(ops8.layout.n_q)
    states = {}
    for name, law in (("pmc", PMC), ("damped", DAMPED)):
        dt, n_slots = compute_dt(ops8.grid, ops8.eps, ops8.mu, 0.5, law.tau)
        stepper = Stepper(ops8, law, dt)
        state = stepper.bootstrap(q0)
        ring = init_history("zero", n_slots, ops8.grid.samples.normals)
        stepper.step(state, ring)
        states[name] = state
    tr = ops8.layout.trace_offset
    # H update after one E step differs only through the boundary traces;
    # the first interior E update is identical
    assert np.array_equal(states["pmc"].q[:tr], states["damped"].q[:tr])


def test_single_step_hand_stencil():
    # manufactured linear-in-space E with eps = mu = 1: one H half-step must
    # reproduce the hand-evaluated curl at a face
    dom = BoxDomain((1, 1, 1), (6, 6, 6), (0.5, 0.5, 0.5))
    grid = build_grid(dom)
    eps = constant_isotropic(grid, 1.0)
    ops = build_operators(grid, eps, eps)

    def lin(p):
        x, y, z = p[..., 0], p[..., 1], p[..., 2]
        return np.stack([0 * x, 2.0 * x, 0 * x], axis=-1)  # curl = (0, 0, 2)

    q0 = sample_vector_field(ops, lin)
    dt, _ = compute_dt(grid, eps, eps, 0.5, 0.25)
    stepper = Stepper(ops, PMC, dt)
    state = stepper.bootstrap(q0)
    hz = ops.layout.split_h(state.h)[2]
    assert hz[2, 3, 3] == pytest.approx(-0.5 * dt * 2.0, rel=1e-12)


def test_divergence_conserved_diag_ramp():
    dom = BoxDomain((1, 1, 1), (8, 8, 8), (0.5, 0.5, 0.5))
    grid = build_grid(dom)
    eps = diagonal_ramp(grid, (1.0, 1.0, 1.0), axis=0, slope=1.0, entry=0)
    mu = constant_isotropic(grid, 1.0)
    ops = build_operators(grid, eps, mu)
    spec = InitialSpec(preset="gaussian_pulse", width=0.15)
    q = gaussian_pulse_q(ops, spec)
    dt, n_slots = compute_dt(grid, eps, mu, 0.5, 0.25)
    stepper = Stepper(ops, DAMPED, dt)
    state = stepper.bootstrap(q)
    ring = init_history("zero", n_slots, grid.samples.normals)
    div0 = ops.div_eps @ state.q
    scale = np.abs(state.q).max() / 0.125
    for _ in range(100):
        stepper.step(state, ring)
    drift = np.abs(ops.div_eps @ state.q - div0).max()
    assert drift <= 1e-12 * scale


def test_ring_slot0_tracks_boundary_trace(ops8):
    rng = np.random.default_rng(9)
    law = DAMPED
    dt, n_slots = compute_dt(ops8.grid, ops8.eps, ops8.mu, 0.5, law.tau)
    stepper = Stepper(ops8, law, dt)
    state = stepper.bootstrap(project_div_free(rng.standard_normal(ops8.layout.n_q), ops8))
    ring = init_history("zero", n_slots, ops8.grid.samples.normals)
    for _ in range(5):
        stepper.step(state, ring)
        w = ops8.boundary_trace_w(state.q)
        assert np.abs(ring.slot(0) - w).max() <= 1e-14


def test_run_zero_steps():
    sc = small_scenario(steps=0)
    sc = Scenario(domain=sc.domain, law=sc.law, initial=sc.initial,
                  run=RunControls(t_end=0.0, cfl_safety=0.5))
    out = run(sc)
    assert len(out.trace.t) == 1
    assert out.state.step == 0


def test_run_determinism():
    sc = small_scenario(steps=40)
    a = run(sc).trace.to_csv()
    b = run(sc).trace.to_csv()
    assert a == b


def test_cfl_override_gate():
    with pytest.raises(ConfigError):
        RunControls(t_end=1.0, cfl_safety=1.05)
    RunControls(t_end=1.0, cfl_safety=1.05, unsafe=True)


def test_hypothesis_gate_raises():
    law = FeedbackLaw(kind="linear", a=1.0, gamma1=0.5, gamma2=1.0, tau=0.25)
    sc = small_scenario(law=law, steps=10)
    with pytest.raises(AssumptionError, match="gamma1\\*c1 > gamma2\\*c2"):
        run(sc)


def test_explicit_xi_bypasses_gate():
    law = FeedbackLaw(kind="linear", a=1.0, gamma1=0.5, gamma2=1.0, tau=0.25)
    base = small_scenario(law=law, steps=10)
    sc = Scenario(
        domain=base.domain, law=law, initial=base.initial, run=base.run,
        analysis=AnalysisOptions(xi=0.25),
    )
    out = run(sc)
    assert out.diss is None  # runs, but carries no admissible constants


def test_lagged_boundary_mode_runs():
    sc = small_scenario(steps=30, boundary_mode="lagged")
    out = run(sc)
    assert out.trace.E_xi[-1] < out.trace.E_xi[0]


def test_full_tensor_step_smoke():
    dom = BoxDomain((1, 1, 1), (6, 6, 6), (0.5, 0.5, 0.5))
    sc = Scenario(
        domain=dom,
        eps=MaterialSpec(kind="constant_full", upper=(2.0, 1.5, 1.8, 0.2, 0.1, 0.15)),
        law=DAMPED,
        initial=InitialSpec(preset="gaussian_pulse", width=0.15, project=False),
        run=RunControls(t_end=0.5, cfl_safety=0.4),
    )
    out = run(sc)
    assert np.all(np.isfinite(out.trace.E_weighted))
    assert out.trace.E_weighted[-1] < 1.5 * out.trace.E_weighted[0]


def test_unsafe_flag_lets_failed_checks_run():
    dom = BoxDomain((1, 1, 1), (8, 8, 8), (0.5, 0.5, 0.5))
    sc = Scenario(
        domain=dom,
        eps=MaterialSpec(kind="exponential_isotropic", k=-10.0),
        law=DAMPED,
        initial=InitialSpec(preset="off"),
        run=RunControls(t_end=0.1, cfl_safety=0.5),
    )
    with pytest.raises(AssumptionError):
        run(sc)
    sc_unsafe = Scenario(
        domain=sc.domain, eps=sc.eps, law=sc.law, initial=sc.initial,
        run=RunControls(t_end=0.1, cfl_safety=0.5, unsafe=True),
    )
    run(sc_unsafe)


@pytest.mark.parametrize(
    "safety,gamma1", [(0.5, 3.0), (0.5, 4.0), (0.5, 8.0), (0.9, 2.0), (0.9, 64.0)]
)
def test_saturating_gains_across_admissible_region(safety, gamma1):
    # gamma1 c1 > gamma2 c2 at every point; the old damped fixed point
    # stopped converging at all of them.  The replayed history agrees with
    # the initial trace at s = 0, so the discrete E_xi balance holds from
    # the first step and E_xi may not rise at any step.
    law = FeedbackLaw(kind="saturating", a=1.0, b=1.0, gamma1=gamma1, gamma2=gamma1 / 4, tau=0.25)
    sc = Scenario(
        domain=BoxDomain((1.0, 1.0, 1.0), (8, 8, 8), (0.5, 0.5, 0.5)),
        law=law,
        history=HistorySpec(kind="replay"),
        initial=InitialSpec(preset="gaussian_pulse", width=0.15, amplitude=1.0),
        run=RunControls(t_end=2.0, cfl_safety=safety),
    )
    e_xi = run(sc).trace.E_xi
    assert np.max(np.diff(e_xi)) <= 1e-10 * e_xi[0]


def test_full_tensor_path_matches_diagonal_path():
    # a diagonal tensor sent down the full-tensor path (collocated interior
    # update, (S, 2, 2) trace block) must reproduce the diagonal path
    grid = build_grid(BoxDomain((1, 1, 1), (6, 6, 6), (0.5, 0.5, 0.5)))
    eps = constant_diagonal(grid, (2.0, 1.5, 1.8))
    mu = constant_isotropic(grid, 1.0)
    law = FeedbackLaw(kind="saturating", a=1.0, b=1.0, gamma1=2.0, gamma2=0.5, tau=0.25)
    dt, n_slots = compute_dt(grid, eps, mu, 0.5, law.tau)
    q0 = np.random.default_rng(12).standard_normal(build_operators(grid, eps, mu).layout.n_q)
    states = []
    for e in (eps, dataclasses.replace(eps, diagonal_only=False)):
        ops = build_operators(grid, e, mu)
        stepper = Stepper(ops, law, dt)
        assert stepper._diag == e.diagonal_only
        state = stepper.bootstrap(q0)
        ring = init_history(
            "replay", n_slots, grid.samples.normals, initial_trace=ops.boundary_trace_w(q0)
        )
        for _ in range(20):
            stepper.step(state, ring)
        states.append(state)
    diag, full = states
    assert np.max(np.abs(full.q - diag.q)) <= 1e-12 * np.max(np.abs(diag.q))
    assert np.max(np.abs(full.h - diag.h)) <= 1e-12 * np.max(np.abs(diag.h))


def test_overflow_names_the_energy_column():
    # an energy that overflows stops the run at that record, without numpy
    # overflow warnings, and the error names the column
    law = FeedbackLaw(kind="linear", a=1.0, gamma1=1.0, gamma2=0.0, tau=0.25)
    base = small_scenario(law=law, steps=5)
    sc = dataclasses.replace(base, initial=dataclasses.replace(base.initial, amplitude=1e160))
    with pytest.raises(NumericalError, match="non-finite energy column E_weighted at step 0"):
        run(sc)
