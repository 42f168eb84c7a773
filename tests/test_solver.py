import dataclasses
import tracemalloc

import numpy as np
import pytest

from delayfdtd.analysis import energies
from delayfdtd.delay import DelayRing, init_history
from delayfdtd.domain import BoxDomain, build_grid
from delayfdtd.errors import AssumptionError, ConfigError, NumericalError
from delayfdtd.feedback import FeedbackLaw, implicit_boundary_update
from delayfdtd.materials import (
    TensorField,
    constant_diagonal,
    constant_full,
    constant_isotropic,
    diagonal_ramp,
    exponential_isotropic,
)
from delayfdtd.operators import FieldLayout, build_operators, full_tensor_inverses, sample_vector_field
from delayfdtd.solver import (
    MAX_RING_SAMPLE_SLOTS,
    AnalysisOptions,
    EMState,
    HistorySpec,
    InitialSpec,
    MaterialSpec,
    NodeLaplacian,
    RunControls,
    Scenario,
    Stepper,
    compute_dt,
    gaussian_pulse_q,
    initial_state_q,
    project_div_free,
    run,
)

from conftest import split_full_edges, split_h, to_components, to_vectors

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


def test_compute_dt_refuses_a_ring_beyond_its_bound():
    # the bound is checked on the slot count alone, so neither call allocates a ring
    grid = build_grid(BoxDomain((1, 1, 1), (6, 6, 6), (0.5, 0.5, 0.5)))
    eps = constant_isotropic(grid, 1.0)
    dt_raw = 0.5 / (np.sqrt(3.0) * 6)
    most = MAX_RING_SAMPLE_SLOTS // grid.samples.count - 1
    assert compute_dt(grid, eps, eps, 0.5, (most - 0.5) * dt_raw)[1] == most
    with pytest.raises(ConfigError, match=f"needs {most + 1} delay slots .* more than the {most} that fit"):
        compute_dt(grid, eps, eps, 0.5, (most + 0.5) * dt_raw)


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
    ring = init_history("zero", n_slots, ops8.grid.samples.count)
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
        ring = init_history("zero", n_slots, ops8.grid.samples.count)
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
    hz = split_h(ops.layout, state.h)[2]
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
    ring = init_history("zero", n_slots, grid.samples.count)
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
    ring = init_history("zero", n_slots, ops8.grid.samples.count)
    for _ in range(5):
        stepper.step(state, ring)
        assert np.abs(ring.slot(0) - ops8.layout.trace_view(state.q)).max() <= 1e-14


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


def test_digest_covers_the_feedback_table():
    dom = BoxDomain((1, 1, 1), (8, 8, 8), (0.5, 0.5, 0.5))
    r = (0.0, 1.0, 2.0)
    identity = Scenario(domain=dom, law=FeedbackLaw(kind="table", table_r=r, table_g=r))
    tripled = Scenario(
        domain=dom, law=FeedbackLaw(kind="table", table_r=r, table_g=tuple(3.0 * v for v in r))
    )
    assert identity.digest() != tripled.digest()
    assert identity.digest() == dataclasses.replace(identity).digest()


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
        ring = init_history("replay", n_slots, grid.samples.count, initial_trace=ops.layout.trace_view(q0))
        for _ in range(20):
            stepper.step(state, ring)
        states.append(state)
    diag, full = states
    assert np.max(np.abs(full.q - diag.q)) <= 1e-12 * np.max(np.abs(diag.q))
    assert np.max(np.abs(full.h - diag.h)) <= 1e-12 * np.max(np.abs(diag.h))


def test_overflow_names_the_energy_column():
    # an energy that overflows stops the run at that record, without numpy
    # overflow warnings, and the error names the column; the amplitude's
    # square is finite (`InitialSpec` rejects one that overflows), and the
    # weight eps = 1e10 takes the weighted energy past the largest float
    law = FeedbackLaw(kind="linear", a=1.0, gamma1=1.0, gamma2=0.0, tau=0.25)
    base = small_scenario(law=law, steps=5)
    sc = dataclasses.replace(
        base, eps=MaterialSpec(value=1e10), initial=dataclasses.replace(base.initial, amplitude=1e154)
    )
    with pytest.raises(NumericalError, match="non-finite energy column E_weighted at step 0"):
        run(sc)


# -- cross products on the tangent axes ------------------------------------------

def test_tangent_cross_matches_np_cross_on_every_face():
    s = build_grid(BoxDomain((2.0, 1.0, 1.5), (8, 5, 6), (1.0, 0.5, 0.75))).samples
    assert sorted(set(zip(s.axis.tolist(), s.side.tolist()))) == sorted(
        [(a, side) for a in range(3) for side in (-1, 1)]
    )
    rng = np.random.default_rng(21)
    comps = rng.standard_normal((s.count, 2))
    comps[::7, 0] = 0.0  # exact zeros map to zeros (of either sign)
    assert np.all(s.cross.cross_nu(comps) == np.cross(to_vectors(s, comps), s.normals))
    w = np.cross(to_vectors(s, rng.standard_normal((s.count, 2))), s.normals)
    assert np.all(s.cross.nu_cross(w) == to_components(s, np.cross(s.normals, w)))
    assert np.all(s.cross.nu_cross(s.cross.cross_nu(comps)) == comps)


def test_tangent_cross_turns_a_stack_as_its_slots():
    # a (K, S, .) stack turns in one call to the bytes of the per-slot loop,
    # zeros of either sign included
    s = build_grid(BoxDomain((2.0, 1.0, 1.5), (8, 5, 6), (1.0, 0.5, 0.75))).samples
    rng = np.random.default_rng(22)
    comps = rng.standard_normal((5, s.count, 2))
    comps[:, ::3, 0] = 0.0
    comps[:, ::5, 1] = -0.0
    vectors = rng.standard_normal((5, s.count, 3))
    vectors[:, ::4] = -0.0
    vectors[:, ::6, 1] = 0.0
    for turn, stack in ((s.cross.cross_nu, comps), (s.cross.nu_cross, vectors)):
        per_slot = np.stack([turn(slot) for slot in stack])
        whole = turn(stack)
        assert whole.shape == per_slot.shape
        assert whole.tobytes() == per_slot.tobytes()
        # any number of leading axes
        assert turn(stack.reshape(5, 1, *stack.shape[1:])).tobytes() == per_slot.tobytes()


class NpCross:
    """The np.cross form of `TangentCross`, the reference for the step."""

    def __init__(self, samples):
        self.s = samples

    def cross_nu(self, comps):
        return np.cross(to_vectors(self.s, comps), self.s.normals)

    def nu_cross(self, vectors):
        return to_components(self.s, np.cross(self.s.normals, vectors))


class VectorRing(DelayRing):
    """The delay ring over (N+1, S, 3) vectors Z = E x nu, with the same FIFO and caches."""

    def __init__(self, n_slots, n_samples):
        super().__init__(n_slots, n_samples)
        self._buf = np.zeros((self.N + 1, self.n_samples, 3))


def np_cross_step(stepper, state, ring):
    """Stepper.step on the diagonal path over a `VectorRing`, with every cross product by np.cross."""
    ops, dt = stepper.ops, stepper.dt
    cross = NpCross(ops.grid.samples)
    rhs = ops.G @ state.h
    z1_mid = 0.5 * (ring.slot(ring.N) + ring.slot(ring.N - 1))
    t_old = ops.layout.trace_view(state.q).copy()
    curl_term = ops.layout.trace_view(rhs)
    state.q[stepper._int_slice] += dt * rhs[stepper._int_slice] / ops.eps_q[stepper._int_slice]
    t_new = implicit_boundary_update(
        stepper.law, curl_term, t_old, cross.nu_cross(z1_mid), dt, stepper._eps_t, stepper._kappa
    )
    ops.layout.trace_view(state.q)[:] = t_new
    ring.advance(cross.cross_nu(t_new))
    state.h_prev = state.h.copy()
    state.h = state.h - dt * (ops.C @ state.q) / ops.mu_f
    return state


@pytest.mark.parametrize(
    "law",
    [
        FeedbackLaw(kind="linear", a=1.0, gamma1=1.0, gamma2=0.5, tau=0.25),
        FeedbackLaw(kind="saturating", a=1.0, b=1.0, gamma1=2.0, gamma2=0.5, tau=0.25),
    ],
    ids=["linear", "saturating"],
)
def test_cross_free_step_is_bit_identical(law):
    grid = build_grid(BoxDomain((2.0, 1.0, 1.5), (8, 5, 6), (1.0, 0.5, 0.75)))
    eps = diagonal_ramp(grid, (1.0, 1.5, 2.0), axis=0, slope=0.5)
    mu = constant_isotropic(grid, 1.0)
    ops = build_operators(grid, eps, mu)
    dt, n_slots = compute_dt(grid, eps, mu, 0.5, law.tau)
    q0 = np.random.default_rng(22).standard_normal(ops.layout.n_q)
    stepper = Stepper(ops, law, dt)
    got, ref = stepper.bootstrap(q0), stepper.bootstrap(q0)
    ring = init_history("replay", n_slots, grid.samples.count, initial_trace=ops.layout.trace_view(q0))
    ref_ring = VectorRing(n_slots, grid.samples.count)
    ref_ring.fill(NpCross(grid.samples).cross_nu(ops.layout.trace_view(q0)))
    for _ in range(20):
        stepper.step(got, ring)
        np_cross_step(stepper, ref, ref_ring)
        assert ring.s_energy().tobytes() == ref_ring.s_energy().tobytes()
        assert ring.slot_norm2(0).tobytes() == ref_ring.slot_norm2(0).tobytes()
        assert ring.slot_norm2(ring.N).tobytes() == ref_ring.slot_norm2(ring.N).tobytes()
    assert got.q.tobytes() == ref.q.tobytes()
    assert got.h.tobytes() == ref.h.tobytes()


# -- transform-preconditioned projection ------------------------------------------

PROJECTION_BOXES = {
    "box_8x5x6": ((2.0, 1.0, 1.5), (8, 5, 6)),
    "cube_16": ((1.0, 1.0, 1.0), (16, 16, 16)),
}
PROJECTION_EPS = {
    "constant_isotropic": (lambda g: constant_isotropic(g, 2.0), True),
    "constant_diagonal": (lambda g: constant_diagonal(g, (1.0, 10.0, 100.0)), True),
    "diagonal_ramp": (lambda g: diagonal_ramp(g, (1.0, 1.5, 2.0), axis=0, slope=1.0, entry=0), False),
    "exponential_k-10": (lambda g: exponential_isotropic(g, -10.0), False),
    "exponential_k-20": (lambda g: exponential_isotropic(g, -20.0), False),
}


def lu_projection(q, ops):
    """The sparse-LU projection the transform-preconditioned CG replaced."""
    import scipy.sparse.linalg as spla

    lu = spla.splu(
        (ops.div_eps @ ops.grad_int).tocsc(),
        permc_spec="MMD_AT_PLUS_A",
        diag_pivot_thresh=0.0,
        options=dict(SymmetricMode=True),
    )
    return q - ops.grad_int @ lu.solve(ops.div_eps @ q)


@pytest.mark.parametrize("eps_name", list(PROJECTION_EPS))
@pytest.mark.parametrize("box", list(PROJECTION_BOXES))
def test_projection_matches_sparse_lu(box, eps_name):
    lengths, cells = PROJECTION_BOXES[box]
    grid = build_grid(BoxDomain(lengths, cells, tuple(0.5 * L for L in lengths)))
    make_eps, constant = PROJECTION_EPS[eps_name]
    ops = build_operators(grid, make_eps(grid), constant_isotropic(grid, 1.0))
    q = np.random.default_rng(41).standard_normal(ops.layout.n_q)

    _, iterations = NodeLaplacian(ops).solve(ops.div_eps @ q)
    if constant:
        assert iterations == 1
    else:
        assert 1 <= iterations <= 30

    q0 = project_div_free(q, ops)
    scale = max(float(np.max(np.abs(ops.div_eps @ np.abs(q)))), 1.0)
    assert np.max(np.abs(ops.div_eps @ q0)) <= 1e-10 * scale
    ref = lu_projection(q, ops)
    assert np.max(np.abs(q0 - ref)) <= 1e-10 * np.max(np.abs(ref))



@pytest.mark.parametrize("eps_name", ["exponential_k-10", "exponential_k-20"])
@pytest.mark.parametrize("box", list(PROJECTION_BOXES))
def test_projection_shift_fit_absorbs_exponential_eps(box, eps_name):
    # eps = exp(k x): the scaled operator is a constant stencil plus a constant
    # shift, which the fitted preconditioner reproduces (13-26 iterations without it)
    lengths, cells = PROJECTION_BOXES[box]
    grid = build_grid(BoxDomain(lengths, cells, tuple(0.5 * L for L in lengths)))
    ops = build_operators(grid, PROJECTION_EPS[eps_name][0](grid), constant_isotropic(grid, 1.0))
    q = np.random.default_rng(45).standard_normal(ops.layout.n_q)
    _, iterations = NodeLaplacian(ops).solve(ops.div_eps @ q)
    assert iterations <= 3

def test_projection_survives_huge_amplitudes(ops8):
    # the CG runs on the normalized right-hand side, so r.z stays finite
    q = 1e160 * np.random.default_rng(42).standard_normal(ops8.layout.n_q)
    q0 = project_div_free(q, ops8)
    assert np.all(np.isfinite(q0))
    ref = lu_projection(q / 1e160, ops8)
    assert np.max(np.abs(q0 / 1e160 - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_projection_that_does_not_converge_raises(ops8, monkeypatch):
    import delayfdtd.solver as solver

    monkeypatch.setattr(solver, "CG_MAX_ITER", 0)
    q = np.random.default_rng(44).standard_normal(ops8.layout.n_q)
    with pytest.raises(NumericalError, match="divergence projection did not converge in 0 iterations"):
        project_div_free(q, ops8)


def test_projection_of_zero_is_zero(ops8):
    q0 = project_div_free(np.zeros(ops8.layout.n_q), ops8)
    assert not np.any(q0)


def test_dst_preconditioner_inverts_the_constant_laplacian(ops6):
    # ops6 has unequal cell counts per axis, so each axis transform is exercised
    lap = NodeLaplacian(ops6)
    x = np.random.default_rng(43).standard_normal(lap.shape).ravel()
    back = lap.precondition(lap.apply(x))
    assert np.max(np.abs(back - x)) <= 1e-13 * np.max(np.abs(x))


def two_pass_cg(apply, precondition, inv_diag, b, x0=None, atol=0.0):
    """solver.conjugate_gradients in two-pass form, the reference for its in-place updates.

    It forms z, p and alpha A p as new arrays each iteration, and calls
    `precondition` even for a Jacobi preconditioner.
    """
    from delayfdtd.solver import CG_RTOL

    bmax = float(np.max(np.abs(b)))
    r = b / bmax
    stop = max(CG_RTOL * float(np.max(np.abs(inv_diag * r))), atol / bmax)
    x = np.zeros_like(r) if x0 is None else x0 / bmax
    if x0 is not None:
        r -= apply(x)
    it, rz = 0, 0.0
    while float(np.max(np.abs(inv_diag * r))) > stop:
        z = precondition(r)
        rz, rz_old = float(np.sum(r * z)), rz
        p = z if it == 0 else z + (rz / rz_old) * p
        it += 1
        Ap = apply(p)
        alpha = rz / float(np.sum(p * Ap))
        x += alpha * p
        r -= alpha * Ap
    return bmax * x, it


@pytest.mark.parametrize("eps_name", ["diagonal_ramp", "exponential_k-10"])
def test_projection_cg_is_bit_identical_to_the_two_pass_loop(eps_name):
    lengths, cells = PROJECTION_BOXES["box_8x5x6"]
    grid = build_grid(BoxDomain(lengths, cells, tuple(0.5 * L for L in lengths)))
    ops = build_operators(grid, PROJECTION_EPS[eps_name][0](grid), constant_isotropic(grid, 1.0))
    lap = NodeLaplacian(ops)
    b = ops.div_eps @ np.random.default_rng(46).standard_normal(ops.layout.n_q)
    (x, it), (x_ref, it_ref) = lap.solve(b), two_pass_cg(lap.apply, lap.precondition, lap._inv_s, b)
    assert it == it_ref > 1
    assert x.tobytes() == x_ref.tobytes()


def test_core_cg_is_bit_identical_to_the_two_pass_loop(ops8):
    from delayfdtd.operator_lab import CoreCG, resolvent_core

    law = FeedbackLaw(kind="saturating", a=1.0, b=1.0, gamma1=1.0, gamma2=0.5, tau=0.25)
    cg = CoreCG(resolvent_core(ops8, law, 2.0), "resolvent core")
    rng = np.random.default_rng(47)
    b, x0 = rng.standard_normal((2, ops8.layout.n_q))

    def apply(p):
        return cg.A @ p

    def jacobi(r):
        return cg._inv_d * r

    for start, atol in ((None, 0.0), (x0, 0.0), (x0, 1e-6)):
        (x, it), (x_ref, it_ref) = cg.solve(b, start, atol), two_pass_cg(apply, jacobi, cg._inv_d, b, start, atol)
        assert it == it_ref > 0
        assert x.tobytes() == x_ref.tobytes()


def test_step_rebinds_h_prev_without_aliasing(ops8):
    law = FeedbackLaw(kind="linear", a=1.0, gamma1=1.0, gamma2=0.5, tau=0.25)
    dt, n_slots = compute_dt(ops8.grid, ops8.eps, ops8.mu, 0.5, law.tau)
    stepper = Stepper(ops8, law, dt)
    state = stepper.bootstrap(np.random.default_rng(44).standard_normal(ops8.layout.n_q))
    ring = init_history("zero", n_slots, ops8.grid.samples.count)
    for _ in range(3):
        h_before = state.h
        stepper.step(state, ring)
        assert state.h_prev is h_before
        assert not np.shares_memory(state.h, state.h_prev)


def test_record_times_are_exact_step_multiples():
    # t = n dt as one product per step, not a running sum of dt
    out = run(small_scenario(steps=200))
    n = len(out.trace.t)
    assert n == 201
    assert out.trace.t.tobytes() == (np.arange(n) * out.dt).tobytes()


def _traced_peak(fn, calls: int) -> int:
    """Peak bytes that `calls` calls of fn hold at once beyond what was live before them."""
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        for _ in range(calls):
            fn()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        if started:
            tracemalloc.stop()


def test_step_and_record_allocate_less_than_one_field_set():
    # in units of one q and one H: the step updates E and H in place, the
    # record forms one field product at a time
    grid = build_grid(BoxDomain((1.0, 1.0, 1.0), (10, 10, 10), (0.5, 0.5, 0.5)))
    eps = constant_isotropic(grid, 1.0)
    ops = build_operators(grid, eps, eps)
    law = FeedbackLaw(kind="linear", a=1.0, gamma1=1.0, gamma2=0.5, tau=0.25)
    dt, n_slots = compute_dt(grid, eps, eps, 0.5, law.tau)
    stepper = Stepper(ops, law, dt)
    state = stepper.bootstrap(np.random.default_rng(46).standard_normal(ops.layout.n_q))
    ring = init_history("zero", n_slots, grid.samples.count)
    stepper.step(state, ring)
    unit = 8 * (ops.layout.n_q + ops.layout.n_h)
    per_step = _traced_peak(lambda: stepper.step(state, ring), 5) / unit
    per_record = _traced_peak(lambda: energies(state.q, state.h, state.h_prev, ring, ops, 0.5, law.tau), 5) / unit
    assert per_step <= 1.5
    assert per_record <= 1.0


# -- assembled full-tensor inverse masses --------------------------------------
# The reference below is the stepper's former hand-written collocation: cell
# tensors averaged onto each site and inverted there, cross components of the
# field averaged to the site by slicing.


def _ref_collocate_edges(ex, ey, ez):
    """Cross components averaged to each interior edge site, as (..., 3)."""
    out = {}
    vec = np.zeros(ex[:, 1:-1, 1:-1].shape + (3,))
    vec[..., 1] = 0.25 * (ey[:-1, :-1, 1:-1] + ey[:-1, 1:, 1:-1] + ey[1:, :-1, 1:-1] + ey[1:, 1:, 1:-1])
    vec[..., 2] = 0.25 * (ez[:-1, 1:-1, :-1] + ez[:-1, 1:-1, 1:] + ez[1:, 1:-1, :-1] + ez[1:, 1:-1, 1:])
    vec[..., 0] = ex[:, 1:-1, 1:-1]
    out["x"] = vec
    vec = np.zeros(ey[1:-1, :, 1:-1].shape + (3,))
    vec[..., 0] = 0.25 * (ex[:-1, :-1, 1:-1] + ex[1:, :-1, 1:-1] + ex[:-1, 1:, 1:-1] + ex[1:, 1:, 1:-1])
    vec[..., 2] = 0.25 * (ez[1:-1, :-1, :-1] + ez[1:-1, :-1, 1:] + ez[1:-1, 1:, :-1] + ez[1:-1, 1:, 1:])
    vec[..., 1] = ey[1:-1, :, 1:-1]
    out["y"] = vec
    vec = np.zeros(ez[1:-1, 1:-1, :].shape + (3,))
    vec[..., 0] = 0.25 * (ex[:-1, 1:-1, :-1] + ex[1:, 1:-1, :-1] + ex[:-1, 1:-1, 1:] + ex[1:, 1:-1, 1:])
    vec[..., 1] = 0.25 * (ey[1:-1, :-1, :-1] + ey[1:-1, 1:, :-1] + ey[1:-1, :-1, 1:] + ey[1:-1, 1:, 1:])
    vec[..., 2] = ez[1:-1, 1:-1, :]
    out["z"] = vec
    return out


def _ref_collocate_faces(hx, hy, hz):
    """Cross components averaged to each face site (edge-replicated)."""

    def pad(a, axis):
        spec = [(0, 0)] * 3
        spec[axis] = (1, 1)
        return np.pad(a, spec, mode="edge")

    out = {}
    vec = np.zeros(hx.shape + (3,))
    py = pad(hy, 0)
    vec[..., 1] = 0.25 * (py[:-1, :-1, :] + py[:-1, 1:, :] + py[1:, :-1, :] + py[1:, 1:, :])
    pz = pad(hz, 0)
    vec[..., 2] = 0.25 * (pz[:-1, :, :-1] + pz[:-1, :, 1:] + pz[1:, :, :-1] + pz[1:, :, 1:])
    out["x"] = vec
    vec = np.zeros(hy.shape + (3,))
    px = pad(hx, 1)
    vec[..., 0] = 0.25 * (px[:-1, :-1, :] + px[1:, :-1, :] + px[:-1, 1:, :] + px[1:, 1:, :])
    pz = pad(hz, 1)
    vec[..., 2] = 0.25 * (pz[:, :-1, :-1] + pz[:, :-1, 1:] + pz[:, 1:, :-1] + pz[:, 1:, 1:])
    out["y"] = vec
    vec = np.zeros(hz.shape + (3,))
    px = pad(hx, 2)
    vec[..., 0] = 0.25 * (px[:-1, :, :-1] + px[1:, :, :-1] + px[:-1, :, 1:] + px[1:, :, 1:])
    py = pad(hy, 2)
    vec[..., 1] = 0.25 * (py[:, :-1, :-1] + py[:, 1:, :-1] + py[:, :-1, 1:] + py[:, 1:, 1:])
    out["z"] = vec
    return out


def _ref_cells_to_int_edges(vals, comp):
    if comp == "x":
        return 0.25 * (vals[:, :-1, :-1] + vals[:, 1:, :-1] + vals[:, :-1, 1:] + vals[:, 1:, 1:])
    if comp == "y":
        return 0.25 * (vals[:-1, :, :-1] + vals[1:, :, :-1] + vals[:-1, :, 1:] + vals[1:, :, 1:])
    return 0.25 * (vals[:-1, :-1, :] + vals[1:, :-1, :] + vals[:-1, 1:, :] + vals[1:, 1:, :])


def _ref_cells_to_faces(vals, comp):
    axis = "xyz".index(comp)
    spec = [(0, 0)] * 5
    spec[axis] = (1, 1)
    padded = np.pad(vals, spec, mode="edge")
    lo = [slice(None)] * 5
    hi = [slice(None)] * 5
    lo[axis] = slice(0, -1)
    hi[axis] = slice(1, None)
    return 0.5 * (padded[tuple(lo)] + padded[tuple(hi)])


def _ref_eps_inv_interior(ops, rhs):
    """eps^-1 rhs at interior edges, collocating cross components."""
    vals = 0.5 * (ops.eps.values + np.swapaxes(ops.eps.values, -1, -2))
    coll = _ref_collocate_edges(*split_full_edges(ops.layout, ops.R @ rhs))
    out = np.empty(ops.layout.trace_offset)
    for a, c in enumerate("xyz"):
        inv = np.linalg.inv(_ref_cells_to_int_edges(vals, c))
        res = np.einsum("...j,...j->...", inv[..., a, :], coll[c])
        o = ops.layout.int_offsets[c]
        out[o : o + res.size] = res.ravel()
    return out


def _ref_mu_inv_apply(ops, curl):
    """mu^-1 curl at faces, collocating cross components."""
    vals = 0.5 * (ops.mu.values + np.swapaxes(ops.mu.values, -1, -2))
    own = split_h(ops.layout, curl)
    coll = _ref_collocate_faces(*own)
    out = np.empty_like(curl)
    for a, c in enumerate("xyz"):
        inv = np.linalg.inv(_ref_cells_to_faces(vals, c))
        vec = coll[c]
        vec[..., a] = own[a]
        res = np.einsum("...j,...j->...", inv[..., a, :], vec)
        o = ops.layout.face_offsets[c]
        out[o : o + res.size] = res.ravel()
    return out


def _random_spd(grid, rng):
    """A heterogeneous symmetric positive definite tensor per cell."""
    a = rng.standard_normal(grid.shape + (3, 3))
    return TensorField.from_values(np.einsum("...ij,...kj->...ik", a, a) + 0.5 * np.eye(3))


@pytest.mark.parametrize("field", ["constant_full", "random_spd"])
def test_assembled_inverse_masses_match_collocation(field):
    # (2, 1, 1.5) over (8, 5, 6) cells: no spacing is a power of two and no
    # two axes agree, so an axis or reciprocal slip cannot cancel out
    grid = build_grid(BoxDomain((2.0, 1.0, 1.5), (8, 5, 6), (1.0, 0.5, 0.75)))
    rng = np.random.default_rng(45)
    if field == "constant_full":
        eps = constant_full(grid, (2.0, 1.5, 1.8, 0.2, 0.1, 0.15))
        mu = constant_full(grid, (1.2, 1.0, 1.4, -0.1, 0.05, 0.2))
    else:
        eps, mu = _random_spd(grid, rng), _random_spd(grid, rng)
    ops = build_operators(grid, eps, mu)
    eps_inv, mu_inv, eps_t = full_tensor_inverses(ops)
    assert eps_inv.shape == (ops.layout.trace_offset, ops.layout.n_q)
    assert mu_inv.shape == (ops.layout.n_h, ops.layout.n_h)
    for _ in range(3):
        rhs = rng.standard_normal(ops.layout.n_q)
        ref = _ref_eps_inv_interior(ops, rhs)
        assert np.max(np.abs(eps_inv @ rhs - ref)) <= 1e-14 * np.max(np.abs(ref))
        curl = rng.standard_normal(ops.layout.n_h)
        ref = _ref_mu_inv_apply(ops, curl)
        assert np.max(np.abs(mu_inv @ curl - ref)) <= 1e-14 * np.max(np.abs(ref))
    # the trace block inverts the tangential block of the cellwise inverse
    s = grid.samples
    vals = 0.5 * (eps.values + np.swapaxes(eps.values, -1, -2))
    cell_inv = np.linalg.inv(vals[tuple(s.cells.T)])
    for i in range(s.count):
        t = s.tangents[i]
        block = cell_inv[i][np.ix_(t, t)]
        assert np.allclose(eps_t[i] @ block, np.eye(2), rtol=0, atol=1e-14)


# -- the set-up memo ---------------------------------------------------------------
# `run` keeps the last run's grid, report, dt, operators and start; the
# builders are counted where `run_setup` looks them up.

MEMO_LAW = FeedbackLaw(kind="saturating", a=1.0, b=1.0, gamma1=1.0, gamma2=0.25, tau=0.25)
MEMO_BASE = Scenario(
    domain=BoxDomain((1.0, 1.0, 1.0), (6, 6, 6), (0.5, 0.5, 0.5)),
    law=MEMO_LAW,
    initial=InitialSpec(preset="gaussian_pulse", width=0.15),
    run=RunControls(t_end=0.1, cfl_safety=0.5),
)


@pytest.fixture
def operator_builds(monkeypatch):
    """The argument tuples of every `build_operators` call a run makes, from a cold memo."""
    import delayfdtd.solver as solver

    calls = []
    build = solver.build_operators

    def counted(*args):
        calls.append(args)
        return build(*args)

    monkeypatch.setattr(solver, "build_operators", counted)
    solver._SETUP.clear()
    yield calls
    solver._SETUP.clear()


def cold_csv(sc: Scenario) -> str:
    import delayfdtd.solver as solver

    solver._SETUP.clear()
    return run(sc).trace.to_csv()


def test_runs_that_differ_only_in_gains_share_one_set_up(operator_builds):
    first = run(MEMO_BASE).trace.to_csv()
    assert run(MEMO_BASE).trace.to_csv() == first
    other = dataclasses.replace(
        MEMO_BASE,
        law=dataclasses.replace(MEMO_LAW, gamma1=2.0, gamma2=0.5),
        history=HistorySpec(kind="replay"),
        run=dataclasses.replace(MEMO_BASE.run, t_end=0.2, record_every=2),
        analysis=AnalysisOptions(xi=0.4),
    )
    warm = run(other).trace.to_csv()
    assert len(operator_builds) == 1
    assert warm == cold_csv(other)


@pytest.mark.parametrize(
    "change",
    [
        dict(domain=BoxDomain((1.0, 1.0, 1.0), (6, 6, 7), (0.5, 0.5, 0.5))),
        dict(domain=BoxDomain((1.0, 1.0, 1.0), (6, 6, 6), (0.5, 0.5, 0.4))),
        dict(eps=MaterialSpec(value=2.0)),
        dict(mu=MaterialSpec(kind="constant_diagonal", diag=(1.0, 1.5, 2.0))),
        dict(initial=InitialSpec(preset="gaussian_pulse", width=0.2)),
    ],
    ids=["resolution", "star_center", "eps", "mu", "initial"],
)
def test_a_changed_set_up_input_rebuilds_the_set_up(operator_builds, change):
    run(MEMO_BASE)
    changed = dataclasses.replace(MEMO_BASE, **change)
    warm = run(changed).trace.to_csv()
    assert len(operator_builds) == 2
    assert warm == cold_csv(changed)


@pytest.mark.parametrize(
    "change",
    [
        dict(run=RunControls(t_end=0.1, cfl_safety=0.4)),
        dict(law=dataclasses.replace(MEMO_LAW, tau=0.3)),
    ],
    ids=["cfl_safety", "tau"],
)
def test_a_changed_step_input_shares_the_set_up(operator_builds, change):
    # each run computes its own dt from cfl_safety and tau; the set-up holds no step
    run(MEMO_BASE)
    changed = dataclasses.replace(MEMO_BASE, **change)
    warm = run(changed).trace.to_csv()
    assert len(operator_builds) == 1
    assert warm == cold_csv(changed)


@pytest.mark.parametrize("kind", ["material", "start"])
def test_a_rewritten_input_file_is_read_again(tmp_path, operator_builds, kind):
    path = tmp_path / "input.txt"
    if kind == "material":
        sc = dataclasses.replace(MEMO_BASE, eps=MaterialSpec(kind="file", path=str(path)))

        def write(version):  # a constant diagonal eps, one value per version
            d = f"{1.0 + 0.5 * version!r} 1.0 {1.0 + 0.25 * version!r}"
            path.write_text("".join(f"{i} {j} {k} {d}\n" for i, j, k in np.ndindex(6, 6, 6)))
    else:
        sc = dataclasses.replace(MEMO_BASE, initial=InitialSpec(preset="file", path=str(path)))
        n_q = FieldLayout(build_grid(MEMO_BASE.domain)).n_q

        def write(version):
            q = np.random.default_rng(version).standard_normal(n_q)
            path.write_text("\n".join(map(repr, q.tolist())) + "\n")

    write(1)
    first = run(sc).trace.to_csv()
    assert run(sc).trace.to_csv() == first
    assert len(operator_builds) == 1
    write(2)
    second = run(sc).trace.to_csv()
    assert len(operator_builds) == 2
    assert second != first
    assert second == cold_csv(sc)


def test_a_warm_set_up_keeps_the_material_check(operator_builds):
    failing = dataclasses.replace(
        MEMO_BASE, eps=MaterialSpec(kind="exponential_isotropic", k=-10.0), initial=InitialSpec(preset="off")
    )
    run(dataclasses.replace(failing, run=RunControls(t_end=0.1, cfl_safety=0.5, unsafe=True)))
    with pytest.raises(AssumptionError, match="material/geometry assumptions violated"):
        run(failing)
    assert len(operator_builds) == 1


def test_the_memo_holds_one_read_only_start(operator_builds):
    import delayfdtd.solver as solver

    run(MEMO_BASE)
    run(dataclasses.replace(MEMO_BASE, run=RunControls(t_end=0.1, cfl_safety=0.4)))
    (setup,) = solver._SETUP.values()
    assert not setup.q0.flags.writeable
