import numpy as np
import pytest

from delayfdtd.domain import BoxDomain, build_grid
from delayfdtd.errors import ConfigError, NumericalError
from delayfdtd.feedback import FeedbackLaw
from delayfdtd.materials import diagonal_ramp, exponential_isotropic
from delayfdtd.operator_lab import (
    ExtState,
    _sbp_derivative,
    _z_from_formula,
    apply_generator,
    generator_constants,
    monotonicity_test,
    random_domain_state,
    random_forcing,
    resolvent_solve,
    s_derivative,
)
from delayfdtd.operators import build_operators, sample_vector_field
from delayfdtd.solver import project_div_free
from delayfdtd.operator_lab import weighted_inner

from conftest import (
    boundary_trace_w,
    form_pairing,
    inject_trace,
    nu_cross_nodes,
    random_tangential,
    required_H_trace,
    wepsilon_norm,
)

LINEAR = FeedbackLaw(kind="linear", a=1.0, gamma1=1.0, gamma2=0.5, tau=0.25)
SATURATING = FeedbackLaw(kind="saturating", a=1.0, b=1.0, gamma1=1.0, gamma2=0.5, tau=0.25)
TABLE = FeedbackLaw(
    kind="table", gamma1=1.0, gamma2=0.5, tau=0.25,
    table_r=(0.0, 0.5, 2.0, 4.0), table_g=(0.0, 1.0, 2.5, 3.0),
)
# the saturating law r + r/(1+r) sampled as a 33-row table on [0, 8]
_SAT_R = tuple(0.25 * i for i in range(33))
SATURATING_TABLE = FeedbackLaw(
    kind="table", gamma1=1.0, gamma2=0.5, tau=0.25,
    table_r=_SAT_R, table_g=tuple(r + r / (1 + r) for r in _SAT_R),
)


def random_F(ops, M, seed, project=True):
    rng = np.random.default_rng(seed)
    q = rng.standard_normal(ops.layout.n_q)
    if project:
        q = project_div_free(q, ops)
    h = rng.standard_normal(ops.layout.n_h)
    Z = random_tangential(ops, rng, shape=(M + 1,)).transpose(1, 0, 2)
    return ExtState(q=q, h=h, Z=nu_cross_nodes(ops.grid.samples, Z))


# -- generator constants --------------------------------------------------------

def test_generator_constants_mild_delay():
    k = generator_constants(1.0, 0.5, 1.0, 1.0, 0.25)
    assert k.xi_op == 1.0
    assert k.c_weight == 0.0
    assert k.C_shift == 1.0


def test_generator_constants_no_delay():
    k = generator_constants(1.0, 0.0, 1.0, 1.0, 0.25)
    assert k.c_weight == 0.0


def test_generator_constants_strong_delay():
    k = generator_constants(1.0, 2.0, 1.0, 1.0, 0.25)
    assert k.c_weight == pytest.approx(2 * np.log(2), rel=1e-12)
    assert k.C_shift == pytest.approx(2 * np.log(2) / 0.5 + 1.0, rel=1e-12)
    # the defining inequalities hold by construction
    assert 2 * np.sqrt((1.0 - k.xi_op / 2) * k.xi_op * np.exp(k.c_weight) / 2) >= 2.0 - 1e-12
    assert k.C_shift > k.c_weight / (2 * 0.25)


# -- generator application -------------------------------------------------------

def test_generator_zero_state(ops8):
    M = 8
    v = ExtState(
        q=np.zeros(ops8.layout.n_q),
        h=np.zeros(ops8.layout.n_h),
        Z=np.zeros((ops8.grid.samples.count, M + 1, 2)),
    )
    img = apply_generator(v, ops8, SATURATING)
    assert np.abs(img.q).max() == 0.0
    assert np.abs(img.h).max() == 0.0
    assert np.abs(img.Z).max() == 0.0


def test_generator_constant_field_compatible(ops8):
    # constant E with Z interpolating w -> -w satisfies the boundary relation
    # for the linear law with gamma1 = gamma2; the E image then vanishes
    law = FeedbackLaw(kind="linear", a=1.0, gamma1=1.0, gamma2=1.0, tau=0.25)
    M = 8
    q = sample_vector_field(ops8, lambda p: np.broadcast_to([1.0, 0.5, -0.25], p.shape))
    w = ops8.layout.trace_view(q)
    s_nodes = np.arange(M + 1) / M
    Z = w[:, None, :] * (1.0 - 2.0 * s_nodes)[None, :, None]
    v = ExtState(q=q, h=np.zeros(ops8.layout.n_h), Z=Z)
    img = apply_generator(v, ops8, law)
    assert np.abs(img.q).max() <= 1e-13
    # curl of a constant field vanishes
    assert np.abs(img.h).max() <= 1e-13
    # dZ/ds = -2 w / tau
    expect = -2.0 * w[:, None, :] / law.tau
    assert np.abs(img.Z - expect).max() <= 1e-12


def cross_generator(v, ops, law, c_weight):
    """apply_generator with the H trace formed by np.cross and injected as a q-sized vector."""
    s = ops.grid.samples
    w = boundary_trace_w(ops, v.q)
    h_tr = required_H_trace(law, w, s.cross.cross_nu(v.Z[:, -1]), s.normals)
    Aq = -(ops.G @ v.h + inject_trace(ops, h_tr)) / ops.eps_q
    Ah = (ops.C @ v.q) / ops.mu_f
    AZ = s_derivative(v.Z, c_weight)
    AZ /= law.tau
    return ExtState(q=Aq, h=Ah, Z=AZ)


@pytest.mark.parametrize("c_weight", [0.0, 0.8])
@pytest.mark.parametrize("law", [LINEAR, SATURATING, TABLE], ids=["linear", "saturating", "table"])
@pytest.mark.parametrize("box", ["ops8", "ops_aniso_box"])
def test_generator_is_bit_identical_to_the_cross_product_trace(box, law, c_weight, request):
    ops = request.getfixturevalue(box)
    for seed in range(3):
        v = random_domain_state(ops, 8, np.random.default_rng(seed))
        got, ref = apply_generator(v, ops, law, c_weight=c_weight), cross_generator(v, ops, law, c_weight)
        for name in ("q", "h", "Z"):
            assert getattr(got, name).tobytes() == getattr(ref, name).tobytes()


def test_s_derivative_consistency():
    M = 64
    s = np.arange(M + 1) / M
    Z = np.sin(2 * np.pi * s)[None, :, None] * np.ones((1, 1, 3))
    for c in (0.0, 1.0):
        d = s_derivative(Z, c)
        exact = 2 * np.pi * np.cos(2 * np.pi * s)
        # second order in the interior
        err = np.abs(d[0, 2:-2, 0] - exact[2:-2]).max()
        assert err <= 40.0 / M**2 * (2 * np.pi) ** 3


def _slice_sbp(Z):
    """The SBP derivative row by row: one-sided ends, central interior."""
    M = Z.shape[-2] - 1
    ds = 1.0 / M
    out = np.empty_like(Z)
    out[..., 0, :] = (Z[..., 1, :] - Z[..., 0, :]) / ds
    out[..., -1, :] = (Z[..., -1, :] - Z[..., -2, :]) / ds
    out[..., 1:-1, :] = (Z[..., 2:, :] - Z[..., :-2, :]) / (2.0 * ds)
    return out


@pytest.mark.parametrize("M", [1, 2, 16])
def test_sbp_derivative_matches_slice_formula(ops6, M):
    # the flat offsets of the interior pass follow the width of the last axis:
    # 2 for a delay profile, 3 for vectors
    rng = np.random.default_rng(M)
    S = ops6.grid.samples.count
    for width in (2, 3):
        single = rng.standard_normal((S, M + 1, width))
        batched = rng.standard_normal((2, S, M + 1, width))
        # the sample-major view of an (M+1, S, width) draw
        view = rng.standard_normal((M + 1, S, width)).transpose(1, 0, 2)
        assert not view.flags.c_contiguous
        for Z in (single, batched, view):
            assert np.array_equal(_sbp_derivative(Z), _slice_sbp(Z)), (width, Z.shape)


def test_weighted_sbp_identity(ops8):
    # the e^{cs}-weighted pairing of dZ/ds with Z telescopes exactly
    rng = np.random.default_rng(3)
    M, c = 12, 0.8
    Z = random_tangential(ops8, rng, shape=(M + 1,)).transpose(1, 0, 2)
    d = s_derivative(Z, c)
    ws = np.full(M + 1, 1.0 / M)
    ws[0] = ws[-1] = 0.5 / M
    weights = ws * np.exp(c * np.arange(M + 1) / M)
    pair = np.einsum("smi,smi->sm", d, Z) @ weights
    z2 = np.einsum("smi,smi->sm", Z, Z)
    expect = 0.5 * (np.exp(c) * z2[:, -1] - z2[:, 0]) - 0.5 * c * (z2 @ weights)
    assert np.abs(pair - expect).max() <= 1e-12 * max(1.0, np.abs(z2).max())


# -- monotonicity ------------------------------------------------------------------

@pytest.mark.parametrize("law", [LINEAR, SATURATING], ids=["linear", "saturating"])
def test_monotonicity_floor(ops8, law):
    from delayfdtd.feedback import constants

    mono = constants(law)
    k = generator_constants(law.gamma1, law.gamma2, mono.c1, mono.c2, law.tau)
    rep = monotonicity_test(ops8, law, k, n_pairs=60, seed=7, M=16)
    assert rep.passed
    assert rep.min_normalized >= -1e-10


def test_monotonicity_negative_control(ops8):
    law = FeedbackLaw(kind="linear", a=1.0, gamma1=1.0, gamma2=2.0, tau=0.25)
    k = generator_constants(1.0, 2.0, 1.0, 1.0, 0.25)
    assert k.c_weight > 0
    rep = monotonicity_test(
        ops8, law, k, n_pairs=40, seed=7, M=16, C_shift=0.0, z_interior_boost=4.0
    )
    assert np.any(rep.pairings[:, 2] < 0)
    # the same stressed pairs pass once the shift is in place
    rep_ok = monotonicity_test(ops8, law, k, n_pairs=40, seed=7, M=16, z_interior_boost=4.0)
    assert rep_ok.passed


def two_state_pair_rows(ops, law, k, n_pairs, seed, M, z_interior_boost):
    """The pairings of monotonicity_test, with the differences formed as new states."""
    rows = np.empty((n_pairs, 3))
    for i in range(n_pairs):
        rng = np.random.default_rng(np.random.SeedSequence([seed, i]))
        v1 = random_domain_state(ops, M, rng, z_interior_boost=z_interior_boost)
        v2 = random_domain_state(ops, M, rng, z_interior_boost=z_interior_boost)
        a1 = cross_generator(v1, ops, law, k.c_weight)
        a2 = cross_generator(v2, ops, law, k.c_weight)
        diff = ExtState(q=v1.q - v2.q, h=v1.h - v2.h, Z=v1.Z - v2.Z)
        adiff = ExtState(q=a1.q - a2.q, h=a1.h - a2.h, Z=a1.Z - a2.Z)
        norm2 = weighted_inner(diff, diff, ops, k.xi_op, law.tau, k.c_weight)
        pairing = k.C_shift * norm2 + weighted_inner(adiff, diff, ops, k.xi_op, law.tau, k.c_weight)
        rows[i] = (pairing, norm2, pairing / norm2)
    return rows


@pytest.mark.parametrize("boost", [1.0, 4.0])
def test_monotonicity_rows_are_bit_identical_to_the_two_state_loop(ops8, boost):
    law = FeedbackLaw(kind="saturating", a=1.0, b=1.0, gamma1=1.0, gamma2=2.0, tau=0.25)
    k = generator_constants(1.0, 2.0, 1.0, 2.0, 0.25)
    assert k.c_weight > 0
    rep = monotonicity_test(ops8, law, k, n_pairs=20, seed=3, M=16, z_interior_boost=boost)
    ref = two_state_pair_rows(ops8, law, k, 20, 3, 16, boost)
    assert rep.pairings.tobytes() == ref.tobytes()


def test_monotonicity_report_csv(ops8):
    k = generator_constants(1.0, 0.5, 1.0, 1.0, 0.25)
    rep = monotonicity_test(ops8, LINEAR, k, n_pairs=5, seed=1, M=8)
    lines = rep.to_csv().strip().splitlines()
    assert lines[0] == "pair_id,pairing,norm2,normalized"
    assert len(lines) == 6


# -- W_eps norm ---------------------------------------------------------------------

def test_wepsilon_zero(ops8):
    assert wepsilon_norm(np.zeros(ops8.layout.n_q), ops8) == 0.0


def test_wepsilon_constant_field(ops8):
    q = sample_vector_field(ops8, lambda p: np.broadcast_to([1.0, 0.0, 0.0], p.shape))
    # volume 1 + zero curl + zero divergence + tangential trace on 4 faces
    assert wepsilon_norm(q, ops8) == pytest.approx(5.0, rel=1e-12)


def test_wepsilon_gradient_has_no_curl(ops8):
    nx = ops8.grid.shape[0]
    dx = ops8.grid.spacings[0]
    xi = np.arange(1, nx) * dx
    X, Y, Z = np.meshgrid(xi, xi, xi, indexing="ij")
    psi = (np.sin(np.pi * X) * np.sin(np.pi * Y) * np.sin(np.pi * Z)).ravel()
    q = ops8.grad_int @ psi
    curl = ops8.C @ q
    assert float(np.dot(ops8.Wf * curl, curl)) <= 1e-10


# -- resolvent ----------------------------------------------------------------------

def test_resolvent_zero(ops8):
    M = 8
    F = ExtState(
        q=np.zeros(ops8.layout.n_q),
        h=np.zeros(ops8.layout.n_h),
        Z=np.zeros((ops8.grid.samples.count, M + 1, 2)),
    )
    res = resolvent_solve(F, 2.0, ops8, LINEAR)
    assert np.abs(res.V.q).max() <= 1e-14
    assert np.abs(res.V.h).max() <= 1e-14
    assert np.abs(res.V.Z).max() <= 1e-14
    assert res.residual <= 1e-12


def test_resolvent_linear_residual_and_formula(ops8):
    M = 16
    F = random_F(ops8, M, seed=5)
    res = resolvent_solve(F, 2.0, ops8, LINEAR)
    assert res.residual <= 1e-8

    # independent nodewise re-evaluation of the exponential formula
    tau, b = LINEAR.tau, 2.0
    w = ops8.layout.trace_view(res.V.q)
    s_nodes = np.arange(M + 1) / M
    growth = np.exp(tau * b * s_nodes)
    integrand = F.Z * growth[None, :, None]
    T = np.zeros_like(F.Z)
    for j in range(1, M + 1):
        T[:, j] = T[:, j - 1] + 0.5 / M * (integrand[:, j] + integrand[:, j - 1])
    Z_ref = (w[:, None, :] + tau * T) / growth[None, :, None]
    assert np.abs(res.V.Z - Z_ref).max() <= 1e-12


def test_resolvent_saturating_converges(ops8):
    M = 16
    F = random_F(ops8, M, seed=6)
    res = resolvent_solve(F, 2.0, ops8, SATURATING)
    assert res.residual <= 1e-8
    assert res.outer_iterations <= 100


@pytest.mark.xfail(
    strict=True,
    raises=NumericalError,
    reason=(
        "the damped Picard outer loop does not contract once c2 - c1 is large: this "
        "table's slopes run 2, 1 and 0.25 (c1 = 0.25, c2 = 2), and the gap stalls near "
        "9.7 after 100 rounds; the Newton-Krylov outer loop of ROADMAP item 9 is the mend"
    ),
)
def test_resolvent_steep_table_converges(ops8):
    res = resolvent_solve(random_F(ops8, 16, seed=6), 2.0, ops8, TABLE)
    assert res.residual <= 1e-8


@pytest.fixture(scope="module")
def ops_aniso_box():
    grid = build_grid(BoxDomain((2.0, 1.0, 1.5), (8, 5, 6), (1.0, 0.5, 0.75)))
    eps = exponential_isotropic(grid, 0.5, axis=0)
    mu = diagonal_ramp(grid, (1.0, 2.0, 1.5), axis=1, slope=0.7, entry=2)
    return build_operators(grid, eps, mu)


@pytest.mark.parametrize("b", [0.1, 2.0, 20.0])
@pytest.mark.parametrize(
    "law", [LINEAR, SATURATING, SATURATING_TABLE], ids=["linear", "saturating", "saturating_table"]
)
def test_resolvent_anisotropic_box(ops_aniso_box, law, b):
    # heterogeneous eps and mu on an unequal-spacing box, across shifts
    F = random_F(ops_aniso_box, 16, seed=5)
    res = resolvent_solve(F, b, ops_aniso_box, law)
    assert res.residual <= 1e-8
    assert res.outer_iterations <= 100


def test_resolvent_generator_consistency(ops8):
    M = 12
    F = random_F(ops8, M, seed=9)
    res = resolvent_solve(F, 2.0, ops8, LINEAR)
    img = apply_generator(res.V, ops8, LINEAR)
    scale = max(np.abs(F.q).max(), np.abs(F.h).max())
    assert np.abs(2.0 * res.V.q + img.q - F.q).max() <= 1e-10 * scale
    assert np.abs(2.0 * res.V.h + img.h - F.h).max() <= 1e-12 * scale


def test_resolvent_z_refinement(ops8):
    # doubling the s-resolution must shrink the Z mismatch against the
    # continuous integrating-factor solution by about four
    tau, b = LINEAR.tau, 2.0
    rng = np.random.default_rng(12)

    def exact_mismatch(M):
        F = random_F(ops8, M, seed=31)
        # smooth F3 profile in s so refinement is observable
        s_nodes = np.arange(M + 1) / M
        base = ops8.grid.samples.cross.nu_cross(random_tangential(ops8, rng))
        F = ExtState(q=F.q, h=F.h, Z=base[:, None, :] * np.sin(np.pi * s_nodes)[None, :, None])
        res = resolvent_solve(F, b, ops8, LINEAR)
        w = ops8.layout.trace_view(res.V.q)
        from scipy.integrate import quad

        # continuous solution at s = 1 for one sample/component
        sid, comp = 3, 0
        direction = base[sid, comp]

        def f(r):
            return np.sin(np.pi * r) * np.exp(tau * b * r) * direction

        integral = quad(f, 0.0, 1.0, epsabs=1e-14)[0]
        z1_exact = np.exp(-tau * b) * (w[sid, comp] + tau * integral)
        return abs(res.V.Z[sid, -1, comp] - z1_exact)

    e8, e16 = exact_mismatch(8), exact_mismatch(16)
    assert e16 <= e8 / 2.0


def test_strong_monotonicity_of_form(ops8):
    rng = np.random.default_rng(21)
    M = 8
    F3_tail = ops8.grid.samples.cross.nu_cross(random_tangential(ops8, rng))
    worst = np.inf
    for _ in range(25):
        q1 = rng.standard_normal(ops8.layout.n_q)
        q2 = rng.standard_normal(ops8.layout.n_q)
        dq = q1 - q2
        val = form_pairing(q1, q2, dq, 2.0, ops8, SATURATING, F3_tail)
        worst = min(worst, val / wepsilon_norm(dq, ops8))
    assert worst > 0


def test_lab_requires_diagonal_tensors(tmp_path, capsys):
    # the lab gate refuses a full tensor before it assembles the operators
    from delayfdtd.cli import main

    path = tmp_path / "full.cfg"
    path.write_text(
        "[domain]\nLx = 1\nLy = 1\nLz = 1\nnx = 4\nny = 4\nnz = 4\n\n"
        "[materials]\neps_kind = constant_full\neps_upper = 2.0 1.5 1.0 0.2 0.0 0.0\n\n"
        "[feedback]\nkind = linear\na = 1.0\ngamma1 = 1.0\ngamma2 = 0.5\ntau = 0.25\n\n"
        "[run]\nt_end = 1.0\ncfl_safety = 0.5\n\n"
        f"[output]\ndir = {tmp_path / 'out'}\n"
    )
    assert main(["operator", str(path), "--m", "4"]) == 2
    assert capsys.readouterr().err == "configuration error: the operator lab requires diagonal material tensors\n"


# -- random domain states ------------------------------------------------------------

@pytest.mark.parametrize("boost", [1.0, 3.0])
def test_random_domain_state_draws_only_the_free_parameters(boost):
    # q, h and Z at s > 0 are drawn in that order and no draw is discarded:
    # the generator ends where a twin that drew just those parameters ends
    grid = build_grid(BoxDomain((2.0, 1.0, 1.5), (8, 5, 6), (1.0, 0.5, 0.75)))
    eps = diagonal_ramp(grid, (1.0, 1.5, 2.0), axis=0, slope=1.0)
    ops = build_operators(grid, eps, eps)
    M, S = 7, grid.samples.count
    for seed in range(3):
        rng, twin = np.random.default_rng(seed), np.random.default_rng(seed)
        got = random_domain_state(ops, M, rng, z_interior_boost=boost)
        q = twin.standard_normal(ops.layout.n_q)
        h = twin.standard_normal(ops.layout.n_h)
        Z = twin.standard_normal((S, M, 2))
        Z[:, :-1] *= boost
        assert rng.bit_generator.state == twin.bit_generator.state
        assert got.q.tobytes() == q.tobytes() and got.h.tobytes() == h.tobytes()
        assert got.Z[:, 1:].tobytes() == Z.tobytes()
        assert got.Z[:, 0].tobytes() == ops.layout.trace_view(got.q).tobytes()


def test_random_forcing_is_bit_identical_to_the_projection():
    # the components nu x Z of the raw draw are those of its generic
    # projection, sign bits included
    grid = build_grid(BoxDomain((1.0, 0.75, 0.625), (8, 6, 5), (0.5, 0.375, 0.3125)))
    eps = exponential_isotropic(grid, 1.0)
    ops = build_operators(grid, eps, eps)
    nu = grid.samples.normals[:, None, :]
    for seed in range(3):
        got = random_forcing(ops, 16, np.random.default_rng(seed))
        rng = np.random.default_rng(seed)
        q = project_div_free(rng.standard_normal(ops.layout.n_q), ops)
        h = rng.standard_normal(ops.layout.n_h)
        raw = rng.standard_normal((grid.samples.count, 17, 3))
        Z = raw - np.einsum("smi,smi->sm", raw, np.broadcast_to(nu, raw.shape))[..., None] * nu
        Z = nu_cross_nodes(grid.samples, Z)
        for name, ref in (("q", q), ("h", h), ("Z", Z)):
            assert getattr(got, name).tobytes() == ref.tobytes()


# -- resolvent core CG --------------------------------------------------------------

def _superlu_reference(A):
    # the symmetric-mode SuperLU factor the resolvent used before the band
    import scipy.sparse.linalg as spla

    return spla.splu(
        A.tocsc(), permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
        options=dict(SymmetricMode=True),
    )


@pytest.mark.parametrize(
    "box, law",
    [("ops8", LINEAR), ("ops8", SATURATING), ("ops_aniso_box", LINEAR)],
    ids=["ops8-linear", "ops8-saturating", "aniso-linear"],
)
def test_banded_factor_matches_superlu(box, law, request):
    # the CG solve of the core, from zero and at its own stop, against SuperLU
    from delayfdtd.operator_lab import CoreCG, resolvent_core

    ops = request.getfixturevalue(box)
    core = resolvent_core(ops, law, 2.0)
    rhs = np.random.default_rng(3).standard_normal((3, ops.layout.n_q))
    cg, ref = CoreCG(core, "resolvent core"), _superlu_reference(core)
    for r in rhs:
        (x, _), x_ref = cg.solve(r), ref.solve(r)
        assert np.linalg.norm(x - x_ref) <= 1e-10 * np.linalg.norm(x_ref)


def test_core_cg_warm_start_that_meets_the_stop_takes_no_iteration(ops8):
    from delayfdtd.operator_lab import CoreCG, resolvent_core

    cg = CoreCG(resolvent_core(ops8, SATURATING, 2.0), "resolvent core")
    rhs = np.random.default_rng(4).standard_normal(ops8.layout.n_q)
    x, cold = cg.solve(rhs)
    again, warm = cg.solve(rhs, x)
    assert cold > 0 and warm == 0
    assert np.max(np.abs(again - x)) <= 1e-15 * np.max(np.abs(x))
    # a loose stop ends a cold solve sooner
    _, loose = cg.solve(rhs, atol=1e-4 * float(np.max(np.abs(x))))
    assert 0 < loose < cold


def test_gap_tied_inner_stop_keeps_rounds_and_cuts_iterations(ops8, monkeypatch):
    from delayfdtd import operator_lab

    solve = operator_lab.CoreCG.solve
    counts = []

    def counted(self, *args, **kwargs):
        x, it = solve(self, *args, **kwargs)
        counts[-1] += it
        return x, it

    monkeypatch.setattr(operator_lab.CoreCG, "solve", counted)
    F = random_F(ops8, 16, seed=6)
    results = []
    for share in (0.0, operator_lab.INNER_GAP_SHARE):
        monkeypatch.setattr(operator_lab, "INNER_GAP_SHARE", share)
        counts.append(0)
        results.append(resolvent_solve(F, 2.0, ops8, SATURATING))
    tight, tied = results
    assert tied.outer_iterations == tight.outer_iterations == 24
    assert tied.residual <= 1e-8
    assert 2 * counts[1] < counts[0]


# core CG iterations of this solve when each round started from the damped iterate
DAMPED_START_CORE_ITERATIONS = 778


def test_resolvent_rejects_a_forcing_that_is_not_divergence_free(ops8):
    # only a projected F.q makes the solution divergence-free; the gate exits 4
    with pytest.raises(NumericalError, match=r"not divergence-free: \|div\(eps E\)\| = "):
        resolvent_solve(random_F(ops8, 16, seed=3, project=False), 2.0, ops8, LINEAR)


def test_extrapolated_warm_start_keeps_rounds_and_cuts_iterations(ops8, monkeypatch):
    from delayfdtd import operator_lab

    solve = operator_lab.CoreCG.solve
    counts = []

    def counted(self, *args, **kwargs):
        x, it = solve(self, *args, **kwargs)
        counts.append(it)
        return x, it

    monkeypatch.setattr(operator_lab.CoreCG, "solve", counted)
    res = resolvent_solve(random_F(ops8, 16, seed=6), 2.0, ops8, SATURATING)
    assert res.outer_iterations == 24
    assert res.residual <= 1e-8
    assert res.core_cg_iterations == sum(counts)
    assert res.core_cg_iterations <= 0.8 * DAMPED_START_CORE_ITERATIONS


# outer rounds of the SuperLU-factored resolvent on the same data; the CG core keeps them
@pytest.mark.parametrize(
    "box, law, b, seed, outer",
    [
        ("ops8", LINEAR, 2.0, 5, 1),
        ("ops8", SATURATING, 2.0, 6, 24),
        ("ops_aniso_box", LINEAR, 0.1, 5, 1),
        ("ops_aniso_box", SATURATING, 0.1, 5, 28),
        ("ops_aniso_box", SATURATING, 2.0, 5, 22),
        ("ops_aniso_box", SATURATING, 20.0, 5, 24),
    ],
)
def test_banded_resolvent_keeps_outer_rounds(box, law, b, seed, outer, request):
    ops = request.getfixturevalue(box)
    res = resolvent_solve(random_F(ops, 16, seed=seed), b, ops, law)
    assert res.outer_iterations == outer
    assert res.penalty == 1.0
    assert res.residual <= 1e-8
    assert max(res.residual_parts.values()) <= 1e-8


# -- resolvent core assembly --------------------------------------------------------

def four_term_core(ops, law, b):
    """The core as the sum of its four terms, each a sparse matrix, returned as CSR."""
    import scipy.sparse as sp

    from delayfdtd.operator_lab import DIV_PENALTY, _core_slope

    bdry_diag = np.repeat(b * ops.grid.samples.areas * _core_slope(law, b), 2)
    n = ops.layout.n_q
    idx = ops.layout.trace_view(np.arange(n)).ravel()
    return sp.csr_matrix(
        b * b * sp.diags(ops.Wq_eps)
        + ops.C.T @ sp.diags(ops.Wf / ops.mu_f) @ ops.C
        + DIV_PENALTY * ops.node_weight * (ops.div_eps.T @ ops.div_eps)
        + sp.csr_matrix((bdry_diag, (idx, idx)), shape=(n, n))
    )


@pytest.mark.parametrize("b", [0.1, 2.0, 20.0])
@pytest.mark.parametrize("law", [LINEAR, SATURATING, TABLE], ids=["linear", "saturating", "table"])
def test_gram_core_matches_the_four_term_sum(ops8, ops_aniso_box, law, b):
    from delayfdtd.operator_lab import resolvent_core

    got, ref = resolvent_core(ops8, law, b), four_term_core(ops8, law, b)
    assert got.format == "csr" and got.has_sorted_indices
    # every product and sum is exact on the dyadic unit box
    for name in ("indptr", "indices", "data"):
        assert getattr(got, name).tobytes() == getattr(ref, name).tobytes()
    got, ref = resolvent_core(ops_aniso_box, law, b), four_term_core(ops_aniso_box, law, b)
    ref.sort_indices()
    assert got.has_sorted_indices
    assert np.array_equal(got.indptr, ref.indptr) and np.array_equal(got.indices, ref.indices)
    assert np.max(np.abs(got.data - ref.data)) <= 1e-15 * np.max(np.abs(ref.data))


def _traced_peak(fn):
    import tracemalloc

    tracemalloc.start()
    try:
        result = fn()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# tracemalloc peak over the call, in result bytes for the core, else in extended states
@pytest.mark.parametrize("call, bound", [("core", 3.0), ("monotonicity", 5.0), ("resolvent", 6.0)])
def test_lab_memory_stays_within_a_few_states(ops8, call, bound):
    from delayfdtd.feedback import constants
    from delayfdtd.operator_lab import resolvent_core

    law, M = SATURATING, 16
    mono = constants(law)
    k = generator_constants(law.gamma1, law.gamma2, mono.c1, mono.c2, law.tau)
    F = random_F(ops8, M, seed=6)
    # anything built once per operator set is built before tracing
    monotonicity_test(ops8, law, k, n_pairs=1, seed=0, M=M)
    resolvent_solve(F, 2.0, ops8, law)
    calls = {
        "core": lambda: resolvent_core(ops8, law, 2.0),
        "monotonicity": lambda: monotonicity_test(ops8, law, k, n_pairs=4, seed=0, M=M),
        "resolvent": lambda: resolvent_solve(F, 2.0, ops8, law),
    }
    result, peak = _traced_peak(calls[call])
    if call == "core":
        unit = result.data.nbytes + result.indices.nbytes + result.indptr.nbytes
    else:
        unit = F.q.nbytes + F.h.nbytes + F.Z.nbytes
    assert peak <= bound * unit
