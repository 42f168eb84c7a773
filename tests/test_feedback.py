import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from delayfdtd.errors import AssumptionError, ConfigError, ContractError, NumericalError
from delayfdtd.feedback import (
    FeedbackLaw,
    constants,
    eval_g,
    implicit_boundary_update,
    load_table_law,
    norm2,
)

from conftest import required_H_trace, two_column_closure

vec3 = st.tuples(
    st.floats(-5, 5, allow_nan=False), st.floats(-5, 5), st.floats(-5, 5)
).map(np.array)

LINEAR = FeedbackLaw(kind="linear", a=1.0, gamma1=1.0, gamma2=0.0, tau=0.25)
SATURATING = FeedbackLaw(kind="saturating", a=1.0, b=1.0, gamma1=1.0, gamma2=0.5, tau=0.25)


def test_eval_linear_identity():
    v = np.array([2.0, -1.0, 0.0])
    assert np.array_equal(eval_g(LINEAR, v), v)


def test_eval_zero_fixed_point():
    for law in (LINEAR, SATURATING):
        assert np.array_equal(eval_g(law, np.zeros(3)), np.zeros(3))


def test_eval_saturating_value():
    out = eval_g(SATURATING, np.array([3.0, 0.0, 0.0]))
    assert out == pytest.approx([3.75, 0.0, 0.0])


def test_constants_linear():
    k = constants(FeedbackLaw(kind="linear", a=2.0, gamma1=1.0, tau=0.25))
    assert (k.c1, k.c2) == (2.0, 2.0)


def test_constants_saturating_against_sampling_oracle():
    # brute-force difference quotients: the analytic constants must bracket
    # every sampled quotient; the monotonicity modulus is approached by
    # far-out pairs, the Lipschitz bound by pairs collapsing to the origin
    law = SATURATING
    k = constants(law)
    assert (k.c1, k.c2) == (1.0, 2.0)
    rng = np.random.default_rng(11)

    def quotients(scale):
        u = scale * rng.uniform(-1, 1, (100_000, 3))
        v = scale * rng.uniform(-1, 1, (100_000, 3))
        du = u - v
        n2 = np.einsum("ij,ij->i", du, du)
        keep = n2 > 1e-16 * scale**2
        u, v, du, n2 = u[keep], v[keep], du[keep], n2[keep]
        dg = eval_g(law, u) - eval_g(law, v)
        mono = np.einsum("ij,ij->i", dg, du) / n2
        lip = np.linalg.norm(dg, axis=1) / np.sqrt(n2)
        return mono, lip

    for scale in (1e-3, 1.0, 50.0):
        mono, lip = quotients(scale)
        assert np.min(mono) >= k.c1 - 1e-9
        assert np.max(lip) <= k.c2 + 1e-9
    mono_far, _ = quotients(50.0)
    _, lip_near = quotients(1e-3)
    assert np.min(mono_far) <= k.c1 + 0.05  # infimum approached at large |v|
    assert np.max(lip_near) >= k.c2 - 0.01  # supremum approached at 0


def test_table_law_constants_of_a_linear_table(tmp_path):
    path = tmp_path / "g.txt"
    rs = np.linspace(0, 12, 25)
    path.write_text("\n".join(f"{r} {1.5 * r}" for r in rs))
    law = load_table_law(path, gamma1=1.0, tau=0.25)
    k = constants(law)
    assert k.c1 == pytest.approx(1.5, rel=1e-6)
    assert k.c2 == pytest.approx(1.5, rel=1e-6)


def test_table_law_decreasing_rejected(tmp_path):
    path = tmp_path / "g.txt"
    path.write_text("0 0\n1 -1\n10 -10\n")
    law = load_table_law(path, gamma1=1.0, tau=0.25)
    with pytest.raises(AssumptionError):
        constants(law)


@pytest.mark.parametrize(
    "rs, gs, c1, c2",
    [
        # r + r/(1+r) on [0, 8]: the last slope is 1 + 1/78.75, the first 1.8
        ([0.25 * i for i in range(33)], [0.25 * i + 0.25 * i / (1 + 0.25 * i) for i in range(33)],
         1.0 + 1.0 / 78.75, 1.8),
        # c1 is the last slope, continued past the table
        ([0.0, 1.0, 10.0, 12.0], [0.0, 1.0, 10.0, 10.2], 0.1, 1.0),
    ],
    ids=["saturating_samples", "soft_tail"],
)
def test_table_law_exact_constants(rs, gs, c1, c2):
    law = FeedbackLaw(kind="table", table_r=tuple(rs), table_g=tuple(gs), gamma1=1.0, tau=0.25)
    k = constants(law)
    assert abs(k.c1 - c1) <= 1e-12 and abs(k.c2 - c2) <= 1e-12
    # every difference quotient lies in [c1, c2], out past the table too
    rng = np.random.default_rng(5)
    for scale in (0.1, rs[-1], 3 * rs[-1]):
        u, v = scale * rng.uniform(-1, 1, (2, 20_000, 3))
        du = u - v
        n2 = np.einsum("ij,ij->i", du, du)
        dg = eval_g(law, u) - eval_g(law, v)
        assert np.all(np.einsum("ij,ij->i", dg, du) >= (k.c1 - 1e-9) * n2)
        assert np.all(np.einsum("ij,ij->i", dg, dg) <= (k.c2 + 1e-9) ** 2 * n2)


@pytest.mark.parametrize("r0, g0", [(0.5, 0.5), (0.5, 0.0), (0.0, 0.5)])
def test_table_law_must_start_at_the_origin(r0, g0):
    law = FeedbackLaw(kind="table", table_r=(r0, 2.0, 4.0), table_g=(g0, 2.0, 4.0), gamma1=1.0, tau=0.25)
    with pytest.raises(AssumptionError, match=f"starts at \\({r0:g}, {g0:g}\\), not \\(0, 0\\)"):
        constants(law)


@settings(max_examples=60, deadline=None)
@given(u=vec3, v=vec3)
def test_monotonicity_and_lipschitz_properties(u, v):
    for law in (LINEAR, SATURATING):
        k = constants(law)
        du = u - v
        dg = eval_g(law, u) - eval_g(law, v)
        n2 = float(np.dot(du, du))
        assert np.dot(dg, du) >= k.c1 * n2 - 1e-9 * (1 + n2)
        assert np.dot(dg, dg) <= k.c2**2 * n2 + 1e-9 * (1 + n2)


@settings(max_examples=60, deadline=None)
@given(u=vec3, axis=st.integers(0, 2), sign=st.sampled_from([-1.0, 1.0]))
def test_tangential_algebra(u, axis, sign):
    nu = np.zeros(3)
    nu[axis] = sign
    ut = u - np.dot(u, nu) * nu
    assert np.allclose(np.cross(np.cross(ut, nu), nu), -ut, atol=1e-12)
    assert abs(np.dot(np.cross(ut, nu), nu)) <= 1e-14


def test_required_trace_cross_product_examples():
    nu = np.array([0.0, 0.0, 1.0])
    law = FeedbackLaw(kind="linear", a=1.0, gamma1=1.0, gamma2=0.0, tau=0.25)
    h = required_H_trace(law, np.array([1.0, 0.0, 0.0]), np.zeros(3), nu)
    assert h == pytest.approx([0.0, 1.0, 0.0])

    pmc = FeedbackLaw(kind="linear", a=1.0, gamma1=0.0, gamma2=0.0, tau=0.25)
    h = required_H_trace(pmc, np.array([1.0, 0.0, 0.0]), np.zeros(3), nu)
    assert np.array_equal(h, np.zeros(3))

    delayed = FeedbackLaw(kind="linear", a=1.0, gamma1=1e-30, gamma2=1.0, tau=0.25)
    h = required_H_trace(delayed, np.zeros(3), np.array([0.0, 2.0, 0.0]), nu)
    assert h == pytest.approx([-2.0, 0.0, 0.0])


def test_required_trace_tangential_output():
    rng = np.random.default_rng(0)
    nu = np.array([0.0, -1.0, 0.0])
    for _ in range(50):
        raw = rng.standard_normal(3)
        w = raw - np.dot(raw, nu) * nu
        h = required_H_trace(SATURATING, w, 0.5 * w, nu)
        assert abs(np.dot(h, nu)) <= 1e-14


def test_required_trace_rejects_non_tangential():
    nu = np.array([0.0, 0.0, 1.0])
    with pytest.raises(ContractError):
        required_H_trace(LINEAR, np.array([0.0, 0.0, 0.5]), np.zeros(3), nu)


def _metrics(n_samples=1):
    nu = np.tile(np.array([0.0, 0.0, 1.0]), (n_samples, 1))
    tangents = np.tile(np.array([0, 1]), (n_samples, 1))
    eps_t = np.ones((n_samples, 2))
    kappa = np.full((n_samples, 2), 32.0)  # 2/dn at dn = 1/16
    return nu, tangents, eps_t, kappa


def closure(law, curl, t_old, z1, nu, tangents, dt, eps_t, kappa):
    """`implicit_boundary_update` with the delayed tap given as the 3-vector Z = E x nu.

    The closure takes the E trace, the tangent-axis components of nu x Z.
    """
    u = np.cross(nu, z1)
    rows = np.arange(u.shape[0])
    e1 = np.stack([u[rows, tangents[:, 0]], u[rows, tangents[:, 1]]], axis=1)
    return implicit_boundary_update(law, curl, t_old, e1, dt, eps_t, kappa)


def test_implicit_update_rest_is_fixed_point():
    nu, tangents, eps_t, kappa = _metrics()
    out = closure(
        SATURATING,
        np.zeros((1, 2)),
        np.zeros((1, 2)),
        np.zeros((1, 3)),
        nu,
        tangents,
        dt=0.01,
        eps_t=eps_t,
        kappa=kappa,
    )
    assert np.array_equal(out, np.zeros((1, 2)))


def closed_form_linear(law, curl, t_old, z1, nu, tangents, dt, eps_t, kappa):
    # independent hand-derived 2x2 solve used as an oracle
    u1 = np.cross(nu, z1)
    rows = np.arange(t_old.shape[0])
    u1c = np.stack([u1[rows, tangents[:, 0]], u1[rows, tangents[:, 1]]], axis=1)
    q = dt / eps_t * kappa * law.a
    return (t_old * (1 - 0.5 * q * law.gamma1) + dt * curl / eps_t - q * law.gamma2 * u1c) / (
        1 + 0.5 * q * law.gamma1
    )


def test_implicit_linear_matches_closed_form():
    rng = np.random.default_rng(7)
    law = FeedbackLaw(kind="linear", a=1.3, gamma1=0.8, gamma2=0.4, tau=0.25)
    nu, tangents, eps_t, kappa = _metrics(64)
    curl = rng.standard_normal((64, 2))
    t_old = rng.standard_normal((64, 2))
    z1 = rng.standard_normal((64, 3))
    z1[:, 2] = 0.0  # tangential for nu = e_z
    got = closure(law, curl, t_old, z1, nu, tangents, 0.02, eps_t, kappa)
    ref = closed_form_linear(law, curl, t_old, z1, nu, tangents, 0.02, eps_t, kappa)
    assert np.max(np.abs(got - ref)) <= 1e-12

    # the general fixed-point path must agree with the closed form too
    bent = FeedbackLaw(kind="saturating", a=1.3, b=0.0, gamma1=0.8, gamma2=0.4, tau=0.25)
    got_fp = closure(bent, curl, t_old, z1, nu, tangents, 0.02, eps_t, kappa)
    assert np.max(np.abs(got_fp - ref)) <= 1e-11


def test_implicit_saturating_converges_on_random_batch():
    # randomized batch at a CFL-sized step: must converge within 50 rounds
    rng = np.random.default_rng(42)
    n = 10_000
    nu, tangents, eps_t, kappa = _metrics(n)
    dt = 0.95 / (16 * np.sqrt(3.0))  # CFL step at n=16, c=1
    curl = rng.uniform(-1, 1, (n, 2))
    t_old = rng.uniform(-1, 1, (n, 2))
    z1 = rng.uniform(-1, 1, (n, 3))
    z1[:, 2] = 0.0
    out = closure(
        SATURATING, curl, t_old, z1, nu, tangents, dt, eps_t, kappa
    )
    assert np.all(np.isfinite(out))


def test_law_validation():
    with pytest.raises(ConfigError):
        FeedbackLaw(kind="linear", a=-1.0, gamma1=1.0, tau=0.25)
    with pytest.raises(ConfigError):
        FeedbackLaw(kind="linear", a=1.0, gamma1=-0.1, tau=0.25)
    with pytest.raises(ConfigError):
        FeedbackLaw(kind="linear", a=1.0, gamma1=1.0, tau=0.0)
    with pytest.raises(ConfigError):
        FeedbackLaw(kind="nope", gamma1=1.0, tau=0.25)


# -- safeguarded Newton closure ------------------------------------------------

def _centered_defect(law, curl, t_old, t_new, z1, nu, tangents, dt, eps_t, kappa):
    # the centered equation rebuilt from the cross-product form of the
    # boundary relation, independent of the solver's component algebra
    rows = np.arange(t_old.shape[0])
    t_vec = np.zeros((t_old.shape[0], 3))
    t_mid = 0.5 * (t_old + t_new)
    t_vec[rows, tangents[:, 0]] = t_mid[:, 0]
    t_vec[rows, tangents[:, 1]] = t_mid[:, 1]
    h = required_H_trace(law, np.cross(t_vec, nu), z1, nu)
    h_c = np.stack([h[rows, tangents[:, 0]], h[rows, tangents[:, 1]]], axis=1)
    return np.max(np.abs(t_old + dt * (curl - kappa * h_c) / eps_t - t_new))


def _random_batch(rng, n):
    nu, tangents, eps_t, kappa = _metrics(n)
    curl = rng.uniform(-1, 1, (n, 2))
    t_old = rng.uniform(-1, 1, (n, 2))
    z1 = rng.uniform(-1, 1, (n, 3))
    z1[:, 2] = 0.0
    return curl, t_old, z1, nu, tangents, eps_t, kappa


@pytest.mark.parametrize(
    "law",
    [
        FeedbackLaw(kind="linear", a=1.3, gamma1=1.0, tau=0.25),
        SATURATING,
        FeedbackLaw(kind="table", table_r=(0.0, 0.5, 2.0, 4.0), table_g=(0.0, 1.0, 2.5, 3.0)),
    ],
    ids=["linear", "saturating", "table"],
)
def test_radial_slope_matches_difference_quotients(law):
    # G'(r) against central differences of the profile G(r) = gain(r) r,
    # away from the table knots
    r = np.array([0.1, 0.3, 0.9, 1.7, 3.1, 6.0])
    h = 1e-6
    profile = lambda x: law._radial_gain(x) * x  # noqa: E731
    quotient = (profile(r + h) - profile(r - h)) / (2 * h)
    assert np.max(np.abs(law._radial_slope(r) - quotient)) <= 1e-8


def test_newton_converges_on_random_batch_at_ten_times_cfl(monkeypatch):
    # far beyond the step where the old damped fixed point contracted;
    # Newton's quadratic convergence keeps the g evaluations few
    from delayfdtd import feedback

    calls = []
    real_eval_g = feedback.eval_g

    def counted_eval_g(law, v):
        calls.append(1)
        return real_eval_g(law, v)

    monkeypatch.setattr(feedback, "eval_g", counted_eval_g)
    rng = np.random.default_rng(43)
    curl, t_old, z1, nu, tangents, eps_t, kappa = _random_batch(rng, 10_000)
    dt = 10 * 0.95 / (16 * np.sqrt(3.0))
    for law in (SATURATING, FeedbackLaw(kind="saturating", a=1.0, b=1.0, gamma1=64.0, gamma2=16.0)):
        calls.clear()
        out = closure(law, curl, t_old, z1, nu, tangents, dt, eps_t, kappa)
        assert len(calls) <= 12
        # round-off of the cross-product rebuild grows with dt * kappa * gamma1
        slack = 1e-15 * dt * kappa.max() * law.gamma1 * 10
        assert _centered_defect(law, curl, t_old, out, z1, nu, tangents, dt, eps_t, kappa) <= 1e-12 + slack


def test_table_law_closure_satisfies_centered_equation():
    # a table sampled from the saturating law runs through the same solver
    rs = np.linspace(0.0, 8.0, 321)
    law = FeedbackLaw(
        kind="table", table_r=tuple(rs), table_g=tuple(rs + rs / (1.0 + rs)),
        gamma1=1.0, gamma2=0.5, tau=0.25,
    )
    rng = np.random.default_rng(44)
    curl, t_old, z1, nu, tangents, eps_t, kappa = _random_batch(rng, 2_000)
    dt = 0.95 / (16 * np.sqrt(3.0))
    out = closure(law, curl, t_old, z1, nu, tangents, dt, eps_t, kappa)
    assert _centered_defect(law, curl, t_old, out, z1, nu, tangents, dt, eps_t, kappa) <= 1e-12 + 1e-14
    # and lands next to the saturating law it samples
    ref = closure(SATURATING, curl, t_old, z1, nu, tangents, dt, eps_t, kappa)
    assert np.max(np.abs(out - ref)) <= 1e-3


def test_tensor_block_matches_diagonal_entries():
    # an (S, 2, 2) tangential block with zero off-diagonals is the diagonal path
    rng = np.random.default_rng(45)
    curl, t_old, z1, nu, tangents, _, kappa = _random_batch(rng, 500)
    eps_t = rng.uniform(1.0, 3.0, (500, 2))
    block = eps_t[:, :, None] * np.eye(2)
    dt = 0.95 / (16 * np.sqrt(3.0))
    for law in (SATURATING, FeedbackLaw(kind="linear", a=1.3, gamma1=0.8, gamma2=0.4, tau=0.25)):
        diag = closure(law, curl, t_old, z1, nu, tangents, dt, eps_t, kappa)
        full = closure(law, curl, t_old, z1, nu, tangents, dt, block, kappa)
        assert np.max(np.abs(full - diag)) <= 1e-12


def test_linear_eval_g_matches_the_radial_form_bitwise():
    law = FeedbackLaw(kind="linear", a=0.7, gamma1=1.0, gamma2=0.0, tau=0.25)
    v = np.random.default_rng(61).standard_normal((50, 3)) * np.logspace(-150, 150, 50)[:, None]
    norms = np.sqrt(np.einsum("...i,...i->...", v, v))
    assert eval_g(law, v).tobytes() == (law._radial_gain(norms)[..., None] * v).tobytes()



@pytest.mark.parametrize("shape", [(300, 2), (40, 17, 3), (3,), (2,)], ids=["S_2", "S_M_3", "vec3", "vec2"])
def test_norm2_has_the_bits_of_einsum(shape):
    # magnitudes from 1e-150 to 1e150 per row, so every rounding of the sums shows
    rng = np.random.default_rng(62)
    v = rng.standard_normal(shape) * 10.0 ** rng.uniform(-150, 150, shape[:-1] + (1,))
    ref = np.einsum("...i,...i->...", v, v)
    assert np.shape(norm2(v)) == np.shape(ref)
    assert np.asarray(norm2(v)).tobytes() == np.asarray(ref).tobytes()
    norms = np.sqrt(ref)
    assert eval_g(SATURATING, v).tobytes() == (SATURATING._radial_gain(norms)[..., None] * v).tobytes()
    if v.ndim > 1:
        out = np.full(shape[:-1], np.nan)
        assert norm2(v, out=out) is out
        assert out.tobytes() == ref.tobytes()

# -- the radial closure against the 2x2 Newton it replaced -----------------------

def _jacobian_2x2(law, v):
    # entries (d00, d01, d11) of Dg(v) = gain I + (G' - gain) u u^T, u = v / |v|
    r2 = v[:, 0] ** 2 + v[:, 1] ** 2
    r = np.sqrt(r2)
    gain = law._radial_gain(r)
    scale = (law._radial_slope(r) - gain) / np.where(r2 > 0, r2, 1.0)
    return gain + scale * v[:, 0] ** 2, scale * v[:, 0] * v[:, 1], gain + scale * v[:, 1] ** 2


def newton_2x2_reference(law, curl, t_old, z1, nu, tangents, dt, eps_t, kappa, tol=1e-12, max_iter=50):
    """The centered closure as a per-sample 2x2 Newton in t, each step halved
    per sample until that sample's residual falls."""
    eps_t = eps_t if eps_t.ndim == 3 else eps_t[:, :, None] * np.eye(2)
    coef = dt * np.linalg.inv(eps_t)
    k = coef * (kappa * law.gamma1)[:, None, :]

    def mass(x):
        return np.einsum("sab,sb->sa", coef, x)

    u1 = np.cross(nu, eval_g(law, z1))
    rows = np.arange(t_old.shape[0])
    u1_c = np.stack([u1[rows, tangents[:, 0]], u1[rows, tangents[:, 1]]], axis=1)
    base = t_old + mass(curl)
    drive = base - mass(kappa * law.gamma2 * u1_c)

    def residual(t):
        f = drive - mass(kappa * law.gamma1 * eval_g(law, 0.5 * (t_old + t))) - t
        return f, np.max(np.abs(f), axis=1)

    t_new = base.copy()
    f, res = residual(t_new)
    step = np.ones(t_old.shape[0])
    for _ in range(max_iter):
        active = ~(res <= tol)
        if not np.any(active):
            return t_new
        d00, d01, d11 = _jacobian_2x2(law, 0.5 * (t_old + t_new))
        m00 = 1.0 + 0.5 * (k[:, 0, 0] * d00 + k[:, 0, 1] * d01)
        m01 = 0.5 * (k[:, 0, 0] * d01 + k[:, 0, 1] * d11)
        m10 = 0.5 * (k[:, 1, 0] * d00 + k[:, 1, 1] * d01)
        m11 = 1.0 + 0.5 * (k[:, 1, 0] * d01 + k[:, 1, 1] * d11)
        factor = step / (m00 * m11 - m01 * m10)
        trial = t_new + np.stack(
            [(m11 * f[:, 0] - m01 * f[:, 1]) * factor, (m00 * f[:, 1] - m10 * f[:, 0]) * factor], axis=1
        )
        trial_f, trial_res = residual(trial)
        accept = active & (trial_res < res)
        t_new[accept], f[accept], res[accept] = trial[accept], trial_f[accept], trial_res[accept]
        step = np.where(accept, 1.0, 0.5 * step)
    raise AssertionError("reference Newton did not converge")


def _block_defect(law, curl, t_old, t_new, z1, nu, tangents, dt, eps_t, kappa):
    # _centered_defect with eps_t^{-1} applied by a dense solve, for blocks too
    eps_t = eps_t if eps_t.ndim == 3 else eps_t[:, :, None] * np.eye(2)
    rows = np.arange(t_old.shape[0])
    t_vec = np.zeros((t_old.shape[0], 3))
    t_mid = 0.5 * (t_old + t_new)
    t_vec[rows, tangents[:, 0]] = t_mid[:, 0]
    t_vec[rows, tangents[:, 1]] = t_mid[:, 1]
    h = required_H_trace(law, np.cross(t_vec, nu), z1, nu)
    h_c = np.stack([h[rows, tangents[:, 0]], h[rows, tangents[:, 1]]], axis=1)
    load = np.linalg.solve(eps_t, (curl - kappa * h_c)[:, :, None])[:, :, 0]
    return np.max(np.abs(t_old + dt * load - t_new))


_RS = np.linspace(0.0, 8.0, 321)
CLOSURE_PROFILES = {
    "saturating": dict(kind="saturating", a=1.0, b=1.0),
    "kinked_table": dict(kind="table", table_r=(0.0, 0.5, 2.0, 4.0), table_g=(0.0, 1.0, 2.5, 3.0)),
    "fine_table": dict(kind="table", table_r=tuple(_RS), table_g=tuple(_RS + _RS / (1.0 + _RS))),
}
CFL_16 = 0.95 / (16 * np.sqrt(3.0))


def _random_eps_t(rng, n, block):
    if not block:
        return rng.uniform(1.0, 3.0, (n, 2))
    # random SPD blocks with eigenvalues in [0.2, 10]
    angle = rng.uniform(0.0, np.pi, n)
    c, s = np.cos(angle), np.sin(angle)
    rot = np.stack([np.stack([c, -s], axis=1), np.stack([s, c], axis=1)], axis=1)
    lam = rng.uniform(0.2, 10.0, (n, 2))
    return np.einsum("sab,sb,scb->sac", rot, lam, rot)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    profile=st.sampled_from(sorted(CLOSURE_PROFILES)),
    block=st.booleans(),
    gamma1=st.floats(0.25, 64.0),
    cfl_multiple=st.floats(0.1, 10.0),
    amplitude=st.floats(0.01, 5.0),
    seed=st.integers(0, 2**16),
)
def test_radial_closure_matches_newton_reference(profile, block, gamma1, cfl_multiple, amplitude, seed):
    law = FeedbackLaw(gamma1=gamma1, gamma2=gamma1 / 4.0, tau=0.25, **CLOSURE_PROFILES[profile])
    rng = np.random.default_rng(seed)
    n = 400
    curl, t_old, z1, nu, tangents, _, _ = _random_batch(rng, n)
    curl, t_old, z1 = amplitude * curl, amplitude * t_old, amplitude * z1
    eps_t = _random_eps_t(rng, n, block)
    # unequal injection scales put a block's root past |p| / 2
    kappa = rng.uniform(4.0, 64.0, (n, 2))
    dt = cfl_multiple * CFL_16
    args = (curl, t_old, z1, nu, tangents, dt, eps_t, kappa)

    out = closure(law, *args)
    assert np.max(np.abs(out - newton_2x2_reference(law, *args))) <= 1e-11
    slack = 1e-15 * dt * kappa.max() * law.gamma1 * 10
    assert _block_defect(law, curl, t_old, out, z1, nu, tangents, dt, eps_t, kappa) <= 1e-12 + slack

    zeros2, zeros3 = np.zeros((n, 2)), np.zeros((n, 3))
    rest = closure(law, zeros2, zeros2, zeros3, nu, tangents, dt, eps_t, kappa)
    assert not np.any(rest)


def test_block_closure_finds_roots_past_half_p():
    # with unequal injection scales the root of a block can lie past |p|/2,
    # inside the sqrt(cond eps_t) |p|/2 bracket
    rng = np.random.default_rng(47)
    n = 20_000
    curl, t_old, z1, nu, tangents, _, _ = _random_batch(rng, n)
    eps_t = _random_eps_t(rng, n, block=True)
    kappa = rng.uniform(4.0, 64.0, (n, 2))
    law = FeedbackLaw(gamma1=0.25, gamma2=0.0625, tau=0.25, **CLOSURE_PROFILES["saturating"])
    args = (curl, t_old, z1, nu, tangents, CFL_16, eps_t, kappa)
    out = closure(law, *args)
    assert np.max(np.abs(out - newton_2x2_reference(law, *args))) <= 1e-11

    m = 0.5 * (t_old + out)
    radius = np.linalg.norm(m, axis=1)
    b = CFL_16 * np.linalg.inv(eps_t) * (kappa * law.gamma1)[:, None, :]
    p = 2.0 * m + law._radial_gain(radius)[:, None] * np.einsum("sab,sb->sa", b, m)
    assert np.count_nonzero(radius > 0.5 * np.linalg.norm(p, axis=1)) >= 10


@pytest.mark.parametrize("block", [False, True], ids=["diagonal", "block"])
def test_radial_closure_names_a_nan_sample(block):
    rng = np.random.default_rng(46)
    curl, t_old, z1, nu, tangents, _, kappa = _random_batch(rng, 50)
    curl[7, 1] = np.nan
    eps_t = _random_eps_t(rng, 50, block)
    with pytest.raises(NumericalError, match="boundary update failed to converge: sample 7,"):
        closure(SATURATING, curl, t_old, z1, nu, tangents, CFL_16, eps_t, kappa)


def _closure_inputs(seed, n, block):
    """Component inputs of one closure call: random, with a block of rest samples and a large one."""
    rng = np.random.default_rng(seed)
    curl, t_old, z1 = (rng.uniform(-1, 1, (n, 2)) for _ in range(3))
    for a in (curl, t_old, z1):
        a[:8] = 0.0
        a[8:16] *= 5.0
    return curl, t_old, z1, _random_eps_t(rng, n, block), rng.uniform(4.0, 64.0, (n, 2))


# every nonlinear profile on both tangential-permittivity shapes, and the
# linear law on blocks, the one linear case that runs the radius solve
ROWS_CASES = [(name, block) for name in sorted(CLOSURE_PROFILES) for block in (False, True)]
ROWS_CASES.append(("linear", True))
ROWS_IDS = [f"{name}-{'block' if block else 'diagonal'}" for name, block in ROWS_CASES]


@pytest.mark.parametrize("profile, block", ROWS_CASES, ids=ROWS_IDS)
@pytest.mark.parametrize("gamma1, cfl_multiple", [(1.0, 1.0), (64.0, 10.0)])
def test_rows_closure_equals_the_two_column_reference(profile, block, gamma1, cfl_multiple):
    # the (2, S) rows form performs the two-column arithmetic, operation for operation
    params = CLOSURE_PROFILES.get(profile, dict(kind="linear", a=1.3))
    law = FeedbackLaw(gamma1=gamma1, gamma2=gamma1 / 4.0, tau=0.25, **params)
    curl, t_old, z1, eps_t, kappa = _closure_inputs(61, 300, block)
    dt = cfl_multiple * CFL_16
    got = implicit_boundary_update(law, curl, t_old, z1, dt, eps_t, kappa)
    ref = two_column_closure(law, curl, t_old, z1, dt, eps_t, kappa)
    assert got.shape == ref.shape
    assert got.tobytes() == ref.tobytes()


@pytest.mark.parametrize("block", [False, True], ids=["diagonal", "block"])
def test_rows_closure_names_the_reference_nan_sample(block):
    curl, t_old, z1, eps_t, kappa = _closure_inputs(62, 50, block)
    curl[23, 0] = np.nan
    messages = []
    for closure_fn in (implicit_boundary_update, two_column_closure):
        with pytest.raises(NumericalError) as info:
            closure_fn(SATURATING, curl, t_old, z1, CFL_16, eps_t, kappa)
        messages.append(str(info.value))
    assert messages[0] == messages[1]
    assert "sample 23," in messages[0]


@pytest.mark.parametrize("block", [False, True], ids=["diagonal", "block"])
def test_radius_solve_takes_few_iterations_at_ten_times_cfl(monkeypatch, block):
    # the radius iteration calls _radial_gain directly: once for the start,
    # twice per Newton step, once more for the delayed tap through eval_g
    calls = []
    real_gain = FeedbackLaw._radial_gain

    def counted_gain(law, norms):
        calls.append(1)
        return real_gain(law, norms)

    monkeypatch.setattr(FeedbackLaw, "_radial_gain", counted_gain)
    rng = np.random.default_rng(43)
    curl, t_old, z1, nu, tangents, eps_t, kappa = _random_batch(rng, 10_000)
    if block:
        eps_t = _random_eps_t(rng, 10_000, block=True)
    for law in (SATURATING, FeedbackLaw(kind="saturating", a=1.0, b=1.0, gamma1=64.0, gamma2=16.0)):
        calls.clear()
        closure(law, curl, t_old, z1, nu, tangents, 10 * CFL_16, eps_t, kappa)
        assert len(calls) <= 2 + 2 * 8
