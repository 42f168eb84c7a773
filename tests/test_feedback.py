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
    required_H_trace,
)

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
    assert (k.c1, k.c2, k.provenance) == (2.0, 2.0, "analytic")


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


def test_table_law_sampled_constants(tmp_path):
    path = tmp_path / "g.txt"
    rs = np.linspace(0, 12, 25)
    path.write_text("\n".join(f"{r} {1.5 * r}" for r in rs))
    law = load_table_law(path, gamma1=1.0, tau=0.25)
    k = constants(law, n_pairs=20_000)
    assert k.provenance == "sampled"
    assert k.c1 == pytest.approx(1.5, rel=1e-6)
    assert k.c2 == pytest.approx(1.5, rel=1e-6)


def test_table_law_decreasing_rejected(tmp_path):
    path = tmp_path / "g.txt"
    path.write_text("0 0\n1 -1\n10 -10\n")
    law = load_table_law(path, gamma1=1.0, tau=0.25)
    with pytest.raises(AssumptionError):
        constants(law, n_pairs=5_000)


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


def test_implicit_update_rest_is_fixed_point():
    nu, tangents, eps_t, kappa = _metrics()
    out = implicit_boundary_update(
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
    got = implicit_boundary_update(law, curl, t_old, z1, nu, tangents, 0.02, eps_t, kappa)
    ref = closed_form_linear(law, curl, t_old, z1, nu, tangents, 0.02, eps_t, kappa)
    assert np.max(np.abs(got - ref)) <= 1e-12

    # the general fixed-point path must agree with the closed form too
    bent = FeedbackLaw(kind="saturating", a=1.3, b=0.0, gamma1=0.8, gamma2=0.4, tau=0.25)
    got_fp = implicit_boundary_update(bent, curl, t_old, z1, nu, tangents, 0.02, eps_t, kappa)
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
    out = implicit_boundary_update(
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
        out = implicit_boundary_update(law, curl, t_old, z1, nu, tangents, dt, eps_t, kappa)
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
    out = implicit_boundary_update(law, curl, t_old, z1, nu, tangents, dt, eps_t, kappa, tol=1e-12)
    assert _centered_defect(law, curl, t_old, out, z1, nu, tangents, dt, eps_t, kappa) <= 1e-12 + 1e-14
    # and lands next to the saturating law it samples
    ref = implicit_boundary_update(SATURATING, curl, t_old, z1, nu, tangents, dt, eps_t, kappa)
    assert np.max(np.abs(out - ref)) <= 1e-3


def test_tensor_block_matches_diagonal_entries():
    # an (S, 2, 2) tangential block with zero off-diagonals is the diagonal path
    rng = np.random.default_rng(45)
    curl, t_old, z1, nu, tangents, _, kappa = _random_batch(rng, 500)
    eps_t = rng.uniform(1.0, 3.0, (500, 2))
    block = eps_t[:, :, None] * np.eye(2)
    dt = 0.95 / (16 * np.sqrt(3.0))
    for law in (SATURATING, FeedbackLaw(kind="linear", a=1.3, gamma1=0.8, gamma2=0.4, tau=0.25)):
        diag = implicit_boundary_update(law, curl, t_old, z1, nu, tangents, dt, eps_t, kappa)
        full = implicit_boundary_update(law, curl, t_old, z1, nu, tangents, dt, block, kappa)
        assert np.max(np.abs(full - diag)) <= 1e-12
