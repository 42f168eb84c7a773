import numpy as np
import pytest

from delayfdtd.analysis import _dot
from delayfdtd.delay import DelayRing
from delayfdtd.domain import TANGENT_TOL, BoxDomain, build_grid
from delayfdtd.errors import ContractError, NumericalError
from delayfdtd.feedback import BOUNDARY_MAX_ITER, FeedbackLaw, boundary_drive, eval_g
from delayfdtd.materials import constant_isotropic
from delayfdtd.operator_lab import _load_off_core, resolvent_core
from delayfdtd.operators import EDGE_COMPS, FieldLayout, Operators, build_operators


@pytest.fixture(scope="session")
def unit_grid8():
    return build_grid(BoxDomain((1.0, 1.0, 1.0), (8, 8, 8), (0.5, 0.5, 0.5)))


@pytest.fixture(scope="session")
def ops8(unit_grid8):
    eps = constant_isotropic(unit_grid8, 1.0)
    mu = constant_isotropic(unit_grid8, 1.0)
    return build_operators(unit_grid8, eps, mu)


@pytest.fixture(scope="session")
def unit_grid6():
    return build_grid(BoxDomain((1.0, 1.0, 1.0), (6, 5, 4), (0.5, 0.5, 0.5)))


@pytest.fixture(scope="session")
def ops6(unit_grid6):
    eps = constant_isotropic(unit_grid6, 1.0)
    mu = constant_isotropic(unit_grid6, 1.0)
    return build_operators(unit_grid6, eps, mu)


def random_tangential(ops, rng, shape=()):
    """Random tangential field at the boundary samples."""
    s = ops.grid.samples
    raw = rng.standard_normal(shape + (s.count, 3))
    nu = np.broadcast_to(s.normals, raw.shape)
    return raw - np.einsum("...i,...i->...", raw, nu)[..., None] * nu


def nu_cross_nodes(samples, vectors):
    """(S, M+1, 2) tangent-axis components of nu x w, from (S, M+1, 3) vectors."""
    return samples.cross.nu_cross(vectors.swapaxes(0, 1)).swapaxes(0, 1)


# -- reference helpers that only the tests need ---------------------------------

def split_h(layout, h):
    """The three face families of a packed H-side vector, as arrays."""
    out = []
    for c in EDGE_COMPS:
        o = layout.face_offsets[c]
        n = int(np.prod(layout.face_shapes[c]))
        out.append(h[o : o + n].reshape(layout.face_shapes[c]))
    return tuple(out)


def split_full_edges(layout, vec):
    """The three full edge families of a vector in the range of R, as arrays."""
    out = []
    for c in EDGE_COMPS:
        o = layout.full_edge_offsets[c]
        n = int(np.prod(layout.full_edge_shapes[c]))
        out.append(vec[o : o + n].reshape(layout.full_edge_shapes[c]))
    return tuple(out)


def to_vectors(samples, comps):
    """Expand (S, 2) tangential components into tangential 3-vectors."""
    out = np.zeros((samples.count, 3))
    rows = np.arange(samples.count)
    out[rows, samples.tangents[:, 0]] = comps[:, 0]
    out[rows, samples.tangents[:, 1]] = comps[:, 1]
    return out


def to_components(samples, vectors):
    """Project tangential 3-vectors onto the per-face tangent axes."""
    rows = np.arange(samples.count)
    return np.stack(
        [vectors[rows, samples.tangents[:, 0]], vectors[rows, samples.tangents[:, 1]]],
        axis=1,
    )


def check_tangential(what, v, normals):
    """Raise ContractError unless |v . nu| <= TANGENT_TOL (1 + |v|) everywhere."""
    dots = np.abs(np.einsum("...i,...i->...", v, normals))
    scale = 1.0 + np.sqrt(np.einsum("...i,...i->...", v, v))
    if np.any(dots > TANGENT_TOL * scale):
        raise ContractError(f"{what} is not tangential: max |v.nu| = {float(np.max(dots)):.3e}")


def required_H_trace(law, w_now, w_delayed, nu):
    """Tangential H x nu demanded by the boundary relation.

    h = -gamma1 g(w_now) x nu - gamma2 g(w_delayed) x nu, with w_now and
    w_delayed the instantaneous and delayed tangential traces E x nu.
    """
    w_now = np.asarray(w_now, dtype=float)
    w_delayed = np.asarray(w_delayed, dtype=float)
    nu = np.asarray(nu, dtype=float)
    check_tangential("w_now", w_now, nu)
    check_tangential("w_delayed", w_delayed, nu)
    return -np.cross(boundary_drive(law, w_now, w_delayed), nu)


def boundary_trace_w(ops, q):
    """The trace E x nu at the samples."""
    return ops.grid.samples.cross.cross_nu(ops.layout.trace_view(q))


def inject_trace(ops, h_trace):
    """Boundary forcing of a trace field H x nu, as a q-sized vector."""
    comps = to_components(ops.grid.samples, np.asarray(h_trace, dtype=float))
    out = np.zeros(ops.layout.n_q)
    ops.layout.trace_view(out)[:] = -ops.inj_scale * comps
    return out


def curl_h(ops, h, h_trace=None):
    """Curl of H at E-side sites, closed with the boundary trace H x nu."""
    out = ops.G @ h
    if h_trace is not None:
        out = out + inject_trace(ops, h_trace)
    return out


def trace_vectors(ops, q):
    """Tangential E at the samples as 3-vectors."""
    return to_vectors(ops.grid.samples, ops.layout.trace_view(q))


def green_residual(ops, q, h, h_trace):
    """Relative defect of the discrete integration-by-parts identity."""
    lhs = float(np.dot(ops.Wf * (ops.C @ q), h))
    mid = float(np.dot(ops.Wq * q, curl_h(ops, h, h_trace)))
    t = trace_vectors(ops, q)
    flux = float(np.sum(ops.grid.samples.areas * np.einsum("ij,ij->i", h_trace, t)))
    scale = max(abs(lhs), abs(mid), abs(flux), 1e-300)
    return abs(lhs - mid - flux) / scale


def face_positions(grid, comp):
    """Coordinates of the face centers of one family."""
    shape = FieldLayout(grid).face_shapes[comp]
    axis = EDGE_COMPS.index(comp)
    coords = []
    for a, d_a in enumerate(grid.spacings):
        idx = np.arange(shape[a])
        coords.append(idx * d_a if a == axis else (idx + 0.5) * d_a)
    X, Y, Z = np.meshgrid(*coords, indexing="ij")
    return np.stack([X, Y, Z], axis=-1)


def sample_face_field(ops, func):
    """Sample a vector field onto the packed H-side vector: each face family
    takes its own component at the face centers."""
    layout = ops.layout
    h = np.zeros(layout.n_h)
    for c in EDGE_COMPS:
        pos = face_positions(ops.grid, c)
        vals = np.asarray(func(pos))[..., EDGE_COMPS.index(c)]
        o = layout.face_offsets[c]
        h[o : o + vals.size] = vals.ravel()
    return h


def wepsilon_norm(q, ops):
    """Squared graph norm: |E|^2 + |curl E|^2 + |div(eps E)|^2 + trace term."""
    val = _dot(ops.Wq * q, q)
    curl = ops.C @ q
    val += _dot(ops.Wf * curl, curl)
    div = ops.div_eps @ q
    val += ops.node_weight * _dot(div, div)
    t = trace_vectors(ops, q)
    val += _dot(ops.grid.samples.areas, np.einsum("ij,ij->i", t, t))
    return val


def form_pairing(q1, q2, dq, b, ops, law, F3_tail):
    """<B q1 - B q2, dq> for the resolvent form (strong monotonicity probe).

    B q is the core applied to q plus the load the core does not hold.
    """
    delta = resolvent_core(ops, law, b) @ (q1 - q2)
    delta += _load_off_core(ops, law, b, q1, F3_tail) - _load_off_core(ops, law, b, q2, F3_tail)
    return _dot(delta, dq)


def xi_equivalence_bounds(trace, xi):
    """Pointwise check data for the norm equivalence of E and E_xi.

    Returns the worst margins of
        min(1, xi) * E <= E_xi <= max(1, xi) * E
    where E is the trace's field+delay energy reconstructed with unit delay
    weight: E = E_weighted + (E_xi - E_weighted)/xi.
    """
    e_one = trace.E_weighted + (trace.E_xi - trace.E_weighted) / xi
    lower = trace.E_xi - min(1.0, xi) * e_one
    upper = max(1.0, xi) * e_one - trace.E_xi
    return float(lower.min()), float(upper.min())


def two_column_closure(
    law: FeedbackLaw,
    curl_term: np.ndarray,
    t_old: np.ndarray,
    z1_mid: np.ndarray,
    dt: float,
    eps_t: np.ndarray,
    kappa: np.ndarray,
    tol: float = 1e-12,
) -> np.ndarray:
    """`implicit_boundary_update` as written on the two tangential columns, the reference for the rows form."""
    t_old = np.asarray(t_old, dtype=float)
    eps_t = np.asarray(eps_t, dtype=float)

    if law.kind == "linear" and eps_t.ndim == 2:
        # (t_new - t_old)/dt = eps^{-1}[curl - kappa*(gamma1*a*t_mid + gamma2*a*z1_mid)]
        q = dt / eps_t * kappa * law.a
        rhs = t_old * (1.0 - 0.5 * q * law.gamma1) + dt * curl_term / eps_t - q * law.gamma2 * z1_mid
        return rhs / (1.0 + 0.5 * q * law.gamma1)

    # every 2x2 operation runs on the two tangential columns
    d0, d1 = dt * law.gamma1 * kappa[:, 0], dt * law.gamma1 * kappa[:, 1]
    if eps_t.ndim == 2:
        e0, e1 = eps_t[:, 0], eps_t[:, 1]
        b00, b11 = d0 / e0, d1 / e1
        bound = 0.5

        def mass(x0, x1):  # dt eps_t^{-1} x
            return dt * x0 / e0, dt * x1 / e1

        def times_b(x0, x1):
            return b00 * x0, b11 * x1

        def pencil(gain):  # x -> (2I + gain B)^{-1} x
            a0, a1 = 2.0 + gain * b00, 2.0 + gain * b11
            return lambda x0, x1: (x0 / a0, x1 / a1)
    else:
        e00, e01, e10, e11 = eps_t[:, 0, 0], eps_t[:, 0, 1], eps_t[:, 1, 0], eps_t[:, 1, 1]
        det = e00 * e11 - e01 * e10
        # eps_t^{-1} by its adjugate; B = dt eps_t^{-1} diag(d)
        b00, b01, b10, b11 = e11 * d0 / det, -e01 * d1 / det, -e10 * d0 / det, e00 * d1 / det
        # sqrt(cond eps_t) / 2 = lambda_max / (2 sqrt(det))
        lam_max = 0.5 * (e00 + e11) + np.sqrt(0.25 * (e00 - e11) ** 2 + e01 * e10)
        bound = 0.5 * lam_max / np.sqrt(det)

        def mass(x0, x1):
            return dt * (e11 * x0 - e01 * x1) / det, dt * (e00 * x1 - e10 * x0) / det

        def times_b(x0, x1):
            return b00 * x0 + b01 * x1, b10 * x0 + b11 * x1

        def pencil(gain):
            a00, a01, a10, a11 = 2.0 + gain * b00, gain * b01, gain * b10, 2.0 + gain * b11
            det_a = a00 * a11 - a01 * a10
            return lambda x0, x1: ((a11 * x0 - a01 * x1) / det_a, (a00 * x1 - a10 * x0) / det_a)

    load = curl_term
    if law.gamma2 != 0.0:
        load = curl_term - kappa * law.gamma2 * eval_g(law, z1_mid)
    t0, t1 = t_old[:, 0], t_old[:, 1]
    c0, c1 = mass(load[:, 0], load[:, 1])
    p0, p1 = 2.0 * t0 + c0, 2.0 * t1 + c1
    lo = np.zeros_like(p0)
    hi = bound * np.sqrt(p0 * p0 + p1 * p1)
    # start one fixed-point step off the old radius
    m0, m1 = pencil(law._radial_gain(np.minimum(np.sqrt(t0 * t0 + t1 * t1), hi)))(p0, p1)
    r = np.sqrt(m0 * m0 + m1 * m1)
    with np.errstate(divide="ignore", invalid="ignore"):
        # r = 0 or |m| = 0 make the Newton step NaN; the bracket test sends it to bisection
        for _ in range(BOUNDARY_MAX_ITER):
            gain = law._radial_gain(r)
            solve = pencil(gain)
            m0, m1 = solve(p0, p1)
            s = np.sqrt(m0 * m0 + m1 * m1)
            bm0, bm1 = times_b(m0, m1)
            lag = gain - law._radial_gain(s)
            res = np.maximum(np.abs(lag * bm0), np.abs(lag * bm1))
            done = res <= tol  # a NaN residual stays active
            if done.all():
                return np.stack([2.0 * m0 - t0, 2.0 * m1 - t1], axis=1)
            phi = r - s
            lo = np.where(phi < 0, r, lo)
            hi = np.where(phi > 0, r, hi)
            # d|m|/dr = -gain'(r) m.(2I + gain B)^{-1} B m / |m|, gain' = (G' - gain) / r
            w0, w1 = solve(bm0, bm1)
            slope = 1.0 + (law._radial_slope(r) - gain) / r * (m0 * w0 + m1 * w1) / s
            step = r - phi / slope
            step = np.where((step >= lo) & (step <= hi), step, 0.5 * (lo + hi))
            r = np.where(done, r, step)
    bad = int(np.argmax(res))  # the first NaN, if any
    raise NumericalError(
        f"boundary update failed to converge: sample {bad}, residual {float(res[bad]):.3e} "
        f"after {BOUNDARY_MAX_ITER} iterations"
    )


# -- the recorder as it summed before the one-pass einsum form --------------------

def field_energies(q, h, h_prev, ops: Operators) -> tuple[float, float]:
    """(weighted, plain) field energy: E part plus staggered H product.

    Each row of the stacked masses is one contiguous pairwise sum, so the
    pair costs one pass and equals two separate `_dot`s bit for bit.  The
    products are formed in place: a second (2, n) temporary costs more than
    the arithmetic.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        wq = ops.Wq_pair * q
        wq *= q
        wh = ops.Wf_pair * h_prev
        wh *= h
        e = 0.5 * np.sum(wq, axis=1)
        e += 0.5 * np.sum(wh, axis=1)
    return float(e[0]), float(e[1])


def pairwise_energies(
    q, h, h_prev, ring: DelayRing, ops: Operators, xi: float, tau: float
) -> tuple[float, float, float, float]:
    """(E_weighted, E_plain, E_xi, D) at the current time level, the reference for `analysis.energies`."""
    e_w, e_p = field_energies(q, h, h_prev, ops)
    areas = ops.grid.samples.areas
    e_xi = e_w + xi * tau * _dot(areas, ring.s_energy())
    d_val = _dot(areas, ring.slot_norm2(0) + ring.slot_norm2(ring.N))
    return e_w, e_p, e_xi, d_val


def pairwise_outflow(ring: DelayRing, law: FeedbackLaw, xi: float, areas: np.ndarray) -> float:
    """Instantaneous -dE_xi/dt from the boundary terms, the reference for `analysis.boundary_outflow`.

    flux = sum dA [ (g1 g(Z0) + g2 g(Z1)) . Z0 - xi (|Z0|^2 - |Z1|^2) ].
    """
    z0 = ring.slot(0)
    work = boundary_drive(law, z0, ring.slot(ring.N))
    integrand = np.einsum("ij,ij->i", work, z0) - xi * (ring.slot_norm2(0) - ring.slot_norm2(ring.N))
    return _dot(areas, integrand)
