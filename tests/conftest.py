import numpy as np
import pytest

from delayfdtd.analysis import _dot
from delayfdtd.domain import TANGENT_TOL, BoxDomain, build_grid
from delayfdtd.errors import ContractError
from delayfdtd.feedback import boundary_drive
from delayfdtd.materials import constant_isotropic
from delayfdtd.operator_lab import _load_off_core, resolvent_core
from delayfdtd.operators import EDGE_COMPS, FieldLayout, build_operators


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
    """(S, M+1, 2) tangent-axis components of nu x w, node by node, from (S, M+1, 3) vectors."""
    return np.stack([samples.cross.nu_cross(vectors[:, j]) for j in range(vectors.shape[1])], axis=1)


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
    out[ops.trace_idx] = -ops.inj_scale * comps
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
