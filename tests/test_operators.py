import numpy as np
import pytest
import scipy.sparse as sp

from delayfdtd.domain import FACES, BoxDomain, build_grid, tangent_axes
from delayfdtd.materials import (
    TensorField,
    constant_diagonal,
    constant_full,
    constant_isotropic,
    diagonal_ramp,
)
from delayfdtd.operators import (
    EDGE_COMPS,
    _edge_material,
    _face_material,
    build_operators,
    full_tensor_inverses,
    matvec,
    sample_vector_field,
)

from conftest import curl_h, green_residual, random_tangential, sample_face_field, split_h


def test_green_identity_random_fields(ops6):
    # discrete integration by parts with an arbitrary boundary H-trace
    rng = np.random.default_rng(5)
    worst = 0.0
    for _ in range(20):
        q = rng.standard_normal(ops6.layout.n_q)
        h = rng.standard_normal(ops6.layout.n_h)
        h_tr = random_tangential(ops6, rng)
        worst = max(worst, green_residual(ops6, q, h, h_tr))
    assert worst <= 1e-10


def test_green_identity_anisotropic_materials():
    grid = build_grid(BoxDomain((1.3, 0.9, 1.1), (6, 5, 7), (0.6, 0.45, 0.5)))
    eps = diagonal_ramp(grid, (1.0, 2.0, 1.5), axis=1, slope=0.7, entry=2)
    mu = constant_diagonal(grid, (1.0, 3.0, 2.0))
    ops = build_operators(grid, eps, mu)
    rng = np.random.default_rng(8)
    q = rng.standard_normal(ops.layout.n_q)
    h = rng.standard_normal(ops.layout.n_h)
    h_tr = random_tangential(ops, rng)
    assert green_residual(ops, q, h, h_tr) <= 1e-12


def test_curl_of_linear_field_interior_exact(ops6):
    def lin(p):
        x, y, z = p[..., 0], p[..., 1], p[..., 2]
        return np.stack([2 * y + 3 * z, 5 * z + 7 * x, 11 * x + 13 * y], axis=-1)

    q = sample_vector_field(ops6, lin)
    cx, cy, cz = split_h(ops6.layout, ops6.C @ q)
    # curl = (13-5, 3-11, 7-2); the reconstruction is exact away from the
    # box-edge lines, first-order accurate on them
    assert np.abs(cx[:, 1:-1, 1:-1] - 8).max() <= 1e-12
    assert np.abs(cy[1:-1, :, 1:-1] + 8).max() <= 1e-12
    assert np.abs(cz[1:-1, 1:-1, :] - 5).max() <= 1e-12


def test_curl_h_interior_matches_hand_stencil(ops6):
    rng = np.random.default_rng(2)
    h = rng.standard_normal(ops6.layout.n_h)
    hx, hy, hz = split_h(ops6.layout, h)
    dx, dy, dz = ops6.grid.spacings
    rhs = ops6.G @ h
    lay = ops6.layout
    nx, ny, nz = ops6.grid.shape
    ex = rhs[: np.prod(lay.int_edge_shapes["x"])].reshape(lay.int_edge_shapes["x"])
    # hand stencil at one interior x-edge (i, j, k) = (2, 3, 2) in full coords
    i, j, k = 2, 3, 2
    hand = (hz[i, j, k] - hz[i, j - 1, k]) / dy - (hy[i, j, k] - hy[i, j, k - 1]) / dz
    assert ex[i, j - 1, k - 1] == pytest.approx(hand, rel=1e-13)


def test_div_of_curl_h_vanishes(ops6):
    rng = np.random.default_rng(3)
    h = rng.standard_normal(ops6.layout.n_h)
    h_tr = random_tangential(ops6, rng)
    upd = curl_h(ops6, h, h_tr)
    scale = np.abs(upd).max() / min(ops6.grid.spacings)
    assert np.abs(ops6.div_eps @ upd).max() <= 1e-13 * scale


def test_curl_of_gradient_vanishes(ops6):
    nx, ny, nz = ops6.grid.shape
    dx, dy, dz = ops6.grid.spacings
    xi = np.arange(1, nx) * dx
    yi = np.arange(1, ny) * dy
    zi = np.arange(1, nz) * dz
    X, Y, Z = np.meshgrid(xi, yi, zi, indexing="ij")
    phi = (np.sin(np.pi * X) * np.sin(2 * np.pi * Y) * Z * (1 - Z)).ravel()
    gq = ops6.grad_int @ phi
    assert np.abs(ops6.C @ gq).max() <= 1e-12 * max(1.0, np.abs(gq).max() / dx)


def test_masses_tile_volume_exactly():
    grid = build_grid(BoxDomain((2.0, 1.0, 1.5), (8, 5, 6), (1.0, 0.5, 0.75)))
    ops = build_operators(grid, constant_isotropic(grid, 1.0), constant_isotropic(grid, 1.0))
    vol = 2.0 * 1.0 * 1.5
    for direction in np.eye(3):
        qc = sample_vector_field(ops, lambda p, d=direction: np.broadcast_to(d, p.shape))
        assert np.dot(ops.Wq * qc, qc) == pytest.approx(vol, rel=1e-13)
        hc = sample_face_field(ops, lambda p, d=direction: np.broadcast_to(d, p.shape))
        assert np.dot(ops.Wf * hc, hc) == pytest.approx(vol, rel=1e-13)


def test_material_averaging_on_edges():
    grid = build_grid(BoxDomain((1, 1, 1), (4, 4, 4), (0.5, 0.5, 0.5)))
    eps = diagonal_ramp(grid, (1.0, 1.0, 1.0), axis=0, slope=1.0, entry=0)
    ops = build_operators(grid, eps, constant_isotropic(grid, 1.0))
    lay = ops.layout
    # interior x-edge at (i+1/2, j, k) averages the four adjacent cells, all
    # sharing the same x-coordinate: value = 1 + (i + 1/2) dx
    exq = ops.eps_q[: np.prod(lay.int_edge_shapes["x"])].reshape(lay.int_edge_shapes["x"])
    for i in range(4):
        assert np.allclose(exq[i], 1.0 + (i + 0.5) * 0.25)


# -- loop reference for the vectorized assembly ----------------------------------
#
# The per-entry builders below are the original assembly, kept as an
# independent reference: the Kronecker/index-arithmetic builders must
# reproduce them entry for entry.

_INT_AXES = {"x": (1, 2), "y": (0, 2), "z": (0, 1)}


def _ref_int_edge_index(lay, comp, idx):
    shift = [0, 0, 0]
    for a in _INT_AXES[comp]:
        shift[a] = 1
    local = tuple(idx[a] - shift[a] for a in range(3))
    return lay.int_offsets[comp] + int(np.ravel_multi_index(local, lay.int_edge_shapes[comp]))


def _ref_face_index(lay, comp, idx):
    return lay.face_offsets[comp] + int(np.ravel_multi_index(idx, lay.face_shapes[comp]))


def _ref_full_edge_index(lay, comp, idx):
    return lay.full_edge_offsets[comp] + int(np.ravel_multi_index(idx, lay.full_edge_shapes[comp]))


def _ref_edge_sample_terms(lay, comp, idx):
    grid = lay.grid
    n = grid.shape
    axis = EDGE_COMPS.index(comp)
    shape = lay.full_edge_shapes[comp]
    found = []
    for fid, (face_axis, side) in enumerate(FACES):
        if face_axis == axis:
            continue
        wall = 0 if side < 0 else shape[face_axis] - 1
        if idx[face_axis] != wall:
            continue
        t1, t2 = tangent_axes(face_axis)
        slot = 0 if axis == t1 else 1
        other = t2 if axis == t1 else t1
        span = idx[axis]
        node = idx[other]
        # the samples of face fid run u-major from the end of the faces before it
        start = sum(n[a] * n[b] for a, b in (tangent_axes(f_axis) for f_axis, _ in FACES[:fid]))
        n2 = n[t2]
        for cell_other in (node - 1, node):
            if not (0 <= cell_other < n[other]):
                continue
            u, v = (span, cell_other) if axis == t1 else (cell_other, span)
            found.append(lay.trace_offset + 2 * (start + u * n2 + v) + slot)
    w = 1.0 / len(found)
    return [(qi, w) for qi in found]


def _ref_reconstruction(lay):
    rows, cols, vals = [], [], []
    for comp in EDGE_COMPS:
        shape = lay.full_edge_shapes[comp]
        for idx in np.ndindex(shape):
            r = _ref_full_edge_index(lay, comp, idx)
            if all(0 < idx[a] < shape[a] - 1 for a in _INT_AXES[comp]):
                rows.append(r)
                cols.append(_ref_int_edge_index(lay, comp, idx))
                vals.append(1.0)
            else:
                for qi, w in _ref_edge_sample_terms(lay, comp, idx):
                    rows.append(r)
                    cols.append(qi)
                    vals.append(w)
    return sp.csr_matrix((vals, (rows, cols)), shape=(lay.n_full_edges, lay.n_q))


def _ref_full_curl(lay):
    dx, dy, dz = lay.grid.spacings
    d = {"x": dx, "y": dy, "z": dz}
    rows, cols, vals = [], [], []

    def add(face_comp, fidx, edge_comp, eidx, coeff):
        rows.append(_ref_face_index(lay, face_comp, fidx))
        cols.append(_ref_full_edge_index(lay, edge_comp, eidx))
        vals.append(coeff)

    cyclic = {"x": ("y", "z"), "y": ("z", "x"), "z": ("x", "y")}
    axis_of = {"x": 0, "y": 1, "z": 2}
    for a in EDGE_COMPS:
        b, c = cyclic[a]
        for fidx in np.ndindex(lay.face_shapes[a]):
            up_b = list(fidx)
            up_b[axis_of[b]] += 1
            add(a, fidx, c, tuple(up_b), 1.0 / d[b])
            add(a, fidx, c, fidx, -1.0 / d[b])
            up_c = list(fidx)
            up_c[axis_of[c]] += 1
            add(a, fidx, b, tuple(up_c), -1.0 / d[c])
            add(a, fidx, b, fidx, 1.0 / d[c])
    return sp.csr_matrix((vals, (rows, cols)), shape=(lay.n_h, lay.n_full_edges))


def _ref_divergence(lay, coeff_q):
    nx, ny, nz = lay.grid.shape
    d = lay.grid.spacings
    node_shape = (nx - 1, ny - 1, nz - 1)
    rows, cols, vals = [], [], []
    for comp, axis in zip(EDGE_COMPS, range(3)):
        for node in np.ndindex(node_shape):
            hi = [node[0] + 1, node[1] + 1, node[2] + 1]
            lo = list(hi)
            lo[axis] -= 1
            r = int(np.ravel_multi_index(node, node_shape))
            qhi = _ref_int_edge_index(lay, comp, tuple(hi))
            qlo = _ref_int_edge_index(lay, comp, tuple(lo))
            rows += [r, r]
            cols += [qhi, qlo]
            vals += [coeff_q[qhi] / d[axis], -coeff_q[qlo] / d[axis]]
    return sp.csr_matrix((vals, (rows, cols)), shape=(int(np.prod(node_shape)), lay.n_q))


def _ref_gradient(lay):
    nx, ny, nz = lay.grid.shape
    d = lay.grid.spacings
    node_shape = (nx - 1, ny - 1, nz - 1)

    def node_index(i, j, k):
        if 1 <= i <= nx - 1 and 1 <= j <= ny - 1 and 1 <= k <= nz - 1:
            return int(np.ravel_multi_index((i - 1, j - 1, k - 1), node_shape))
        return None

    rows, cols, vals = [], [], []
    for comp, axis in zip(EDGE_COMPS, range(3)):
        for idx in np.ndindex(lay.int_edge_shapes[comp]):
            full = [idx[a] + (a in _INT_AXES[comp]) for a in range(3)]
            r = _ref_int_edge_index(lay, comp, tuple(full))
            hi = list(full)
            hi[axis] += 1
            for node, sign in ((tuple(hi), 1.0), (tuple(full), -1.0)):
                ni = node_index(*node)
                if ni is not None:
                    rows.append(r)
                    cols.append(ni)
                    vals.append(sign / d[axis])
    return sp.csr_matrix((vals, (rows, cols)), shape=(lay.n_q, int(np.prod(node_shape))))


@pytest.fixture(scope="module")
def ops_ramp_box():
    grid = build_grid(BoxDomain((2.0, 1.0, 1.5), (8, 5, 6), (1.0, 0.5, 0.75)))
    eps = diagonal_ramp(grid, (1.0, 2.0, 1.5), axis=1, slope=0.7, entry=2)
    return build_operators(grid, eps, constant_isotropic(grid, 1.0))


@pytest.fixture(scope="module")
def ops_skew_box():
    # spacings that are not powers of two, so c / d and c * (1 / d) differ
    grid = build_grid(BoxDomain((1.3, 0.9, 1.1), (6, 5, 7), (0.6, 0.45, 0.5)))
    eps = diagonal_ramp(grid, (1.0, 2.0, 1.5), axis=1, slope=0.7, entry=2)
    return build_operators(grid, eps, constant_diagonal(grid, (1.0, 3.0, 2.0)))


@pytest.mark.parametrize("fixture", ["ops6", "ops8", "ops_ramp_box", "ops_skew_box"])
def test_assembly_matches_loop_reference(fixture, request):
    ops = request.getfixturevalue(fixture)
    lay = ops.layout
    R = _ref_reconstruction(lay)
    C = (_ref_full_curl(lay) @ R).tocsr()
    G = (sp.diags(1.0 / ops.Wq) @ C.T @ sp.diags(ops.Wf)).tocsr()
    ref = {
        "C": C,
        "G": G,
        "R": R,
        "div_eps": _ref_divergence(lay, ops.eps_q),
        "div_plain": _ref_divergence(lay, np.ones(lay.n_q)),
        "grad_int": _ref_gradient(lay),
    }
    for name, want in ref.items():
        got = getattr(ops, name)
        assert got.shape == want.shape, name
        assert got.nnz == want.nnz, name
        assert abs(got - want).max() == 0.0, name


def _loop_reference(ops):
    lay = ops.layout
    R = _ref_reconstruction(lay)
    C = (_ref_full_curl(lay) @ R).tocsr()
    return {
        "C": C,
        "G": (sp.diags(1.0 / ops.Wq) @ C.T @ sp.diags(ops.Wf)).tocsr(),
        "R": R,
        "div_eps": _ref_divergence(lay, ops.eps_q),
        "div_plain": _ref_divergence(lay, np.ones(lay.n_q)),
        "grad_int": _ref_gradient(lay),
    }


def _assert_same_storage(got, want, name):
    # equal CSR arrays make every mat-vec sum in the same order, bit for bit
    assert got.shape == want.shape, name
    for part in ("indptr", "indices", "data"):
        a, b = getattr(got, part), getattr(want, part)
        assert a.dtype == b.dtype and np.array_equal(a, b), (name, part)


@pytest.mark.parametrize("fixture", ["ops6", "ops8", "ops_ramp_box", "ops_skew_box"])
def test_assembly_storage_matches_loop_reference(fixture, request):
    ops = request.getfixturevalue(fixture)
    for name, want in _loop_reference(ops).items():
        _assert_same_storage(getattr(ops, name), want, name)


def _kron_reference_inverses(ops):
    """full_tensor_inverses assembled from scipy 1-D factors and nested sp.kron."""
    n = ops.grid.shape

    def kron3(factors):
        return sp.kron(sp.kron(factors[0], factors[1], "coo"), factors[2], "coo")

    def mean(m):
        return sp.diags([0.5, 0.5], [0, 1], shape=(m, m + 1))

    def held_mean(m):
        ends = sp.coo_matrix(([0.5, 0.5], ([0, m], [0, m - 1])), shape=(m + 1, m))
        return sp.diags([0.5, 0.5], [-1, 0], shape=(m + 1, m)) + ends

    def edge_collocation(c, j):
        return kron3([
            sp.identity(n[a]) if a == c == j
            else mean(n[a]) if a == c
            else mean(n[a] - 1) if a == j
            else sp.eye(n[a] - 1, n[a] + 1, k=1)
            for a in range(3)
        ])

    def face_collocation(c, j):
        return kron3([
            sp.identity(n[a] + (a == c)) if c == j or a not in (c, j)
            else held_mean(n[a]) if a == c
            else mean(n[a])
            for a in range(3)
        ])

    def inverse_mass(inv, collocate):
        return sp.bmat([
            [sp.diags(inv[c][..., c, j].ravel()) @ collocate(c, j) for j in range(3)]
            for c in range(3)
        ]).tocsr()

    def symmetrized(t):
        return 0.5 * (t.values + np.swapaxes(t.values, -1, -2))

    eps_inv = [np.linalg.inv(_edge_material(symmetrized(ops.eps), c)) for c in EDGE_COMPS]
    mu_inv = [np.linalg.inv(_face_material(symmetrized(ops.mu), c)) for c in EDGE_COMPS]
    return (
        (inverse_mass(eps_inv, edge_collocation) @ ops.R).tocsr(),
        inverse_mass(mu_inv, face_collocation),
    )


@pytest.mark.parametrize("field", ["constant_full", "random_spd"])
def test_full_tensor_inverses_storage_matches_kron_reference(field):
    # spacings 1.3/6, 0.9/5 and 1.1/7 are not powers of two
    grid = build_grid(BoxDomain((1.3, 0.9, 1.1), (6, 5, 7), (0.6, 0.45, 0.5)))
    if field == "constant_full":
        eps = constant_full(grid, (2.0, 1.5, 1.8, 0.2, 0.1, 0.15))
        mu = constant_full(grid, (1.2, 1.0, 1.4, -0.1, 0.0, 0.2))
    else:
        rng = np.random.default_rng(13)
        a = rng.standard_normal((2,) + grid.shape + (3, 3))
        spd = np.einsum("...ij,...kj->...ik", a, a) + 0.5 * np.eye(3)
        eps, mu = TensorField.from_values(spd[0]), TensorField.from_values(spd[1])
    ops = build_operators(grid, eps, mu)
    eps_inv, mu_inv, _ = full_tensor_inverses(ops)
    want_eps, want_mu = _kron_reference_inverses(ops)
    _assert_same_storage(eps_inv, want_eps, "eps_inv")
    _assert_same_storage(mu_inv, want_mu, "mu_inv")


# -- CG on a symmetric positive definite matrix ----------------------------------

def test_factor_symmetric_rejects_indefinite_matrix():
    from delayfdtd.errors import NumericalError
    from delayfdtd.operator_lab import CoreCG

    A = sp.csr_matrix(np.array([[1.0, 0.5], [0.5, -1.0]]))
    with pytest.raises(NumericalError, match="coupled pair is not positive definite"):
        CoreCG(A, "coupled pair")


def test_core_cg_rejects_negative_curvature():
    # a positive diagonal passes the set-up; the first step meets p.Ap < 0
    from delayfdtd.errors import NumericalError
    from delayfdtd.operator_lab import CoreCG

    cg = CoreCG(sp.csr_matrix(np.array([[1.0, 2.0], [2.0, 1.0]])), "coupled pair")
    with pytest.raises(NumericalError, match="coupled pair is not positive definite"):
        cg.solve(np.array([1.0, -1.0]))


@pytest.mark.parametrize(
    "dense, x",
    [([[4.0]], [0.5]), ([[25.0, 15.0], [15.0, 25.0]], [1.0, -1.0])],
    ids=["1x1", "2x2"],
)
def test_factor_symmetric_small_matrices_solve_exactly(dense, x):
    # the right-hand side is an eigenvector of D^-1 A, so one CG step lands on x
    from delayfdtd.operator_lab import CoreCG

    A = np.array(dense)
    solution, _ = CoreCG(sp.csr_matrix(A), "small matrix").solve(A @ np.array(x))
    assert np.array_equal(solution, np.array(x))


def test_matvec_has_the_bits_of_the_scipy_product():
    grid = build_grid(BoxDomain((1.3, 0.9, 1.1), (6, 5, 7), (0.6, 0.45, 0.5)))
    eps = diagonal_ramp(grid, (1.0, 2.0, 1.5), axis=1, slope=0.7, entry=2)
    ops = build_operators(grid, eps, constant_diagonal(grid, (1.0, 3.0, 2.0)))
    rng = np.random.default_rng(63)
    # unsorted column indices with duplicates within a row, and an empty row
    odd = sp.csr_matrix(
        (rng.standard_normal(7), np.array([3, 0, 3, 1, 2, 2, 0]), np.array([0, 3, 3, 7])), shape=(3, 4)
    )
    assert not odd.has_canonical_format
    for a in (ops.G, ops.C, odd):
        out = np.full(a.shape[0], np.nan)  # the result must not depend on what out held
        for _ in range(2):
            x = rng.standard_normal(a.shape[1]) * 10.0 ** rng.uniform(-100, 100, a.shape[1])
            assert matvec(a, x, out) is out
            assert out.tobytes() == (a @ x).tobytes()
