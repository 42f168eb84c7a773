"""Discrete curl, divergence and mass operators on the staggered grid.

Degrees of freedom
------------------
The E side packs, into one vector q: the three interior edge families and two
tangential trace components per boundary sample (face-center collocated).
The H side is the three face families, all faces included.

The edge-to-face curl C acts on q; tangential boundary edges needed by face
stencils are reconstructed as the average of the adjacent samples' matching
components (matrix R folded into C).  The face-to-edge curl is defined as the
quadrature-weighted adjoint G = Wq^-1 C^T Wf, which reproduces the textbook
interior stencil and closes boundary rows with one-sided half-cell
differences.  Because G is built as an exact adjoint, the discrete integration
by parts, with the curl of H closed by boundary trace data hG,

    sum_f Wf (C q) . H  -  sum_q Wq q . (G H - J hG)  =  sum_Gamma dA hG . t

holds to round-off for any hG (J puts dA / Wq times the tangential components
of hG on the trace slots; t is the tangential E), which is the backbone of
every energy identity in the package.

The stencils are Kronecker products of 1-D factors (forward differences
and identities for the Yee construction; neighbour means and interior
selections for the full-tensor inverse masses).  Each factor is an index
triplet, one broadcast forms their product, and an operator's blocks are
concatenated into one CSR matrix; R is index arithmetic over the samples,
so assembly has no per-entry Python loop.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse import _sparsetools

from .domain import YeeGrid
from .errors import ConfigError
from .materials import TensorField

EDGE_COMPS = ("x", "y", "z")


def _offsets(shapes: dict) -> tuple[dict, int]:
    """Start of each family in a packed vector, and the packed length."""
    offsets, off = {}, 0
    for c in EDGE_COMPS:
        offsets[c] = off
        off += int(np.prod(shapes[c]))
    return offsets, off


class FieldLayout:
    """Index bookkeeping for the packed q and h vectors."""

    def __init__(self, grid: YeeGrid):
        nx, ny, nz = grid.shape
        self.grid = grid
        self.full_edge_shapes = {
            "x": (nx, ny + 1, nz + 1),
            "y": (nx + 1, ny, nz + 1),
            "z": (nx + 1, ny + 1, nz),
        }
        self.int_edge_shapes = {
            "x": (nx, ny - 1, nz - 1),
            "y": (nx - 1, ny, nz - 1),
            "z": (nx - 1, ny - 1, nz),
        }
        self.face_shapes = {
            "x": (nx + 1, ny, nz),
            "y": (nx, ny + 1, nz),
            "z": (nx, ny, nz + 1),
        }
        self.int_offsets, self.trace_offset = _offsets(self.int_edge_shapes)
        self.n_samples = grid.samples.count
        self.n_q = self.trace_offset + 2 * self.n_samples
        self.face_offsets, self.n_h = _offsets(self.face_shapes)
        self.full_edge_offsets, self.n_full_edges = _offsets(self.full_edge_shapes)

    def trace_view(self, q: np.ndarray) -> np.ndarray:
        return q[self.trace_offset :].reshape(self.n_samples, 2)


def _kron3(factors):
    """One 1-D factor per axis of a C-ordered 3-D array, as one triplet.

    A triplet is (rows, cols, vals, shape).  The product is formed by
    broadcasting, each value as (a * b) * c like nested Kronecker products.
    """
    (r0, c0, v0, (m0, n0)), (r1, c1, v1, (m1, n1)), (r2, c2, v2, (m2, n2)) = factors
    rows = (r0[:, None, None] * m1 + r1[:, None]) * m2 + r2
    cols = (c0[:, None, None] * n1 + c1[:, None]) * n2 + c2
    vals = v0[:, None, None] * v1[:, None] * v2
    return rows.ravel(), cols.ravel(), vals.ravel(), (m0 * m1 * m2, n0 * n1 * n2)


def _assemble(blocks, shape) -> sp.csr_matrix:
    """One CSR matrix from (row offset, column offset, rows, cols, vals) blocks."""
    rows = np.concatenate([r0 + r for r0, _, r, _, _ in blocks])
    cols = np.concatenate([c0 + c for _, c0, _, c, _ in blocks])
    vals = np.concatenate([v for *_, v in blocks])
    return sp.csr_matrix((vals, (rows, cols)), shape=shape)


def _stencil(row_shape, axis: int, d: float):
    """Forward difference over spacing d along `axis`, identity elsewhere.

    Maps a C-ordered array one node longer along `axis` than `row_shape` onto
    `row_shape`: row i reads (u[i+1] - u[i]) / d.
    """
    return _kron3([
        _difference(row_shape[a], d) if a == axis else _eye(row_shape[a]) for a in range(3)
    ])


def _eye(m: int):
    """(m, m) identity, as the triplet (rows, cols, vals, shape)."""
    i = np.arange(m)
    return i, i, np.ones(m), (m, m)


def _difference(m: int, d: float):
    """(m, m+1): row i reads (u[i+1] - u[i]) / d."""
    i = np.arange(m)
    return np.r_[i, i], np.r_[i, i + 1], np.repeat([-1.0 / d, 1.0 / d], m), (m, m + 1)


def _mean(m: int):
    """(m, m+1): row i reads (u[i] + u[i+1]) / 2."""
    i = np.arange(m)
    return np.r_[i, i], np.r_[i, i + 1], np.full(2 * m, 0.5), (m, m + 1)


def _inner(m: int):
    """(m-1, m+1): the m-1 interior entries of m+1 nodes."""
    i = np.arange(m - 1)
    return i, i + 1, np.ones(m - 1), (m - 1, m + 1)


def _held_mean(m: int):
    """(m+1, m): the neighbour mean of u padded by its own end values."""
    i = np.arange(m)
    vals = np.full(2 * m, 0.5)
    vals[[m - 1, m]] = 1.0  # rows m and 0 hold the end values
    return np.r_[i + 1, i], np.r_[i, i], vals, (m + 1, m)


def _build_reconstruction(layout: FieldLayout) -> sp.csr_matrix:
    """R: q -> full edge arrays (identity interior, sample averages on walls)."""
    s = layout.grid.samples
    rows, cols = [], []
    for a, comp in enumerate(EDGE_COMPS):
        shape = layout.full_edge_shapes[comp]
        inner = [slice(1, -1)] * 3
        inner[a] = slice(None)
        full = np.arange(int(np.prod(shape))).reshape(shape)[tuple(inner)]
        rows.append(layout.full_edge_offsets[comp] + full.ravel())
        cols.append(layout.int_offsets[comp] + np.arange(full.size))
    # trace component `slot` of a sample feeds the two wall edges along its
    # tangent axis that bound the sample's face cell; on a high wall the
    # edges sit at node n, one past the owning cell index n - 1
    each = np.arange(s.count)
    wall = s.cells.copy()
    wall[each, s.axis] += s.side > 0
    for slot in (0, 1):
        along, other = s.tangents[:, slot], s.tangents[:, 1 - slot]
        for step in (0, 1):
            idx = wall.copy()
            idx[each, other] += step
            for a, comp in enumerate(EDGE_COMPS):
                mine = np.flatnonzero(along == a)
                flat = np.ravel_multi_index(idx[mine].T, layout.full_edge_shapes[comp])
                rows.append(layout.full_edge_offsets[comp] + flat)
                cols.append(layout.trace_offset + 2 * mine + slot)
    rows, cols = np.concatenate(rows), np.concatenate(cols)
    vals = 1.0 / np.bincount(rows)[rows]
    return sp.csr_matrix((vals, (rows, cols)), shape=(layout.n_full_edges, layout.n_q))


def _build_full_curl(layout: FieldLayout) -> sp.csr_matrix:
    """Textbook edge-to-face curl on the full edge arrays."""
    d = layout.grid.spacings
    blocks = []
    # (curl E)_a = dE_c/db - dE_b/dc for (a, b, c) cyclic; the difference over
    # -d is the negated difference, bit for bit
    for a, comp in enumerate(EDGE_COMPS):
        b, c = (a + 1) % 3, (a + 2) % 3
        shape, row = layout.face_shapes[comp], layout.face_offsets[comp]
        for edges, along, step in ((c, b, d[b]), (b, c, -d[c])):
            rows, cols, vals, _ = _stencil(shape, along, step)
            blocks.append((row, layout.full_edge_offsets[EDGE_COMPS[edges]], rows, cols, vals))
    return _assemble(blocks, (layout.n_h, layout.n_full_edges))


def _build_divergence(layout: FieldLayout, coeff_q: np.ndarray) -> sp.csr_matrix:
    """div(coeff E) at interior nodes from interior edge dofs."""
    d = layout.grid.spacings
    node_shape = tuple(n - 1 for n in layout.grid.shape)
    blocks = []
    for a, comp in enumerate(EDGE_COMPS):
        o = layout.int_offsets[comp]
        # scale the +-1 pattern per entry, so each value is exactly coeff / d
        rows, cols, sign, _ = _stencil(node_shape, a, 1.0)
        blocks.append((0, o, rows, cols, sign * coeff_q[o + cols] / d[a]))
    return _assemble(blocks, (int(np.prod(node_shape)), layout.n_q))


def _edge_material(cell_vals: np.ndarray, comp: str) -> np.ndarray:
    """Average per-cell values (first three axes) onto interior edges of a family."""
    axis = EDGE_COMPS.index(comp)
    e = np.moveaxis(cell_vals, axis, 0)
    avg = 0.25 * (e[:, :-1, :-1] + e[:, 1:, :-1] + e[:, :-1, 1:] + e[:, 1:, 1:])
    return np.moveaxis(avg, 0, axis)


def _face_material(cell_vals: np.ndarray, comp: str) -> np.ndarray:
    """Average per-cell values (first three axes) onto faces (two cells, clipped)."""
    axis = EDGE_COMPS.index(comp)
    e = np.moveaxis(cell_vals, axis, 0)
    padded = np.concatenate([e[:1], e, e[-1:]])
    return np.moveaxis(0.5 * (padded[:-1] + padded[1:]), 0, axis)


@dataclass
class Operators:
    """Assembled discrete operators and material-weighted masses."""

    grid: YeeGrid
    layout: FieldLayout
    eps: TensorField
    mu: TensorField
    C: sp.csr_matrix  # pointwise curl of the E side, q -> faces
    G: sp.csr_matrix  # Wq^-1 C^T Wf: pointwise curl of H at E-side sites
    R: sp.csr_matrix  # q -> full edge arrays
    Wq: np.ndarray
    Wf: np.ndarray
    eps_q: np.ndarray  # per-slot diagonal coefficient
    mu_f: np.ndarray
    Wq_eps: np.ndarray  # Wq * eps_q, the weighted E-side mass
    Wf_mu: np.ndarray  # Wf * mu_f, the weighted H-side mass
    Wq_pair: np.ndarray  # (2, n_q): rows Wq_eps and Wq
    Wf_pair: np.ndarray  # (2, n_h): rows Wf_mu and Wf
    inj_scale: np.ndarray  # (S, 2) area / volume-mass
    div_eps: sp.csr_matrix  # interior nodes <- q, divergence of eps E
    div_plain: sp.csr_matrix  # interior nodes <- q, plain divergence
    grad_int: sp.csr_matrix  # q <- interior nodes, gradient of node functions
    node_weight: float


def build_operators(grid: YeeGrid, eps: TensorField, mu: TensorField) -> Operators:
    if eps.shape != grid.shape or mu.shape != grid.shape:
        raise ConfigError("material fields are not sampled on this grid")
    layout = FieldLayout(grid)
    dx, dy, dz = grid.spacings
    s = grid.samples

    R = _build_reconstruction(layout)
    C = (_build_full_curl(layout) @ R).tocsr()

    # quadrature weights: full cells on interior edges, half cells on the
    # wall faces of each face family
    vol = dx * dy * dz
    Wq = np.concatenate([np.full(layout.trace_offset, vol), s.vol_mass.ravel()])
    Wf = []
    for axis, c in enumerate(EDGE_COMPS):
        w = np.full(layout.face_shapes[c], vol)
        np.moveaxis(w, axis, 0)[[0, -1]] *= 0.5
        Wf.append(w.ravel())
    Wf = np.concatenate(Wf)

    # Wq^-1 C^T Wf: each entry of C^T scaled as the two diagonal products would;
    # both weights first divided by one power of two near the cell volume, so
    # that 1/Wq cannot overflow or underflow and in-range bits do not move
    G = C.T.tocsr()
    g_rows = np.repeat(np.arange(layout.n_q), np.diff(G.indptr))
    e = np.frexp(vol)[1]
    G.data = (1.0 / np.ldexp(Wq, -e))[g_rows] * G.data * np.ldexp(Wf, -e)[G.indices]

    # diagonal material coefficients per slot
    eps_diag = eps.diag()
    eps_trace = np.take_along_axis(eps_diag[tuple(s.cells.T)], s.tangents, axis=1)
    eps_q = np.concatenate(
        [_edge_material(eps_diag[..., a], c).ravel() for a, c in enumerate(EDGE_COMPS)]
        + [eps_trace.ravel()]
    )
    mu_diag = mu.diag()
    mu_f = np.concatenate(
        [_face_material(mu_diag[..., a], c).ravel() for a, c in enumerate(EDGE_COMPS)]
    )
    Wq_pair = np.stack([Wq * eps_q, Wq])
    Wf_pair = np.stack([Wf * mu_f, Wf])
    # the gradient of interior-node functions is the negated adjoint of the
    # plain divergence, as G is built from C
    div_plain = _build_divergence(layout, np.ones_like(eps_q))

    return Operators(
        grid=grid,
        layout=layout,
        eps=eps,
        mu=mu,
        C=C,
        G=G,
        R=R,
        Wq=Wq_pair[1],
        Wf=Wf_pair[1],
        eps_q=eps_q,
        mu_f=mu_f,
        Wq_eps=Wq_pair[0],
        Wf_mu=Wf_pair[0],
        Wq_pair=Wq_pair,
        Wf_pair=Wf_pair,
        inj_scale=s.areas[:, None] / s.vol_mass,
        div_eps=_build_divergence(layout, eps_q),
        div_plain=div_plain,
        grad_int=(-div_plain.T).tocsr(),
        node_weight=vol,
    )


def matvec(a: sp.csr_matrix, x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """a @ x written into the float64 vector `out`, which must not share memory with x.

    Runs `csr_matvec`, the kernel that `a @ x` runs for a CSR matrix, on a
    zeroed `out`, so the result has the bits of `a @ x` without scipy's
    operator dispatch or a fresh result array.
    """
    out.fill(0.0)  # the kernel adds each row's sum to out
    _sparsetools.csr_matvec(a.shape[0], a.shape[1], a.indptr, a.indices, a.data, x, out)
    return out


def _inverse_mass(inv: list, collocate) -> sp.csr_matrix:
    """Block matrix of diags(inv[c][..., c, j]) @ collocate(c, j): family c <- family j."""

    def block(c, j):
        rows, cols, vals, shape = collocate(c, j)
        return sp.diags(inv[c][..., c, j].ravel()) @ sp.coo_matrix((vals, (rows, cols)), shape=shape)

    return sp.bmat([[block(c, j) for j in range(3)] for c in range(3)]).tocsr()


def full_tensor_inverses(ops: Operators) -> tuple[sp.csr_matrix, sp.csr_matrix, np.ndarray]:
    """Inverse masses of the symmetrized full tensors, for the stepper.

    Returns `eps_inv` (interior edges <- q), `mu_inv` (faces <- faces) and
    the (S, 2, 2) tangential permittivity of the trace update.  Each cell
    tensor is averaged onto a site like the diagonal coefficients and
    inverted there; the cross components of the field are the neighbour
    means of the other families at that site (walls held at their outer
    value on the H side), so every row reads the inverse tensor's row
    against one collocated 3-vector.  The trace block is the inverse of the
    tangential 2x2 block of the cellwise inverse (a Schur complement).
    """
    n = ops.grid.shape
    vals_eps, vals_mu = ops.eps.sym, ops.mu.sym

    def edge_collocation(c, j):
        # full edge family j -> interior edges of family c
        return _kron3([
            _eye(n[a]) if a == c == j
            else _mean(n[a]) if a == c
            else _mean(n[a] - 1) if a == j
            else _inner(n[a])
            for a in range(3)
        ])

    def face_collocation(c, j):
        # face family j -> faces of family c
        return _kron3([
            _eye(n[a] + (a == c)) if c == j or a not in (c, j)
            else _held_mean(n[a]) if a == c
            else _mean(n[a])
            for a in range(3)
        ])

    eps_inv = [np.linalg.inv(_edge_material(vals_eps, c)) for c in EDGE_COMPS]
    mu_inv = [np.linalg.inv(_face_material(vals_mu, c)) for c in EDGE_COMPS]
    s = ops.grid.samples
    t = s.tangents
    cell_inv = np.linalg.inv(vals_eps[tuple(s.cells.T)])
    block = cell_inv[np.arange(s.count)[:, None, None], t[:, :, None], t[:, None, :]]
    return (
        (_inverse_mass(eps_inv, edge_collocation) @ ops.R).tocsr(),
        _inverse_mass(mu_inv, face_collocation),
        np.linalg.inv(block),
    )


# ---------------------------------------------------------------------------
# Field sampling helpers
# ---------------------------------------------------------------------------

def edge_positions(layout: FieldLayout, comp: str) -> np.ndarray:
    """Coordinates of the interior edge midpoints of one family."""
    shape = layout.int_edge_shapes[comp]
    axis = EDGE_COMPS.index(comp)
    coords = []
    for a, d_a in enumerate(layout.grid.spacings):
        # interior edges start one node off the wall on their transverse axes
        idx = np.arange(shape[a]) + (a != axis)
        coords.append((idx + 0.5) * d_a if a == axis else idx * d_a)
    X, Y, Z = np.meshgrid(*coords, indexing="ij")
    return np.stack([X, Y, Z], axis=-1)


def sample_vector_field(ops: Operators, func) -> np.ndarray:
    """Sample a vector field onto the packed E-side vector q.

    `func` maps an (..., 3) position array to (..., 3) values.  Interior
    edges take the matching component at the edge midpoint; samples take the
    tangential components at the face centers.
    """
    layout = ops.layout
    q = np.zeros(layout.n_q)
    for c in EDGE_COMPS:
        pos = edge_positions(layout, c)
        vals = np.asarray(func(pos))[..., EDGE_COMPS.index(c)]
        o = layout.int_offsets[c]
        q[o : o + vals.size] = vals.ravel()
    s = ops.grid.samples
    vals = np.asarray(func(s.positions))
    layout.trace_view(q)[:] = np.take_along_axis(vals, s.tangents, axis=1)
    return q
