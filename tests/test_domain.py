import numpy as np
import pytest

from delayfdtd.domain import FACES, BoxDomain, build_grid, multiplier_field, tangent_axes
from delayfdtd.errors import ConfigError
from delayfdtd.operators import FieldLayout


def brute_force_edge_counts(nx, ny, nz):
    # lattice counting by direct enumeration
    x_edges = sum(1 for _ in np.ndindex(nx, ny + 1, nz + 1))
    y_edges = sum(1 for _ in np.ndindex(nx + 1, ny, nz + 1))
    z_edges = sum(1 for _ in np.ndindex(nx + 1, ny + 1, nz))
    return x_edges, y_edges, z_edges


def test_edge_counts_unit_cube_8():
    # the full edge families that R maps onto
    layout = FieldLayout(build_grid(BoxDomain((1, 1, 1), (8, 8, 8), (0.5, 0.5, 0.5))))
    counts = {c: int(np.prod(shape)) for c, shape in layout.full_edge_shapes.items()}
    ex, ey, ez = brute_force_edge_counts(8, 8, 8)
    assert counts["x"] == ex == 8 * 9 * 9 == 648
    assert counts["x"] + counts["y"] + counts["z"] == ex + ey + ez == 1944
    assert layout.n_full_edges == 1944


def test_boundary_sample_count_and_area():
    grid = build_grid(BoxDomain((1, 1, 1), (8, 8, 8), (0.5, 0.5, 0.5)))
    s = grid.samples
    assert s.count == 6 * 64 == 384
    assert s.areas.sum() == pytest.approx(6.0, abs=1e-12)
    # every face is covered
    assert set(zip(s.axis.tolist(), s.side.tolist())) == {
        (0, -1), (0, 1), (1, -1), (1, 1), (2, -1), (2, 1)
    }


def test_boundary_area_exact_for_anisotropic_box():
    L = (2.0, 0.7, 1.3)
    grid = build_grid(BoxDomain(L, (8, 6, 4), (1.0, 0.35, 0.65)))
    exact = 2 * (L[0] * L[1] + L[1] * L[2] + L[2] * L[0])
    assert abs(grid.samples.areas.sum() - exact) <= 1e-12 * exact


def _loop_samples(domain):
    """The boundary samples built one at a time: the reference for build_grid."""
    n, d, L = domain.resolution, domain.spacings, domain.lengths
    pos, nrm, areas = [], [], []
    ax_arr, side_arr, tans, cells, vol_mass = [], [], [], [], []
    for axis, side in FACES:
        t1, t2 = tangent_axes(axis)
        n1, n2 = n[t1], n[t2]
        for u in range(n1):
            for v in range(n2):
                p = np.zeros(3)
                p[axis] = 0.0 if side < 0 else L[axis]
                p[t1] = (u + 0.5) * d[t1]
                p[t2] = (v + 0.5) * d[t2]
                nu = np.zeros(3)
                nu[axis] = float(side)
                cell = [0, 0, 0]
                cell[axis] = 0 if side < 0 else n[axis] - 1
                cell[t1], cell[t2] = u, v
                ext2 = d[t2] * (1.0 - 0.25 * (v == 0) - 0.25 * (v == n2 - 1))
                ext1 = d[t1] * (1.0 - 0.25 * (u == 0) - 0.25 * (u == n1 - 1))
                pos.append(p)
                nrm.append(nu)
                areas.append(d[t1] * d[t2])
                ax_arr.append(axis)
                side_arr.append(side)
                tans.append((t1, t2))
                cells.append(cell)
                vol_mass.append((0.5 * d[axis] * d[t1] * ext2, 0.5 * d[axis] * ext1 * d[t2]))
    return {
        "positions": np.array(pos),
        "normals": np.array(nrm),
        "areas": np.array(areas),
        "axis": np.array(ax_arr),
        "side": np.array(side_arr),
        "tangents": np.array(tans),
        "cells": np.array(cells),
        "vol_mass": np.array(vol_mass),
    }


def test_build_grid_matches_loop_reference():
    domain = BoxDomain((2.0, 0.7, 1.3), (8, 6, 4), (1.0, 0.35, 0.65))
    s = build_grid(domain).samples
    for name, want in _loop_samples(domain).items():
        got = getattr(s, name)
        assert got.dtype == want.dtype and got.shape == want.shape, name
        assert np.array_equal(got, want), name


def test_normals_are_signed_unit_axes():
    grid = build_grid(BoxDomain((1, 1, 1), (4, 4, 4), (0.5, 0.5, 0.5)))
    nrm = grid.samples.normals
    assert np.all(np.linalg.norm(nrm, axis=1) == 1.0)
    assert np.all(np.sum(nrm != 0.0, axis=1) == 1)


def test_resolution_floor():
    with pytest.raises(ConfigError):
        BoxDomain((1, 1, 1), (3, 8, 8), (0.5, 0.5, 0.5))


def test_x0_must_be_interior():
    with pytest.raises(ConfigError):
        BoxDomain((1, 1, 1), (8, 8, 8), (0.0, 0.5, 0.5))


def test_multiplier_centered_cube():
    grid = build_grid(BoxDomain((1, 1, 1), (8, 8, 8), (0.5, 0.5, 0.5)))
    m = multiplier_field(grid)
    assert m.beta == pytest.approx(0.5, abs=1e-15)
    assert m.m_sup == pytest.approx(np.sqrt(3) / 2, abs=1e-15)


def test_multiplier_sup_dominates_samples():
    grid = build_grid(BoxDomain((2.0, 1.0, 1.5), (6, 5, 4), (0.4, 0.6, 0.9)))
    m = multiplier_field(grid)
    assert np.all(np.linalg.norm(grid.samples.positions - grid.domain.x0, axis=1) <= m.m_sup + 1e-14)
    assert np.all(np.linalg.norm(m.at_cells.reshape(-1, 3), axis=1) <= m.m_sup + 1e-14)


def test_beta_stable_under_refinement():
    x0 = (0.3, 0.5, 0.7)
    vals = []
    for n in (4, 8, 16):
        grid = build_grid(BoxDomain((1, 1, 1), (n, n, n), x0))
        vals.append(multiplier_field(grid).beta)
    # beta is the distance from x0 to the nearest face, exact for any n
    assert vals[0] == pytest.approx(vals[1], abs=1e-14)
    assert vals[1] == pytest.approx(vals[2], abs=1e-14)
    assert vals[0] == pytest.approx(0.3, abs=1e-14)
