"""Axis-aligned box domain, staggered grid and boundary sample geometry.

The electric field lives on cell edges (three families, one per axis), the
magnetic field on cell faces.  Tangential boundary data is collocated at the
centers of the boundary faces of boundary cells; those face centers are the
"boundary samples" used by the delay line, the feedback law and every surface
quadrature.  Samples carry the full face-cell area, so the summed areas
reproduce the analytic surface area exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError

# Face enumeration: (axis, side) with side -1 for the low face, +1 for the
# high face.  Tangent axes of a face are the two remaining axes in sorted
# order; trace component 0 is along the first tangent axis.
FACES = ((0, -1), (0, +1), (1, -1), (1, +1), (2, -1), (2, +1))

# relative bound on |v . nu| for a vector v to count as tangential
TANGENT_TOL = 1e-12


def tangent_axes(axis: int) -> tuple[int, int]:
    return tuple(a for a in range(3) if a != axis)  # type: ignore[return-value]


@dataclass(frozen=True)
class BoxDomain:
    """Rectangular box [0,Lx] x [0,Ly] x [0,Lz] with a star center x0."""

    lengths: tuple[float, float, float]
    resolution: tuple[int, int, int]
    x0: tuple[float, float, float]

    def __post_init__(self):
        if any(L <= 0 for L in self.lengths):
            raise ConfigError(f"box lengths must be positive, got {self.lengths}")
        if any(n < 4 for n in self.resolution):
            raise ConfigError(
                f"need at least 4 cells per axis for interior stencils, got {self.resolution}"
            )
        for c, L in zip(self.x0, self.lengths):
            if not (0.0 < c < L):
                raise ConfigError(f"star center {self.x0} must be strictly interior")
        # the step size divides by d*d: it and its inverse must be positive and finite
        for name, L, d in zip(("Lx", "Ly", "Lz"), self.lengths, self.spacings):
            if not (0.0 < d * d < math.inf and 0.0 < 1.0 / (d * d) < math.inf):
                raise ConfigError(
                    f"{name} = {L} gives the cell spacing {d:.6g}, whose square or its "
                    "inverse underflows to 0 or overflows"
                )

    @property
    def spacings(self) -> tuple[float, float, float]:
        return tuple(L / n for L, n in zip(self.lengths, self.resolution))

    def check_cells(self):
        """Refuse a spacing or cell volume that the set-up's sums cannot hold.

        The projection's node diagonal sums six couplings eps/d^2, so 6/d^2
        must be finite.  The energies sum the cell volume times squared
        fields, so the volume must be finite and 2**52 above the smallest
        normal float, or the small terms of those sums lose bits.  The gates
        call this after the step size, whose rules name a box too fine for
        any stable step first.
        """
        for name, L, d in zip(("Lx", "Ly", "Lz"), self.lengths, self.spacings):
            if not 6.0 / (d * d) < math.inf:
                raise ConfigError(f"{name} = {L} gives the cell spacing {d:.6g}, whose node diagonal 6/d^2 overflows")
        vol = math.prod(self.spacings)
        if not 2.0**-970 <= vol < math.inf:  # 2**52 times the smallest normal float
            Lx, Ly, Lz = self.lengths
            raise ConfigError(
                f"Lx = {Lx}, Ly = {Ly}, Lz = {Lz} give the cell volume {vol:.6g}, "
                "outside [2**-970, inf), where the energy sums hold their bits"
            )


class TangentCross:
    """Cross products with axis-aligned unit normals, on the tangent axes.

    With nu = side e_a and tangent axes (t1, t2), the vector t x nu has
    component sigma t_1 along t2 and -sigma t_2 along t1, where
    sigma = side * eps(t1, a, t2) (eps the Levi-Civita symbol): a swap and a
    sign per sample, precomputed here.  nu x w inverts the map on tangential
    w.  For finite input the products are those np.cross forms against a
    unit axis vector, so the results agree with it exactly, up to the sign
    of a zero.  The normals and tangent axes are the samples' own, as
    `build_grid` sets them.
    """

    def __init__(self, normals: np.ndarray, tangents: np.ndarray):
        t1, t2 = tangents[:, 0], tangents[:, 1]
        rows = np.arange(normals.shape[0])
        axis = 3 - t1 - t2
        side = normals[rows, axis]
        sigma = side * np.where((axis - t1) % 3 == 1, 1.0, -1.0)
        self._rows = rows[:, None]
        self._cols = tangents[:, ::-1]  # the swap: component k sits on the other tangent axis
        self._sign = sigma[:, None] * np.array([1.0, -1.0])

    def cross_nu(self, comps: np.ndarray) -> np.ndarray:
        """t x nu as (..., S, 3) vectors, from the (..., S, 2) tangential components of t."""
        out = np.zeros(comps.shape[:-1] + (3,))
        out[..., self._rows, self._cols] = comps * self._sign
        return out

    def nu_cross(self, vectors: np.ndarray) -> np.ndarray:
        """(..., S, 2) tangential components of nu x w, from (..., S, 3) vectors w."""
        return vectors[..., self._rows, self._cols] * self._sign


@dataclass
class SampleSet:
    """Boundary face-center samples: geometry and trace bookkeeping.

    Arrays are indexed by sample id.  ``cells`` holds the (i,j,k) index of
    the boundary cell owning the face; ``axis``/``side`` identify the face;
    ``tangents`` the two tangential coordinate axes.  ``vol_mass`` is the
    half-cell volume weight of each tangential trace component, shaved at
    box edges so the component masses tile the box volume exactly.
    """

    positions: np.ndarray  # (S, 3)
    normals: np.ndarray  # (S, 3)
    areas: np.ndarray  # (S,)
    axis: np.ndarray  # (S,) face normal axis
    side: np.ndarray  # (S,) -1 / +1
    tangents: np.ndarray  # (S, 2) tangential axes
    cells: np.ndarray  # (S, 3) owning cell index
    vol_mass: np.ndarray  # (S, 2) per-component volume weight
    cross: TangentCross = field(init=False, repr=False)  # t x nu and nu x w

    def __post_init__(self):
        self.cross = TangentCross(self.normals, self.tangents)

    @property
    def count(self) -> int:
        return self.positions.shape[0]


@dataclass
class YeeGrid:
    """Staggered lattice over a box plus its boundary sample manifold."""

    domain: BoxDomain
    samples: SampleSet

    @property
    def shape(self) -> tuple[int, int, int]:
        return self.domain.resolution

    @property
    def spacings(self) -> tuple[float, float, float]:
        return self.domain.spacings

    def cell_centers(self) -> np.ndarray:
        """(nx, ny, nz, 3) array of cell-center coordinates."""
        nx, ny, nz = self.shape
        dx, dy, dz = self.spacings
        xs = (np.arange(nx) + 0.5) * dx
        ys = (np.arange(ny) + 0.5) * dy
        zs = (np.arange(nz) + 0.5) * dz
        X, Y, Z = np.meshgrid(xs, ys, zs, indexing="ij")
        return np.stack([X, Y, Z], axis=-1)


def build_grid(domain: BoxDomain) -> YeeGrid:
    """Build the staggered grid and its boundary sample manifold."""
    n = domain.resolution
    d = domain.spacings
    L = domain.lengths

    faces = []
    for axis, side in FACES:
        t1, t2 = tangent_axes(axis)
        n1, n2 = n[t1], n[t2]
        # sample u * n2 + v of the face owns the cell at (u, v) on its tangent axes
        u, v = (g.ravel() for g in np.meshgrid(np.arange(n1), np.arange(n2), indexing="ij"))
        positions = np.zeros((u.size, 3))
        positions[:, axis] = 0.0 if side < 0 else L[axis]
        positions[:, t1] = (u + 0.5) * d[t1]
        positions[:, t2] = (v + 0.5) * d[t2]
        normals = np.zeros((u.size, 3))
        normals[:, axis] = float(side)
        cells = np.zeros((u.size, 3), dtype=int)
        cells[:, axis] = 0 if side < 0 else n[axis] - 1
        cells[:, t1], cells[:, t2] = u, v
        # Half-cell normal extent; the transverse extent of each tangential
        # component is shaved by a quarter spacing at box edges along the
        # *other* tangent axis (the shared corner strips are split evenly
        # with the neighbouring face).
        ext2 = d[t2] * (1.0 - 0.25 * (v == 0) - 0.25 * (v == n2 - 1))
        ext1 = d[t1] * (1.0 - 0.25 * (u == 0) - 0.25 * (u == n1 - 1))
        faces.append({
            "positions": positions,
            "normals": normals,
            "areas": np.full(u.size, d[t1] * d[t2]),
            "axis": np.full(u.size, axis),
            "side": np.full(u.size, side),
            "tangents": np.tile((t1, t2), (u.size, 1)),
            "cells": cells,
            # components along t1 and t2
            "vol_mass": np.stack(
                [0.5 * d[axis] * d[t1] * ext2, 0.5 * d[axis] * ext1 * d[t2]], axis=1
            ),
        })

    samples = SampleSet(**{name: np.concatenate([f[name] for f in faces]) for name in faces[0]})
    return YeeGrid(domain=domain, samples=samples)


@dataclass
class MultiplierField:
    """The radial multiplier field x - x0 about the domain's star center, and its geometric extremes."""

    at_cells: np.ndarray  # (nx, ny, nz, 3)
    beta: float  # min over boundary samples of m . nu
    m_sup: float  # exact sup of |m| over the closed box


def multiplier_field(grid: YeeGrid) -> MultiplierField:
    """Evaluate m(x) = x - x0 on samples and cells, with x0 the domain's star center.

    `BoxDomain` holds x0 strictly inside the box, so beta, the distance from
    x0 to the nearest face, is positive.
    """
    dom = grid.domain
    x0 = np.asarray(dom.x0, dtype=float)
    s = grid.samples
    beta = float(np.min(np.einsum("ij,ij->i", s.positions - x0, s.normals)))
    # |m| over the closed box is attained at a corner.
    corners = np.array(
        [[cx, cy, cz] for cx in (0, dom.lengths[0]) for cy in (0, dom.lengths[1]) for cz in (0, dom.lengths[2])]
    )
    m_sup = float(np.max(np.linalg.norm(corners - x0, axis=1)))
    return MultiplierField(at_cells=grid.cell_centers() - x0, beta=beta, m_sup=m_sup)
