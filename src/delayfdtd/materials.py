"""Material tensor fields and the assumption checks they must pass.

Permittivity and permeability are symmetric positive-definite 3x3 tensors
stored per cell.  The checks compute the global eigenvalue floor alpha, and
the growth constant d1 defined as the largest number such that
phi + (m . grad) phi - d1 * phi stays positive semidefinite cellwise for both
tensors, with the directional derivative taken by second-order differences
on the cell lattice (one-sided at the outermost layer).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .domain import YeeGrid, multiplier_field
from .errors import ConfigError, read_input

SYMMETRY_TOL = 1e-12

BOX_GEOMETRY_NOTE = (
    "domain is an axis-aligned box: the boundary has edges and corners, so "
    "smooth-boundary hypotheses hold only on the interior of each face"
)


@dataclass
class TensorField:
    """Per-cell symmetric 3x3 tensor with spectral summaries."""

    values: np.ndarray  # (nx, ny, nz, 3, 3)
    diagonal_only: bool
    lambda_min_global: float
    lambda_max_global: float

    @classmethod
    def from_values(cls, values: np.ndarray) -> "TensorField":
        """The one constructor: rejects a wrong shape and a non-finite entry."""
        values = np.asarray(values, dtype=float)
        if values.ndim != 5 or values.shape[3:] != (3, 3):
            raise ConfigError(f"tensor field must have shape (nx,ny,nz,3,3), got {values.shape}")
        finite = np.isfinite(values)
        if not finite.all():
            i, j, k, a, b = (int(v) for v in np.argwhere(~finite)[0])
            raise ConfigError(f"tensor entry {values[i, j, k, a, b]} at cell ({i}, {j}, {k}) is not finite")
        diagonal = not np.any(values[..., [0, 0, 1, 1, 2, 2], [1, 2, 0, 2, 0, 1]])
        t = cls(values, diagonal, np.nan, np.nan)
        eig = np.linalg.eigvalsh(t.sym.reshape(-1, 3, 3))
        t.lambda_min_global, t.lambda_max_global = float(eig.min()), float(eig.max())
        return t

    @property
    def sym(self) -> np.ndarray:
        """The symmetric part 0.5 (A + A^T), which the eigenvalues and full-tensor masses read.

        Formed on each read: held, it would add the size of `values` to every run.
        """
        return 0.5 * (self.values + np.swapaxes(self.values, -1, -2))

    @property
    def shape(self) -> tuple[int, int, int]:
        return self.values.shape[:3]

    def diag(self) -> np.ndarray:
        """(nx, ny, nz, 3) diagonal entries."""
        return self.values[..., range(3), range(3)]

    def max_asymmetry(self) -> tuple[float, tuple]:
        gap = np.abs(self.values - np.swapaxes(self.values, -1, -2))
        idx = np.unravel_index(np.argmax(gap), gap.shape)
        return float(gap[idx]), tuple(int(i) for i in idx[:3])


# ---------------------------------------------------------------------------
# Shipped presets
# ---------------------------------------------------------------------------

def diagonal_field(grid: YeeGrid, diag) -> TensorField:
    """diag(d) per cell, with `diag` broadcast against (nx, ny, nz, 3)."""
    nx, ny, nz = grid.shape
    vals = np.zeros((nx, ny, nz, 3, 3))
    vals[..., range(3), range(3)] = diag
    return TensorField.from_values(vals)


def _symmetric_field(upper: np.ndarray) -> TensorField:
    """Symmetric tensors from (nx, ny, nz, 6) entries (e11, e22, e33, e12, e13, e23)."""
    return TensorField.from_values(upper[..., [[0, 3, 4], [3, 1, 5], [4, 5, 2]]])


def constant_isotropic(grid: YeeGrid, value: float) -> TensorField:
    return diagonal_field(grid, value)


def constant_diagonal(grid: YeeGrid, diag) -> TensorField:
    return diagonal_field(grid, diag)


def diagonal_ramp(grid: YeeGrid, base, axis: int = 0, slope: float = 1.0, entry: int = 0) -> TensorField:
    """diag(base) with a linear ramp slope*x_axis added to one diagonal entry."""
    diag = np.broadcast_to(np.asarray(base, dtype=float), (*grid.shape, 3)).copy()
    diag[..., entry] += slope * grid.cell_centers()[..., axis]
    return diagonal_field(grid, diag)


def exponential_isotropic(grid: YeeGrid, k: float, axis: int = 0) -> TensorField:
    """exp(k * x_axis) times the identity."""
    return diagonal_field(grid, np.exp(k * grid.cell_centers()[..., axis, None]))


def constant_full(grid: YeeGrid, upper) -> TensorField:
    """Constant full symmetric tensor from (e11,e22,e33,e12,e13,e23)."""
    return _symmetric_field(np.broadcast_to(np.asarray(upper, dtype=float), (*grid.shape, 6)))


def load_tensor_file(grid: YeeGrid, path) -> TensorField:
    """Read `i j k e11 e22 e33 [e12 e13 e23]` lines, row-major cell indices."""
    nx, ny, nz = grid.shape
    upper = np.zeros((nx, ny, nz, 6))
    seen = np.zeros((nx, ny, nz), dtype=bool)
    for ln, line in enumerate(read_input(path, "material file").splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        parts = body.split()
        if len(parts) not in (6, 9):
            raise ConfigError(f"{path}:{ln}: expected 6 or 9 fields, got {len(parts)}")
        try:
            i, j, k = (int(p) for p in parts[:3])
            nums = [float(p) for p in parts[3:]]
        except ValueError as exc:
            raise ConfigError(f"{path}:{ln}: {exc}") from exc
        if not (0 <= i < nx and 0 <= j < ny and 0 <= k < nz):
            raise ConfigError(f"{path}:{ln}: cell index ({i},{j},{k}) out of range")
        if not all(np.isfinite(nums)):
            raise ConfigError(f"{path}:{ln}: non-finite entry")
        upper[i, j, k] = (nums + [0.0, 0.0, 0.0])[:6]
        seen[i, j, k] = True
    if not seen.all():
        missing = np.argwhere(~seen)[0]
        raise ConfigError(f"{path}: no entry for cell {tuple(int(v) for v in missing)}")
    return _symmetric_field(upper)


# ---------------------------------------------------------------------------
# Assumption checks
# ---------------------------------------------------------------------------

@dataclass
class MaterialReport:
    """Outcome of the material and geometry assumption checks."""

    alpha: float | None = None
    d1: float | None = None
    beta: float | None = None
    m_sup: float | None = None
    lambda_max_eps: float | None = None
    lambda_max_mu: float | None = None
    checks: dict = field(default_factory=dict)  # name -> (ok, detail)
    notes: tuple[str, ...] = (BOX_GEOMETRY_NOTE,)

    @property
    def failed(self) -> list[str]:
        """Names of the failed checks, in report order."""
        return [name for name, (ok, _) in self.checks.items() if not ok]

    @property
    def failed_material(self) -> list[str]:
        """The failed checks that well-posedness needs: all but the geometric ones, which only decay needs."""
        return [name for name in self.failed if name not in ("growth_bound", "star_shaped")]

    @property
    def passed(self) -> bool:
        return not self.failed

    def summary_lines(self) -> list[str]:
        lines = []
        for key in ("alpha", "d1", "beta", "m_sup", "lambda_max_eps", "lambda_max_mu"):
            val = getattr(self, key)
            if val is not None:
                lines.append(f"{key} = {val:.17g}")
        for name, (ok, detail) in self.checks.items():
            lines.append(f"check.{name} = {'pass' if ok else 'FAIL'} ({detail})")
        for note in self.notes:
            lines.append(f"note = {note}")
        return lines


def _symmetry_check(name: str, t: TensorField, checks: dict) -> bool:
    gap, cell = t.max_asymmetry()
    ok = gap <= SYMMETRY_TOL
    checks[f"{name}_symmetric"] = (ok, f"max |A - A^T| = {gap:.3e} at cell {cell}")
    return ok


def _directional_derivative(values: np.ndarray, m_cells: np.ndarray, spacings) -> np.ndarray:
    """(m . grad) of a per-cell tensor field, second order, one-sided at layers."""
    out = np.zeros_like(values)
    for axis in range(3):
        d = np.gradient(values, spacings[axis], axis=axis, edge_order=2)
        out += m_cells[..., axis, None, None] * d
    return out


def _min_generalized_eig(a: np.ndarray, b: np.ndarray, diagonal: bool) -> np.ndarray:
    """Cellwise min eigenvalue of (A, B) with B SPD, vectorized."""
    if diagonal:
        da = a[..., range(3), range(3)]
        db = b[..., range(3), range(3)]
        return np.min(da / db, axis=-1)
    ell = np.linalg.cholesky(b.reshape(-1, 3, 3))
    inv_ell = np.linalg.inv(ell)
    mid = inv_ell @ a.reshape(-1, 3, 3) @ np.swapaxes(inv_ell, -1, -2)
    mid = 0.5 * (mid + np.swapaxes(mid, -1, -2))
    eig = np.linalg.eigvalsh(mid)[:, 0]
    return eig.reshape(a.shape[:3])


def full_report(eps: TensorField, mu: TensorField, grid: YeeGrid) -> MaterialReport:
    """The assumption report, in check order.

    First symmetry, uniform positive definiteness and the eigen floor
    alpha; then, only when those pass, the geometric checks: the largest d1
    with phi + (m.grad)phi >= d1 phi cellwise for both tensors, m about the
    domain's x0, and the star shape beta > 0.
    """
    if eps.shape != mu.shape:
        raise ConfigError(f"eps and mu sampled on different grids: {eps.shape} vs {mu.shape}")
    report = MaterialReport()
    checks = report.checks
    sym_ok = _symmetry_check("eps", eps, checks) & _symmetry_check("mu", mu, checks)
    report.lambda_max_eps = eps.lambda_max_global
    report.lambda_max_mu = mu.lambda_max_global
    alpha = report.alpha = min(eps.lambda_min_global, mu.lambda_min_global)
    worst = "eps" if eps.lambda_min_global <= mu.lambda_min_global else "mu"
    checks["positive_definite"] = (
        (alpha > 0, f"alpha = {alpha:.6g} (limited by {worst})")
        if sym_ok else (False, "skipped eigen floor validity: asymmetric input")
    )
    if not report.passed:
        return report

    m = multiplier_field(grid)
    d1 = np.inf
    worst_cell, worst_name = None, None
    for name, t in (("eps", eps), ("mu", mu)):
        der = _directional_derivative(t.values, m.at_cells, grid.spacings)
        a = t.values + der
        diag_der = not np.any(der[..., [0, 0, 1], [1, 2, 2]]) and t.diagonal_only
        local = _min_generalized_eig(a, t.values, t.diagonal_only and diag_der)
        cell = np.unravel_index(np.argmin(local), local.shape)
        if local[cell] < d1:
            d1 = float(local[cell])
            worst_cell, worst_name = tuple(int(i) for i in cell), name
    report.d1, report.beta, report.m_sup = d1, m.beta, m.m_sup
    checks["growth_bound"] = (d1 > 0, f"d1 = {d1:.6g}, worst cell {worst_cell} of {worst_name}")
    checks["star_shaped"] = (m.beta > 0, f"beta = {m.beta:.6g}")
    return report
