"""Nonlinear boundary feedback law and the per-sample implicit closure.

The boundary relation imposes H x nu = -gamma1 g(E x nu) x nu
- gamma2 g(Z|s=1) x nu at every boundary sample.  The stepper closes the
tangential-E update with that trace evaluated at the time-centered value
(w_old + w_new)/2, which yields one small nonlinear equation per sample: a
closed-form solve for the linear law, otherwise one scalar equation in the
radius of the centered trace, solved by a bracketed Newton iteration.  The
law is radial and monotone, so that equation has exactly one root.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import AssumptionError, ConfigError, NumericalError, read_input


@dataclass(frozen=True)
class FeedbackLaw:
    """Radial feedback nonlinearity with gains and delay.

    kind "linear":     g(v) = a v
    kind "saturating": g(v) = a v + b v / (1 + |v|)
    kind "table":      g(v) = interp(|v|) v / |v| from (r, g(r)) pairs
    """

    kind: str = "linear"
    a: float = 1.0
    b: float = 0.0
    gamma1: float = 1.0
    gamma2: float = 0.0
    tau: float = 0.25
    table_r: tuple = ()
    table_g: tuple = ()

    def __post_init__(self):
        if self.kind not in ("linear", "saturating", "table"):
            raise ConfigError(f"unknown feedback kind {self.kind!r}")
        if self.kind != "table" and self.a <= 0:
            raise ConfigError("feedback parameter a must be positive")
        if self.b < 0:
            raise ConfigError("feedback parameter b must be nonnegative")
        if self.gamma1 < 0:
            # gamma1 = 0 is admitted only as the conservative control limit
            # (together with gamma2 = 0); decay analysis requires gamma1 > 0
            raise ConfigError("gamma1 must be nonnegative (0 only for the conservative limit)")
        if self.gamma2 < 0:
            raise ConfigError("gamma2 must be nonnegative")
        if self.gamma1 == 0 and self.gamma2 != 0:
            raise ConfigError("delay-only feedback (gamma1 = 0, gamma2 > 0) is not supported")
        if self.tau <= 0:
            raise ConfigError("delay tau must be positive")
        if self.kind == "table":
            object.__setattr__(self, "_knots", self._table_knots())

    def _table_knots(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Radii, values and segment slopes of the table as arrays, checked and converted once."""
        r, g = np.asarray(self.table_r, dtype=float), np.asarray(self.table_g, dtype=float)
        if r.size < 2 or r.size != g.size:
            raise ConfigError("table law needs at least two (r, g) pairs")
        if r[0] < 0 or np.any(np.diff(r) <= 0):
            raise ConfigError("table radii must be nonnegative and increasing")
        return r, g, np.diff(g) / np.diff(r)

    def _radial_gain(self, norms: np.ndarray) -> np.ndarray:
        """g(v) = gain(|v|) * v; returns gain(|v|)."""
        if self.kind == "linear":
            return np.full_like(norms, self.a)
        if self.kind == "saturating":
            return self.a + self.b / (1.0 + norms)
        r, g, slopes = self._knots
        vals = np.interp(norms, r, g)
        # continue with the last segment slope beyond the table
        hi = norms > r[-1]
        if np.any(hi):
            vals = np.where(hi, g[-1] + slopes[-1] * (norms - r[-1]), vals)
        return np.divide(vals, norms, out=np.zeros_like(norms), where=norms > 0)

    def _radial_slope(self, norms: np.ndarray) -> np.ndarray:
        """G'(|v|) for the radial profile G(r) = gain(r) * r."""
        if self.kind == "linear":
            return np.full_like(norms, self.a)
        if self.kind == "saturating":
            return self.a + self.b / (1.0 + norms) ** 2
        r, _, slopes = self._knots
        seg = np.clip(np.searchsorted(r, norms, side="right") - 1, 0, len(slopes) - 1)
        # np.interp holds g(r[0]) below the table
        return np.where(norms < r[0], 0.0, slopes[seg])


def norm2(v: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """|v|^2 over the last axis of a (..., 2) or (..., 3) stack, from column products.

    These are the bits of einsum("...i,...i->...", v, v) at about half its
    cost: on an axis this short, einsum runs its inner loop once per vector.
    Einsum's vector lanes pair entries 0 and 2 of a three-long axis, so
    entry 2 is added before entry 1.  Writes into `out` when given.
    """
    out = np.multiply(v[..., 0], v[..., 0], out=out)
    for i in (1,) if v.shape[-1] == 2 else (2, 1):
        out += v[..., i] * v[..., i]
    return out


def eval_g(law: FeedbackLaw, v: np.ndarray) -> np.ndarray:
    """Evaluate the feedback nonlinearity; works on (..., 2) component and (..., 3) vector stacks."""
    v = np.asarray(v, dtype=float)
    if law.kind == "linear":
        return law.a * v  # the gain does not depend on |v|
    return law._radial_gain(np.sqrt(norm2(v)))[..., None] * v


@dataclass(frozen=True)
class MonotonicityConstants:
    c1: float
    c2: float


def constants(law: FeedbackLaw) -> MonotonicityConstants:
    """Strong-monotonicity and Lipschitz constants of the law.

    g(v) = G(|v|) v/|v| has a symmetric Jacobian with eigenvalues G'(r)
    (radial) and G(r)/r (tangential), so c1 = inf min(G', G/r) and
    c2 = sup max(G', G/r).  A table's G is piecewise linear and G/r is
    monotone on each segment, so both constants are the min and max over
    the segment slopes and the knot ratios g_k/r_k; the last slope is also
    the limit r -> inf.  A table must start at (0, 0), and a nonpositive
    c1 is rejected.
    """
    if law.kind == "linear":
        return MonotonicityConstants(law.a, law.a)
    if law.kind == "saturating":
        return MonotonicityConstants(law.a, law.a + law.b)
    r, g, slopes = law._knots
    if r[0] != 0 or g[0] != 0:
        raise AssumptionError(
            f"feedback table rejected: it starts at ({r[0]:.6g}, {g[0]:.6g}), not (0, 0); below "
            "its first radius the law holds g(r_0), so its slope there is 0 (c1 = 0), and a "
            "nonzero g(r_0) makes |g(v)|/|v| unbounded near 0 (no finite c2)"
        )
    quotients = np.concatenate([slopes, g[1:] / r[1:]])
    c1, c2 = float(quotients.min()), float(quotients.max())
    if c1 <= 0:
        raise AssumptionError(f"feedback table rejected: monotonicity modulus c1 = {c1:.3e} <= 0")
    return MonotonicityConstants(c1, c2)


def boundary_drive(law: FeedbackLaw, w_now: np.ndarray, w_delayed: np.ndarray) -> np.ndarray:
    """gamma1 g(w_now) + gamma2 g(w_delayed), the feedback of the boundary relation."""
    drive = law.gamma1 * eval_g(law, w_now)
    if law.gamma2 != 0.0:
        drive = drive + law.gamma2 * eval_g(law, w_delayed)
    return drive


# radius-solve iterations before the boundary update gives up, and its residual tolerance
BOUNDARY_MAX_ITER = 50
BOUNDARY_TOL = 1e-12


# Per-sample 2x2 algebra: x, y are (2, S) component rows, a is (2, 2, S)
# blocks, or the (2, S) diagonals of diagonal ones where `_apply` takes them.

def _rows(x: np.ndarray) -> np.ndarray:  # (S, 2) or (S, 2, 2) per-sample data as rows or blocks
    return np.ascontiguousarray(x.T if x.ndim == 2 else x.transpose(1, 2, 0))


def _dot(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    return x[0] * y[0] + x[1] * y[1]


def _apply(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    return a * x if a.ndim == 2 else a[:, 0] * x[0] + a[:, 1] * x[1]


def _det(a: np.ndarray) -> np.ndarray:
    return a[0, 0] * a[1, 1] - a[0, 1] * a[1, 0]


def _adjugate(a: np.ndarray) -> np.ndarray:  # [[a11, -a01], [-a10, a00]]
    return np.array([[a[1, 1], -a[0, 1]], [-a[1, 0], a[0, 0]]])


def implicit_boundary_update(
    law: FeedbackLaw, curl_term: np.ndarray, t_old: np.ndarray, z1_mid: np.ndarray, dt: float,
    eps_t: np.ndarray, kappa: np.ndarray,
) -> np.ndarray:
    """Advance the boundary tangential components by one time step.

    Solves, per sample,
        (t_new - t_old)/dt = eps_t^{-1} (curl_term + fb((t_old+t_new)/2))
    with the feedback forcing fb = -kappa * (H x nu) on the tangent axes,
    H x nu = -gamma1 g(w) x nu - gamma2 g(z1_mid) x nu.  For the tangential
    trace w = t x nu, g(w) x nu = -g(t) on the components, so the
    instantaneous part is -kappa gamma1 g(t) and, with z1_mid given as the
    components of the delayed E trace, the delayed part is
    -kappa gamma2 g(z1_mid), fixed within the step.  Vectorized over samples:
    `curl_term`, `t_old` and `z1_mid` (the time-centered delay tap) are
    (S, 2) tangential components, `kappa` the (S, 2) injection scale (area
    over volume mass), `eps_t` the tangential permittivity, either (S, 2)
    diagonal entries or an (S, 2, 2) block.

    With m = (t_old + t_new)/2, p = 2 t_old + dt eps_t^{-1} (curl_term +
    delayed part) and B = dt eps_t^{-1} diag(kappa gamma1), the update reads
    (2I + gain(|m|) B) m = p.  The law is radial, so m is fixed by its
    radius r: m(r) = (2I + gain(r) B)^{-1} p, and r is the unique root of
    phi(r) = r - |m(r)|, found per sample by Newton steps in r that fall
    back to bisection when they leave the bracket [0, sqrt(cond eps_t)
    |p|/2] (2 m.eps_t m <= m.eps_t p).  The loop stops once the centered
    residual F = p - (2I + gain(|m|) B) m = (gain(r) - gain(|m|)) B m is
    below BOUNDARY_TOL (max norm per sample).
    """
    if law.kind == "linear" and eps_t.ndim == 2:
        # (t_new - t_old)/dt = eps^{-1}[curl - kappa*(gamma1*a*t_mid + gamma2*a*z1_mid)]
        q = dt / eps_t * kappa * law.a
        rhs = t_old * (1.0 - 0.5 * q * law.gamma1) + dt * curl_term / eps_t - q * law.gamma2 * z1_mid
        return rhs / (1.0 + 0.5 * q * law.gamma1)

    # every 2x2 operation runs on (2, S) rows, one per tangential component
    d, e = dt * law.gamma1 * _rows(kappa), _rows(eps_t)
    load = _rows(curl_term - kappa * law.gamma2 * eval_g(law, z1_mid) if law.gamma2 else curl_term)
    if eps_t.ndim == 2:
        b, c, bound = d / e, dt * load / e, 0.5  # c = dt eps_t^{-1} load

        def pencil(gain):  # x -> (2I + gain B)^{-1} x
            a = 2.0 + gain * b
            return lambda x: x / a
    else:
        adj, det = _adjugate(e), _det(e)
        # B = dt eps_t^{-1} diag(d), eps_t^{-1} by its adjugate
        b, c = adj * d / det, dt * _apply(adj, load) / det
        # sqrt(cond eps_t) / 2 = lambda_max / (2 sqrt(det))
        lam_max = 0.5 * (e[0, 0] + e[1, 1]) + np.sqrt(0.25 * (e[0, 0] - e[1, 1]) ** 2 + e[0, 1] * e[1, 0])
        bound = 0.5 * lam_max / np.sqrt(det)
        # the adjugate is linear on 2x2 blocks: adj(2I + gain B) = 2I + gain adj(B)
        adj_b = _adjugate(b)

        def pencil(gain):
            adj_a = gain * adj_b
            adj_a[[0, 1], [0, 1]] += 2.0
            det_a = _det(adj_a)
            return lambda x: _apply(adj_a, x) / det_a

    t = _rows(t_old)
    p = 2.0 * t + c
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        # a |p| whose square overflows leaves the bracket open above (hi = inf)
        lo, hi = np.zeros(p.shape[1]), bound * np.sqrt(_dot(p, p))
        # start one fixed-point step off the old radius
        m = pencil(law._radial_gain(np.minimum(np.sqrt(_dot(t, t)), hi)))(p)
        r = np.sqrt(_dot(m, m))
        # r = 0 or |m| = 0 make the Newton step NaN; the bracket test sends it to bisection
        for _ in range(BOUNDARY_MAX_ITER):
            gain = law._radial_gain(r)
            solve = pencil(gain)
            m = solve(p)
            s = np.sqrt(_dot(m, m))
            bm = _apply(b, m)
            res = np.abs((gain - law._radial_gain(s)) * bm).max(axis=0)
            done = res <= BOUNDARY_TOL  # a NaN residual stays active
            if done.all():
                return (2.0 * m - t).T
            phi = r - s
            lo = np.where(phi < 0, r, lo)
            hi = np.where(phi > 0, r, hi)
            # d|m|/dr = -gain'(r) m.(2I + gain B)^{-1} B m / |m|, gain' = (G' - gain) / r
            slope = 1.0 + (law._radial_slope(r) - gain) / r * _dot(m, solve(bm)) / s
            step = r - phi / slope
            step = np.where((step >= lo) & (step <= hi), step, 0.5 * (lo + hi))
            r = np.where(done, r, step)
    bad = int(np.argmax(res))  # the first NaN, if any
    raise NumericalError(
        f"boundary update failed to converge: sample {bad}, residual {float(res[bad]):.3e} "
        f"after {BOUNDARY_MAX_ITER} iterations"
    )


def load_table_law(path, **kwargs) -> FeedbackLaw:
    """Read a radial `r g(r)` table and build a table law (validated later)."""
    rs, gs = [], []
    for ln, line in enumerate(read_input(path, "feedback table").splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        parts = body.split()
        if len(parts) != 2:
            raise ConfigError(f"{path}:{ln}: expected `r g` pairs")
        try:
            r, g = float(parts[0]), float(parts[1])
        except ValueError as exc:
            raise ConfigError(f"{path}:{ln}: {exc}") from exc
        if not np.isfinite([r, g]).all():
            raise ConfigError(f"{path}:{ln}: non-finite entry")
        rs.append(r)
        gs.append(g)
    return FeedbackLaw(kind="table", table_r=tuple(rs), table_g=tuple(gs), **kwargs)
