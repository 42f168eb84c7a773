"""Nonlinear boundary feedback law and the per-sample implicit closure.

The boundary relation imposes H x nu = -gamma1 g(E x nu) x nu
- gamma2 g(Z|s=1) x nu at every boundary sample.  The stepper closes the
tangential-E update with that trace evaluated at the time-centered value
(w_old + w_new)/2, which yields one small nonlinear equation per sample: a
closed-form 2x2 solve for the linear law, a safeguarded 2x2 Newton solve
with the analytic Jacobian of the radial law otherwise.  The equation is
strongly monotone because the law is, and Newton converges in a few steps.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import AssumptionError, ConfigError, ContractError, NumericalError

TANGENT_TOL = 1e-12


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
    table_r: tuple = field(default=(), repr=False)
    table_g: tuple = field(default=(), repr=False)

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
            raise ConfigError("gamma1 must be positive")
        if self.gamma1 == 0 and self.gamma2 != 0:
            raise ConfigError("delay-only feedback (gamma1 = 0, gamma2 > 0) is not supported")
        if self.gamma2 < 0:
            raise ConfigError("gamma2 must be nonnegative")
        if self.tau <= 0:
            raise ConfigError("delay tau must be positive")
        if self.kind == "table":
            r = np.asarray(self.table_r, dtype=float)
            g = np.asarray(self.table_g, dtype=float)
            if r.size < 2 or r.size != g.size:
                raise ConfigError("table law needs at least two (r, g) pairs")
            if r[0] < 0 or np.any(np.diff(r) <= 0):
                raise ConfigError("table radii must be nonnegative and increasing")

    def _radial_gain(self, norms: np.ndarray) -> np.ndarray:
        """g(v) = gain(|v|) * v; returns gain(|v|)."""
        if self.kind == "linear":
            return np.full_like(norms, self.a)
        if self.kind == "saturating":
            return self.a + self.b / (1.0 + norms)
        r = np.asarray(self.table_r, dtype=float)
        g = np.asarray(self.table_g, dtype=float)
        vals = np.interp(norms, r, g)
        # continue with the last segment slope beyond the table
        hi = norms > r[-1]
        if np.any(hi):
            slope = (g[-1] - g[-2]) / (r[-1] - r[-2])
            vals = np.where(hi, g[-1] + slope * (norms - r[-1]), vals)
        out = np.empty_like(norms)
        pos = norms > 0
        out[pos] = vals[pos] / norms[pos]
        out[~pos] = 0.0
        return out

    def _radial_slope(self, norms: np.ndarray) -> np.ndarray:
        """G'(|v|) for the radial profile G(r) = gain(r) * r."""
        if self.kind == "linear":
            return np.full_like(norms, self.a)
        if self.kind == "saturating":
            return self.a + self.b / (1.0 + norms) ** 2
        r = np.asarray(self.table_r, dtype=float)
        slopes = np.diff(np.asarray(self.table_g, dtype=float)) / np.diff(r)
        seg = np.clip(np.searchsorted(r, norms, side="right") - 1, 0, len(slopes) - 1)
        # np.interp holds g(r[0]) below the table
        return np.where(norms < r[0], 0.0, slopes[seg])


def eval_g(law: FeedbackLaw, v: np.ndarray) -> np.ndarray:
    """Evaluate the feedback nonlinearity; works on (..., 3) stacks."""
    v = np.asarray(v, dtype=float)
    # np.linalg.norm over the short last axis costs twice as much as this
    norms = np.sqrt(np.einsum("...i,...i->...", v, v))
    return law._radial_gain(norms)[..., None] * v


@dataclass(frozen=True)
class MonotonicityConstants:
    c1: float
    c2: float
    provenance: str  # "analytic" | "sampled"

    def __post_init__(self):
        if not (0 < self.c1 <= self.c2):
            raise ConfigError(f"need 0 < c1 <= c2, got c1={self.c1}, c2={self.c2}")


def constants(law: FeedbackLaw, n_pairs: int = 100_000, radius: float = 10.0) -> MonotonicityConstants:
    """Strong-monotonicity and Lipschitz constants of the law.

    Shipped laws have analytic constants.  Table laws are estimated from
    difference quotients over quasi-random pairs in the ball |v| <= radius
    and rejected if the sampled monotonicity modulus is nonpositive.
    """
    if law.kind == "linear":
        return MonotonicityConstants(law.a, law.a, "analytic")
    if law.kind == "saturating":
        return MonotonicityConstants(law.a, law.a + law.b, "analytic")

    from scipy.stats import qmc  # slow to import; only table laws need it

    sampler = qmc.Sobol(d=6, scramble=True, seed=1905)
    m = int(np.ceil(np.log2(max(n_pairs, 2))))
    pts = sampler.random_base2(m) * 2.0 * radius - radius
    u, v = pts[:, :3], pts[:, 3:]
    keep = (np.linalg.norm(u, axis=1) <= radius) & (np.linalg.norm(v, axis=1) <= radius)
    u, v = u[keep], v[keep]
    du = u - v
    norm2 = np.einsum("ij,ij->i", du, du)
    ok = norm2 > 1e-20
    u, v, du, norm2 = u[ok], v[ok], du[ok], norm2[ok]
    dg = eval_g(law, u) - eval_g(law, v)
    pair = np.einsum("ij,ij->i", dg, du)
    c1 = float(np.min(pair / norm2))
    c2 = float(np.max(np.linalg.norm(dg, axis=1) / np.sqrt(norm2)))
    if c1 <= 0:
        raise AssumptionError(
            f"feedback table rejected: sampled monotonicity modulus c1 = {c1:.3e} <= 0"
        )
    return MonotonicityConstants(c1, c2, "sampled")


def _check_tangential(name: str, v: np.ndarray, nu: np.ndarray):
    dot = np.abs(np.sum(v * nu, axis=-1))
    scale = 1.0 + np.linalg.norm(v, axis=-1)
    if np.any(dot > TANGENT_TOL * scale):
        raise ContractError(f"{name} is not tangential (|v.nu| up to {float(np.max(dot)):.3e})")


def required_H_trace(
    law: FeedbackLaw, w_now: np.ndarray, w_delayed: np.ndarray, nu: np.ndarray
) -> np.ndarray:
    """Tangential H x nu demanded by the boundary relation.

    h = -gamma1 g(w_now) x nu - gamma2 g(w_delayed) x nu, with w_now and
    w_delayed the instantaneous and delayed tangential traces E x nu.
    """
    w_now = np.asarray(w_now, dtype=float)
    w_delayed = np.asarray(w_delayed, dtype=float)
    nu = np.asarray(nu, dtype=float)
    _check_tangential("w_now", w_now, nu)
    _check_tangential("w_delayed", w_delayed, nu)
    h = -law.gamma1 * np.cross(eval_g(law, w_now), nu)
    if law.gamma2 != 0.0:
        h = h - law.gamma2 * np.cross(eval_g(law, w_delayed), nu)
    return h


def _jacobian_2x2(law: FeedbackLaw, v: np.ndarray):
    """Entries (d00, d01, d11) of the symmetric Jacobian Dg(v) for (S, 2) stacks.

    Dg(v) = gain(r) I + (G'(r) - gain(r)) u u^T with r = |v| and u = v / r;
    at v = 0 the u u^T term drops out.
    """
    r2 = v[:, 0] ** 2 + v[:, 1] ** 2
    r = np.sqrt(r2)
    gain = law._radial_gain(r)
    scale = (law._radial_slope(r) - gain) / np.where(r2 > 0, r2, 1.0)
    return gain + scale * v[:, 0] ** 2, scale * v[:, 0] * v[:, 1], gain + scale * v[:, 1] ** 2


def implicit_boundary_update(
    law: FeedbackLaw,
    curl_term: np.ndarray,
    t_old: np.ndarray,
    z1_mid: np.ndarray,
    nu: np.ndarray,
    tangents: np.ndarray,
    dt: float,
    eps_t: np.ndarray,
    kappa: np.ndarray,
    tol: float = 1e-12,
    max_iter: int = 50,
    lagged: bool = False,
) -> np.ndarray:
    """Advance the boundary tangential components by one time step.

    Solves, per sample,
        (t_new - t_old)/dt = eps_t^{-1} (curl_term + fb((t_old+t_new)/2))
    with the feedback forcing fb = -kappa * (H x nu) on the tangent axes,
    H x nu = -gamma1 g(w) x nu - gamma2 g(z1_mid) x nu.  For the tangential
    trace w = t x nu, g(w) x nu = -g(t) on the components, so the
    instantaneous part is -kappa gamma1 g(t) and needs no cross product; the
    delayed part is fixed within the step.  Vectorized over samples:
    `curl_term`, `t_old` are (S, 2) tangential components, `z1_mid` the
    (S, 3) time-centered delayed trace, `kappa` the (S, 2) injection scale
    (area over volume mass), `eps_t` the tangential permittivity, either
    (S, 2) diagonal entries or an (S, 2, 2) block.  With ``lagged=True`` the
    feedback is evaluated at t_old (explicit mode).

    The residual F(t) = t_old + dt eps_t^{-1} (curl_term + fb((t_old+t)/2)) - t
    is driven below `tol` (max norm per sample) by Newton steps with the
    matrix I + (dt/2) eps_t^{-1} kappa gamma1 Dg, each step halved per sample
    until that sample's residual falls.
    """
    t_old = np.asarray(t_old, dtype=float)
    eps_t = np.asarray(eps_t, dtype=float)

    if law.kind == "linear" and eps_t.ndim == 2 and not lagged:
        # (t_new - t_old)/dt = eps^{-1}[curl - kappa*(gamma1*a*t_mid + gamma2*a*(nu x z1))]
        rows = np.arange(t_old.shape[0])
        u1 = np.cross(nu, z1_mid)
        u1_c = np.stack([u1[rows, tangents[:, 0]], u1[rows, tangents[:, 1]]], axis=1)
        q = dt / eps_t * kappa * law.a
        rhs = t_old * (1.0 - 0.5 * q * law.gamma1) + dt * curl_term / eps_t - q * law.gamma2 * u1_c
        return rhs / (1.0 + 0.5 * q * law.gamma1)

    # k = dt eps_t^{-1} kappa gamma1 is the matrix that multiplies -g(t_mid)
    damping = kappa * law.gamma1
    if eps_t.ndim == 2:
        coef = dt / eps_t
        k = coef * damping
        k00, k01, k10, k11 = k[:, 0], 0.0, 0.0, k[:, 1]

        def mass(x):
            return coef * x
    else:
        coef = dt * np.linalg.inv(eps_t)
        k = coef * damping[:, None, :]
        k00, k01, k10, k11 = k[:, 0, 0], k[:, 0, 1], k[:, 1, 0], k[:, 1, 1]

        def mass(x):
            return np.einsum("sab,sb->sa", coef, x)

    base = t_old + mass(curl_term)
    drive = base
    if law.gamma2 != 0.0:
        delayed = np.take_along_axis(np.cross(eval_g(law, z1_mid), nu), tangents, axis=1)
        drive = base + mass(kappa * law.gamma2 * delayed)

    if lagged:
        return drive - mass(damping * eval_g(law, t_old))

    def residual(t):
        f = drive - mass(damping * eval_g(law, 0.5 * (t_old + t))) - t
        return f, np.maximum(np.abs(f[:, 0]), np.abs(f[:, 1]))

    t_new = base.copy()
    f, res = residual(t_new)
    step = np.ones(t_old.shape[0])
    for _ in range(max_iter):
        active = ~(res <= tol)  # a NaN residual stays active
        if not np.any(active):
            return t_new
        # Newton matrix m = I + k Dg(t_mid) / 2, solved in closed form
        d00, d01, d11 = _jacobian_2x2(law, 0.5 * (t_old + t_new))
        m00 = 1.0 + 0.5 * (k00 * d00 + k01 * d01)
        m01 = 0.5 * (k00 * d01 + k01 * d11)
        m10 = 0.5 * (k10 * d00 + k11 * d01)
        m11 = 1.0 + 0.5 * (k10 * d01 + k11 * d11)
        factor = step / (m00 * m11 - m01 * m10)
        trial = t_new + np.stack(
            [(m11 * f[:, 0] - m01 * f[:, 1]) * factor, (m00 * f[:, 1] - m10 * f[:, 0]) * factor],
            axis=1,
        )
        trial_f, trial_res = residual(trial)
        accept = active & (trial_res < res)
        np.copyto(t_new, trial, where=accept[:, None])
        np.copyto(f, trial_f, where=accept[:, None])
        np.copyto(res, trial_res, where=accept)
        step = np.where(accept, 1.0, 0.5 * step)
    bad = int(np.argmax(res))  # the first NaN, if any
    raise NumericalError(
        f"boundary update failed to converge: sample {bad}, residual {float(res[bad]):.3e} "
        f"after {max_iter} iterations"
    )


def load_table_law(path, **kwargs) -> FeedbackLaw:
    """Read a radial `r g(r)` table and build a table law (validated later)."""
    rs, gs = [], []
    with open(path) as fh:
        for ln, line in enumerate(fh, start=1):
            body = line.split("#", 1)[0].strip()
            if not body:
                continue
            parts = body.split()
            if len(parts) != 2:
                raise ConfigError(f"{path}:{ln}: expected `r g` pairs")
            rs.append(float(parts[0]))
            gs.append(float(parts[1]))
    return FeedbackLaw(kind="table", table_r=tuple(rs), table_g=tuple(gs), **kwargs)
