"""Energy functionals, dissipation and observability checks, decay fitting.

The energy trace records, at integer time levels, the weighted field energy
(with the magnetic part evaluated as the staggered two-level product that the
leapfrog scheme conserves exactly in the lossless limit), the unweighted
variant, the delay-augmented functional E_xi, the endpoint damping functional
D, and the instantaneous boundary outflow rate.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, field

import numpy as np

from .delay import DelayRing
from .errors import AssumptionError, ConfigError, ContractError
from .feedback import FeedbackLaw, eval_g
from .operators import Operators

CSV_HEADER = "t,E_weighted,E_plain,E_xi,D,flux"


# ---------------------------------------------------------------------------
# Pointwise energies
# ---------------------------------------------------------------------------

def _dot(a, b) -> float:
    """Inner product summed by numpy's pairwise reduction, not by BLAS.

    The result is then the same under any BLAS thread count.  Overflow on a
    diverging run yields inf without a warning; the caller reports it.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        return float(np.sum(a * b))


def field_energies(q, h, h_prev, ops: Operators) -> tuple[float, float]:
    """(weighted, plain) field energy: E part plus staggered H product."""
    e_w = 0.5 * _dot(ops.Wq * ops.eps_q * q, q)
    e_w += 0.5 * _dot(ops.Wf * ops.mu_f * h_prev, h)
    e_p = 0.5 * _dot(ops.Wq * q, q)
    e_p += 0.5 * _dot(ops.Wf * h_prev, h)
    return e_w, e_p


def energies(
    q, h, h_prev, ring: DelayRing, ops: Operators, xi: float, tau: float, weighting: str = "weighted"
) -> tuple[float, float, float, float]:
    """(E_weighted, E_plain, E_xi, D) at the current time level."""
    if weighting not in ("weighted", "plain"):
        raise ConfigError(f"unknown weighting mode {weighting!r}")
    e_w, e_p = field_energies(q, h, h_prev, ops)
    areas = ops.grid.samples.areas
    delay = _dot(areas, ring.s_energy())
    e_xi = (e_w if weighting == "weighted" else e_p) + xi * tau * delay
    z0, z1 = ring.slot(0), ring.slot(ring.N)
    d_val = _dot(areas, np.einsum("ij,ij->i", z0, z0) + np.einsum("ij,ij->i", z1, z1))
    return e_w, e_p, e_xi, d_val


def boundary_outflow(ring: DelayRing, law: FeedbackLaw, xi: float, areas: np.ndarray) -> float:
    """Instantaneous -dE_xi/dt from the boundary terms.

    flux = sum dA [ (g1 g(Z0) + g2 g(Z1)) . Z0 - xi (|Z0|^2 - |Z1|^2) ].
    """
    z0, z1 = ring.slot(0), ring.slot(ring.N)
    work = law.gamma1 * eval_g(law, z0)
    if law.gamma2 != 0.0:
        work = work + law.gamma2 * eval_g(law, z1)
    integrand = np.einsum("ij,ij->i", work, z0) - xi * (
        np.einsum("ij,ij->i", z0, z0) - np.einsum("ij,ij->i", z1, z1)
    )
    return _dot(areas, integrand)


# ---------------------------------------------------------------------------
# Energy trace container
# ---------------------------------------------------------------------------

@dataclass
class EnergyTrace:
    t: np.ndarray
    E_weighted: np.ndarray
    E_plain: np.ndarray
    E_xi: np.ndarray
    D: np.ndarray
    flux: np.ndarray
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        cols = (self.t, self.E_weighted, self.E_plain, self.E_xi, self.D, self.flux)
        if any(len(c) != len(self.t) for c in cols):
            raise ContractError("energy trace columns have mismatched lengths")
        for name, c in zip(CSV_HEADER.split(","), cols):
            if not np.all(np.isfinite(c)):
                raise ContractError(f"non-finite entries in energy column {name}")
        if len(self.t) > 1 and not np.all(np.diff(self.t) > 0):
            raise ContractError("record times must be strictly increasing")
        for name in ("E_weighted", "E_plain", "E_xi", "D"):
            if np.any(getattr(self, name) < 0):
                raise ContractError(f"negative entries in energy column {name}")

    def to_csv(self) -> str:
        buf = io.StringIO()
        buf.write(CSV_HEADER + "\n")
        for row in zip(self.t, self.E_weighted, self.E_plain, self.E_xi, self.D, self.flux):
            buf.write(",".join(f"{v:.17g}" for v in row) + "\n")
        return buf.getvalue()

    @classmethod
    def from_csv(cls, text: str, metadata: dict | None = None) -> "EnergyTrace":
        lines = [ln for ln in text.strip().splitlines() if ln.strip()]
        if not lines or lines[0].strip() != CSV_HEADER:
            raise ConfigError(f"energy CSV must start with header `{CSV_HEADER}`")
        data = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
        if data.ndim != 2 or data.shape[1] != 6:
            raise ConfigError("energy CSV rows must have 6 columns")
        return cls(*(data[:, i] for i in range(6)), metadata=metadata or {})


# ---------------------------------------------------------------------------
# Dissipation constants and the two-sided bound
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DissipationConstants:
    xi: float
    c1E: float
    c2E: float
    interval: tuple[float, float]
    gamma1: float
    gamma2: float
    c1: float
    c2: float


def xi_default(gamma1: float, gamma2: float, c1: float, c2: float, xi: float | None = None) -> DissipationConstants:
    """Admissible weight for the delay energy and the two-sided constants.

    The admissible interval is (g2 c2 / 2, g1 c1 - g2 c2 / 2); it is nonempty
    exactly when g1 c1 > g2 c2.  The default weight is the interval midpoint
    g1 c1 / 2.  With an explicit `xi` the constants are built at that value
    (which must lie in the interval).
    """
    if min(gamma1, c1, c2) <= 0 or gamma2 < 0:
        raise ConfigError("need gamma1, c1, c2 > 0 and gamma2 >= 0")
    lo = 0.5 * gamma2 * c2
    hi = gamma1 * c1 - 0.5 * gamma2 * c2
    if hi <= lo:
        raise AssumptionError(
            "no admissible delay weight: the condition gamma1*c1 > gamma2*c2 fails "
            f"(gamma1*c1 = {gamma1 * c1:.6g}, gamma2*c2 = {gamma2 * c2:.6g}); "
            "the delayed feedback is too strong relative to the instantaneous one"
        )
    value = 0.5 * gamma1 * c1 if xi is None else float(xi)
    if not (lo < value < hi):
        raise AssumptionError(
            f"delay weight xi = {value:.6g} outside the admissible interval ({lo:.6g}, {hi:.6g})"
        )
    c1E = min(hi - value, value - lo)
    c2E = gamma1 * c2 + 0.5 * gamma2 * c2 + value
    return DissipationConstants(value, c1E, c2E, (lo, hi), gamma1, gamma2, c1, c2)


def _pair_sample(n: int, max_pairs: int, seed: int = 20240) -> np.ndarray:
    """(t1, t2) index pairs: all adjacent pairs plus a random spread."""
    adjacent = np.stack([np.arange(n - 1), np.arange(1, n)], axis=1)
    total = n * (n - 1) // 2
    if total <= max_pairs:
        i, j = np.triu_indices(n, k=1)
        return np.stack([i, j], axis=1)
    rng = np.random.default_rng(seed)
    n_random = max(0, max_pairs - len(adjacent))
    a = rng.integers(0, n - 1, size=n_random)
    b = rng.integers(1, n, size=n_random)
    lo, hi = np.minimum(a, b), np.maximum(a, b)
    hi = np.where(lo == hi, hi + 1, hi)
    rand = np.stack([lo, hi], axis=1)
    return np.concatenate([adjacent, rand], axis=0)


@dataclass
class InequalityReport:
    passed: bool
    worst_upper: float
    worst_lower: float
    n_pairs: int
    slack: float
    detail: str = ""

    def summary_lines(self) -> list[str]:
        return [
            f"passed = {self.passed}",
            f"worst_upper_margin = {self.worst_upper:.6e}",
            f"worst_lower_margin = {self.worst_lower:.6e}",
            f"pairs = {self.n_pairs}",
            f"slack = {self.slack}",
        ]


def lemma31_check(
    trace: EnergyTrace, k: DissipationConstants, slack: float = 1.05, max_pairs: int = 10_000
) -> InequalityReport:
    """Two-sided dissipation bound over sampled record pairs.

    Upper side: E_xi(t2) - E_xi(t1) <= -(c1E/slack) * int D; lower side:
    E_xi(t2) - E_xi(t1) >= -(c2E*slack) * int D; the time integral of D is
    the trapezoid rule over records.  Margins are normalized by E_xi(0);
    positive margins mean the inequality holds strictly.
    """
    n = len(trace.t)
    if n < 2:
        raise ContractError("need at least two records")
    cum = np.concatenate(
        [[0.0], np.cumsum(0.5 * (trace.D[1:] + trace.D[:-1]) * np.diff(trace.t))]
    )
    pairs = _pair_sample(n, max_pairs)
    i1, i2 = pairs[:, 0], pairs[:, 1]
    dE = trace.E_xi[i2] - trace.E_xi[i1]
    integral = cum[i2] - cum[i1]
    scale = max(trace.E_xi[0], 1e-300)
    atol = 1e-12
    upper_margin = (-(k.c1E / slack) * integral - dE) / scale
    lower_margin = (dE + (k.c2E * slack) * integral) / scale
    report = InequalityReport(
        passed=bool(np.all(upper_margin >= -atol) and np.all(lower_margin >= -atol)),
        worst_upper=float(np.min(upper_margin)),
        worst_lower=float(np.min(lower_margin)),
        n_pairs=len(pairs),
        slack=slack,
        detail=f"c1E={k.c1E:.6g}, c2E={k.c2E:.6g}, xi={k.xi:.6g}",
    )
    return report


# ---------------------------------------------------------------------------
# Observability constants and check
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ObservabilityConstants:
    delta: float
    c: float
    c_T: float
    kappa: float
    ingredients: dict


def observability_constants(
    alpha: float,
    d1: float,
    beta: float,
    m_sup: float,
    lambda_max_eps: float,
    lambda_max_mu: float,
    c2: float,
    gamma1: float,
    gamma2: float,
    xi: float,
    tau: float,
    weighted: bool = True,
) -> ObservabilityConstants:
    """Constants of the integrated-energy estimate from the multiplier bound.

    delta is the largest value admitted by the absorption step,
    delta = beta*alpha / (m_sup^2 * max(lmax(eps), lmax(mu))^2); then
    c   = m_sup*lmax(eps)*lmax(mu) / (d1*alpha),
    c_T = (1/(d1*alpha)) * (1/(2 delta) + c2^2 max(g1,g2)^2 / delta) + xi*tau.
    For weighted traces both constants are multiplied by the conversion
    factor kappa = max(lmax(eps), lmax(mu), 1).
    """
    if d1 is None or beta is None or d1 <= 0 or beta <= 0:
        raise AssumptionError(
            f"observability hypotheses fail: need d1 > 0 and beta > 0 (d1={d1}, beta={beta})"
        )
    if alpha <= 0:
        raise AssumptionError(f"observability hypotheses fail: alpha = {alpha} <= 0")
    lmax = max(lambda_max_eps, lambda_max_mu)
    delta = beta * alpha / (m_sup**2 * lmax**2)
    c = m_sup * lambda_max_eps * lambda_max_mu / (d1 * alpha)
    c_T = (0.5 / delta + c2**2 * max(gamma1, gamma2) ** 2 / delta) / (d1 * alpha) + xi * tau
    kappa = max(lambda_max_eps, lambda_max_mu, 1.0)
    if weighted:
        c *= kappa
        c_T *= kappa
    return ObservabilityConstants(
        delta=delta,
        c=c,
        c_T=c_T,
        kappa=kappa,
        ingredients=dict(
            alpha=alpha,
            d1=d1,
            beta=beta,
            m_sup=m_sup,
            lambda_max_eps=lambda_max_eps,
            lambda_max_mu=lambda_max_mu,
            c2=c2,
            gamma1=gamma1,
            gamma2=gamma2,
            xi=xi,
            tau=tau,
        ),
    )


@dataclass
class ObservabilityReport:
    passed: bool
    ratio: float
    lhs: float
    rhs: float
    slack: float

    def summary_lines(self) -> list[str]:
        return [
            f"passed = {self.passed}",
            f"ratio = {self.ratio:.6e}",
            f"lhs = {self.lhs:.17g}",
            f"rhs = {self.rhs:.17g}",
            f"slack = {self.slack}",
        ]


def lemma32_check(
    trace: EnergyTrace, oc: ObservabilityConstants, T: float | None = None, slack: float = 1.10
) -> ObservabilityReport:
    """int_0^T E_xi dt <= slack * [c (E_xi(0) + E_xi(T)) + c_T int_0^T D]."""
    T = trace.t[-1] if T is None else float(T)
    mask = trace.t <= T + 1e-12 * max(1.0, T)
    t = trace.t[mask]
    if len(t) < 2:
        raise ContractError("trace does not span the requested window")
    lhs = float(np.trapezoid(trace.E_xi[mask], t))
    rhs = oc.c * (trace.E_xi[mask][0] + trace.E_xi[mask][-1]) + oc.c_T * float(
        np.trapezoid(trace.D[mask], t)
    )
    ratio = lhs / rhs if rhs > 0 else (0.0 if lhs == 0 else np.inf)
    return ObservabilityReport(
        passed=bool(lhs <= slack * rhs + 1e-300), ratio=ratio, lhs=lhs, rhs=rhs, slack=slack
    )


# ---------------------------------------------------------------------------
# Decay fitting and the decay certificate
# ---------------------------------------------------------------------------

def fit_decay(trace: EnergyTrace, window: tuple[float, float]) -> tuple[float, float, float]:
    """Least-squares exponential fit of E_xi on a window: (rate, prefactor, R^2).

    Fits ln E_xi = intercept - rate * t; prefactor = exp(intercept)/E_xi(0).
    Rejects the window if any energy inside it is nonpositive.  A constant
    trace yields rate 0 with R^2 reported as 0.
    """
    t_a, t_b = window
    mask = (trace.t >= t_a) & (trace.t <= t_b)
    t, e = trace.t[mask], trace.E_xi[mask]
    if len(t) < 2:
        raise ContractError(f"fit window [{t_a}, {t_b}] holds fewer than two records")
    if np.any(e <= 0):
        raise ContractError("fit window rejected: nonpositive energy inside it")
    y = np.log(e)
    slope, intercept = np.polyfit(t, y, 1)
    resid = y - (slope * t + intercept)
    ss_res = float(np.dot(resid, resid))
    ss_tot = float(np.dot(y - y.mean(), y - y.mean()))
    r2 = 0.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    base = trace.E_xi[0] if trace.E_xi[0] > 0 else 1.0
    return -float(slope), float(np.exp(intercept) / base), float(r2)


@dataclass
class DecayCertificate:
    passed: bool
    gamma: float
    lam: float
    c_tilde: float
    T: float
    hypothesis_upper: bool
    hypothesis_lower: bool
    hypothesis_observability: bool
    conclusion: bool

    def summary_lines(self) -> list[str]:
        return [
            f"passed = {self.passed}",
            f"gamma = {self.gamma:.17g}",
            f"lambda = {self.lam:.17g}",
            f"c_tilde = {self.c_tilde:.17g}",
            f"T = {self.T:.17g}",
            f"hypothesis_two_sided = {self.hypothesis_upper and self.hypothesis_lower}",
            f"hypothesis_observability = {self.hypothesis_observability}",
            f"conclusion_pointwise_bound = {self.conclusion}",
        ]


def appendix_analyze(
    t: np.ndarray,
    E: np.ndarray,
    D: np.ndarray,
    c1E: float,
    c2E: float,
    c: float,
    c_T: float,
    T: float,
    slack: float = 1.05,
    max_pairs: int = 10_000,
) -> DecayCertificate:
    """Contraction-rate certificate from the dissipation and observation bounds.

    Verifies the two-sided damping hypothesis and the integrated-energy
    hypothesis on the samples (trapezoid quadrature, multiplicative slack),
    then computes c~ = (c_T + c*c2E)/c1E, gamma = c~/(c~ + T/2),
    lambda = -ln(gamma)/T, and checks E(t) <= (1/gamma) e^{-lambda t} E(0)
    at every sample.
    """
    t = np.asarray(t, dtype=float)
    E = np.asarray(E, dtype=float)
    D = np.asarray(D, dtype=float)
    if T <= 4 * c:
        raise ContractError(
            f"certificate needs T > 4c (T = {T:.6g}, 4c = {4 * c:.6g}); extend the run"
        )
    if len(t) < 2 or t[-1] < T - 1e-12 * max(1.0, T):
        raise ContractError("samples do not cover [0, T]")

    cum = np.concatenate([[0.0], np.cumsum(0.5 * (D[1:] + D[:-1]) * np.diff(t))])
    pairs = _pair_sample(len(t), max_pairs)
    i1, i2 = pairs[:, 0], pairs[:, 1]
    dE = E[i2] - E[i1]
    integral = cum[i2] - cum[i1]
    scale = max(E[0], 1e-300)
    atol = 1e-12
    hyp_upper = bool(np.all((-(c1E / slack) * integral - dE) / scale >= -atol))
    hyp_lower = bool(np.all((dE + (c2E * slack) * integral) / scale >= -atol))

    mask = t <= T + 1e-12 * max(1.0, T)
    lhs = float(np.trapezoid(E[mask], t[mask]))
    iT = int(np.nonzero(mask)[0][-1])
    rhs = c * (E[0] + E[iT]) + c_T * float(np.trapezoid(D[mask], t[mask]))
    hyp_obs = bool(lhs <= max(1.10, slack) * rhs + 1e-300)

    c_tilde = (c_T + c * c2E) / c1E
    gamma = c_tilde / (c_tilde + T / 2.0)
    lam = -np.log(gamma) / T
    bound = (1.0 / gamma) * np.exp(-lam * t) * E[0]
    conclusion = bool(np.all(E <= bound * (1.0 + 1e-12) + atol * scale))

    return DecayCertificate(
        passed=hyp_upper and hyp_lower and hyp_obs and conclusion,
        gamma=float(gamma),
        lam=float(lam),
        c_tilde=float(c_tilde),
        T=float(T),
        hypothesis_upper=hyp_upper,
        hypothesis_lower=hyp_lower,
        hypothesis_observability=hyp_obs,
        conclusion=conclusion,
    )


def dissipation_residual(trace: EnergyTrace) -> float:
    """Max mismatch between energy differences and the recorded outflow.

    Compares E_xi(t2) - E_xi(t1) with -int flux dt (trapezoid) over
    consecutive record pairs, normalized by E_xi(0).
    """
    if len(trace.t) < 2:
        raise ContractError("need at least two records")
    dE = np.diff(trace.E_xi)
    work = 0.5 * (trace.flux[1:] + trace.flux[:-1]) * np.diff(trace.t)
    scale = max(trace.E_xi[0], 1e-300)
    return float(np.max(np.abs(dE + work)) / scale)


def xi_equivalence_bounds(trace: EnergyTrace, xi: float) -> tuple[float, float]:
    """Pointwise check data for the norm equivalence of E and E_xi.

    Returns the worst margins of
        min(1, xi) * E <= E_xi <= max(1, xi) * E
    where E is the trace's field+delay energy reconstructed with unit delay
    weight: E = E_field + (E_xi - E_field)/xi.
    """
    weighting = trace.metadata.get("weighting", "weighted")
    e_field = trace.E_weighted if weighting == "weighted" else trace.E_plain
    delay = (trace.E_xi - e_field) / xi
    e_one = e_field + delay
    lower = trace.E_xi - min(1.0, xi) * e_one
    upper = max(1.0, xi) * e_one - trace.E_xi
    return float(lower.min()), float(upper.min())
