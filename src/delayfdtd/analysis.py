"""Energy functionals, dissipation and observability checks, decay fitting.

The energy trace records, at integer time levels, the weighted field energy
(with the magnetic part evaluated as the staggered two-level product that the
leapfrog scheme conserves exactly in the lossless limit), the unweighted
variant, the delay-augmented functional E_xi = E_weighted + xi tau int|Z|^2,
the endpoint damping functional D, and the instantaneous boundary outflow
rate.  `delay_weight` decides xi, and whether a certificate applies, for
both `run` and `analyze`.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass, field

import numpy as np

from .delay import DelayRing
from .errors import AssumptionError, ConfigError, NumericalError
from .feedback import FeedbackLaw, boundary_drive, constants
from .materials import MaterialReport
from .operators import Operators

CSV_HEADER = "t,E_weighted,E_plain,E_xi,D,flux"
# margins of the two-sided and pointwise decay checks, relative to E_xi(0)
_ATOL = 1e-12


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


def energies(
    q, h, h_prev, ring: DelayRing, ops: Operators, xi: float, tau: float
) -> tuple[float, float, float, float]:
    """(E_weighted, E_plain, E_xi, D) at the current time level.

    Each field is read once: one product q*q (and h_prev*h) feeds both rows
    of the stacked masses, weighted and plain, in one einsum, and the two
    ring sums are einsums too.  einsum without `optimize` never calls BLAS,
    so the result does not depend on the BLAS thread count.  Overflow on a
    diverging run yields inf without a warning; the caller reports it.
    """
    areas = ops.grid.samples.areas
    with np.errstate(over="ignore", invalid="ignore"):
        e = np.einsum("ij,j->i", ops.Wq_pair, q * q)
        e += np.einsum("ij,j->i", ops.Wf_pair, h_prev * h)
        delay = np.einsum("s,s->", areas, ring.s_energy())
        d_val = np.einsum("s,s->", areas, ring.slot_norm2(0) + ring.slot_norm2(ring.N))
    e_w = 0.5 * float(e[0])
    return e_w, 0.5 * float(e[1]), e_w + xi * tau * float(delay), float(d_val)


def boundary_outflow(ring: DelayRing, law: FeedbackLaw, xi: float, areas: np.ndarray) -> float:
    """Instantaneous -dE_xi/dt from the boundary terms.

    flux = sum dA [ (g1 g(Z0) + g2 g(Z1)) . Z0 - xi (|Z0|^2 - |Z1|^2) ].
    The per-sample dot runs on the two component columns (an einsum over
    the two-long axis loops once per sample); the sum over samples is an
    einsum, as in `energies`.  An overflowed trace gives a non-finite flux
    without a warning.
    """
    z0 = ring.slot(0)
    with np.errstate(over="ignore", invalid="ignore"):
        work = boundary_drive(law, z0, ring.slot(ring.N))
        integrand = work[:, 0] * z0[:, 0]
        integrand += work[:, 1] * z0[:, 1]
        integrand -= xi * (ring.slot_norm2(0) - ring.slot_norm2(ring.N))
        return float(np.einsum("s,s->", areas, integrand))


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
        for name, c in zip(CSV_HEADER.split(","), cols):
            if not np.all(np.isfinite(c)):
                raise NumericalError(f"non-finite entries in energy column {name}")
        if len(self.t) > 1 and not np.all(np.diff(self.t) > 0):
            raise NumericalError("record times must be strictly increasing")
        for name in ("E_weighted", "E_plain", "E_xi", "D"):
            if np.any(getattr(self, name) < 0):
                raise NumericalError(f"negative entries in energy column {name}")

    def to_csv(self) -> str:
        buf = io.StringIO()
        buf.write(CSV_HEADER + "\n")
        for row in zip(self.t, self.E_weighted, self.E_plain, self.E_xi, self.D, self.flux):
            buf.write(",".join(f"{v:.17g}" for v in row) + "\n")
        return buf.getvalue()

    @classmethod
    def from_csv(cls, text: str) -> "EnergyTrace":
        lines = [(i, ln) for i, ln in enumerate(text.splitlines(), start=1) if ln.strip()]
        if not lines or lines[0][1].strip() != CSV_HEADER:
            raise ConfigError(f"energy CSV must start with header `{CSV_HEADER}`")
        rows = []
        for i, ln in lines[1:]:
            fields = ln.split(",")
            if len(fields) != 6:
                raise ConfigError(f"energy CSV line {i}: {len(fields)} columns, need 6")
            try:
                rows.append([float(v) for v in fields])
            except ValueError:
                raise ConfigError(f"energy CSV line {i}: non-numeric field in {ln.strip()!r}") from None
        if not rows:
            raise ConfigError("energy CSV holds no records")
        try:
            return cls(*np.array(rows).T)
        except NumericalError as exc:  # a malformed file, not a program fault
            raise ConfigError(f"energy CSV: {exc}") from None


# ---------------------------------------------------------------------------
# Dissipation constants and the two-sided bound
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AnalysisOptions:
    """The delay weight and the multiplicative slacks of the certificate checks.

    The slack defaults are those of `lemma31_check`, `lemma32_check` and
    the config's [analysis] section; `certify` reads the slacks from the
    options it is given.
    """

    xi: float | None = None  # None means auto
    slack_dissipation: float = 1.05
    slack_observability: float = 1.10

    def __post_init__(self):
        for key in ("slack_dissipation", "slack_observability"):
            if not getattr(self, key) > 0:
                raise ConfigError(f"{key} must be positive, got {getattr(self, key)}")


@dataclass(frozen=True)
class DissipationConstants:
    xi: float
    c1E: float
    c2E: float
    gamma1: float
    gamma2: float
    c1: float
    c2: float


def xi_default(gamma1: float, gamma2: float, c1: float, c2: float, xi: float | None = None) -> DissipationConstants:
    """Admissible weight for the delay energy and the two-sided constants.

    The admissible interval is (g2 c2 / 2, g1 c1 - g2 c2 / 2); it is nonempty
    exactly when g1 c1 > g2 c2.  The default weight is the interval midpoint
    g1 c1 / 2.  With an explicit `xi` the constants are built at that value
    (which must lie in the interval).  The arguments are those of a law with
    gamma1 > 0: `FeedbackLaw` and `MonotonicityConstants` own their ranges.
    """
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
    return DissipationConstants(value, c1E, c2E, gamma1, gamma2, c1, c2)


def auto_weight(law: FeedbackLaw) -> float:
    """The weight `xi = auto` stands for, admissible or not: g1 c1 / 2, or 0 when gamma1 = 0.

    A sweep pins it on rows that say auto, so a row outside the admissible region runs and reports no certificate.
    """
    return 0.5 * law.gamma1 * constants(law).c1 if law.gamma1 > 0 else 0.0


def delay_weight(law: FeedbackLaw, xi: float | None) -> tuple[float, DissipationConstants | None]:
    """The delay weight of E_xi and its two-sided constants, if it has any.

    A conservative law (gamma1 = 0) gets weight 0 unless one is given, and no
    constants.  Otherwise xi = None picks `auto_weight` and raises
    AssumptionError when the interval is empty; an explicit xi outside the
    interval is kept, without constants, so the run goes on and its
    certificate reads none.
    """
    value = auto_weight(law) if xi is None else xi
    if law.gamma1 == 0:
        return value, None
    mono = constants(law)
    try:
        return value, xi_default(law.gamma1, law.gamma2, mono.c1, mono.c2, xi=value)
    except AssumptionError:
        if xi is None:
            raise
        return value, None


@dataclass
class InequalityReport:
    passed: bool
    worst_upper: float
    worst_lower: float
    n_pairs: int


def lemma31_check(
    trace: EnergyTrace, k: DissipationConstants, slack: float = AnalysisOptions.slack_dissipation
) -> InequalityReport:
    """Two-sided dissipation bound on E_xi over every record pair, by its worst normalized margins.

    Upper side: E(t2) - E(t1) <= -(c1E/slack) * int D; lower side:
    E(t2) - E(t1) >= -(c2E*slack) * int D; the time integral of D is the
    trapezoid rule over records.  Both sides are differences of one prefix
    array, R = E + (c1E/slack) cum and Q = E + (c2E*slack) cum, so the worst
    pair on each side is one running-extremum scan (the maximum-subarray
    scan).  Margins are normalized by E(0); positive margins mean the
    inequality holds strictly, and the bound passes when both are >= -_ATOL.
    """
    t, E, D = trace.t, trace.E_xi, trace.D
    cum = np.concatenate([[0.0], np.cumsum(0.5 * (D[1:] + D[:-1]) * np.diff(t))])
    R = E + (k.c1E / slack) * cum
    Q = E + (k.c2E * slack) * cum
    scale = max(E[0], 1e-300)
    upper = float(np.min(np.minimum.accumulate(R[:-1]) - R[1:]) / scale)
    lower = float(np.min(Q[1:] - np.maximum.accumulate(Q[:-1])) / scale)
    n = len(t)
    return InequalityReport(
        passed=upper >= -_ATOL and lower >= -_ATOL,
        worst_upper=upper,
        worst_lower=lower,
        n_pairs=n * (n - 1) // 2,
    )


# ---------------------------------------------------------------------------
# Observability constants and check
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ObservabilityConstants:
    delta: float
    c: float
    c_T: float


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
) -> ObservabilityConstants:
    """Constants of the integrated-energy estimate from the multiplier bound.

    delta is the largest value admitted by the absorption step,
    delta = beta*alpha / (m_sup^2 * max(lmax(eps), lmax(mu))^2); then
    c   = m_sup*lmax(eps)*lmax(mu) / (d1*alpha),
    c_T = (1/(d1*alpha)) * (1/(2 delta) + c2^2 max(g1,g2)^2 / delta) + xi*tau.
    The traces are weighted, so both constants are then multiplied by the
    conversion factor kappa = max(lmax(eps), lmax(mu), 1).  Constants beyond
    the float range (delta = 0, or c or c_T not finite) raise
    AssumptionError: the estimate does not apply in floating point.
    """
    if d1 <= 0 or beta <= 0:
        raise AssumptionError(
            f"observability hypotheses fail: need d1 > 0 and beta > 0 (d1={d1}, beta={beta})"
        )
    lmax = max(lambda_max_eps, lambda_max_mu)
    try:  # a Python float's ** raises on overflow, a numpy scalar's gives inf; / 0 raises or gives inf
        with np.errstate(all="ignore"):
            delta = beta * alpha / (m_sup**2 * lmax**2)
            c = m_sup * lambda_max_eps * lambda_max_mu / (d1 * alpha)
            c_T = (0.5 / delta + c2**2 * max(gamma1, gamma2) ** 2 / delta) / (d1 * alpha) + xi * tau
            kappa = max(lambda_max_eps, lambda_max_mu, 1.0)
            oc = ObservabilityConstants(delta=delta, c=c * kappa, c_T=c_T * kappa)
        if oc.delta > 0 and all(map(math.isfinite, (oc.delta, oc.c, oc.c_T))):
            return oc
    except (OverflowError, ZeroDivisionError):
        pass
    raise AssumptionError(
        "observability constants leave the float range: delta underflows to 0 or c, c_T overflow "
        f"(c2 * max(gamma1, gamma2) = {c2 * max(gamma1, gamma2):.6g}, max(lmax(eps), lmax(mu)) = {lmax:.6g})"
    )


def _window_tol(T: float) -> float:
    """How far a record time may pass the window end T and still count as T."""
    return 1e-12 * max(1.0, T)


@dataclass
class ObservabilityReport:
    passed: bool
    ratio: float


def lemma32_check(
    trace: EnergyTrace, oc: ObservabilityConstants, T: float | None = None,
    slack: float = AnalysisOptions.slack_observability,
) -> ObservabilityReport:
    """int_0^T E_xi dt <= slack * [c (E_xi(0) + E_xi(T)) + c_T int_0^T D], trapezoid over records up to T.

    Sides beyond the float range raise AssumptionError: the check does not
    apply in floating point.
    """
    T = trace.t[-1] if T is None else float(T)
    mask = trace.t <= T + _window_tol(T)
    t, E = trace.t[mask], trace.E_xi[mask]
    with np.errstate(over="ignore", invalid="ignore"):
        lhs = float(np.trapezoid(E, t))
        rhs = oc.c * (E[0] + E[-1]) + oc.c_T * float(np.trapezoid(trace.D[mask], t))
    if not (math.isfinite(lhs) and math.isfinite(rhs)):
        raise AssumptionError(
            f"observability integrals leave the float range: int E_xi = {lhs:.6g}, right side = {rhs:.6g}"
        )
    ratio = lhs / rhs if rhs > 0 else (0.0 if lhs == 0 else np.inf)
    return ObservabilityReport(passed=bool(lhs <= slack * rhs + 1e-300), ratio=ratio)


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
        raise NumericalError(f"fit window [{t_a}, {t_b}] holds fewer than two records")
    if np.any(e <= 0):
        raise NumericalError("fit window rejected: nonpositive energy inside it")
    y = np.log(e)
    slope, intercept = np.polyfit(t, y, 1)
    resid = y - (slope * t + intercept)
    ss_res = float(np.dot(resid, resid))
    ss_tot = float(np.dot(y - y.mean(), y - y.mean()))
    r2 = 0.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    base = trace.E_xi[0] if trace.E_xi[0] > 0 else 1.0
    with np.errstate(over="ignore"):  # a prefactor beyond the float range reads inf
        prefactor = float(np.exp(intercept) / base)
    return -float(slope), prefactor, float(r2)


@dataclass
class DecayCertificate:
    passed: bool
    gamma: float
    lam: float
    c_tilde: float


def appendix_analyze(
    t: np.ndarray, E: np.ndarray, c1E: float, c2E: float, c: float, c_T: float, T: float
) -> DecayCertificate:
    """The contraction step: rate constants from the two hypotheses' constants, and its conclusion.

    Computes c~ = (c_T + c*c2E)/c1E, gamma = c~/(c~ + T/2),
    lambda = -ln(gamma)/T, and checks E(t) <= (1/gamma) e^{-lambda t} E(0)
    at every sample.  The two-sided damping and integrated-energy
    hypotheses are `lemma31_check` and `lemma32_check`; `certify` reads
    their verdicts, so `passed` is the conclusion alone.
    """
    c_tilde = (c_T + c * c2E) / c1E
    gamma = c_tilde / (c_tilde + T / 2.0)
    lam = -np.log(gamma) / T
    bound = (1.0 / gamma) * np.exp(-lam * t) * E[0]
    return DecayCertificate(
        passed=bool(np.all(E <= bound * (1.0 + 1e-12) + _ATOL * max(E[0], 1e-300))),
        gamma=float(gamma),
        lam=float(lam),
        c_tilde=float(c_tilde),
    )


# ---------------------------------------------------------------------------
# The certificate chain
# ---------------------------------------------------------------------------

NEED_TWO_RECORDS = "not applicable (need at least two records)"


def _classify(trace: EnergyTrace, lam: float | None) -> str:
    e0, e1 = trace.E_xi[0], trace.E_xi[-1]
    if e0 > 0 and e1 > 10.0 * e0:
        return "unstable"
    if lam is not None and np.isfinite(lam):
        return "decaying" if lam > 0 else "non-decaying"
    if e0 > 0 and e1 < e0:
        return "decaying"
    return "non-decaying"


def _verdict(passed: bool) -> str:
    return "pass" if passed else "FAIL"


def certify(
    trace: EnergyTrace,
    report: MaterialReport,
    k: DissipationConstants | None,
    tau: float,
    options: AnalysisOptions,
    T: float | None = None,
) -> tuple[dict[str, object], list[str]]:
    """The decay-certificate chain on a trace: (ordered block, failed checks).

    The block holds the decay fit on the last two thirds of the trace and a
    classification, then, when an admissible weight `k` exists, the
    two-sided dissipation check and the observability constants and check
    on [0, T], each at its slack in `options`, and the contraction
    certificate, which passes when both checks and its own conclusion do.
    A check that cannot run on this trace reads "not applicable (reason)"
    and is not a failure.  A window end T outside [t_1, t_end] is a
    ConfigError: before the second record t_1, [0, T] holds fewer than the
    two records the observability integral needs, and past the last record
    t_end the trace does not cover [0, T].
    """
    T = float(trace.t[-1]) if T is None else float(T)
    tol = _window_tol(T)
    if len(trace.t) > 1 and not (trace.t[1] <= T + tol and trace.t[-1] >= T - tol):
        raise ConfigError(
            f"T = {T:.6g} lies outside the trace window [t_1, t_end] = "
            f"[{trace.t[1]:.6g}, {trace.t[-1]:.6g}] of this trace"
        )
    block: dict[str, object] = {}
    failures: list[str] = []

    lam = None
    if np.all(trace.E_xi > 0) and len(trace.t) > 2:
        try:
            lam, pref, r2 = fit_decay(trace, (trace.t[-1] / 3.0, trace.t[-1]))
            block.update(lambda_hat=lam, fit_prefactor=pref, fit_r2=r2)
        except NumericalError as exc:
            block["fit"] = f"skipped ({exc})"
    block["classification"] = _classify(trace, lam)

    if k is None:
        block["certificate"] = (
            "none (no admissible delay weight: requires gamma1*c1 > gamma2*c2 and xi inside the interval)"
        )
        return block, failures
    block.update(c1E=k.c1E, c2E=k.c2E)
    if len(trace.t) < 2:
        for key in ("two_sided_dissipation", "observability", "certificate"):
            block[key] = NEED_TWO_RECORDS
        return block, failures

    rep31 = lemma31_check(trace, k, slack=options.slack_dissipation)
    block["two_sided_dissipation"] = _verdict(rep31.passed)
    block["two_sided_worst_upper"] = rep31.worst_upper
    block["two_sided_worst_lower"] = rep31.worst_lower
    if not rep31.passed:
        failures.append("two_sided_dissipation")

    try:
        obs = observability_constants(
            alpha=report.alpha,
            d1=report.d1,
            beta=report.beta,
            m_sup=report.m_sup,
            lambda_max_eps=report.lambda_max_eps,
            lambda_max_mu=report.lambda_max_mu,
            c2=k.c2,
            gamma1=k.gamma1,
            gamma2=k.gamma2,
            xi=k.xi,
            tau=tau,
        )
        block.update(obs_delta=obs.delta, obs_c=obs.c, obs_c_T=obs.c_T)
        rep32 = lemma32_check(trace, obs, T=T, slack=options.slack_observability)
    except AssumptionError as exc:
        block["observability"] = f"not applicable ({exc})"
        return block, failures
    block["observability"] = _verdict(rep32.passed)
    block["observability_ratio"] = rep32.ratio
    if not rep32.passed:
        failures.append("observability")

    if T <= 4.0 * obs.c:
        block["certificate"] = f"not applicable (trace too short: needs t_end > 4c = {4.0 * obs.c:.6g})"
        return block, failures
    cert = appendix_analyze(trace.t, trace.E_xi, k.c1E, k.c2E, obs.c, obs.c_T, T)
    block["certificate_gamma"] = cert.gamma
    block["certificate_lambda"] = cert.lam
    passed = rep31.passed and rep32.passed and cert.passed
    block["certificate"] = _verdict(passed)
    if not passed:
        failures.append("decay_certificate")
    return block, failures


def dissipation_residual(trace: EnergyTrace) -> float:
    """Max mismatch between energy differences and the recorded outflow.

    Compares E_xi(t2) - E_xi(t1) with -int flux dt (trapezoid) over
    consecutive record pairs, normalized by E_xi(0).
    """
    dE = np.diff(trace.E_xi)
    work = 0.5 * (trace.flux[1:] + trace.flux[:-1]) * np.diff(trace.t)
    scale = max(trace.E_xi[0], 1e-300)
    return float(np.max(np.abs(dE + work)) / scale)
