import warnings

import numpy as np
import pytest

from delayfdtd import analysis
from delayfdtd.analysis import (
    DissipationConstants,
    EnergyTrace,
    appendix_analyze,
    boundary_outflow,
    dissipation_residual,
    energies,
    fit_decay,
    lemma31_check,
    lemma32_check,
    observability_constants,
    xi_default,
)
from delayfdtd.delay import DelayRing, init_history
from delayfdtd.domain import BoxDomain, build_grid
from delayfdtd.errors import AssumptionError, ConfigError, ContractError
from delayfdtd.feedback import FeedbackLaw
from delayfdtd.materials import MaterialReport, constant_isotropic, diagonal_ramp
from delayfdtd.operators import build_operators, sample_vector_field

from conftest import pairwise_energies, pairwise_outflow


def make_trace(t, E_xi, D, flux=None, E_w=None):
    t = np.asarray(t, dtype=float)
    E_xi = np.asarray(E_xi, dtype=float)
    D = np.asarray(D, dtype=float)
    flux = np.zeros_like(t) if flux is None else np.asarray(flux, dtype=float)
    E_w = E_xi if E_w is None else np.asarray(E_w, dtype=float)
    return EnergyTrace(t=t, E_weighted=E_w, E_plain=E_w, E_xi=E_xi, D=D, flux=flux)


# -- energies ------------------------------------------------------------------

def test_energies_zero(ops8):
    ring = init_history("zero", 4, ops8.grid.samples.count)
    q = np.zeros(ops8.layout.n_q)
    h = np.zeros(ops8.layout.n_h)
    assert energies(q, h, h, ring, ops8, 0.5, 0.25) == (0.0, 0.0, 0.0, 0.0)


def test_energies_constant_field_weighted():
    from delayfdtd.domain import BoxDomain, build_grid
    from delayfdtd.materials import constant_isotropic
    from delayfdtd.operators import build_operators

    grid = build_grid(BoxDomain((1, 1, 1), (8, 8, 8), (0.5, 0.5, 0.5)))
    ops = build_operators(grid, constant_isotropic(grid, 2.0), constant_isotropic(grid, 1.0))
    q = sample_vector_field(ops, lambda p: np.broadcast_to([1.0, 0, 0], p.shape))
    h = np.zeros(ops.layout.n_h)
    ring = init_history("zero", 4, grid.samples.count)
    e_w, e_p, _, _ = energies(q, h, h, ring, ops, 0.5, 0.25)
    assert e_w == pytest.approx(1.0, rel=1e-13)
    assert e_p == pytest.approx(0.5, rel=1e-13)


def test_energies_delay_term_constant_ring(ops8):
    # ring slots all of magnitude 1 over the unit-cube boundary:
    # delay term = xi * tau * area = 0.5 * 0.25 * 6
    ring = DelayRing(4, ops8.grid.samples.count)
    ring.fill([0.6, 0.8])
    q = np.zeros(ops8.layout.n_q)
    h = np.zeros(ops8.layout.n_h)
    _, _, e_xi, d_val = energies(q, h, h, ring, ops8, 0.5, 0.25)
    assert e_xi == pytest.approx(0.75, rel=1e-13)
    assert d_val == pytest.approx(12.0, rel=1e-13)  # |Z0|^2 + |Z1|^2 over area 6


TABLE_R = tuple(0.25 * i for i in range(33))
RECORDER_LAWS = {
    "linear": FeedbackLaw(kind="linear", a=1.0, gamma1=1.0, gamma2=0.5, tau=0.25),
    "saturating": FeedbackLaw(kind="saturating", a=1.0, b=1.0, gamma1=2.0, gamma2=0.5, tau=0.25),
    "table": FeedbackLaw(kind="table", table_r=TABLE_R, table_g=tuple(r + r / (1 + r) for r in TABLE_R),
                         gamma1=1.0, gamma2=0.25, tau=0.25),
}


@pytest.mark.parametrize("kind", sorted(RECORDER_LAWS))
def test_recorder_matches_the_pairwise_reference(kind):
    # the one-pass einsum recorder sums in another order than the pairwise
    # `_dot` form it replaced; each column agrees to 1e-13 of its largest value
    law = RECORDER_LAWS[kind]
    grid = build_grid(BoxDomain((2.0, 1.0, 1.5), (8, 5, 6), (1.0, 0.5, 0.75)))
    ops = build_operators(grid, diagonal_ramp(grid, (1.0, 1.5, 2.0), axis=0, slope=0.5),
                          constant_isotropic(grid, 1.5))
    areas = grid.samples.areas
    rng = np.random.default_rng(61)
    ring = init_history("replay", 5, grid.samples.count, initial_trace=rng.standard_normal((grid.samples.count, 2)))
    got, ref = [], []
    for _ in range(8):
        ring.advance(rng.standard_normal((grid.samples.count, 2)))
        q, h, h_prev = rng.standard_normal(ops.layout.n_q), *rng.standard_normal((2, ops.layout.n_h))
        got.append((*energies(q, h, h_prev, ring, ops, 0.3, law.tau), boundary_outflow(ring, law, 0.3, areas)))
        ref.append((*pairwise_energies(q, h, h_prev, ring, ops, 0.3, law.tau),
                    pairwise_outflow(ring, law, 0.3, areas)))
    got, ref = np.array(got), np.array(ref)
    scale = np.abs(ref).max(axis=0)
    assert np.all(np.abs(got - ref) <= 1e-13 * scale)


# -- xi_default ----------------------------------------------------------------

def assert_open_interval(args, lo, hi):
    """xi_default(*args, xi=) accepts exactly the xi strictly between lo and hi."""
    for xi in (lo, hi):
        with pytest.raises(AssumptionError):
            xi_default(*args, xi=xi)
    for xi in (np.nextafter(lo, hi), np.nextafter(hi, lo)):
        assert xi_default(*args, xi=xi).xi == xi


def test_xi_default_with_delay():
    k = xi_default(1.0, 0.5, 1.0, 1.0)
    assert_open_interval((1.0, 0.5, 1.0, 1.0), 0.25, 0.75)
    assert k.xi == 0.5
    assert k.c1E == pytest.approx(0.25)
    assert k.c2E == pytest.approx(1.75)


def test_xi_default_no_delay():
    k = xi_default(1.0, 0.0, 1.0, 1.0)
    assert_open_interval((1.0, 0.0, 1.0, 1.0), 0.0, 1.0)
    assert (k.xi, k.c1E, k.c2E) == (0.5, 0.5, 1.5)


def test_xi_default_hypothesis_violated():
    with pytest.raises(AssumptionError, match="gamma1\\*c1 > gamma2\\*c2"):
        xi_default(0.5, 1.0, 1.0, 1.0)


def test_xi_explicit_outside_interval():
    with pytest.raises(AssumptionError):
        xi_default(1.0, 0.5, 1.0, 1.0, xi=0.9)


# -- lemma31 -------------------------------------------------------------------

def test_lemma31_pmc_degenerate():
    t = np.linspace(0, 1, 50)
    trace = make_trace(t, np.ones_like(t), np.zeros_like(t))
    k = DissipationConstants(0.5, 0.25, 1.75, 1, 0.5, 1, 1)
    rep = lemma31_check(trace, k)
    assert rep.passed
    assert rep.worst_upper == pytest.approx(0.0, abs=1e-15)


def test_lemma31_detects_growth_with_zero_damping():
    t = np.linspace(0, 1, 50)
    trace = make_trace(t, 1.0 + t, np.zeros_like(t))
    k = DissipationConstants(0.5, 0.25, 1.75, 1, 0.5, 1, 1)
    rep = lemma31_check(trace, k)
    assert not rep.passed
    assert rep.worst_upper < 0


def test_lemma31_exact_exponential_pair():
    # E' = -D with c1E = c2E = 1: both sides hold with equality
    t = np.linspace(0, 2, 400)
    E = np.exp(-t)
    D = np.exp(-t)
    trace = make_trace(t, E, D)
    k = DissipationConstants(0.5, 1.0, 1.0, 1, 0, 1, 1)
    rep = lemma31_check(trace, k, slack=1.01)
    assert rep.passed


def test_lemma31_finds_the_worst_pair_inside_a_short_window():
    # D = 1, dt = 1, c1E/slack = 1: the adjacent upper margin is -1 - dE.
    # Inside a 40-step window each adjacent margin is -1e-13 of E(0), which
    # passes the 1e-12 tolerance alone; outside every margin is +1.  The
    # window as a whole misses by 40 * 1e-13 = 4e-12 of E(0).
    n, e0 = 5000, 1e4
    t = np.arange(n, dtype=float)
    window = (t[:-1] >= 2000) & (t[:-1] < 2040)
    # R = E + int D falls by the adjacent margin at every step
    R = e0 + np.concatenate([[0.0], np.cumsum(np.where(window, 1e-13 * e0, -1.0))])
    trace = make_trace(t, R - t, np.ones(n))
    k = DissipationConstants(0.5, 1.05, 3.0, 1, 0, 1, 1)
    rep = lemma31_check(trace, k, slack=1.05)
    assert not rep.passed
    assert rep.worst_upper == pytest.approx(-4.0e-12, rel=1e-3)
    assert rep.worst_lower > 0
    assert rep.n_pairs == n * (n - 1) // 2


@pytest.mark.parametrize("seed", range(6))
def test_lemma31_scan_matches_brute_force(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 201))
    t = np.concatenate([[0.0], np.cumsum(rng.uniform(0.1, 1.0, n - 1))])
    t /= max(t[-1], 1.0)
    E = rng.uniform(0.5, 1.5, n)
    D = rng.uniform(0.0, 1.0, n)
    k = DissipationConstants(0.5, rng.uniform(0.1, 2.0), rng.uniform(0.1, 2.0), 1, 0, 1, 1)
    slack = 1.05
    rep = lemma31_check(make_trace(t, E, D), k, slack=slack)
    cum = np.concatenate([[0.0], np.cumsum(0.5 * (D[1:] + D[:-1]) * np.diff(t))])
    i, j = np.triu_indices(n, k=1)
    dE, integral = E[j] - E[i], cum[j] - cum[i]
    upper = (-(k.c1E / slack) * integral - dE) / E[0]
    lower = (dE + (k.c2E * slack) * integral) / E[0]
    assert abs(rep.worst_upper - upper.min()) <= 1e-14
    assert abs(rep.worst_lower - lower.min()) <= 1e-14
    assert rep.n_pairs == len(i)
    assert rep.passed == bool(upper.min() >= -1e-12 and lower.min() >= -1e-12)


# -- observability ---------------------------------------------------------------

def test_observability_constants_recipe():
    oc = observability_constants(
        alpha=1.0, d1=1.0, beta=0.5, m_sup=np.sqrt(3) / 2,
        lambda_max_eps=1.0, lambda_max_mu=1.0,
        c2=1.0, gamma1=1.0, gamma2=0.0, xi=0.5, tau=0.25,
    )
    assert oc.delta == pytest.approx(2.0 / 3.0, rel=1e-12)
    assert oc.c == pytest.approx(np.sqrt(3) / 2, rel=1e-12)
    assert oc.c_T == pytest.approx(2.375, rel=1e-12)  # kappa = max(1, 1, 1): unscaled


def test_observability_scaling_with_lambda_max():
    base = observability_constants(1.0, 1.0, 0.5, 1.0, 1.0, 1.0, 1.0, 1.0, 0.0, 0.5, 0.25)
    doubled = observability_constants(1.0, 1.0, 0.5, 1.0, 2.0, 1.0, 1.0, 1.0, 0.0, 0.5, 0.25)
    assert doubled.delta == pytest.approx(base.delta / 4.0)
    # c doubles with lmax(eps), and kappa = max(2, 1, 1) doubles it again
    assert doubled.c / 2.0 == pytest.approx(base.c * 2.0)


def test_observability_constants_beyond_the_float_range_raise_assumption_error():
    # c2**2 overflows a Python float (** raises); lmax**2 of a numpy scalar overflows to inf, so delta = 0
    with pytest.raises(AssumptionError, match="observability constants leave the float range"):
        observability_constants(1.0, 1.0, 0.5, 1.0, 1.0, 1.0, 1e300, 1.0, 0.0, 0.5, 0.25)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(AssumptionError, match="observability constants leave the float range"):
            observability_constants(1.0, 1.0, 0.5, 1.0, np.float64(1e200), 1.0, 1.0, 1.0, 0.0, 0.5, 0.25)


def test_observability_requires_d1():
    with pytest.raises(AssumptionError):
        observability_constants(1.0, 0.0, 0.5, 1.0, 1.0, 1.0, 1.0, 1.0, 0.0, 0.5, 0.25)


def test_lemma32_zero_trace():
    t = np.linspace(0, 1, 20)
    trace = make_trace(t, np.zeros_like(t), np.zeros_like(t))
    oc = observability_constants(1.0, 1.0, 0.5, 1.0, 1.0, 1.0, 1.0, 1.0, 0.0, 0.5, 0.25)
    rep = lemma32_check(trace, oc)
    assert rep.passed


def test_lemma32_negative_control():
    # constant energy with no damping grows linearly in T on the left side
    t = np.linspace(0, 100, 500)
    trace = make_trace(t, np.ones_like(t), np.zeros_like(t))
    oc = observability_constants(1.0, 1.0, 0.5, 1.0, 1.0, 1.0, 1.0, 1.0, 0.0, 0.5, 0.25)
    rep = lemma32_check(trace, oc)
    assert not rep.passed
    assert rep.ratio > 1.0


# -- fit_decay -------------------------------------------------------------------

def test_fit_exact_exponential():
    t = np.linspace(0, 5, 100)
    trace = make_trace(t, 3.0 * np.exp(-0.7 * t), np.zeros_like(t))
    lam, pref, r2 = fit_decay(trace, (0.0, 5.0))
    assert lam == pytest.approx(0.7, abs=1e-12)
    assert r2 == pytest.approx(1.0, abs=1e-12)
    assert pref == pytest.approx(1.0, abs=1e-12)


def test_fit_constant_trace():
    t = np.linspace(0, 5, 50)
    trace = make_trace(t, np.ones_like(t), np.zeros_like(t))
    lam, _, r2 = fit_decay(trace, (0.0, 5.0))
    assert lam == pytest.approx(0.0, abs=1e-14)
    assert r2 == 0.0


def test_fit_rejects_nonpositive_window():
    t = np.linspace(0, 5, 50)
    e = np.exp(-t)
    e[30] = 0.0
    trace = make_trace(t, np.where(e > 0, e, 0.0), np.zeros_like(t))
    with pytest.raises(ContractError):
        fit_decay(trace, (0.0, 5.0))


# -- appendix certificate ---------------------------------------------------------

def test_appendix_gamma_lambda_arithmetic():
    # c~ = 1, T = 4 -> gamma = 1/3, lambda = ln(3)/4
    t = np.linspace(0, 4, 200)
    E = np.exp(-t)
    D = np.exp(-t)
    cert = appendix_analyze(t, E, c1E=1.0, c2E=1.0, c=0.5, c_T=0.5, T=4.0)
    assert cert.c_tilde == pytest.approx(1.0, rel=1e-12)
    assert cert.gamma == pytest.approx(1.0 / 3.0, rel=1e-12)
    assert cert.lam == pytest.approx(np.log(3.0) / 4.0, rel=1e-12)
    # the two-sided hypothesis, at the certificate's default slack
    assert lemma31_check(make_trace(t, E, D), DissipationConstants(0.5, 1.0, 1.0, 1, 0, 1, 1)).passed


def test_appendix_exact_identity_hypothesis():
    # E(t) = e^-t, D = e^-t with c1E = c2E = 1: E(t2)-E(t1) = -int D exactly;
    # both hypotheses hold at their default slacks, and so does the conclusion
    t = np.linspace(0, 6, 600)
    trace = make_trace(t, np.exp(-t), np.exp(-t))
    assert lemma31_check(trace, DissipationConstants(0.5, 1.0, 1.0, 1, 0, 1, 1)).passed
    assert lemma32_check(trace, analysis.ObservabilityConstants(delta=1.0, c=1.0, c_T=1.0), T=6.0).passed
    cert = appendix_analyze(t, np.exp(-t), 1.0, 1.0, c=1.0, c_T=1.0, T=6.0)
    assert cert.passed


def test_appendix_requires_T_above_4c():
    t = np.linspace(0, 4, 100)
    with pytest.raises(ContractError, match="T > 4c"):
        appendix_analyze(t, np.exp(-t), 1.0, 1.0, c=1.0, c_T=1.0, T=4.0)


def test_appendix_flags_growth():
    t = np.linspace(0, 10, 200)
    E = 1.0 + t  # grows with no damping: upper hypothesis must fail
    D = np.zeros_like(t)
    cert = appendix_analyze(t, E, 1.0, 1.0, c=0.5, c_T=0.5, T=10.0)
    rep = lemma31_check(make_trace(t, E, D), DissipationConstants(0.5, 1.0, 1.0, 1, 0, 1, 1))
    assert rep.worst_upper < -1e-12
    assert not cert.passed


def test_certificate_fails_with_observability_while_the_conclusion_holds():
    # E = e^{-rt} with -dE/dt = D: the two-sided bound and the contraction
    # conclusion hold, but with almost no damping int E far exceeds the
    # observability bound, so the certificate fails on that hypothesis alone
    r = 1e-3
    t = np.linspace(0, 10, 101)
    trace = make_trace(t, np.exp(-r * t), r * np.exp(-r * t))
    report = MaterialReport(alpha=1.0, d1=1.0, beta=1.0, m_sup=0.5, lambda_max_eps=1.0, lambda_max_mu=1.0)
    k = xi_default(1.0, 0.5, 1.0, 1.0)
    block, failures = analysis.certify(trace, report, k, 0.25, analysis.AnalysisOptions())
    assert (block["obs_c"], block["obs_c_T"]) == (0.5, 0.5)
    assert appendix_analyze(t, trace.E_xi, k.c1E, k.c2E, 0.5, 0.5, T=10.0).passed
    assert (block["two_sided_dissipation"], block["observability"]) == ("pass", "FAIL")
    assert block["certificate"] == "FAIL"
    assert failures == ["observability", "decay_certificate"]


# -- dissipation residual ----------------------------------------------------------

def test_dissipation_residual_zero_run():
    t = np.linspace(0, 1, 30)
    trace = make_trace(t, np.zeros_like(t), np.zeros_like(t))
    assert dissipation_residual(trace) == 0.0


def test_dissipation_residual_consistent_flux():
    t = np.linspace(0, 2, 2000)
    E = np.exp(-3.0 * t)
    flux = 3.0 * np.exp(-3.0 * t)  # flux = -dE/dt
    trace = make_trace(t, E, np.zeros_like(t), flux=flux)
    assert dissipation_residual(trace) <= 1e-6


# -- trace container ----------------------------------------------------------------

def test_trace_csv_roundtrip():
    t = np.linspace(0, 1, 7)
    trace = make_trace(t, np.exp(-t), 0.1 * np.ones_like(t), flux=0.3 * t)
    text = trace.to_csv()
    assert text.splitlines()[0] == "t,E_weighted,E_plain,E_xi,D,flux"
    back = EnergyTrace.from_csv(text)
    for name in ("t", "E_weighted", "E_plain", "E_xi", "D", "flux"):
        assert np.array_equal(getattr(back, name), getattr(trace, name))


def test_trace_validation():
    t = np.array([0.0, 1.0, 1.0])
    with pytest.raises(ContractError):
        make_trace(t, np.ones(3), np.zeros(3))
    with pytest.raises(ContractError):
        make_trace(np.array([0.0, 1.0]), np.array([1.0, -0.5]), np.zeros(2))
    with pytest.raises(ConfigError):
        EnergyTrace.from_csv("bad,header\n0,1\n")
