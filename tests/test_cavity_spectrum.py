"""The lossless scheme against the exact cavity (Yee 1966; Monk 2003).

With gamma1 = gamma2 = 0 the wall relation is H x nu = 0 (PMC), and the
leapfrog's squared frequencies are the eigenvalues of the pencil
(C^T diag(Wf / mu_f) C, diag(Wq_eps)).  On the unit cube with eps = mu = 1
the exact spectrum is pi^2 (l^2 + m^2 + k^2) with at least two indices
nonzero; the lowest value, 2 pi^2, has three modes.
"""

from functools import lru_cache

import numpy as np
import pytest
import scipy.linalg

from delayfdtd.domain import BoxDomain, build_grid
from delayfdtd.materials import constant_isotropic
from delayfdtd.operators import build_operators

LOWEST = 2.0 * np.pi**2


@lru_cache(maxsize=None)
def cavity_spectrum(n):
    """(eigenvalues, share of each mode's mass-weighted energy on trace dofs)."""
    grid = build_grid(BoxDomain((1.0, 1.0, 1.0), (n, n, n), (0.5, 0.5, 0.5)))
    ops = build_operators(grid, constant_isotropic(grid, 1.0), constant_isotropic(grid, 1.0))
    C = ops.C.toarray()
    stiffness = C.T @ ((ops.Wf / ops.mu_f)[:, None] * C)
    lam, vecs = scipy.linalg.eigh(stiffness, np.diag(ops.Wq_eps))
    energy = ops.Wq_eps[:, None] * vecs**2
    return lam, energy[ops.layout.trace_offset:].sum(axis=0) / energy.sum(axis=0)


def genuine_triplet(n):
    """The three eigenvalues near 2 pi^2 that hold the least energy on the trace.

    Spurious modes sit next to the genuine triplet (at 1.98 pi^2 for n = 6), so
    rank alone does not pick it.
    """
    lam, fraction = cavity_spectrum(n)
    near = np.flatnonzero((lam > 0.75 * LOWEST) & (lam < 1.25 * LOWEST))
    return np.sort(lam[near[np.argsort(fraction[near])[:3]]])


def test_lowest_cavity_triplet_converges_at_second_order():
    errors = []
    for n in (6, 8):
        triplet = genuine_triplet(n)
        assert np.ptp(triplet) <= 1e-10 * triplet[0]  # degenerate by the cube's symmetry
        errors.append(abs(triplet[0] - LOWEST) / LOWEST)
    order = np.log(errors[0] / errors[1]) / np.log(8 / 6)
    assert order >= 1.8


@pytest.mark.xfail(
    strict=True,
    reason="the sample-based trace closure adds 24 spurious modes below 1.9 pi^2 at n = 6 "
    "(ROADMAP item 4); the full-edge reference pencil has none",
)
def test_no_spurious_mode_below_the_lowest_cavity_mode():
    lam, _ = cavity_spectrum(6)
    nonzero = lam[lam > 1e-9 * lam.max()]
    assert np.count_nonzero(nonzero < 0.95 * LOWEST) == 0
