#!/usr/bin/env python3
"""Fitted decay rates as the delayed gain grows toward the stability boundary.

Sweeps gamma2 for the linear law at gamma1 = 1 and prints the fitted rate,
the fit quality, and whether the certificate chain (two-sided dissipation,
integrated-energy bound, contraction certificate) holds for each run.
"""

import argparse

import numpy as np

from delayfdtd import analysis
from delayfdtd.domain import BoxDomain, build_grid
from delayfdtd.feedback import FeedbackLaw
from delayfdtd.materials import constant_isotropic
from delayfdtd.solver import AnalysisOptions, InitialSpec, RunControls, Scenario, compute_dt, run


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=12)
    ap.add_argument("--steps", type=int, default=1200)
    # note: gamma2 = 0 with the midpoint weight saturates the upper two-sided
    # constant exactly; at coarse grids the default 1.05 quadrature slack can
    # then sit on the wrong side (refine the grid or raise the slack to probe it)
    ap.add_argument("--gamma2", type=float, nargs="+", default=[0.25, 0.5, 0.75, 0.9])
    args = ap.parse_args()

    dom = BoxDomain((1.0, 1.0, 1.0), (args.n,) * 3, (0.5, 0.5, 0.5))
    grid = build_grid(dom)
    eps = constant_isotropic(grid, 1.0)

    print(f"{'gamma2':>8} {'xi':>8} {'lambda':>10} {'R^2':>8} {'c1E':>8}  certificate")
    for g2 in args.gamma2:
        law = FeedbackLaw(kind="linear", a=1.0, gamma1=1.0, gamma2=g2, tau=0.25)
        dt, _ = compute_dt(grid, eps, eps, 0.5, law.tau)
        sc = Scenario(
            domain=dom,
            law=law,
            initial=InitialSpec(preset="gaussian_pulse", width=0.12),
            run=RunControls(t_end=args.steps * dt, cfl_safety=0.5),
            analysis=AnalysisOptions(),
        )
        out = run(sc)
        block, _ = analysis.certify(out.trace, out.report, out.diss, law.tau)
        lam, r2 = block.get("lambda_hat", np.nan), block.get("fit_r2", np.nan)
        c1e = f"{out.diss.c1E:.4f}" if out.diss else "-"
        print(f"{g2:>8.3g} {out.xi:>8.4g} {lam:>10.5f} {r2:>8.5f} {c1e:>8}  {block['certificate']}")


if __name__ == "__main__":
    main()
