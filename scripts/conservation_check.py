#!/usr/bin/env python3
"""Conservative control run: energy and divergence drift with zero gains.

With both boundary gains off, the scheme conserves the staggered-product
field energy exactly and preserves the weighted divergence at interior
nodes; this script measures both drifts over a long pulse run.
"""

import argparse

import numpy as np

from delayfdtd.delay import init_history
from delayfdtd.domain import BoxDomain, build_grid
from delayfdtd.feedback import FeedbackLaw
from delayfdtd.materials import constant_isotropic, diagonal_ramp
from delayfdtd.operators import build_operators
from delayfdtd.solver import InitialSpec, Stepper, compute_dt, gaussian_pulse_q
from delayfdtd import analysis


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=16)
    ap.add_argument("--steps", type=int, default=1000)
    ap.add_argument("--safety", type=float, default=0.5)
    ap.add_argument("--ramp", action="store_true", help="use the diagonal-ramp permittivity")
    args = ap.parse_args()

    dom = BoxDomain((1.0, 1.0, 1.0), (args.n,) * 3, (0.5, 0.5, 0.5))
    grid = build_grid(dom)
    if args.ramp:
        eps = diagonal_ramp(grid, (1.0, 1.0, 1.0), axis=0, slope=1.0, entry=0)
    else:
        eps = constant_isotropic(grid, 1.0)
    mu = constant_isotropic(grid, 1.0)
    ops = build_operators(grid, eps, mu)
    law = FeedbackLaw(kind="linear", a=1.0, gamma1=0.0, gamma2=0.0, tau=0.25)
    dt, n_slots = compute_dt(grid, eps, mu, args.safety, law.tau)

    stepper = Stepper(ops, law, dt)
    state = stepper.bootstrap(gaussian_pulse_q(ops, InitialSpec(preset="gaussian_pulse", width=0.12)))
    ring = init_history("zero", n_slots, grid.samples.count)

    e0 = analysis.energies(state.q, state.h, state.h_prev, ring, ops, 0.0, law.tau)[0]
    div0 = ops.div_eps @ state.q
    div_scale = float((np.abs(ops.div_eps) @ np.abs(state.q)).max())
    worst_e, worst_div = 0.0, 0.0
    for _ in range(args.steps):
        stepper.step(state, ring)
        e = analysis.energies(state.q, state.h, state.h_prev, ring, ops, 0.0, law.tau)[0]
        worst_e = max(worst_e, abs(e - e0) / e0)
        worst_div = max(worst_div, float(np.abs(ops.div_eps @ state.q - div0).max()) / div_scale)

    print(f"grid {args.n}^3, {args.steps} steps at safety {args.safety} (dt = {dt:.6g})")
    print(f"relative weighted-energy drift : {worst_e:.3e}")
    print(f"relative divergence drift      : {worst_div:.3e}")


if __name__ == "__main__":
    main()
