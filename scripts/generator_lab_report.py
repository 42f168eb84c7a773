#!/usr/bin/env python3
"""Monotonicity and resolvent probes of the extended generator.

Prints the minimum normalized pairing of the shifted generator over random
domain pairs (with and without the shift, to show it is needed when the
delayed gain dominates), and the residual of the resolvent solve for both
shipped feedback laws.
"""

import argparse

import numpy as np

from delayfdtd.domain import BoxDomain, build_grid
from delayfdtd.feedback import FeedbackLaw, constants
from delayfdtd.materials import constant_isotropic
from delayfdtd.operator_lab import (
    generator_constants,
    monotonicity_test,
    random_forcing,
    resolvent_solve,
)
from delayfdtd.operators import build_operators


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=8)
    ap.add_argument("--pairs", type=int, default=200)
    ap.add_argument("--m", type=int, default=16)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    dom = BoxDomain((1.0, 1.0, 1.0), (args.n,) * 3, (0.5, 0.5, 0.5))
    grid = build_grid(dom)
    ops = build_operators(grid, constant_isotropic(grid, 1.0), constant_isotropic(grid, 1.0))

    laws = {
        "linear": FeedbackLaw(kind="linear", a=1.0, gamma1=1.0, gamma2=0.5, tau=0.25),
        "saturating": FeedbackLaw(kind="saturating", a=1.0, b=1.0, gamma1=1.0, gamma2=0.5, tau=0.25),
    }
    for name, law in laws.items():
        mono = constants(law)
        k = generator_constants(law.gamma1, law.gamma2, mono.c1, mono.c2, law.tau)
        rep = monotonicity_test(ops, law, k, n_pairs=args.pairs, seed=args.seed, M=args.m)
        print(f"{name:>10}: min normalized pairing {rep.min_normalized:+.6e} "
              f"(C = {k.C_shift:.3f}, c = {k.c_weight:.3f})")

    strong = FeedbackLaw(kind="linear", a=1.0, gamma1=1.0, gamma2=2.0, tau=0.25)
    ks = generator_constants(1.0, 2.0, 1.0, 1.0, 0.25)
    neg = monotonicity_test(
        ops, strong, ks, n_pairs=50, seed=args.seed, M=args.m, C_shift=0.0, z_interior_boost=4.0
    )
    print(f"{'control':>10}: min pairing without the shift {neg.min_normalized:+.6e} "
          f"({int((neg.pairings[:, 2] < 0).sum())}/50 negative)")

    F = random_forcing(ops, args.m, np.random.default_rng(args.seed))
    for name, law in laws.items():
        res = resolvent_solve(F, 2.0, ops, law)
        print(f"{name:>10}: resolvent residual {res.residual:.3e} "
              f"in {res.outer_iterations} outer iteration(s)")


if __name__ == "__main__":
    main()
