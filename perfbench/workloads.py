"""Inputs of the three benchmark workloads, generated from the seed.

Every workload drives the public CLI (`delayfdtd.cli.main`) with config
files written here.  The physics follows the README quick start: unit box,
Gaussian pulse of width 0.12, tau = 0.25, cfl_safety = 0.5.
"""

from __future__ import annotations

import random

# The README quick-start config, byte for byte.
README_CFG = """\
[domain]
Lx = 1.0
Ly = 1.0
Lz = 1.0
nx = 16
ny = 16
nz = 16

[feedback]
kind = linear       # linear | saturating | table
a = 1.0
gamma1 = 1.0
gamma2 = 0.5
tau = 0.25

[initial]
preset = gaussian_pulse
width = 0.12

[run]
t_end = 20.0
cfl_safety = 0.5

[output]
dir = out
"""

# A `run` with t_end = 0 exits 4 ("need at least two records"), so the
# set-up probe runs exactly one step instead: any t_end in (0, dt] does.
ONE_STEP_T_END = "0.000001"

# Saturating ladder: gamma2 = gamma1 / 4 keeps every gain inside the
# admissible region g1 c1 > g2 c2 (c1 = a = 1, c2 = a + b = 2).
LADDER_GAINS = (0.5, 1.0, 2.0, 3.0, 4.0, 8.0)
# Gains whose boundary fixed point does not converge at the time the
# benchmark was defined (exit 4).  They stay in the ladder so that the
# failure stays visible; a failure at any other gain is a defect.
LADDER_KNOWN_FAILURES = (3.0, 4.0, 8.0)

# The gains whose `run` calls make up one timed ladder operation: the ones
# that converge today, so that fixing the failing gains does not lengthen it.
LADDER_TIMED_GAINS = (0.5, 1.0, 2.0)

LAB_PAIRS = 200
LAB_M = 16
LAB_B = 2.0

# The pulse-centre jitter takes one of JITTER_VARIANTS values, so that a
# reference trace can be stored for each of them.
JITTER_VARIANTS = 8
JITTER_MAX = 0.03


def jitter_variant(seed: int) -> int:
    return seed % JITTER_VARIANTS


def pulse_centre(variant: int) -> tuple[float, float, float]:
    """Deterministic small offset of the box centre for a jitter variant."""
    rng = random.Random(1000 + variant)
    return tuple(round(0.5 + rng.uniform(-JITTER_MAX, JITTER_MAX), 4) for _ in range(3))


def _sim_cfg(n: int, feedback: str, centre, t_end: str, record_every: int = 1) -> str:
    centre_line = "" if centre is None else "center = {:.4f} {:.4f} {:.4f}\n".format(*centre)
    return (
        "[domain]\nLx = 1.0\nLy = 1.0\nLz = 1.0\n"
        f"nx = {n}\nny = {n}\nnz = {n}\n\n"
        f"[feedback]\n{feedback}tau = 0.25\n\n"
        f"[initial]\npreset = gaussian_pulse\nwidth = 0.12\n{centre_line}\n"
        f"[run]\nt_end = {t_end}\ncfl_safety = 0.5\nrecord_every = {record_every}\n\n"
        "[output]\ndir = out\n"
    )


def saturating_feedback(gamma1: float) -> str:
    return f"kind = saturating\na = 1.0\nb = 1.0\ngamma1 = {gamma1!r}\ngamma2 = {gamma1 / 4.0!r}\n"


def quickstart_cfg(one_step: bool = False) -> str:
    if one_step:
        return README_CFG.replace("t_end = 20.0", f"t_end = {ONE_STEP_T_END}")
    return README_CFG


def ladder_cfg(gamma1: float, variant: int, one_step: bool = False) -> str:
    t_end = ONE_STEP_T_END if one_step else "5.0"
    return _sim_cfg(12, saturating_feedback(gamma1), pulse_centre(variant), t_end, record_every=10)


def lab_cfg() -> str:
    return _sim_cfg(16, saturating_feedback(1.0), None, "1.0")


def lab_argv(cfg_path: str, out_dir: str, seed: int, pairs: int = LAB_PAIRS) -> list[list[str]]:
    """The two lab commands of one generator_lab operation."""
    return [
        ["operator", cfg_path, "--pairs", str(pairs), "--m", str(LAB_M),
         "--seed", str(seed), "--out", out_dir],
        ["resolvent", cfg_path, "--b", repr(LAB_B), "--m", str(LAB_M),
         "--seed", str(seed), "--out", out_dir],
    ]
