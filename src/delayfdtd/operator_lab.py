"""Stationary studies of the extended evolution generator.

The extended state (E, H, Z) couples the Maxwell fields with the boundary
delay profile Z on an s-grid of M+1 nodes.  Z holds, per sample and node,
the two tangent-axis components of E, as the stepper's delay ring does, so
the lab forms no cross product: on the components the trace H x nu that the
boundary relation demands is the drive gamma1 g(w) + gamma2 g(Z|s=1) itself,
because (g(t x nu)) x nu = -g(t).  This module realizes the
generator action, measures the monotonicity of its shifted version under the
exponentially weighted inner product, and solves the resolvent equation
(b id + A)V = F by the reduction to a curl-curl problem for E, elimination
of H, and an integrating-factor formula for Z.

The s-derivative uses a summation-by-parts pair (central interior, one-sided
first-order end rows, trapezoid weights), composed with the exp(cs/2)
substitution when a weighted product is in force; this keeps the discrete
integration by parts in s exact, which the monotonicity floor requires.
Material tensors must be diagonal here, and the lab commands refuse full
ones before assembly; full tensors are supported by the time stepper only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from . import solver
from .analysis import _dot
from .delay import LAB_S_CELLS
from .errors import ConfigError, NumericalError
from .feedback import FeedbackLaw, boundary_drive, constants
from .operators import Operators


# ---------------------------------------------------------------------------
# Extended state
# ---------------------------------------------------------------------------

@dataclass
class ExtState:
    """(E side, H faces, boundary delay profile Z of shape (S, M+1, 2)).

    Z[:, j] holds the tangent-axis components of E at s-node j, in the order
    of `SampleSet.tangents`, as `layout.trace_view` reads them from q.
    """

    q: np.ndarray
    h: np.ndarray
    Z: np.ndarray


def random_domain_state(
    ops: Operators,
    M: int,
    rng: np.random.Generator,
    z_interior_boost: float = 1.0,
) -> ExtState:
    """Draw a random extended state satisfying the domain constraints.

    Only the free parameters are drawn, each coordinate iid N(0, 1), in the
    order q, h, then Z at the s-nodes 1..M as (S, M, 2); the s = 0 slice is
    the trace of q.  The boundary relation is realized constructively: the
    generator reads the H trace from the relation, so membership is exact by
    construction.  `z_interior_boost` scales the interior s-nodes of Z,
    emphasizing delay-line content (useful as a stress profile for
    shift-necessity controls).
    """
    layout = ops.layout
    q = rng.standard_normal(layout.n_q)
    h = rng.standard_normal(layout.n_h)
    Z = np.empty((layout.n_samples, M + 1, 2))
    Z[:, 1:] = rng.standard_normal((layout.n_samples, M, 2))
    if z_interior_boost != 1.0:
        Z[:, 1:-1] *= z_interior_boost
    Z[:, 0] = layout.trace_view(q)
    return ExtState(q=q, h=h, Z=Z)


def random_forcing(ops: Operators, M: int, rng: np.random.Generator) -> ExtState:
    """Random resolvent data F: divergence-free E part, free H part, Z profile.

    Draws the three parts in the order q, h, Z; Z is drawn as (S, M+1, 3)
    vectors per node, whose tangent-axis components nu x Z form the profile
    (the normal draws are read by none).
    """
    s = ops.grid.samples
    # through the module, so that its current binding is used
    q = solver.project_div_free(rng.standard_normal(ops.layout.n_q), ops)
    h = rng.standard_normal(ops.layout.n_h)
    raw = rng.standard_normal((s.count, M + 1, 3))
    Z = np.ascontiguousarray(s.cross.nu_cross(raw.swapaxes(0, 1)).swapaxes(0, 1))
    return ExtState(q=q, h=h, Z=Z)


# ---------------------------------------------------------------------------
# s-grid derivative
# ---------------------------------------------------------------------------

def s_weights(M: int) -> np.ndarray:
    w = np.full(M + 1, 1.0 / M)
    w[0] = w[-1] = 0.5 / M
    return w


def _sbp_derivative(Z: np.ndarray) -> np.ndarray:
    """(..., M+1, k) -> same shape; central interior, one-sided ends."""
    M, k = Z.shape[-2] - 1, Z.shape[-1]
    ds = 1.0 / M
    flat = np.ascontiguousarray(Z).reshape(-1)
    out = np.empty(Z.shape)
    # one contiguous pass, written in place: k flat entries are one s-node,
    # and the rows at s = 0 and s = 1, which this pass fills across samples,
    # are overwritten below
    mid = out.reshape(-1)[k:-k]
    np.subtract(flat[2 * k :], flat[: -2 * k], out=mid)
    mid /= 2.0 * ds
    out[..., 0, :] = (Z[..., 1, :] - Z[..., 0, :]) / ds
    out[..., -1, :] = (Z[..., -1, :] - Z[..., -2, :]) / ds
    return out


def s_derivative(Z: np.ndarray, c_weight: float = 0.0) -> np.ndarray:
    """Discrete d/ds, exp-substituted so the weighted product telescopes.

    For c_weight = 0 this is the plain SBP derivative.  Otherwise it is
    exp(-cs/2) D [exp(cs/2) Z] - (c/2) Z, a consistent second-order interior
    discretization whose e^{cs}-weighted pairing with Z integrates by parts
    exactly on the trapezoid weights.
    """
    if c_weight == 0.0:
        return _sbp_derivative(Z)
    M = Z.shape[-2] - 1
    s_nodes = np.arange(M + 1) / M
    half = np.exp(0.5 * c_weight * s_nodes)[:, None]
    return (_sbp_derivative(Z * half)) / half - 0.5 * c_weight * Z


# ---------------------------------------------------------------------------
# Generator application and constants
# ---------------------------------------------------------------------------

def apply_generator(v: ExtState, ops: Operators, law: FeedbackLaw, c_weight: float = 0.0) -> ExtState:
    """Image of the extended generator: (-eps^-1 curl H, mu^-1 curl E, dZ/ds / tau).

    The curl of H is closed at the boundary with the trace read from the
    relation H x nu = -g1 g(E x nu) x nu - g2 g(Z1 x nu) x nu, Z1 the delayed
    E; its tangent-axis components are g1 g(w) + g2 g(Z|s=1), with w those of E.
    """
    Aq, Ah = _field_image(v, ops, law)
    AZ = s_derivative(v.Z, c_weight)
    AZ /= law.tau
    return ExtState(q=Aq, h=Ah, Z=AZ)


def _field_image(v: ExtState, ops: Operators, law: FeedbackLaw) -> tuple[np.ndarray, np.ndarray]:
    """The E and H parts of the generator image; of Z it reads only Z|s=1."""
    trace_view = ops.layout.trace_view
    Aq = ops.G @ v.h
    trace_view(Aq)[:] -= ops.inj_scale * boundary_drive(law, trace_view(v.q), v.Z[:, -1])
    np.negative(Aq, out=Aq)
    Aq /= ops.eps_q
    Ah = ops.C @ v.q
    Ah /= ops.mu_f
    return Aq, Ah


@dataclass(frozen=True)
class GeneratorConstants:
    xi_op: float
    c_weight: float
    C_shift: float


def generator_constants(gamma1: float, gamma2: float, c1: float, c2: float, tau: float) -> GeneratorConstants:
    """Shift and weight making the shifted generator monotone.

    xi_op = g1 c1; the weight c is the smallest nonnegative value with
    2 sqrt((g1 c1 - xi/2) xi e^c / 2) >= g2 c2, and the shift exceeds
    c/(2 tau) by one.
    """
    if gamma1 * c1 <= 0:
        raise ConfigError("generator constants need gamma1 * c1 > 0")
    xi_op = gamma1 * c1
    base = 2.0 * np.sqrt((gamma1 * c1 - 0.5 * xi_op) * 0.5 * xi_op)
    arg = gamma2 * c2 / base if base > 0 else np.inf
    c_weight = max(0.0, 2.0 * np.log(arg)) if gamma2 * c2 > 0 else 0.0
    return GeneratorConstants(xi_op=xi_op, c_weight=c_weight, C_shift=c_weight / (2.0 * tau) + 1.0)


def weighted_inner(
    a: ExtState, b: ExtState, ops: Operators, xi_op: float, tau: float, c_weight: float
) -> float:
    """Inner product with e^{cs}-weighted delay part."""
    s = ops.grid.samples
    M = a.Z.shape[1] - 1
    val = _dot(ops.Wq_eps * a.q, b.q)
    val += _dot(ops.Wf_mu * a.h, b.h)
    ws = s_weights(M) * np.exp(c_weight * np.arange(M + 1) / M)
    # one einsum, no BLAS: a third of the time of pairing Z first and applying ws after
    val += xi_op * tau * _dot(s.areas, np.einsum("smi,smi,m->s", a.Z, b.Z, ws))
    return val


@dataclass
class PairingReport:
    min_normalized: float
    n_pairs: int
    passed: bool
    pairings: np.ndarray  # (n_pairs, 3): pairing, norm2, normalized

    def summary_lines(self) -> list[str]:
        return [
            f"passed = {self.passed}",
            f"min_normalized_pairing = {self.min_normalized:.6e}",
            f"pairs = {self.n_pairs}",
        ]

    def to_csv(self) -> str:
        lines = ["pair_id,pairing,norm2,normalized"]
        for i, row in enumerate(self.pairings):
            lines.append(f"{i}," + ",".join(f"{v:.17g}" for v in row))
        return "\n".join(lines) + "\n"


def monotonicity_test(
    ops: Operators,
    law: FeedbackLaw,
    k: GeneratorConstants,
    n_pairs: int,
    seed: int,
    M: int = LAB_S_CELLS,
    C_shift: float | None = None,
    z_interior_boost: float = 1.0,
) -> PairingReport:
    """Minimum normalized pairing of the shifted generator over random pairs.

    For each pair v, v' of random domain states computes
    <(C + A)v - (C + A)v', v - v'> in the weighted product, divided by
    ||v - v'||^2.  Per-pair seeds derive deterministically from (seed, i).
    The report passes when the minimum is at least -1e-10 (zero, less round-off).
    """
    C = k.C_shift if C_shift is None else C_shift
    rows = np.empty((n_pairs, 3))
    for i in range(n_pairs):
        rng = np.random.default_rng(np.random.SeedSequence([seed, i]))
        v1 = random_domain_state(ops, M, rng, z_interior_boost=z_interior_boost)
        v2 = random_domain_state(ops, M, rng, z_interior_boost=z_interior_boost)
        a1 = apply_generator(v1, ops, law, c_weight=k.c_weight)
        a2 = apply_generator(v2, ops, law, c_weight=k.c_weight)
        # v1 - v2 and a1 - a2, formed in place in the arrays of v1 and a1
        for x, y in ((v1, v2), (a1, a2)):
            x.q -= y.q
            x.h -= y.h
            x.Z -= y.Z
        norm2 = weighted_inner(v1, v1, ops, k.xi_op, law.tau, k.c_weight)
        pairing = C * norm2 + weighted_inner(a1, v1, ops, k.xi_op, law.tau, k.c_weight)
        rows[i] = (pairing, norm2, pairing / norm2)
        # the next pair is drawn with none of this pair's four states alive
        del v1, v2, a1, a2, x, y
    min_norm = float(np.min(rows[:, 2]))
    return PairingReport(
        min_normalized=min_norm, n_pairs=n_pairs, passed=min_norm >= -1e-10, pairings=rows
    )


# ---------------------------------------------------------------------------
# Resolvent
# ---------------------------------------------------------------------------

@dataclass
class ResolventResult:
    V: ExtState
    residual: float
    residual_parts: dict
    outer_iterations: int
    penalty: float
    core_cg_iterations: int  # summed over every CoreCG solve


def _z_from_formula(w: np.ndarray, F3: np.ndarray, tau: float, b: float) -> np.ndarray:
    """Z(s_j) = e^{-tau b s_j} (w + tau * int_0^{s_j} F3 e^{tau b r} dr).

    The integral uses the trapezoid rule on the s-nodes, its cells
    ds (I_{j-1} + I_j) / 2 of I = F3 e^{tau b s} summed by `cumsum`.  Formed
    in the returned array, with one Z-sized temporary (the integrand).
    """
    M = F3.shape[1] - 1
    growth = np.exp(tau * b * (np.arange(M + 1) / M))[None, :, None]
    integrand = F3 * growth
    Z = np.empty(F3.shape)
    Z[:, 0] = 0.0
    T = np.add(integrand[:, 1:], integrand[:, :-1], out=Z[:, 1:])
    del integrand
    T *= 0.5 * (1.0 / M)
    np.cumsum(T, axis=1, out=T)
    Z *= tau
    Z += w[:, None, :]
    Z /= growth
    return Z


def _core_slope(law: FeedbackLaw, b: float) -> float:
    """Slope per b dA of the load part that `resolvent_core` holds.

    That part is the load of the linear part c1 v of g at tail = 0, c1 the
    law's monotonicity modulus, so the rest g(v) - c1 v is still monotone;
    the outer iteration of `resolvent_solve` carries it.
    """
    return constants(law).c1 * (law.gamma1 + law.gamma2 * float(np.exp(-law.tau * b)))


def _load_off_core(
    ops: Operators, law: FeedbackLaw, b: float, q: np.ndarray, tail: np.ndarray
) -> np.ndarray:
    """The boundary load less the part `resolvent_core` holds, as a q-sized vector.

    The load is the boundary term b dA (H x nu) of the resolvent form on
    the trace components.  H x nu is the trace the boundary relation demands
    at the trace w of q and at the delayed trace Z|s=1 = e^{-tau b} (w + tail)
    of the integrating factor formula, tail = tau int_0^1 F3 e^{tau b r} dr;
    on the components it is the drive gamma1 g(w) + gamma2 g(Z|s=1).
    """
    w = ops.layout.trace_view(q)
    b_areas = b * ops.grid.samples.areas[:, None]
    load = b_areas * boundary_drive(law, w, float(np.exp(-law.tau * b)) * (w + tail))
    out = np.zeros(ops.layout.n_q)
    ops.layout.trace_view(out)[:] = load - b_areas * (_core_slope(law, b) * w)
    return out


# the weight of the divergence penalty in the core, reported as `penalty`
DIV_PENALTY = 1.0


def resolvent_core(ops: Operators, law: FeedbackLaw, b: float) -> sp.csr_matrix:
    """The symmetric positive definite matrix of the curl-curl reduction.

    b^2 Wq_eps + C^T (Wf / mu) C, the divergence penalty, and the linear
    part of the boundary load on the trace dofs; `resolvent_solve` solves
    with it by CG (`CoreCG`), once per outer round.  The two quadratic
    parts are one weighted Gram product K^T diag(w) K of K = [C; div_eps],
    and the two diagonal parts are added to its diagonal in place, so no
    sum of sparse matrices is formed.  Returned as CSR, indices sorted.
    """
    K = sp.vstack([ops.C, ops.div_eps], format="csr")
    Kt = K.T.tocsr()
    w = np.concatenate(
        [ops.Wf / ops.mu_f, np.full(ops.div_eps.shape[0], DIV_PENALTY * ops.node_weight)]
    )
    # the weights go on the left factor: each curl term rounds as (C_ij w_i) C_ik
    Kt.data *= w[Kt.indices]
    del w
    A = Kt @ K
    del K, Kt
    A.sort_indices()
    # every diagonal entry is stored (each q dof is in a curl row, and w > 0),
    # so setdiag writes in place
    diag = A.diagonal()
    diag += b * b * ops.Wq_eps
    ops.layout.trace_view(diag)[:] += (b * ops.grid.samples.areas * _core_slope(law, b))[:, None]
    A.setdiag(diag)
    return A


CORE_CG_MAX_ITER = 10000
# An outer round's inner solve stops at this share of the last outer gap.  The
# outer loop is an inexact Picard iteration, so an inner solve need only be as
# tight as the step it feeds (the forcing terms of Eisenstat and Walker, SIAM
# J. Sci. Comput. 17, 1996); 1e-3 already adds outer rounds.
INNER_GAP_SHARE = 1e-4
# the outer fixed point stops once its gap is below OUTER_TOL (1 + max |q|)
OUTER_TOL = 1e-10
MAX_OUTER_ROUNDS = 100


class CoreCG:
    """Jacobi-preconditioned CG for a symmetric positive definite sparse matrix.

    Nothing is factored: it holds the matrix and its inverse diagonal only.
    Raises NumericalError, naming the matrix, on a non-positive diagonal
    entry, and as `solver.conjugate_gradients` does.
    """

    def __init__(self, A: sp.spmatrix, name: str):
        self.A, self.name = sp.csr_matrix(A), name
        diag = self.A.diagonal()
        if not np.all(diag > 0.0):
            raise NumericalError(f"{name} is not positive definite: diagonal entry {np.min(diag):.3e}")
        self._inv_d = 1.0 / diag

    def solve(self, b: np.ndarray, x0: np.ndarray | None = None, atol: float = 0.0) -> tuple[np.ndarray, int]:
        """(x, iterations) of `solver.conjugate_gradients` on A x = b."""
        return solver.conjugate_gradients(
            lambda p: self.A @ p, None, self._inv_d, b, self.name, CORE_CG_MAX_ITER, x0, atol
        )


def resolvent_solve(F: ExtState, b: float, ops: Operators, law: FeedbackLaw) -> ResolventResult:
    """Solve (b id + A)V = F following the curl-curl reduction.

    Eliminates H = (F2 - mu^-1 curl E)/b, writes Z with the integrating
    factor, and solves the remaining symmetric positive definite system for
    E with a divergence penalty; `resolvent_core` holds the linear part of
    the boundary load and a damped outer fixed point carries the rest.  Each
    outer round solves the core by CG, stopping at INNER_GAP_SHARE of the
    last outer gap.  Its start extrapolates the undamped inner solutions T of
    the last two rounds, T_k + rho (T_k - T_{k-1}) with rho the ratio of the
    last two outer gaps, capped at 1 (rho = 0 until two gaps exist): the
    right-hand sides of successive rounds converge together, so the last
    solutions predict the next one (Fischer, Comput. Methods Appl. Mech.
    Engrg. 163, 1998).  The projected F.q makes the divergence of the
    solution vanish whatever the penalty; a divergence above 1e-8 raises
    NumericalError.
    """
    M = F.Z.shape[1] - 1
    tau = law.tau

    # tail = tau int_0^1 F3 e^{tau b r} dr: Z|s=1 at w = 0, times e^{tau b}
    tail = _z_from_formula(np.zeros_like(F.Z[:, 0]), F.Z, tau, b)[:, -1] / float(np.exp(-tau * b))
    rhs = b * (ops.Wq_eps * F.q) + ops.C.T @ (ops.Wf * F.h)

    core = CoreCG(resolvent_core(ops, law, b), "resolvent core")
    q, core_its = core.solve(rhs - _load_off_core(ops, law, b, np.zeros(ops.layout.n_q), tail))
    outer = 1
    damping = 1.0 if law.kind == "linear" else 0.5
    prev_gap = np.inf
    # the last outer gap, which ties the inner stop; max |q| stands in for round 1's
    step = float(np.max(np.abs(q)))
    # the undamped inner solutions of the last two rounds (the cold solve
    # is the first) and the extrapolation factor of the next start
    t_last = t_prev = q
    rho = 0.0
    while True:
        start = t_last + rho * (t_last - t_prev)
        q_next, its = core.solve(
            rhs - _load_off_core(ops, law, b, q, tail), start, INNER_GAP_SHARE * step
        )
        core_its += its
        gap = float(np.max(np.abs(q_next - q)))
        scale = 1.0 + float(np.max(np.abs(q_next)))
        if gap <= OUTER_TOL * scale:
            q = q_next
            break
        if gap > prev_gap:
            damping = 0.5
        rho = min(gap / prev_gap, 1.0)
        prev_gap = step = gap
        t_prev, t_last = t_last, q_next
        q = q + damping * (q_next - q)
        outer += 1
        if outer > MAX_OUTER_ROUNDS:
            raise NumericalError(
                f"resolvent outer iteration failed: gap {gap:.3e} after {MAX_OUTER_ROUNDS} rounds"
            )
    # the residual phase needs none of the core, its right-hand side or the iterates
    del core, rhs, start, q_next, t_last, t_prev
    div_norm = float(np.max(np.abs(ops.div_eps @ q)))
    if div_norm > 1e-8:
        raise NumericalError(f"resolvent solution not divergence-free: |div(eps E)| = {div_norm:.3e}")

    h = (F.h - (ops.C @ q) / ops.mu_f) / b
    w = ops.layout.trace_view(q)
    Z = _z_from_formula(w, F.Z, tau, b)
    V = ExtState(q=q, h=h, Z=Z)

    Aq, Ah = _field_image(V, ops, law)
    r_E = b * q + Aq - F.q
    r_H = b * h + Ah - F.h
    del Aq, Ah
    # transport part: the integrating-factor trapezoid identity the Z build used,
    # (Y_j - Y_{j-1}) - c G_j - c G_{j-1} with Y = Z growth, G = F3 growth, c = ds tau / 2
    growth = np.exp(tau * b * np.arange(M + 1) / M)[None, :, None]
    ds = 1.0 / M
    Y = Z * growth
    r_Z = Y[:, 1:] - Y[:, :-1]
    G = np.multiply(F.Z, growth, out=Y)
    G *= 0.5 * ds * tau
    r_Z -= G[:, 1:]
    r_Z -= G[:, :-1]
    del Y, G
    scale = max(float(np.max(np.abs(F.q))), float(np.max(np.abs(F.h))), 1.0)
    parts = {
        "E": float(np.max(np.abs(r_E))) / scale,
        "H": float(np.max(np.abs(r_H))) / scale,
        "Z_transport": float(np.max(np.abs(r_Z))) / scale,
        "Z_slot0": float(np.max(np.abs(Z[:, 0] - w))) / scale,
        "div": div_norm,
    }
    return ResolventResult(
        V=V,
        residual=max(parts["E"], parts["H"], parts["Z_transport"], parts["Z_slot0"]),
        residual_parts=parts,
        outer_iterations=outer,
        penalty=DIV_PENALTY,
        core_cg_iterations=core_its,
    )
