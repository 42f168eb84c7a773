"""Leapfrog time stepper with the delayed-feedback boundary closure.

One step advances E (interior edges and boundary traces) by a full step
using H at the half level, then advances H using the new E.  The boundary
trace update is closed implicitly with the feedback trace evaluated at the
time-centered value, which together with the adjoint-built curl pair makes
the discrete energy balance exact: the change of the delay-augmented energy
per step equals the time-centered boundary work plus the delay-line endpoint
flux, to round-off.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np

from . import analysis
from .delay import DelayRing, init_history, load_history_csv
from .domain import BoxDomain, YeeGrid, build_grid, multiplier_field
from .errors import AssumptionError, ConfigError, NumericalError
from .feedback import FeedbackLaw, constants, implicit_boundary_update
from .materials import (
    MaterialReport,
    TensorField,
    constant_diagonal,
    constant_full,
    constant_isotropic,
    diagonal_ramp,
    exponential_isotropic,
    full_report,
    load_tensor_file,
)
from .operators import EDGE_COMPS, Operators, build_operators, factor_symmetric, sample_vector_field


# ---------------------------------------------------------------------------
# Scenario description
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MaterialSpec:
    kind: str = "constant_isotropic"
    value: float = 1.0
    diag: tuple = (1.0, 1.0, 1.0)
    axis: int = 0
    slope: float = 1.0
    entry: int = 0
    k: float = 1.0
    upper: tuple = (1.0, 1.0, 1.0, 0.0, 0.0, 0.0)
    path: str = ""

    def build(self, grid: YeeGrid) -> TensorField:
        if self.kind == "constant_isotropic":
            return constant_isotropic(grid, self.value)
        if self.kind == "constant_diagonal":
            return constant_diagonal(grid, self.diag)
        if self.kind == "diagonal_ramp":
            return diagonal_ramp(grid, self.diag, axis=self.axis, slope=self.slope, entry=self.entry)
        if self.kind == "exponential_isotropic":
            return exponential_isotropic(grid, self.k, axis=self.axis)
        if self.kind == "constant_full":
            return constant_full(grid, self.upper)
        if self.kind == "file":
            return load_tensor_file(grid, self.path)
        raise ConfigError(f"unknown material kind {self.kind!r}")


@dataclass(frozen=True)
class InitialSpec:
    preset: str = "off"  # off | gaussian_pulse | file
    center: tuple = (0.5, 0.5, 0.5)
    width: float = 0.1
    amplitude: float = 1.0
    polarization: tuple = (0.0, 0.0, 1.0)
    project: bool = True
    path: str = ""


@dataclass(frozen=True)
class HistorySpec:
    kind: str = "zero"  # zero | constant | replay | file
    value: tuple = (0.0, 0.0, 0.0)
    path: str = ""


@dataclass(frozen=True)
class RunControls:
    t_end: float = 1.0
    cfl_safety: float = 0.95
    record_every: int = 1
    boundary_mode: str = "centered"  # centered | lagged
    unsafe: bool = False

    def __post_init__(self):
        if self.t_end < 0:
            raise ConfigError("t_end must be nonnegative")
        if self.cfl_safety <= 0:
            raise ConfigError("cfl_safety must be positive")
        if self.cfl_safety > 1.0 and not self.unsafe:
            raise ConfigError("cfl_safety above 1 requires the unsafe override")
        if self.record_every < 1:
            raise ConfigError("record_every must be >= 1")
        if self.boundary_mode not in ("centered", "lagged"):
            raise ConfigError(f"unknown boundary_mode {self.boundary_mode!r}")


@dataclass(frozen=True)
class AnalysisOptions:
    weighting: str = "weighted"  # weighted | plain
    xi: float | None = None  # None means auto
    slack_dissipation: float = 1.05
    slack_observability: float = 1.10


@dataclass(frozen=True)
class Scenario:
    domain: BoxDomain
    eps: MaterialSpec = MaterialSpec()
    mu: MaterialSpec = MaterialSpec()
    law: FeedbackLaw = FeedbackLaw()
    history: HistorySpec = HistorySpec()
    initial: InitialSpec = InitialSpec()
    run: RunControls = RunControls()
    analysis: AnalysisOptions = AnalysisOptions()

    def digest(self) -> str:
        return hashlib.sha256(repr(self).encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# Step size
# ---------------------------------------------------------------------------

def compute_dt(
    grid: YeeGrid, eps: TensorField, mu: TensorField, cfl_safety: float, tau: float
) -> tuple[float, int]:
    """Stable step size snapped so the delay is an exact step multiple.

    dt_raw = safety / (c_max sqrt(sum 1/d^2)) with c_max the fastest wave
    speed 1/sqrt(lmin(eps) lmin(mu)); then N = ceil(tau/dt_raw) and
    dt = tau/N so tau = N dt exactly.
    """
    if tau <= 0:
        raise ConfigError(f"delay tau must be positive, got {tau}")
    alpha_eps = eps.lambda_min_global
    alpha_mu = mu.lambda_min_global
    if min(alpha_eps, alpha_mu) <= 0:
        raise AssumptionError("materials must be uniformly positive definite")
    c_max = 1.0 / np.sqrt(alpha_eps * alpha_mu)
    dx, dy, dz = grid.spacings
    dt_raw = cfl_safety / (c_max * np.sqrt(1.0 / dx**2 + 1.0 / dy**2 + 1.0 / dz**2))
    n_slots = int(np.ceil(tau / dt_raw - 1e-12))
    return tau / n_slots, n_slots


# ---------------------------------------------------------------------------
# Divergence-free projection
# ---------------------------------------------------------------------------

def project_div_free(q: np.ndarray, ops: Operators, tol: float = 1e-10) -> np.ndarray:
    """Remove the gradient part so that div(eps E) vanishes at interior nodes.

    Solves div(eps grad phi) = div(eps E) with phi zero on the wall and
    subtracts grad phi.  Tangential boundary traces are untouched.
    """
    if not ops.eps.diagonal_only:
        raise ConfigError("divergence projection requires diagonal material tensors")
    lu = getattr(ops, "_proj_lu", None)
    if lu is None:
        lu = factor_symmetric(ops.div_eps @ ops.grad_int)
        ops._proj_lu = lu
    rhs = ops.div_eps @ q
    phi = lu.solve(rhs)
    q0 = q - ops.grad_int @ phi
    resid = float(np.max(np.abs(ops.div_eps @ q0)))
    scale = max(float(np.max(np.abs(ops.div_eps @ np.abs(q)))), 1.0)
    if resid > tol * scale:
        raise NumericalError(f"divergence projection stalled: residual {resid:.3e}")
    return q0


def gaussian_pulse_q(ops: Operators, spec: InitialSpec) -> np.ndarray:
    center = np.asarray(spec.center, dtype=float)
    pol = np.asarray(spec.polarization, dtype=float)
    norm = np.linalg.norm(pol)
    if norm == 0:
        raise ConfigError("pulse polarization must be a nonzero vector")
    pol = pol / norm

    def func(p):
        r2 = np.sum((p - center) ** 2, axis=-1)
        return spec.amplitude * np.exp(-r2 / (2.0 * spec.width**2))[..., None] * pol

    q = sample_vector_field(ops, func)
    if spec.project:
        q = project_div_free(q, ops)
    return q


def initial_state_q(ops: Operators, spec: InitialSpec) -> np.ndarray:
    if spec.preset == "off":
        return np.zeros(ops.layout.n_q)
    if spec.preset == "gaussian_pulse":
        return gaussian_pulse_q(ops, spec)
    if spec.preset == "file":
        q = np.loadtxt(spec.path)
        if q.shape != (ops.layout.n_q,):
            raise ConfigError(
                f"initial field file holds {q.shape}, expected ({ops.layout.n_q},)"
            )
        return q
    raise ConfigError(f"unknown initial preset {spec.preset!r}")


# ---------------------------------------------------------------------------
# State and stepper
# ---------------------------------------------------------------------------

@dataclass
class EMState:
    """Fields at one leapfrog level: E at t, H at t +/- dt/2."""

    q: np.ndarray
    h: np.ndarray
    h_prev: np.ndarray
    step: int = 0
    time: float = 0.0


class Stepper:
    """Owns the spatial operators and advances the coupled state."""

    def __init__(
        self,
        ops: Operators,
        law: FeedbackLaw,
        dt: float,
        boundary_mode: str = "centered",
        trace_tol: float = 1e-12,
    ):
        self.ops = ops
        self.law = law
        self.dt = float(dt)
        self.boundary_mode = boundary_mode
        self.trace_tol = trace_tol
        s = ops.grid.samples
        self._normals = s.normals
        self._tangents = s.tangents
        self._kappa = ops.inj_scale
        self._eps_t = ops.eps_trace
        layout = ops.layout
        self._trace_slice = slice(layout.trace_offset, layout.n_q)
        self._int_slice = slice(0, layout.trace_offset)
        self._diag = ops.eps.diagonal_only and ops.mu.diagonal_only
        if not self._diag:
            self._prepare_full_tensor()

    def bootstrap(self, q0: np.ndarray, h0: np.ndarray | None = None) -> EMState:
        """Half-step H to +/- dt/2 around t = 0 (time-symmetric start)."""
        ops = self.ops
        if h0 is None:
            h0 = np.zeros(ops.layout.n_h)
        curl = self._curl_e(q0)
        half = 0.5 * self.dt * curl / ops.mu_f if self._diag else 0.5 * self.dt * self._mu_inv_apply(curl)
        return EMState(q=q0.copy(), h=h0 - half, h_prev=h0 + half, step=0, time=0.0)

    # -- full-tensor collocation machinery ------------------------------------

    def _prepare_full_tensor(self):
        ops = self.ops
        grid = ops.grid
        vals_eps = 0.5 * (ops.eps.values + np.swapaxes(ops.eps.values, -1, -2))
        vals_mu = 0.5 * (ops.mu.values + np.swapaxes(ops.mu.values, -1, -2))
        self._eps_inv = {
            c: np.linalg.inv(_cells_to_int_edges(vals_eps, c)) for c in EDGE_COMPS
        }
        self._mu_inv = {c: np.linalg.inv(_cells_to_faces(vals_mu, c)) for c in EDGE_COMPS}
        s = grid.samples
        cell_inv = np.linalg.inv(vals_eps[s.cells[:, 0], s.cells[:, 1], s.cells[:, 2]])
        rows = np.arange(s.count)
        # tangential permittivity seen by the trace update: the inverse of the
        # tangential 2x2 block of the cellwise inverse (a Schur complement)
        self._eps_t = np.linalg.inv(
            np.stack(
                [
                    np.stack(
                        [cell_inv[rows, s.tangents[:, a], s.tangents[:, b]] for b in (0, 1)],
                        axis=-1,
                    )
                    for a in (0, 1)
                ],
                axis=-2,
            )
        )

    def _curl_e(self, q: np.ndarray) -> np.ndarray:
        return self.ops.C @ q

    def _mu_inv_apply(self, curl: np.ndarray) -> np.ndarray:
        """mu^-1 curl at faces, collocating cross components (full tensors)."""
        ops = self.ops
        cx, cy, cz = ops.layout.split_h(curl)
        coll = _collocate_faces(cx, cy, cz)
        out = np.empty_like(curl)
        for c, own in zip(EDGE_COMPS, (cx, cy, cz)):
            a = EDGE_COMPS.index(c)
            inv = self._mu_inv[c]
            vec = coll[c]
            vec[..., a] = own
            res = np.einsum("...j,...j->...", inv[..., a, :], vec)
            o = ops.layout.face_offsets[c]
            out[o : o + res.size] = res.ravel()
        return out

    def _eps_inv_interior(self, rhs: np.ndarray) -> np.ndarray:
        """eps^-1 rhs at interior edges, collocating cross components."""
        ops = self.ops
        full = ops.R @ rhs
        ex, ey, ez = ops.layout.split_full_edges(full)
        out = np.empty(ops.layout.trace_offset)
        coll = _collocate_edges(ex, ey, ez)
        for c in EDGE_COMPS:
            a = EDGE_COMPS.index(c)
            inv = self._eps_inv[c]
            vec = coll[c]
            res = np.einsum("...j,...j->...", inv[..., a, :], vec)
            o = ops.layout.int_offsets[c]
            out[o : o + res.size] = res.ravel()
        return out

    # -- one full step ---------------------------------------------------------

    def step(self, state: EMState, ring: DelayRing) -> EMState:
        ops, law, dt = self.ops, self.law, self.dt
        rhs = ops.G @ state.h

        # delayed tap, time-centered across the shift
        z1_now = ring.slot(ring.N)
        z1_next = ring.slot(ring.N - 1) if ring.N >= 1 else z1_now
        z1_mid = 0.5 * (z1_now + z1_next)

        t_old = ops.layout.trace_view(state.q).copy()
        curl_term = rhs[self._trace_slice].reshape(-1, 2)

        if self._diag:
            state.q[self._int_slice] += dt * rhs[self._int_slice] / ops.eps_q[self._int_slice]
        else:
            state.q[self._int_slice] += dt * self._eps_inv_interior(rhs)
        t_new = implicit_boundary_update(
            law,
            curl_term,
            t_old,
            z1_mid,
            self._normals,
            self._tangents,
            dt,
            self._eps_t,
            self._kappa,
            tol=self.trace_tol,
            lagged=self.boundary_mode == "lagged",
        )

        state.q[self._trace_slice] = t_new.ravel()
        w_new = np.cross(ops.grid.samples.to_vectors(t_new), self._normals)
        ring.advance(w_new)

        curl = self._curl_e(state.q)
        state.h_prev = state.h.copy()
        if self._diag:
            state.h = state.h - dt * curl / ops.mu_f
        else:
            state.h = state.h - dt * self._mu_inv_apply(curl)
        state.step += 1
        state.time += dt
        return state


def _collocate_edges(ex, ey, ez):
    """Cross components averaged to each interior edge site, as (..., 3)."""
    out = {}
    vec = np.zeros(ex[:, 1:-1, 1:-1].shape + (3,))
    vec[..., 1] = 0.25 * (ey[:-1, :-1, 1:-1] + ey[:-1, 1:, 1:-1] + ey[1:, :-1, 1:-1] + ey[1:, 1:, 1:-1])
    vec[..., 2] = 0.25 * (ez[:-1, 1:-1, :-1] + ez[:-1, 1:-1, 1:] + ez[1:, 1:-1, :-1] + ez[1:, 1:-1, 1:])
    vec[..., 0] = ex[:, 1:-1, 1:-1]
    out["x"] = vec
    vec = np.zeros(ey[1:-1, :, 1:-1].shape + (3,))
    vec[..., 0] = 0.25 * (ex[:-1, :-1, 1:-1] + ex[1:, :-1, 1:-1] + ex[:-1, 1:, 1:-1] + ex[1:, 1:, 1:-1])
    vec[..., 2] = 0.25 * (ez[1:-1, :-1, :-1] + ez[1:-1, :-1, 1:] + ez[1:-1, 1:, :-1] + ez[1:-1, 1:, 1:])
    vec[..., 1] = ey[1:-1, :, 1:-1]
    out["y"] = vec
    vec = np.zeros(ez[1:-1, 1:-1, :].shape + (3,))
    vec[..., 0] = 0.25 * (ex[:-1, 1:-1, :-1] + ex[1:, 1:-1, :-1] + ex[:-1, 1:-1, 1:] + ex[1:, 1:-1, 1:])
    vec[..., 1] = 0.25 * (ey[1:-1, :-1, :-1] + ey[1:-1, 1:, :-1] + ey[1:-1, :-1, 1:] + ey[1:-1, 1:, 1:])
    vec[..., 2] = ez[1:-1, 1:-1, :]
    out["z"] = vec
    return out


def _collocate_faces(hx, hy, hz):
    """Cross components averaged to each face site (edge-replicated)."""

    def pad(a, axis):
        spec = [(0, 0)] * 3
        spec[axis] = (1, 1)
        return np.pad(a, spec, mode="edge")

    out = {}
    vec = np.zeros(hx.shape + (3,))
    py = pad(hy, 0)
    vec[..., 1] = 0.25 * (py[:-1, :-1, :] + py[:-1, 1:, :] + py[1:, :-1, :] + py[1:, 1:, :])
    pz = pad(hz, 0)
    vec[..., 2] = 0.25 * (pz[:-1, :, :-1] + pz[:-1, :, 1:] + pz[1:, :, :-1] + pz[1:, :, 1:])
    out["x"] = vec
    vec = np.zeros(hy.shape + (3,))
    px = pad(hx, 1)
    vec[..., 0] = 0.25 * (px[:-1, :-1, :] + px[1:, :-1, :] + px[:-1, 1:, :] + px[1:, 1:, :])
    pz = pad(hz, 1)
    vec[..., 2] = 0.25 * (pz[:, :-1, :-1] + pz[:, :-1, 1:] + pz[:, 1:, :-1] + pz[:, 1:, 1:])
    out["y"] = vec
    vec = np.zeros(hz.shape + (3,))
    px = pad(hx, 2)
    vec[..., 0] = 0.25 * (px[:-1, :, :-1] + px[1:, :, :-1] + px[:-1, :, 1:] + px[1:, :, 1:])
    py = pad(hy, 2)
    vec[..., 1] = 0.25 * (py[:, :-1, :-1] + py[:, 1:, :-1] + py[:, :-1, 1:] + py[:, 1:, 1:])
    out["z"] = vec
    return out


def _cells_to_int_edges(vals, comp):
    if comp == "x":
        return 0.25 * (vals[:, :-1, :-1] + vals[:, 1:, :-1] + vals[:, :-1, 1:] + vals[:, 1:, 1:])
    if comp == "y":
        return 0.25 * (vals[:-1, :, :-1] + vals[1:, :, :-1] + vals[:-1, :, 1:] + vals[1:, :, 1:])
    return 0.25 * (vals[:-1, :-1, :] + vals[1:, :-1, :] + vals[:-1, 1:, :] + vals[1:, 1:, :])


def _cells_to_faces(vals, comp):
    axis = EDGE_COMPS.index(comp)
    spec = [(0, 0)] * 3 + [(0, 0), (0, 0)]
    spec[axis] = (1, 1)
    padded = np.pad(vals, spec, mode="edge")
    lo = [slice(None)] * 5
    hi = [slice(None)] * 5
    lo[axis] = slice(0, -1)
    hi[axis] = slice(1, None)
    return 0.5 * (padded[tuple(lo)] + padded[tuple(hi)])


# ---------------------------------------------------------------------------
# Full run
# ---------------------------------------------------------------------------

@dataclass
class RunOutput:
    trace: analysis.EnergyTrace
    state: EMState
    ops: Operators
    ring: DelayRing
    report: MaterialReport
    diss: analysis.DissipationConstants | None
    law: FeedbackLaw
    dt: float
    n_slots: int
    xi: float
    scenario: Scenario
    ring_snapshots: list = field(default_factory=list)


def _require_finite(name: str, value: float, st: EMState) -> float:
    if not np.isfinite(value):
        raise NumericalError(f"non-finite energy column {name} at step {st.step} (t = {st.time:.6g})")
    return value


def run(scenario: Scenario, keep_ring_snapshots: bool = False) -> RunOutput:
    """Simulate a scenario and record its energy trace.

    Deterministic for a fixed scenario: no threading, fixed evaluation order.
    Raises AssumptionError when material/geometry checks fail (unless the
    run is flagged unsafe) or when xi is requested automatically but no
    admissible value exists.
    """
    grid = build_grid(scenario.domain)
    eps = scenario.eps.build(grid)
    mu = scenario.mu.build(grid)
    m = multiplier_field(grid, scenario.domain.x0)
    report = full_report(eps, mu, m, grid)
    if not report.passed and not scenario.run.unsafe:
        failed = [name for name, (ok, _) in report.checks.items() if not ok]
        raise AssumptionError(f"material/geometry assumptions violated: {', '.join(failed)}")

    law = scenario.law
    dt, n_slots = compute_dt(grid, eps, mu, scenario.run.cfl_safety, law.tau)
    ops = build_operators(grid, eps, mu)

    mono = None
    diss = None
    xi = scenario.analysis.xi
    if law.gamma1 > 0:
        mono = constants(law)
        if xi is None:
            diss = analysis.xi_default(law.gamma1, law.gamma2, mono.c1, mono.c2)
            xi = diss.xi
        else:
            try:
                diss = analysis.xi_default(law.gamma1, law.gamma2, mono.c1, mono.c2, xi=xi)
            except AssumptionError:
                diss = None  # explicit xi outside the admissible interval: run, no certificate
    elif xi is None:
        xi = 0.0  # conservative control runs carry no delay weighting

    q0 = initial_state_q(ops, scenario.initial)
    stepper = Stepper(ops, law, dt, boundary_mode=scenario.run.boundary_mode)
    state = stepper.bootstrap(q0)

    s = grid.samples
    if scenario.history.kind == "file":
        ring = load_history_csv(scenario.history.path, n_slots, s.normals)
    else:
        w0 = ops.boundary_trace_w(q0)
        ring = init_history(
            scenario.history.kind,
            n_slots,
            s.normals,
            value=np.asarray(scenario.history.value, dtype=float),
            initial_trace=w0,
        )

    n_steps = int(np.ceil(scenario.run.t_end / dt - 1e-12)) if scenario.run.t_end > 0 else 0
    rows = []
    snapshots = []

    def record(st: EMState):
        vals = analysis.energies(
            st.q, st.h, st.h_prev, ring, ops, xi, law.tau, scenario.analysis.weighting
        )
        for name, v in zip(("E_weighted", "E_plain", "E_xi", "D"), vals):
            _require_finite(name, v, st)
        # checked only now: the outflow of an overflowed trace would warn
        flux = _require_finite("flux", analysis.boundary_outflow(ring, law, xi, s.areas), st)
        rows.append((st.time, *vals, flux))
        if keep_ring_snapshots:
            snapshots.append(ring.slots().copy())

    record(state)
    for n in range(n_steps):
        stepper.step(state, ring)
        if state.step % scenario.run.record_every == 0 or n == n_steps - 1:
            record(state)

    data = np.array(rows)
    trace = analysis.EnergyTrace(
        t=data[:, 0],
        E_weighted=data[:, 1],
        E_plain=data[:, 2],
        E_xi=data[:, 3],
        D=data[:, 4],
        flux=data[:, 5],
        metadata=dict(
            xi=xi,
            dt=dt,
            n_slots=n_slots,
            tau=law.tau,
            weighting=scenario.analysis.weighting,
            digest=scenario.digest(),
        ),
    )
    return RunOutput(
        trace=trace,
        state=state,
        ops=ops,
        ring=ring,
        report=report,
        diss=diss,
        law=law,
        dt=dt,
        n_slots=n_slots,
        xi=xi,
        scenario=scenario,
        ring_snapshots=snapshots,
    )
