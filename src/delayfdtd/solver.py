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
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import analysis
from .analysis import AnalysisOptions
from .delay import DelayRing, init_history, load_history_csv
from .domain import BoxDomain, YeeGrid, build_grid, multiplier_field
from .errors import AssumptionError, ConfigError, NumericalError, read_input
from .feedback import FeedbackLaw, implicit_boundary_update
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
from .operators import (
    EDGE_COMPS,
    Operators,
    build_operators,
    full_tensor_inverses,
    matvec,
    sample_vector_field,
)


# ---------------------------------------------------------------------------
# Scenario description
# ---------------------------------------------------------------------------

# Each material kind and how it builds from the MaterialSpec fields it reads.
MATERIAL_BUILDERS = {
    "constant_isotropic": lambda spec, grid: constant_isotropic(grid, spec.value),
    "constant_diagonal": lambda spec, grid: constant_diagonal(grid, spec.diag),
    "diagonal_ramp": lambda spec, grid: diagonal_ramp(grid, spec.diag, axis=spec.axis, slope=spec.slope, entry=spec.entry),
    "exponential_isotropic": lambda spec, grid: exponential_isotropic(grid, spec.k, axis=spec.axis),
    "constant_full": lambda spec, grid: constant_full(grid, spec.upper),
    "file": lambda spec, grid: load_tensor_file(grid, spec.path),
}


@dataclass(frozen=True)
class MaterialSpec:
    """One material tensor: a preset `kind` and the parameters it reads.

    Its own checks name the field first, so that the config can prefix
    eps_ or mu_ to name the key.
    """

    kind: str = "constant_isotropic"
    value: float = 1.0
    diag: tuple = (1.0, 1.0, 1.0)
    axis: int = 0
    slope: float = 1.0
    entry: int = 0
    k: float = 1.0
    upper: tuple = (1.0, 1.0, 1.0, 0.0, 0.0, 0.0)
    path: str = ""

    def __post_init__(self):
        if self.kind not in MATERIAL_BUILDERS:
            raise ConfigError(f"kind must be one of {', '.join(MATERIAL_BUILDERS)}, got {self.kind!r}")
        if self.entry not in (0, 1, 2):
            raise ConfigError(f"entry must be 0, 1 or 2 (the diagonal entry to ramp), got {self.entry}")

    def build(self, grid: YeeGrid) -> TensorField:
        return MATERIAL_BUILDERS[self.kind](self, grid)


@dataclass(frozen=True)
class InitialSpec:
    preset: str = "off"  # off | gaussian_pulse | file
    center: tuple = (0.5, 0.5, 0.5)
    width: float = 0.1
    amplitude: float = 1.0
    polarization: tuple = (0.0, 0.0, 1.0)
    project: bool = True
    path: str = ""

    def __post_init__(self):
        if self.preset not in ("off", "gaussian_pulse", "file"):
            raise ConfigError(f"preset must be off, gaussian_pulse or file, got {self.preset!r}")
        # a width whose square underflows would divide by zero in the pulse
        if self.preset == "gaussian_pulse" and not (self.width > 0 and self.width**2 > 0):
            raise ConfigError(f"width must be positive for a gaussian_pulse start (width**2 > 0), got {self.width}")
        if self.preset == "gaussian_pulse" and not np.linalg.norm(self.polarization) > 0:
            raise ConfigError(f"polarization must be a nonzero vector for a gaussian_pulse start, got {self.polarization}")


@dataclass(frozen=True)
class HistorySpec:
    kind: str = "zero"  # zero | replay | file
    path: str = ""

    def __post_init__(self):
        if self.kind not in ("zero", "replay", "file"):
            raise ConfigError(f"unknown history.kind {self.kind!r}: expected zero, replay or file")


@dataclass(frozen=True)
class RunControls:
    t_end: float = 1.0
    cfl_safety: float = 0.95
    record_every: int = 1
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

    def build_materials(self, grid: YeeGrid) -> tuple[TensorField, TensorField]:
        """eps and mu on `grid`; an error building either names it.

        An overflow in a preset leaves a non-finite entry, which
        `TensorField.from_values` rejects, so no RuntimeWarning escapes.
        """
        fields = []
        for name, spec in (("eps", self.eps), ("mu", self.mu)):
            try:
                with np.errstate(over="ignore"):
                    fields.append(spec.build(grid))
            except ConfigError as exc:
                raise ConfigError(f"{exc} ({name}_kind = {spec.kind})") from exc
        return tuple(fields)


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

# Far below the 1e-10 gate, so the projection ends at round-off; exponential
# eps on 16^3 takes 2 iterations, a random lognormal eps (sigma 3) on 32^3 1142.
CG_RTOL = 1e-14
CG_MAX_ITER = 2000


def _dst1(x: np.ndarray, axis: int) -> np.ndarray:
    """Unnormalized DST-I along `axis`: X_k = sum_j x_j sin(pi j k / (m + 1)).

    The FFT of the odd extension [0, x, 0, -x reversed] is -2i X on bins
    1..m.  Applying the transform twice multiplies by (m + 1) / 2.
    """
    x = np.moveaxis(x, axis, -1)
    m = x.shape[-1]
    zero = np.zeros(x.shape[:-1] + (1,))
    ext = np.concatenate([zero, x, zero, -x[..., ::-1]], axis=-1)
    return np.moveaxis(-0.5 * np.fft.rfft(ext, axis=-1).imag[..., 1 : m + 1], -1, axis)


class NodeLaplacian:
    """A = -div(eps grad) on interior nodes, with a transform preconditioner.

    The preconditioner is S^-1/2 L_c^-1 S^-1/2, with S the diagonal of A.
    L_c is a constant-coefficient fit of the unit-diagonal S^-1/2 A S^-1/2:
    one coupling per axis (the mean over that axis's node pairs) and one
    diagonal shift, so it is inverted exactly by a DST-I along each axis.
    For constant diagonal eps, isotropic or not, the fit is exact and the
    preconditioner is A^-1; for eps varying along one axis it absorbs the
    scaled operator's constant shift.
    """

    def __init__(self, ops: Operators):
        layout = ops.layout
        self.ops = ops
        self.shape = tuple(n - 1 for n in ops.grid.shape)
        edges = []
        diag = np.zeros(self.shape)
        for a, (comp, d) in enumerate(zip(EDGE_COMPS, ops.grid.spacings)):
            o = layout.int_offsets[comp]
            e = ops.eps_q[o : o + int(np.prod(layout.int_edge_shapes[comp]))]
            e = np.moveaxis(e.reshape(layout.int_edge_shapes[comp]), a, 0) / d**2
            edges.append(e)
            diag += np.moveaxis(e[:-1] + e[1:], 0, a)
        couplings = []
        for a, e in enumerate(edges):
            s = np.moveaxis(diag, a, 0)
            couplings.append(float(np.mean(e[1:-1] / np.sqrt(s[:-1] * s[1:]))))
        # the fitted shift 1 - 2 sum(c) is clipped at zero, so L_c stays definite
        total = 2.0 * sum(couplings)
        if total > 1.0:
            couplings = [c / total for c in couplings]
        lam = 1.0
        norm = 1.0
        for a, c in enumerate(couplings):
            m = self.shape[a]
            axis_shape = [1, 1, 1]
            axis_shape[a] = m
            cos = np.cos(np.pi * np.arange(1, m + 1) / (m + 1))
            lam = lam - (2.0 * c * cos).reshape(axis_shape)
            norm *= 2.0 / (m + 1)
        self._inv_s = 1.0 / diag.ravel()
        self._inv_sqrt_s = np.sqrt(self._inv_s).reshape(self.shape)
        self._inv_lam = norm / lam

    def apply(self, phi: np.ndarray) -> np.ndarray:
        return -(self.ops.div_eps @ (self.ops.grad_int @ phi))

    def precondition(self, r: np.ndarray) -> np.ndarray:
        x = self._inv_sqrt_s * r.reshape(self.shape)
        for a in range(3):
            x = _dst1(x, a)
        x *= self._inv_lam
        for a in range(3):
            x = _dst1(x, a)
        return (self._inv_sqrt_s * x).ravel()

    def solve(self, b: np.ndarray) -> tuple[np.ndarray, int]:
        """CG for A x = b; returns (x, iterations)."""
        return conjugate_gradients(
            self.apply, self.precondition, self._inv_s, b, "divergence projection", CG_MAX_ITER
        )


def conjugate_gradients(
    apply, precondition, inv_diag: np.ndarray, b: np.ndarray, name: str, max_iter: int,
    x0: np.ndarray | None = None, atol: float = 0.0,
) -> tuple[np.ndarray, int]:
    """Preconditioned CG for symmetric positive definite A x = b; returns (x, iterations).

    `apply` and `precondition` give A p and M^-1 r as new arrays (A p is
    scaled in place), and `inv_diag` is 1 / diag(A); `precondition=None`
    means Jacobi, M^-1 r = inv_diag r, which reuses the product the stop test
    forms.  Starts from x0 (default zero) and stops once
    max |D^-1 (b - A x)| <= max(CG_RTOL max |D^-1 b|, atol), checked at x0
    first: each dof's residual against its own diagonal, so dofs with small
    coefficients converge as far as the others.  b is divided by its largest
    entry first, so r.z stays finite for any finite b; dot products use
    numpy's pairwise sum, so the result does not depend on the BLAS thread
    count.  Raises NumericalError, naming the system, on a non-finite b, on
    a curvature p.Ap <= 0, or when max_iter iterations do not meet the stop.
    """
    bmax = float(np.max(np.abs(b)))
    if bmax == 0.0:
        return np.zeros_like(b), 0
    if not np.isfinite(bmax):
        raise NumericalError(f"{name}: non-finite right-hand side")
    r = b / bmax
    stop = max(CG_RTOL * float(np.max(np.abs(inv_diag * r))), atol / bmax)
    x = np.zeros_like(r) if x0 is None else x0 / bmax
    if x0 is not None:
        r -= apply(x)
    it, rz = 0, 0.0
    while (res := float(np.max(np.abs(dr := inv_diag * r)))) > stop:
        if it == max_iter:
            raise NumericalError(f"{name} did not converge in {it} iterations (residual {bmax * res:.3e})")
        z = dr if precondition is None else precondition(r)
        rz, rz_old = float(np.sum(r * z)), rz
        if it == 0:
            p = z
        else:
            p *= rz / rz_old
            p += z
        it += 1
        Ap = apply(p)
        curv = float(np.sum(p * Ap))
        if not curv > 0.0:
            raise NumericalError(f"{name} is not positive definite: curvature {curv:.3e}")
        alpha = rz / curv
        x += alpha * p
        Ap *= alpha
        r -= Ap
    return bmax * x, it


def project_div_free(q: np.ndarray, ops: Operators) -> np.ndarray:
    """Remove the gradient part so that div(eps E) vanishes at interior nodes.

    Solves -div(eps grad psi) = div(eps E) with psi zero on the wall (see
    NodeLaplacian) and adds grad psi.  Tangential boundary traces are
    untouched.
    """
    if not ops.eps.diagonal_only:
        raise ConfigError("divergence projection requires diagonal material tensors")
    psi, _ = NodeLaplacian(ops).solve(ops.div_eps @ q)
    q0 = q + ops.grad_int @ psi
    resid = float(np.max(np.abs(ops.div_eps @ q0)))
    scale = max(float(np.max(np.abs(ops.div_eps @ np.abs(q)))), 1.0)
    if resid > 1e-10 * scale:
        raise NumericalError(f"divergence projection stalled: residual {resid:.3e}")
    return q0


def gaussian_pulse_q(ops: Operators, spec: InitialSpec) -> np.ndarray:
    center = np.asarray(spec.center, dtype=float)
    pol = np.asarray(spec.polarization, dtype=float)
    pol = pol / np.linalg.norm(pol)

    def func(p):
        r2 = np.sum((p - center) ** 2, axis=-1)
        return spec.amplitude * np.exp(-r2 / (2.0 * spec.width**2))[..., None] * pol

    q = sample_vector_field(ops, func)
    if spec.project:
        q = project_div_free(q, ops)
    return q


def _load_field_file(path) -> np.ndarray:
    """Whitespace-separated numbers with `#` comments, in file order; each must be finite."""
    vals = []
    for ln, line in enumerate(read_input(path, "initial field file").splitlines(), start=1):
        for part in line.split("#", 1)[0].split():
            try:
                value = float(part)
            except ValueError:
                value = math.nan
            if not math.isfinite(value):
                raise ConfigError(f"{path}:{ln}: expected a finite number, got {part!r}")
            vals.append(value)
    return np.array(vals)


def initial_state_q(ops: Operators, spec: InitialSpec) -> np.ndarray:
    if spec.preset == "off":
        return np.zeros(ops.layout.n_q)
    if spec.preset == "gaussian_pulse":
        return gaussian_pulse_q(ops, spec)
    q = _load_field_file(spec.path)
    if q.shape != (ops.layout.n_q,):
        raise ConfigError(f"initial field file holds {q.shape}, expected ({ops.layout.n_q},)")
    return q


# ---------------------------------------------------------------------------
# State and stepper
# ---------------------------------------------------------------------------

@dataclass
class EMState:
    """Fields at one leapfrog level: E at t, H at t +/- dt/2.

    `Stepper.step` writes the new H over the array of h_prev, so h and
    h_prev must not share memory.
    """

    q: np.ndarray
    h: np.ndarray
    h_prev: np.ndarray
    step: int = 0
    time: float = 0.0


class Stepper:
    """Owns the spatial operators and advances the coupled state."""

    def __init__(self, ops: Operators, law: FeedbackLaw, dt: float):
        self.ops = ops
        self.law = law
        self.dt = float(dt)
        self._kappa = ops.inj_scale
        self._eps_t = ops.eps_trace
        layout = ops.layout
        self._trace_slice = slice(layout.trace_offset, layout.n_q)
        self._int_slice = slice(0, layout.trace_offset)
        self._eps_int = ops.eps_q[self._int_slice]
        # per-step scratch: the two curl products, the time-centered delay tap and the old trace
        self._rhs = np.empty(layout.n_q)
        self._curl = np.empty(layout.n_h)
        self._z1_mid = np.empty((layout.n_samples, 2))
        self._t_old = np.empty((layout.n_samples, 2))
        self._diag = ops.eps.diagonal_only and ops.mu.diagonal_only
        if not self._diag:
            self._eps_inv, self._mu_inv, self._eps_t = full_tensor_inverses(ops)

    def bootstrap(self, q0: np.ndarray) -> EMState:
        """Half-step H, at rest at t = 0, to +/- dt/2 (time-symmetric start)."""
        ops = self.ops
        h0 = np.zeros(ops.layout.n_h)
        curl = ops.C @ q0
        half = 0.5 * self.dt * curl / ops.mu_f if self._diag else 0.5 * self.dt * (self._mu_inv @ curl)
        return EMState(q=q0.copy(), h=h0 - half, h_prev=h0 + half, step=0, time=0.0)

    # -- one full step ---------------------------------------------------------

    def step(self, state: EMState, ring: DelayRing) -> EMState:
        """Advance E, then H, in place; the new H is written over the retired h_prev array."""
        ops, dt = self.ops, self.dt
        rhs = matvec(ops.G, state.h, self._rhs)

        # delayed tap, time-centered across the shift
        z1_mid = np.add(ring.slot(ring.N), ring.slot(ring.N - 1), out=self._z1_mid)
        z1_mid *= 0.5

        trace = ops.layout.trace_view(state.q)
        t_old = self._t_old
        t_old[:] = trace
        curl_term = rhs[self._trace_slice].reshape(-1, 2)

        if self._diag:
            inc = rhs[self._int_slice]  # scaled in place: only the trace rows of rhs are read below
            inc *= dt
            inc /= self._eps_int
            state.q[self._int_slice] += inc
        else:
            state.q[self._int_slice] += dt * (self._eps_inv @ rhs)
        t_new = implicit_boundary_update(self.law, curl_term, t_old, z1_mid, dt, self._eps_t, self._kappa)

        trace[:] = t_new
        ring.advance(t_new)

        curl = matvec(ops.C, state.q, self._curl)
        if self._diag:
            curl *= dt
            curl /= ops.mu_f
        else:
            curl = dt * (self._mu_inv @ curl)
        h_new, state.h_prev = state.h_prev, state.h
        state.h = np.subtract(state.h_prev, curl, out=h_new)
        state.step += 1
        # a product, not a running sum: record times carry no accumulated round-off
        state.time = state.step * dt
        return state


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


def _non_finite(row: tuple, st: EMState) -> NumericalError:
    """The error naming the first non-finite column of a record."""
    name = next(n for n, v in zip(analysis.CSV_HEADER.split(",")[1:], row) if not math.isfinite(v))
    return NumericalError(f"non-finite energy column {name} at step {st.step} (t = {st.time:.6g})")


@dataclass
class RunSetup:
    """What a command builds before its work, from scenario parts that the gains do not touch.

    `dt`, the operators and the start are added by the first caller that
    needs them, after its assumption check.
    """

    grid: YeeGrid
    eps: TensorField
    mu: TensorField
    report: MaterialReport
    dt: float | None = None
    n_slots: int | None = None
    ops: Operators | None = None
    q0: np.ndarray | None = None  # the start, read-only; `run` builds it after the delay weight's checks

    def operators(self) -> Operators:
        if self.ops is None:
            self.ops = build_operators(self.grid, self.eps, self.mu)
        return self.ops


# At most one entry, the last set-up built, keyed by `_setup_key`: the rows
# of a gain sweep or ladder, and commands on one config, share it.
_SETUP: dict[tuple, RunSetup] = {}


def _file_digest(path) -> bytes | None:
    """Digest of an input file's bytes; None when it cannot be read (its builder then reports why)."""
    try:
        return hashlib.sha256(Path(path).read_bytes()).digest()
    except OSError:
        return None


def _setup_key(scenario: Scenario) -> tuple:
    """Everything the set-up reads: the scenario parts (by repr, so -0.0 and 0.0 differ) and input files."""
    files = [spec.path for spec in (scenario.eps, scenario.mu) if spec.kind == "file"]
    if scenario.initial.preset == "file":
        files.append(scenario.initial.path)
    parts = (scenario.domain, scenario.eps, scenario.mu, scenario.initial)
    return (repr((*parts, scenario.run.cfl_safety, scenario.law.tau)), *map(_file_digest, files))


def require_assumptions(report: MaterialReport, what: str = "material/geometry"):
    """Raise AssumptionError naming the failed checks; `what = "material"` skips the decay-only geometry checks."""
    failed = [n for n in report.failed if what != "material" or n not in ("growth_bound", "star_shaped")]
    if failed:
        raise AssumptionError(f"{what} assumptions violated: {', '.join(failed)}")


def run_setup(scenario: Scenario) -> RunSetup:
    """The set-up of `scenario`, from `_SETUP` when the last set-up's key matches.

    Every command builds its grid, materials and report here and checks the
    report itself.  A new set-up replaces the old one, which is dropped
    before the build so that two never live at once.  The builders are
    looked up in this module's namespace at each call, where a tracer or a
    test may wrap them.
    """
    key = _setup_key(scenario)
    setup = _SETUP.get(key)
    if setup is None:
        _SETUP.clear()
        grid = build_grid(scenario.domain)
        eps, mu = scenario.build_materials(grid)
        report = full_report(eps, mu, multiplier_field(grid, scenario.domain.x0), grid)
        setup = _SETUP[key] = RunSetup(grid, eps, mu, report)
    return setup


def run(scenario: Scenario) -> RunOutput:
    """Simulate a scenario and record its energy trace.

    Deterministic for a fixed scenario: no threading, fixed evaluation order;
    the set-up comes from `run_setup`, so a run in a warm process writes the
    same bytes as one in a fresh process.  Raises AssumptionError when
    material/geometry checks fail (unless the run is marked unsafe) or when
    xi is requested automatically but no admissible value exists (see
    `analysis.delay_weight`).
    """
    setup = run_setup(scenario)
    if not scenario.run.unsafe:
        require_assumptions(setup.report)
    if setup.dt is None:
        setup.dt, setup.n_slots = compute_dt(
            setup.grid, setup.eps, setup.mu, scenario.run.cfl_safety, scenario.law.tau
        )
    grid, ops, dt, n_slots = setup.grid, setup.operators(), setup.dt, setup.n_slots
    law = scenario.law
    xi, diss = analysis.delay_weight(law, scenario.analysis.xi)

    if setup.q0 is None:
        setup.q0 = initial_state_q(ops, scenario.initial)
        setup.q0.flags.writeable = False
    q0 = setup.q0
    stepper = Stepper(ops, law, dt)
    state = stepper.bootstrap(q0)

    s = grid.samples
    if scenario.history.kind == "file":
        ring = load_history_csv(scenario.history.path, n_slots, s)
    else:
        q0_trace = ops.layout.trace_view(q0)
        ring = init_history(scenario.history.kind, n_slots, s.count, initial_trace=q0_trace)

    n_steps = int(np.ceil(scenario.run.t_end / dt - 1e-12)) if scenario.run.t_end > 0 else 0
    rows = []

    def record(st: EMState):
        row = (*analysis.energies(st.q, st.h, st.h_prev, ring, ops, xi, law.tau),
               analysis.boundary_outflow(ring, law, xi, s.areas))
        if not all(map(math.isfinite, row)):
            raise _non_finite(row, st)
        rows.append((st.time, *row))

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
        metadata=dict(xi=xi, dt=dt, n_slots=n_slots, tau=law.tau, digest=scenario.digest()),
    )
    return RunOutput(
        trace=trace,
        state=state,
        ops=ops,
        ring=ring,
        report=setup.report,
        diss=diss,
        law=law,
        dt=dt,
        n_slots=n_slots,
        xi=xi,
        scenario=scenario,
    )
