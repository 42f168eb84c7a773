"""Boundary history of tangential traces as a fixed-capacity FIFO, and its history file.

Slot j holds the trace pushed j steps ago, realizing the delayed trace on
the unit interval with nodes s_j = j/N and tau = N*dt exactly.  Advancing
the ring is the exact solution operator of the transport equation
tau dZ/dt + dZ/ds = 0 on that grid, so the delay tap Z|s=1 reproduces the
trace pushed exactly N steps earlier.
"""

from __future__ import annotations

import numpy as np

from .domain import TANGENT_TOL, SampleSet
from .errors import ConfigError, ContractError
from .feedback import norm2

# Cells of the s-grid in the operator lab, which has no step to fix N: the
# default of `operator_lab.monotonicity_test` and of the lab commands' --m.
LAB_S_CELLS = 16


class DelayRing:
    """Per-sample circular array of N+1 tangential E traces.

    Each slot holds, per sample, the two components of E on the sample's
    tangent axes: the numbers the stepper keeps in the trace slots of q.
    The paper's profile Z = E x nu is that trace turned a quarter about nu,
    a swap and a sign per sample, so |Z|, Z.Z' and g(Z) x nu read the same
    off the components; the 3-vector form appears only in the history file.

    Alongside the slots the ring caches per-sample energies.  Invariants:
    ``_z2[p]`` holds |Z_p|^2 for each physical row p; ``_mid2[p]`` holds
    |(Z_p + Z_{p+1}) / 2|^2 (indices mod N+1) when that pair is two adjacent
    live slots, and zero for the one row that pairs logical slot N with
    slot 0.  A push writes one slot, changes one pair and retires another,
    so it updates three rows; ``fill`` rebuilds them all.  ``s_energy`` then
    sums N+1 rows of S scalars instead of forming N*S midpoint vectors, and
    the energy records read the tap energies from ``slot_norm2``.
    """

    def __init__(self, n_slots: int, n_samples: int):
        if n_slots < 1:
            raise ConfigError(f"history depth must be >= 1, got {n_slots}")
        self.N = int(n_slots)
        self.n_samples = int(n_samples)
        self._buf = np.zeros((self.N + 1, self.n_samples, 2))
        self._z2 = np.zeros((self.N + 1, self.n_samples))
        self._mid2 = np.zeros((self.N + 1, self.n_samples))
        self._cursor = 0  # physical index of logical slot 0

    # -- slot access --------------------------------------------------------

    def slot(self, j: int) -> np.ndarray:
        """Logical slot j (s_j = j/N) as (n_samples, 2); 0 is the most recent push."""
        if not (0 <= j <= self.N):
            raise ContractError(f"slot index {j} outside 0..{self.N}")
        return self._buf[(self._cursor + j) % (self.N + 1)]

    def slots(self) -> np.ndarray:
        """(N+1, n_samples, 2) array in logical order."""
        return np.roll(self._buf, -self._cursor, axis=0)

    def slot_norm2(self, j: int) -> np.ndarray:
        """|Z|^2 per sample at logical slot j, from the cache."""
        if not (0 <= j <= self.N):
            raise ContractError(f"slot index {j} outside 0..{self.N}")
        return self._z2[(self._cursor + j) % (self.N + 1)]

    # -- construction -------------------------------------------------------

    def fill(self, values) -> None:
        """Set every slot from `values`, broadcast to (N+1, n_samples, 2) in logical order."""
        self._cursor = 0
        self._buf[:] = np.broadcast_to(np.asarray(values, dtype=float), self._buf.shape)
        with np.errstate(over="ignore", invalid="ignore"):
            norm2(self._buf, out=self._z2)
            mid = 0.5 * (self._buf + np.roll(self._buf, -1, axis=0))
            norm2(mid, out=self._mid2)
        self._mid2[self.N] = 0.0

    # -- dynamics ------------------------------------------------------------

    def advance(self, new_trace: np.ndarray) -> None:
        """Shift the FIFO by one slot and write the (n_samples, 2) `new_trace` into slot 0."""
        c = self._cursor = (self._cursor - 1) % (self.N + 1)
        z = self._buf[c]
        z[:] = new_trace
        # the pair (slot 0, slot 1) is new; the pair (slot N, slot 0) is retired.
        # A diverging run overflows here silently and is reported at its record.
        with np.errstate(over="ignore", invalid="ignore"):
            norm2(z, out=self._z2[c])
            mid = z + self._buf[(c + 1) % (self.N + 1)]
            mid *= 0.5
            norm2(mid, out=self._mid2[c])
        self._mid2[(c + self.N) % (self.N + 1)] = 0.0

    # -- quadrature ----------------------------------------------------------

    def s_energy(self) -> np.ndarray:
        """Midpoint rule on adjacent-slot averages, per sample.

        This is the quadrature whose shift telescoping matches the
        time-centered boundary work term exactly, so the discrete energy
        balance holds to round-off.  It sums the cached pair energies (the
        retired row is zero), so no round-off accumulates across pushes.
        """
        return self._mid2.sum(axis=0) / self.N


def init_history(kind: str, n_slots: int, n_samples: int, *, initial_trace=None) -> DelayRing:
    """Build a ring holding one of the preset histories.

    kind "zero": all slots zero; "replay": every slot equals the initial
    boundary trace `initial_trace`, as (n_samples, 2) components.
    """
    ring = DelayRing(n_slots, n_samples)
    if kind == "replay":
        if initial_trace is None:
            raise ConfigError("replay history needs the initial trace")
        ring.fill(initial_trace)
    return ring


def load_history_csv(path, n_slots: int, samples: SampleSet) -> DelayRing:
    """Read a `step,sample_id,s_index,vx,vy,vz` dump of Z = E x nu into a fresh ring.

    Every (sample, slot) pair needs a row; a normal component within the
    tangency tolerance is dropped when the vectors are turned back into
    trace components.
    """
    ring = DelayRing(n_slots, samples.count)
    try:
        data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read history file {path}: {exc}") from exc
    if data.size == 0:
        data = data.reshape(0, 6)
    if data.shape[1] != 6:
        raise ConfigError(f"{path}: rows hold {data.shape[1]} columns, need 6")
    index = data[:, 1:3]
    bad = np.flatnonzero(~(np.isfinite(index) & (index == np.trunc(index))).all(axis=1))
    if bad.size:
        raise ConfigError(f"{path}: data row {bad[0] + 1} names sample and slot {index[bad[0]].tolist()}")
    sid, j = data[:, 1].astype(int), data[:, 2].astype(int)
    bad = np.flatnonzero((j < 0) | (j > n_slots) | (sid < 0) | (sid >= ring.n_samples))
    if bad.size:
        raise ConfigError(f"{path}: slot ({sid[bad[0]]},{j[bad[0]]}) out of range")
    vecs = data[:, 3:6]
    # finiteness is checked on its own: inf passes the relative tangency test
    with np.errstate(over="ignore", invalid="ignore"):
        normal = np.abs(np.einsum("ri,ri->r", vecs, samples.normals[sid]))
        tangential = normal <= TANGENT_TOL * (1.0 + np.linalg.norm(vecs, axis=1))
    bad = np.flatnonzero(~(np.isfinite(vecs).all(axis=1) & tangential))
    if bad.size:
        r = bad[0]
        raise ConfigError(
            f"{path}: sample {sid[r]}, slot {j[r]} holds {vecs[r].tolist()}, not a finite tangential vector"
        )
    seen = np.zeros((ring.n_samples, n_slots + 1), dtype=bool)
    seen[sid, j] = True
    if not seen.all():
        s, k = np.argwhere(~seen)[0]
        raise ConfigError(f"{path}: no row for sample {s}, slot {k}")
    # a dump of several steps repeats every slot: the last row of each wins
    key = j * ring.n_samples + sid
    _, first_from_end = np.unique(key[::-1], return_index=True)
    last = len(key) - 1 - first_from_end
    vals = np.empty((n_slots + 1, ring.n_samples, 3))
    vals[j[last], sid[last]] = vecs[last]
    ring.fill(samples.cross.nu_cross(vals))
    return ring


def write_history_csv(path, ring: DelayRing, samples: SampleSet, step: int) -> None:
    """Write the ring as `step,sample_id,s_index,vx,vy,vz` rows of Z = E x nu, sample-major."""
    vecs = samples.cross.cross_nu(ring.slots()).swapaxes(0, 1).reshape(-1, 3)
    sid, j = np.divmod(np.arange(len(vecs)), ring.N + 1)
    rows = np.column_stack([np.full(sid.size, step), sid, j, vecs])
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        np.savetxt(fh, rows, fmt=["%d"] * 3 + ["%.17g"] * 3, delimiter=",",
                   header="step,sample_id,s_index,vx,vy,vz", comments="")
