"""Boundary history of tangential traces as a fixed-capacity FIFO.

Slot j holds the trace pushed j steps ago, realizing the delayed trace on
the unit interval with nodes s_j = j/N and tau = N*dt exactly.  Advancing
the ring is the exact solution operator of the transport equation
tau dZ/dt + dZ/ds = 0 on that grid, so the delay tap Z|s=1 reproduces the
trace pushed exactly N steps earlier.
"""

from __future__ import annotations

import numpy as np

from .domain import TANGENT_TOL, check_tangential
from .errors import ConfigError, ContractError


class DelayRing:
    """Per-sample circular array of N+1 tangential 3-vectors.

    Alongside the slots the ring caches per-sample energies.  Invariants:
    ``_z2[p]`` holds |Z_p|^2 for each physical row p; ``_mid2[p]`` holds
    |(Z_p + Z_{p+1}) / 2|^2 (indices mod N+1) when that pair is two adjacent
    live slots, and zero for the one row that pairs logical slot N with
    slot 0.  A push writes one slot, changes one pair and retires another,
    so it updates three rows; ``fill`` rebuilds them all.  ``s_energy`` then
    sums N+1 rows of S scalars instead of forming N*S midpoint vectors, and
    the energy records read the tap energies from ``slot_norm2``.

    The normals must be unit axis vectors (the box walls), so the normal
    component of a pushed trace is one gathered entry per sample.
    """

    def __init__(self, n_slots: int, normals: np.ndarray):
        if n_slots < 1:
            raise ConfigError(f"history depth must be >= 1, got {n_slots}")
        self.N = int(n_slots)
        self.normals = np.asarray(normals, dtype=float)
        self.n_samples = self.normals.shape[0]
        rows = np.arange(self.n_samples)
        axis = np.argmax(np.abs(self.normals), axis=1)
        if not np.array_equal(np.abs(self.normals), np.eye(3)[axis]):
            raise ContractError("ring normals must be unit vectors along a coordinate axis")
        self._normal_idx = 3 * rows + axis  # flat (S, 3) index of each normal component
        self._buf = np.zeros((self.N + 1, self.n_samples, 3))
        self._z2 = np.zeros((self.N + 1, self.n_samples))
        self._mid2 = np.zeros((self.N + 1, self.n_samples))
        self._cursor = 0  # physical index of logical slot 0

    # -- slot access --------------------------------------------------------

    def _phys(self, j) -> np.ndarray:
        return (self._cursor + np.atleast_1d(j)) % (self.N + 1)

    def slot(self, j: int) -> np.ndarray:
        """Logical slot j (s_j = j/N); 0 is the most recent push."""
        if not (0 <= j <= self.N):
            raise ContractError(f"slot index {j} outside 0..{self.N}")
        return self._buf[(self._cursor + j) % (self.N + 1)]

    def slots(self) -> np.ndarray:
        """(N+1, n_samples, 3) array in logical order."""
        return self._buf[self._phys(np.arange(self.N + 1))]

    def slot_norm2(self, j: int) -> np.ndarray:
        """|Z|^2 per sample at logical slot j, from the cache."""
        if not (0 <= j <= self.N):
            raise ContractError(f"slot index {j} outside 0..{self.N}")
        return self._z2[(self._cursor + j) % (self.N + 1)]

    # -- construction -------------------------------------------------------

    def fill(self, history) -> None:
        """Set slot j to history(s_j) for all samples.

        `history` is a callable s -> (n_samples, 3) array or a constant
        (n_samples, 3) array.
        """
        for j in range(self.N + 1):
            vals = history(j / self.N) if callable(history) else history
            vals = np.broadcast_to(np.asarray(vals, dtype=float), (self.n_samples, 3))
            check_tangential(f"history at s={j}/{self.N}", vals, self.normals)
            self._buf[(self._cursor + j) % (self.N + 1)] = vals
        with np.errstate(over="ignore", invalid="ignore"):
            self._z2[:] = np.einsum("psi,psi->ps", self._buf, self._buf)
            mid = 0.5 * (self._buf + np.roll(self._buf, -1, axis=0))
            self._mid2[:] = np.einsum("psi,psi->ps", mid, mid)
        self._mid2[(self._cursor + self.N) % (self.N + 1)] = 0.0

    # -- dynamics ------------------------------------------------------------

    def advance(self, new_trace: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Shift the FIFO by one slot and write the new trace into slot 0.

        Returns (Z|s=0, Z|s=1) after the shift.  The full tangency test runs
        only when some sample's normal component is nonzero.
        """
        new_trace = np.asarray(new_trace, dtype=float)
        if np.any(new_trace.take(self._normal_idx) != 0.0):
            check_tangential("pushed trace", new_trace, self.normals)
        c = self._cursor = (self._cursor - 1) % (self.N + 1)
        self._buf[c] = new_trace
        # the pair (slot 0, slot 1) is new; the pair (slot N, slot 0) is retired.
        # A diverging run overflows here silently and is reported at its record.
        with np.errstate(over="ignore", invalid="ignore"):
            self._z2[c] = np.einsum("si,si->s", new_trace, new_trace)
            mid = 0.5 * (self._buf[c] + self._buf[(c + 1) % (self.N + 1)])
            self._mid2[c] = np.einsum("si,si->s", mid, mid)
        self._mid2[(c + self.N) % (self.N + 1)] = 0.0
        return self.slot(0), self.slot(self.N)

    # -- quadrature ----------------------------------------------------------

    def s_energy(self) -> np.ndarray:
        """Midpoint rule on adjacent-slot averages, per sample.

        This is the quadrature whose shift telescoping matches the
        time-centered boundary work term exactly, so the discrete energy
        balance holds to round-off.  It sums the cached pair energies (the
        retired row is zero), so no round-off accumulates across pushes.
        """
        return self._mid2.sum(axis=0) / self.N


def init_history(kind: str, n_slots: int, normals: np.ndarray, *, initial_trace=None) -> DelayRing:
    """Build a ring holding one of the preset histories.

    kind "zero": all slots zero; "replay": every slot equals the initial
    boundary trace `initial_trace`.
    """
    ring = DelayRing(n_slots, normals)
    if kind == "zero":
        return ring
    if kind == "replay":
        if initial_trace is None:
            raise ConfigError("replay history needs the initial trace")
        ring.fill(np.asarray(initial_trace, dtype=float))
        return ring
    raise ConfigError(f"unknown history kind {kind!r}")


def load_history_csv(path, n_slots: int, normals: np.ndarray) -> DelayRing:
    """Read a `step,sample_id,s_index,vx,vy,vz` dump into a fresh ring."""
    ring = DelayRing(n_slots, normals)
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
    vals = np.zeros((n_slots + 1, ring.n_samples, 3))
    sid, j = data[:, 1].astype(int), data[:, 2].astype(int)
    bad = np.flatnonzero((j < 0) | (j > n_slots) | (sid < 0) | (sid >= ring.n_samples))
    if bad.size:
        raise ConfigError(f"{path}: slot ({sid[bad[0]]},{j[bad[0]]}) out of range")
    # checked here, not by `fill`: a file is input, and inf passes the relative tangency test
    vecs = data[:, 3:6]
    with np.errstate(over="ignore", invalid="ignore"):
        normal = np.abs(np.einsum("ri,ri->r", vecs, ring.normals[sid]))
        tangential = normal <= TANGENT_TOL * (1.0 + np.linalg.norm(vecs, axis=1))
    bad = np.flatnonzero(~(np.isfinite(vecs).all(axis=1) & tangential))
    if bad.size:
        r = bad[0]
        raise ConfigError(
            f"{path}: sample {sid[r]}, slot {j[r]} holds {vecs[r].tolist()}, not a finite tangential vector"
        )
    # a dump of several steps repeats every slot: the last row of each wins
    key = j * ring.n_samples + sid
    _, first_from_end = np.unique(key[::-1], return_index=True)
    last = len(key) - 1 - first_from_end
    vals[j[last], sid[last]] = data[last, 3:6]
    ring.fill(lambda s: vals[round(s * n_slots)])
    return ring
