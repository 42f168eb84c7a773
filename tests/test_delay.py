import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from delayfdtd.delay import DelayRing, init_history, load_history_csv
from delayfdtd.domain import BoxDomain, SampleSet, build_grid, tangent_axes
from delayfdtd.errors import ConfigError

NORMALS = np.array([[0.0, 0.0, 1.0], [0.0, -1.0, 0.0], [1.0, 0.0, 0.0]])


def sample_set(normals):
    """Samples with the given axis normals; only the geometry the history reader uses."""
    n = len(normals)
    axis = np.argmax(np.abs(normals), axis=1)
    return SampleSet(
        positions=np.zeros((n, 3)), normals=normals, areas=np.ones(n), axis=axis,
        side=normals[np.arange(n), axis], tangents=np.array([tangent_axes(a) for a in axis]),
        cells=np.zeros((n, 3), dtype=int), vol_mass=np.ones((n, 2)),
    )


SAMPLES = sample_set(NORMALS)


def filled(n_slots, n_samples, history):
    """A ring with every slot filled from `history` (see DelayRing.fill)."""
    ring = DelayRing(n_slots, n_samples)
    ring.fill(history)
    return ring


def tangential(vec, nu):
    v = np.asarray(vec, dtype=float)
    return v - np.dot(v, nu) * nu


def history_lines(samples, comps):
    """Dump rows of the (N+1, S, 2) components `comps`, as Z = E x nu vectors."""
    lines = ["step,sample_id,s_index,vx,vy,vz"]
    for j, slot in enumerate(comps):
        for sid, v in enumerate(samples.cross.cross_nu(slot)):
            lines.append(f"0,{sid},{j},{v[0]:.17g},{v[1]:.17g},{v[2]:.17g}")
    return lines


def test_zero_history():
    ring = init_history("zero", 4, 3)
    assert np.array_equal(ring.slots(), np.zeros((5, 3, 2)))


def test_replay_history():
    w0 = np.array([[0.5, -1.0], [2.0, 0.3], [0, 1.0]])
    ring = init_history("replay", 3, 3, initial_trace=w0)
    for j in range(4):
        assert np.array_equal(ring.slot(j), w0)


def test_fifo_tags():
    ring = init_history("zero", 4, 3)
    for tag in range(1, 6):
        w = np.zeros((3, 2))
        w[:, 0] = [tag, tag, 0]
        ring.advance(w)
    z0, z1 = ring.slot(0), ring.slot(ring.N)
    assert z1[1, 0] == 1.0  # pushed 5 steps ago... slot N after 5 pushes of N=4
    assert z0[1, 0] == 5.0


def test_constant_pushes_fill_after_n():
    # the s=1 tap after k pushes is push k-N, so the constant value arrives
    # once the initial history has been flushed through all N slots
    ring = init_history("zero", 4, 3)
    w = np.array([[1.0, 0], [0, 1.0], [0, 0.5]])
    for _ in range(4):
        ring.advance(w)
        assert np.array_equal(ring.slot(ring.N), np.zeros((3, 2)))
    ring.advance(w)
    assert np.array_equal(ring.slot(ring.N), w)


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 8), st.integers(0, 20))
def test_delay_tap_is_exact(n_slots, extra):
    ring = init_history("zero", n_slots, 1)
    pushes = []
    for k in range(n_slots + extra):
        w = np.array([[float(k + 1), 2.0 * (k + 1)]])
        pushes.append(w)
        ring.advance(w)
    expect = pushes[-1 - n_slots] if len(pushes) > n_slots else np.zeros((1, 2))
    assert np.array_equal(ring.slot(ring.N), expect)


def test_s_energy_constant_exact():
    w = np.array([[0.6, -0.8]])
    ring = DelayRing(5, 1)
    ring.fill(w)
    assert ring.s_energy()[0] == pytest.approx(1.0, abs=1e-15)


def assert_exact_shifts(snaps):
    """Each push moves logical slots 0..N-1 to 1..N unchanged.

    With tau = N dt this is the exact solution of tau dZ/dt + dZ/ds = 0 on
    the s-nodes, so the transport residual vanishes identically.
    """
    for prev, cur in zip(snaps[:-1], snaps[1:]):
        assert np.array_equal(cur[1:], prev[:-1])


def test_transport_residual_zero_for_shifts():
    rng = np.random.default_rng(0)
    ring = init_history("zero", 5, 3)
    snaps = [ring.slots().copy()]
    for _ in range(8):
        ring.advance(rng.standard_normal((3, 2)))
        snaps.append(ring.slots().copy())
    assert_exact_shifts(snaps)


def test_constant_in_time_residual_zero():
    w = np.array([[1.0, 0], [0, 1.0], [1.0, 0]])
    ring = filled(4, 3, w)
    snaps = [ring.slots().copy()]
    for _ in range(3):
        ring.advance(w)
        snaps.append(ring.slots().copy())
    assert_exact_shifts(snaps)


# -- cached pair energies ----------------------------------------------------

def midpoint_s_energy(ring):
    # the uncached quadrature: every adjacent-slot midpoint rebuilt per call
    Z = ring.slots()
    with np.errstate(over="ignore", invalid="ignore"):
        mid = 0.5 * (Z[:-1] + Z[1:])
        return np.einsum("jsi,jsi->s", mid, mid) / ring.N


def assert_cache_matches(ring):
    ref = midpoint_s_energy(ring)
    got = ring.s_energy()
    assert np.all(np.abs(got - ref) <= 1e-15 * np.abs(ref))


def box_samples():
    return build_grid(BoxDomain((1.0, 1.0, 1.0), (4, 5, 6), (0.5, 0.5, 0.5))).samples


def random_traces(rng, samples, shape=()):
    return rng.standard_normal(shape + (samples.count, 2))


def test_cache_after_fill_constant_replay_and_csv(tmp_path):
    rng = np.random.default_rng(31)
    samples = box_samples()
    n_slots = 6
    assert_cache_matches(filled(n_slots, samples.count, random_traces(rng, samples)))
    assert_cache_matches(
        init_history("replay", n_slots, samples.count, initial_trace=random_traces(rng, samples))
    )
    vals = random_traces(rng, samples, (n_slots + 1,))
    path = tmp_path / "history.csv"
    path.write_text("\n".join(history_lines(samples, vals)) + "\n")
    ring = load_history_csv(path, n_slots, samples)
    assert_cache_matches(ring)
    # a ring that was already pushed is rebuilt by fill
    ring.advance(random_traces(rng, samples))
    ring.fill(random_traces(rng, samples))
    assert_cache_matches(ring)


@pytest.mark.parametrize("n_slots", [1, 5])
def test_cache_tracks_pushes_across_wraps(n_slots):
    rng = np.random.default_rng(32 + n_slots)
    samples = box_samples()
    ring = init_history("replay", n_slots, samples.count, initial_trace=random_traces(rng, samples))
    for _ in range(2 * (n_slots + 1) + 3):
        ring.advance(random_traces(rng, samples))
        assert_cache_matches(ring)


def test_cache_overflow_is_inf_without_warning():
    rng = np.random.default_rng(33)
    samples = box_samples()
    ring = init_history("zero", 4, samples.count)
    big = 1e300 * random_traces(rng, samples)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ring.advance(random_traces(rng, samples))
        ring.advance(big)
        energy = ring.s_energy()
    assert np.all(np.isinf(energy[np.any(big != 0, axis=1)]))
    assert np.all(np.isinf(midpoint_s_energy(ring)) == np.isinf(energy))


# -- cached slot energies ------------------------------------------------------

def assert_slot_norms_match(ring):
    for j in range(ring.N + 1):
        z = ring.slot(j)
        assert np.array_equal(ring.slot_norm2(j), np.einsum("si,si->s", z, z))


def test_slot_norms_after_fill_constant_replay_and_csv(tmp_path):
    rng = np.random.default_rng(51)
    samples = box_samples()
    n_slots = 6
    assert_slot_norms_match(init_history("zero", n_slots, samples.count))
    assert_slot_norms_match(filled(n_slots, samples.count, random_traces(rng, samples)))
    assert_slot_norms_match(
        init_history("replay", n_slots, samples.count, initial_trace=random_traces(rng, samples))
    )
    vals = random_traces(rng, samples, (n_slots + 1,))
    path = tmp_path / "history.csv"
    path.write_text("\n".join(history_lines(samples, vals)) + "\n")
    ring = load_history_csv(path, n_slots, samples)
    assert_slot_norms_match(ring)
    ring.advance(random_traces(rng, samples))
    ring.fill(random_traces(rng, samples))
    assert_slot_norms_match(ring)


@pytest.mark.parametrize("n_slots", [1, 5])
def test_slot_norms_track_pushes_across_wraps(n_slots):
    rng = np.random.default_rng(52 + n_slots)
    samples = box_samples()
    ring = init_history("replay", n_slots, samples.count, initial_trace=random_traces(rng, samples))
    for _ in range(2 * (n_slots + 1) + 3):
        ring.advance(random_traces(rng, samples))
        assert_slot_norms_match(ring)


def test_slot_norm_overflow_is_inf_without_warning():
    rng = np.random.default_rng(53)
    samples = box_samples()
    ring = init_history("zero", 4, samples.count)
    big = 1e300 * random_traces(rng, samples)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ring.advance(big)
        norms = ring.slot_norm2(0)
    assert np.all(np.isinf(norms[np.any(big != 0, axis=1)]))


def test_history_csv_keeps_the_last_row_of_each_slot(tmp_path):
    # a multi-step dump lists every slot once per step; the final step wins
    normals = NORMALS
    lines = ["step,sample_id,s_index,vx,vy,vz"]
    for step in range(3):
        for sid in range(3):
            for j in range(3):
                v = tangential([step + 1.0, sid + 2.0, j + 3.0], normals[sid])
                lines.append(f"{step},{sid},{j},{v[0]:.17g},{v[1]:.17g},{v[2]:.17g}")
    path = tmp_path / "dump.csv"
    path.write_text("\n".join(lines) + "\n")
    ring = load_history_csv(path, 2, SAMPLES)
    for sid in range(3):
        for j in range(3):
            # the ring holds E, the components of nu x Z on the tangent axes
            z = tangential([3.0, sid + 2.0, j + 3.0], normals[sid])
            expect = np.cross(normals[sid], z)[SAMPLES.tangents[sid]]
            assert np.array_equal(ring.slot(j)[sid], expect)


def test_history_csv_drops_a_round_off_normal_component(tmp_path):
    path = tmp_path / "dump.csv"
    comps = np.array([[[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]] * 2)
    lines = history_lines(SAMPLES, comps)
    z = SAMPLES.cross.cross_nu(comps[0])[0]
    lines[1] = f"0,0,0,{z[0]:.17g},{z[1]:.17g},1e-14"  # sample 0 has normal +z
    path.write_text("\n".join(lines) + "\n")
    ring = load_history_csv(path, 1, SAMPLES)
    assert np.array_equal(ring.slots(), comps)


@pytest.mark.parametrize("row", ["0,3,0,0,0,0", "0,0,5,0,0,0", "0,-1,0,0,0,0"])
def test_history_csv_rejects_out_of_range_slots(tmp_path, row):
    path = tmp_path / "bad.csv"
    path.write_text("step,sample_id,s_index,vx,vy,vz\n0,0,0,0,0,0\n" + row + "\n")
    with pytest.raises(ConfigError, match="out of range"):
        load_history_csv(path, 4, SAMPLES)


@pytest.mark.parametrize("row", ["0,0.5,0,0,0,0", "0,0,1.9,0,0,0", "0,nan,0,0,0,0", "0,0,inf,0,0,0"])
def test_history_csv_rejects_indices_that_are_not_integers(tmp_path, row):
    path = tmp_path / "bad.csv"
    path.write_text("step,sample_id,s_index,vx,vy,vz\n0,0,0,0,0,0\n" + row + "\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConfigError, match="data row 2 names sample and slot"):
            load_history_csv(path, 4, SAMPLES)


def test_history_csv_rejects_the_dump_of_a_shorter_delay_line(tmp_path):
    # slots 3 and 4 have no row; they must not start as zeros
    path = tmp_path / "short.csv"
    path.write_text("\n".join(history_lines(SAMPLES, np.ones((3, 3, 2)))) + "\n")
    with pytest.raises(ConfigError, match="no row for sample 0, slot 3$"):
        load_history_csv(path, 4, SAMPLES)
