import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from delayfdtd.analysis import EnergyTrace
from delayfdtd.cli import main

BASE = """
[domain]
Lx = 1.0
Ly = 1.0
Lz = 1.0
nx = 8
ny = 8
nz = 8

[feedback]
kind = linear
a = 1.0
gamma1 = 1.0
gamma2 = 0.5
tau = 0.25

[initial]
preset = gaussian_pulse
width = 0.15

[run]
t_end = 2.0
cfl_safety = 0.5
"""


def write_cfg(tmp_path, text, name="run.cfg", outdir=None):
    outdir = outdir or tmp_path / "out"
    full = text + f"\n[output]\ndir = {outdir}\n"
    path = tmp_path / name
    path.write_text(full)
    return path, outdir


def test_check_exit_zero(tmp_path, capsys):
    path, outdir = write_cfg(tmp_path, BASE)
    assert main(["check", str(path)]) == 0
    report = (outdir / "material_report.txt").read_text()
    assert "alpha = 1" in report
    assert "d1 = " in report
    assert "beta = 0.5" in report
    assert "box" in report  # geometry note


def test_check_exit_three_on_bad_materials(tmp_path):
    text = BASE + "\n[materials]\neps_kind = exponential_isotropic\neps_k = -10\n"
    path, _ = write_cfg(tmp_path, text)
    assert main(["check", str(path)]) == 3


def test_run_outputs_and_schema(tmp_path):
    path, outdir = write_cfg(tmp_path, BASE)
    assert main(["run", str(path)]) == 0
    csv = (outdir / "energy.csv").read_text()
    assert csv.splitlines()[0] == "t,E_weighted,E_plain,E_xi,D,flux"
    assert "\r" not in csv
    trace = EnergyTrace.from_csv(csv)
    assert trace.E_xi[-1] < trace.E_xi[0]
    resolved = (outdir / "resolved.cfg").read_text()
    assert "cfl_safety = 0.5" in resolved
    summary = (outdir / "summary.txt").read_text()
    assert "two_sided_dissipation = pass" in summary


def test_run_hypothesis_gate_exit_three(tmp_path, capsys):
    text = BASE.replace("gamma2 = 0.5", "gamma2 = 1.5")
    path, _ = write_cfg(tmp_path, text)
    assert main(["run", str(path)]) == 3
    err = capsys.readouterr().err
    assert "gamma1*c1 > gamma2*c2" in err


def test_run_explicit_xi_no_certificate(tmp_path):
    text = BASE.replace("gamma2 = 0.5", "gamma2 = 1.5") + "\n[analysis]\nxi = 0.5\n"
    path, outdir = write_cfg(tmp_path, text)
    assert main(["run", str(path)]) == 0
    summary = (outdir / "summary.txt").read_text()
    assert "certificate = none" in summary


def test_run_bad_config_exit_two(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("[run]\nt_end = 1.0\n")
    assert main(["run", str(path)]) == 2
    assert main(["run", str(tmp_path / "missing.cfg")]) == 2


def test_run_assert_flag_certificate_failure(tmp_path):
    # a run too short for the certificate chain is not a failure...
    path, outdir = write_cfg(tmp_path, BASE.replace("t_end = 2.0", "t_end = 0.5"))
    assert main(["run", str(path), "--assert"]) == 0


def test_analyze_roundtrip(tmp_path):
    path, outdir = write_cfg(tmp_path, BASE)
    assert main(["run", str(path)]) == 0
    assert main(["analyze", str(path), str(outdir / "energy.csv")]) == 0
    cert = (outdir / "certificates.txt").read_text()
    assert "two_sided_dissipation = pass" in cert
    assert "dissipation_residual" in cert


def test_sweep_summary(tmp_path):
    text = BASE.replace("t_end = 2.0", "t_end = 1.0")
    path, outdir = write_cfg(tmp_path, text)
    assert (
        main(["sweep", str(path), "--param", "feedback.gamma2", "--values", "0,0.5"]) == 0
    )
    summary = (outdir / "sweep_summary.csv").read_text()
    lines = summary.strip().splitlines()
    assert lines[0] == "value,lambda_hat,r2,classification"
    assert len(lines) == 3
    assert (outdir / "gamma2_0" / "energy.csv").exists()
    assert (outdir / "gamma2_0.5" / "energy.csv").exists()


def test_sweep_determinism(tmp_path):
    text = BASE.replace("t_end = 2.0", "t_end = 1.0")
    path, outdir = write_cfg(tmp_path, text)
    main(["sweep", str(path), "--param", "feedback.gamma2", "--values", "0,0.25"])
    first = (outdir / "sweep_summary.csv").read_bytes()
    csv_first = (outdir / "gamma2_0.25" / "energy.csv").read_bytes()
    main(["sweep", str(path), "--param", "feedback.gamma2", "--values", "0,0.25"])
    assert (outdir / "sweep_summary.csv").read_bytes() == first
    assert (outdir / "gamma2_0.25" / "energy.csv").read_bytes() == csv_first


def test_sweep_bad_param(tmp_path):
    path, _ = write_cfg(tmp_path, BASE)
    assert main(["sweep", str(path), "--param", "feedback.kind", "--values", "1"]) == 2


def test_operator_subcommand(tmp_path):
    path, outdir = write_cfg(tmp_path, BASE)
    assert main(["operator", str(path), "--pairs", "10", "--m", "8"]) == 0
    report = (outdir / "monotonicity_report.txt").read_text()
    assert "min_normalized_pairing" in report
    assert (outdir / "pairings.csv").exists()


def test_resolvent_subcommand(tmp_path):
    path, outdir = write_cfg(tmp_path, BASE)
    assert main(["resolvent", str(path), "--b", "2.0", "--m", "8"]) == 0
    report = (outdir / "resolvent_report.txt").read_text()
    assert "residual" in report


def test_boundary_dump(tmp_path):
    text = BASE.replace("t_end = 2.0", "t_end = 0.2")
    path, outdir = write_cfg(tmp_path, text)
    assert main(["run", str(path), "--dump-boundary"]) == 0
    dump = (outdir / "boundary_trace.csv").read_text()
    assert dump.splitlines()[0] == "step,sample_id,s_index,vx,vy,vz"


def test_sweep_gamma2_family_with_violating_row(tmp_path):
    # rows below the hypothesis boundary decay with certificates available;
    # the violating row still runs (explicit fallback weight) and reports an
    # observed classification with no certificate
    text = BASE.replace("t_end = 2.0", "t_end = 6.0").replace("gamma2 = 0.5", "gamma2 = 0.0")
    path, outdir = write_cfg(tmp_path, text)
    code = main(
        ["sweep", str(path), "--param", "feedback.gamma2", "--values", "0,0.5,0.9,1.1"]
    )
    assert code == 0
    rows = (outdir / "sweep_summary.csv").read_text().strip().splitlines()[1:]
    table = {float(r.split(",")[0]): r.split(",") for r in rows}
    for v in (0.0, 0.5, 0.9):
        assert table[v][3] == "decaying"
        assert float(table[v][1]) > 0
    assert table[1.1][3] in ("decaying", "non-decaying", "unstable")
    summary = (outdir / "gamma2_1.1" / "summary.txt").read_text()
    assert "certificate = none" in summary


def test_history_file_roundtrip(tmp_path):
    # a dumped boundary trace can seed the history of a new run
    import numpy as np
    from delayfdtd.delay import load_history_csv
    from delayfdtd.domain import BoxDomain, build_grid

    grid = build_grid(BoxDomain((1, 1, 1), (4, 4, 4), (0.5, 0.5, 0.5)))
    s = grid.samples
    rng = np.random.default_rng(0)
    n_slots = 3
    vals = rng.standard_normal((n_slots + 1, s.count, 3))
    vals -= np.einsum("jsi,si->js", vals, s.normals)[..., None] * s.normals
    lines = ["step,sample_id,s_index,vx,vy,vz"]
    for j in range(n_slots + 1):
        for sid in range(s.count):
            v = vals[j, sid]
            lines.append(f"0,{sid},{j},{v[0]:.17g},{v[1]:.17g},{v[2]:.17g}")
    path = tmp_path / "history.csv"
    path.write_text("\n".join(lines) + "\n")
    ring = load_history_csv(path, n_slots, s.normals)
    assert np.allclose(ring.slots(), vals, atol=1e-15)


def test_sweep_parallel_jobs(tmp_path):
    text = BASE.replace("t_end = 2.0", "t_end = 0.5")
    path, outdir = write_cfg(tmp_path, text)
    code = main(
        ["sweep", str(path), "--param", "feedback.gamma2", "--values", "0,0.25", "--jobs", "2"]
    )
    assert code == 0
    rows = (outdir / "sweep_summary.csv").read_text().strip().splitlines()
    assert len(rows) == 3


def test_analyze_assert_exit_five(tmp_path):
    # a trace that grows with no damping violates the two-sided bound
    path, outdir = write_cfg(tmp_path, BASE)
    t = np.linspace(0.0, 10.0, 50)
    rows = ["t,E_weighted,E_plain,E_xi,D,flux"]
    for ti in t:
        e = 1.0 + ti
        rows.append(f"{ti:.17g},{e:.17g},{e:.17g},{e:.17g},0,0")
    csv = tmp_path / "grow.csv"
    csv.write_text("\n".join(rows) + "\n")
    assert main(["analyze", str(path), str(csv)]) == 0  # report-only by default
    assert main(["analyze", str(path), str(csv), "--assert"]) == 5


def test_run_zero_t_end_single_record(tmp_path):
    path, outdir = write_cfg(tmp_path, BASE.replace("t_end = 2.0", "t_end = 0"))
    assert main(["run", str(path)]) == 0
    trace = EnergyTrace.from_csv((outdir / "energy.csv").read_text())
    assert len(trace.t) == 1
    summary = (outdir / "summary.txt").read_text()
    for key in ("two_sided_dissipation", "observability", "certificate"):
        assert f"{key} = not applicable (need at least two records)" in summary


def test_cli_import_leaves_scipy_stats_unloaded():
    # scipy.stats costs most of a fresh process's import time; only table
    # laws need it
    code = "import sys, delayfdtd.cli; print('scipy.stats' in sys.modules)"
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True,
        timeout=120,
    )
    assert out.stdout.strip() == "False"


def test_analyze_single_record_trace(tmp_path):
    path, outdir = write_cfg(tmp_path, BASE.replace("t_end = 2.0", "t_end = 0"))
    assert main(["run", str(path)]) == 0
    assert main(["analyze", str(path), str(outdir / "energy.csv")]) == 0
    cert = (outdir / "certificates.txt").read_text()
    for key in ("two_sided_dissipation", "observability", "certificate", "dissipation_residual"):
        assert f"{key} = not applicable (need at least two records)" in cert


def test_energy_csv_independent_of_blas_threads(tmp_path):
    # n = 16: at n = 8 the vectors are too short for OpenBLAS to split a dot
    # product across threads, so only a larger grid exposes a BLAS reduction
    text = (
        BASE.replace("= 8", "= 16")
        .replace("kind = linear", "kind = saturating\nb = 1.0")
        .replace("gamma2 = 0.5", "gamma2 = 0.25")
        .replace("t_end = 2.0", "t_end = 0.1")
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    outputs = []
    for threads in ("1", "2"):
        path, outdir = write_cfg(tmp_path, text, name=f"run{threads}.cfg", outdir=tmp_path / f"out{threads}")
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
        subprocess.run(
            [sys.executable, "-m", "delayfdtd.cli", "run", str(path)],
            env=env, capture_output=True, check=True, timeout=300,
        )
        outputs.append((outdir / "energy.csv").read_bytes())
    assert outputs[0] == outputs[1]
