import contextlib
import gc
import io
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from delayfdtd import cli
from delayfdtd.analysis import EnergyTrace
from delayfdtd.cli import main
from delayfdtd.config import parse_config

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


def test_material_report_names_cells_as_plain_integers(tmp_path):
    path, outdir = write_cfg(tmp_path, BASE)
    assert main(["check", str(path)]) == 0
    report = (outdir / "material_report.txt").read_text()
    assert "max |A - A^T| = 0.000e+00 at cell (0, 0, 0))\n" in report
    assert "worst cell (0, 0, 0) of eps)\n" in report
    assert "np." not in report


@pytest.mark.parametrize("out", ["afile", "afile/sub"], ids=["file", "below_a_file"])
def test_out_that_cannot_be_a_directory_exits_two(tmp_path, capsys, out):
    path, _ = write_cfg(tmp_path, BASE)
    (tmp_path / "afile").write_text("")
    assert main(["check", str(path), "--out", str(tmp_path / out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"configuration error: cannot create output directory {tmp_path / out}: ")


@pytest.mark.parametrize(
    "command, extra",
    [("check", []), ("analyze", ["energy.csv"]), ("operator", ["--pairs", "1"]), ("resolvent", [])],
    ids=["check", "analyze", "operator", "resolvent"],
)
def test_bad_out_exits_two_before_any_work(tmp_path, capsys, monkeypatch, command, extra):
    from delayfdtd import operator_lab, solver

    def work_started(*args, **kwargs):
        raise RuntimeError("work started before the output directory was checked")

    monkeypatch.setattr(solver, "full_report", work_started)
    monkeypatch.setattr(operator_lab, "monotonicity_test", work_started)
    monkeypatch.setattr(operator_lab, "resolvent_solve", work_started)
    path, _ = write_cfg(tmp_path, BASE)
    (tmp_path / "afile").write_text("")
    (tmp_path / "energy.csv").write_text("t,E_weighted,E_plain,E_xi,D,flux\n0,1,1,1,0,0\n0.1,1,1,1,0,0\n")
    args = [str(tmp_path / a) if a == "energy.csv" else a for a in extra]
    assert main([command, str(path), *args, "--out", str(tmp_path / "afile" / "sub")]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("configuration error: cannot create output directory ")


def test_check_exit_three_on_bad_materials(tmp_path):
    text = BASE + "\n[materials]\neps_kind = exponential_isotropic\neps_k = -10\n"
    path, _ = write_cfg(tmp_path, text)
    assert main(["check", str(path)]) == 3


@pytest.mark.parametrize(
    "command, extra", [("check", []), ("analyze", ["energy.csv"])], ids=["check", "analyze"]
)
def test_decay_hypothesis_failure_names_the_failed_check(tmp_path, capsys, command, extra):
    # eps = exp(-10 x) is positive definite, but its growth bound d1 is negative
    text = BASE + "\n[materials]\neps_kind = exponential_isotropic\neps_k = -10\n"
    path, _ = write_cfg(tmp_path, text)
    (tmp_path / "energy.csv").write_text("t,E_weighted,E_plain,E_xi,D,flux\n0,1,1,1,0,0\n0.1,1,1,1,0,0\n")
    args = [str(tmp_path / a) for a in extra]
    assert main([command, str(path), *args]) == 3
    err = capsys.readouterr().err
    assert err == "assumption violated: material/geometry assumptions violated: growth_bound\n"


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


@pytest.mark.xfail(
    strict=True,
    reason=(
        "the time-centered closure fails the two-sided dissipation check inside the "
        "admissible region at high gain: gamma1 = 16, gamma2 = 4 on the 8^3 BASE "
        "physics gives two_sided_dissipation = FAIL (worst upper -5.9e-5 on the "
        "first record pairs), so run --assert exits 5"
    ),
)
def test_run_assert_passes_at_high_admissible_gain(tmp_path):
    # g1 c1 = 16 > g2 c2 = 4: the delay weight xi = 8 is admissible
    text = BASE.replace("gamma1 = 1.0", "gamma1 = 16.0").replace("gamma2 = 0.5", "gamma2 = 4.0")
    path, _ = write_cfg(tmp_path, text)
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


@pytest.mark.parametrize(
    "command, flag, value",
    [("operator", "--pairs", "0"), ("operator", "--pairs", "-3"), ("operator", "--m", "0"),
     ("resolvent", "--m", "0")],
)
def test_lab_counts_below_one_exit_two_and_name_the_argument(tmp_path, capsys, command, flag, value):
    path, outdir = write_cfg(tmp_path, BASE)
    assert main([command, str(path), flag, value]) == 2
    assert f"configuration error: {flag} must be at least 1, got {value}" in capsys.readouterr().err
    assert not outdir.exists()


def _growing_trace_csv(path):
    """An energy trace that grows with no damping, in the columns analyze reads."""
    rows = ["t,E_weighted,E_plain,E_xi,D,flux"]
    for ti in np.linspace(0.0, 10.0, 50):
        e = 1.0 + ti
        rows.append(f"{ti:.17g},{e:.17g},{e:.17g},{e:.17g},0,0")
    path.write_text("\n".join(rows) + "\n")
    return path


@pytest.mark.parametrize(
    "command, flag, value, what",
    [("analyze", "--T", "inf", "finite"), ("analyze", "--T", "nan", "finite"),
     ("resolvent", "--b", "nan", "positive and finite"),
     ("resolvent", "--b", "inf", "positive and finite"),
     ("operator", "--seed", "-1", "non-negative"), ("resolvent", "--seed", "-1", "non-negative")],
)
def test_out_of_range_flags_exit_two_before_any_work(tmp_path, capsys, command, flag, value, what):
    path, outdir = write_cfg(tmp_path, BASE)
    extra = {"analyze": [str(_growing_trace_csv(tmp_path / "grow.csv"))], "operator": ["--pairs", "1"]}
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main([command, str(path), *extra.get(command, []), flag, value])
    out, err = capsys.readouterr()
    assert (code, out, caught) == (2, "", [])
    assert err == f"configuration error: {flag} must be {what}, got {value}\n"
    assert not outdir.exists()


# a 6^3 saturating lab config; [materials] is appended per test
LAB6 = BASE.replace("nx = 8\nny = 8\nnz = 8", "nx = 6\nny = 6\nnz = 6").replace(
    "kind = linear\na = 1.0\ngamma1 = 1.0\ngamma2 = 0.5",
    "kind = saturating\na = 1.0\nb = 1.0\ngamma1 = 1.0\ngamma2 = 0.25",
)


@pytest.mark.parametrize(
    "command, extra", [("operator", ["--pairs", "2"]), ("resolvent", [])], ids=["operator", "resolvent"]
)
def test_lab_rejects_materials_that_are_not_positive_definite(tmp_path, capsys, command, extra):
    path, outdir = write_cfg(tmp_path, LAB6 + "\n[materials]\neps_value = -1.0\n")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main([command, str(path), *extra])
    out, err = capsys.readouterr()
    assert (code, out, caught) == (3, "", [])
    assert err == "assumption violated: material assumptions violated: positive_definite\n"
    assert not (outdir / "monotonicity_report.txt").exists()
    assert not (outdir / "resolvent_report.txt").exists()


def test_lab_runs_where_only_the_decay_hypotheses_fail(tmp_path, capsys):
    # eps = exp(-10 x) is symmetric positive definite, but its growth bound d1 is
    # negative: `check` exits 3, and the lab, which needs no decay estimate, runs
    path, outdir = write_cfg(tmp_path, LAB6 + "\n[materials]\neps_kind = exponential_isotropic\neps_k = -10.0\n")
    assert main(["check", str(path)]) == 3
    assert "check.growth_bound = FAIL" in capsys.readouterr().out
    assert main(["operator", str(path), "--pairs", "2"]) == 0
    assert "passed = True" in (outdir / "monotonicity_report.txt").read_text()


def _count_calls(monkeypatch, name):
    """Every call of the builder `name`, under both names the commands could look up."""
    from delayfdtd import solver

    calls = []
    for module in (cli, solver):
        build = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *args, build=build: calls.append(args) or build(*args))
    solver._SETUP.clear()
    return calls


def test_lab_commands_in_one_process_share_one_set_up(tmp_path, monkeypatch):
    from delayfdtd import solver

    builds = _count_calls(monkeypatch, "build_operators")
    path, outdir = write_cfg(tmp_path, LAB6)
    commands = {
        "operator": (["--pairs", "2"], ("monotonicity_report.txt", "pairings.csv")),
        "resolvent": ([], ("resolvent_report.txt",)),
    }
    for name, (extra, _) in commands.items():
        assert main([name, str(path), *extra]) == 0
    assert len(builds) == 1
    for name, (extra, files) in commands.items():
        solver._SETUP.clear()
        cold = tmp_path / "cold" / name
        assert main([name, str(path), *extra, "--out", str(cold)]) == 0
        for fname in files:
            assert (cold / fname).read_bytes() == (outdir / fname).read_bytes(), fname


def test_check_then_run_build_one_material_report(tmp_path, monkeypatch):
    reports = _count_calls(monkeypatch, "full_report")
    path, outdir = write_cfg(tmp_path, BASE.replace("t_end = 2.0", "t_end = 0.1"))
    assert main(["check", str(path)]) == 0
    assert main(["run", str(path)]) == 0
    assert len(reports) == 1


@pytest.mark.parametrize(
    "command, text, message",
    [
        ("run", "preset = bogus", "preset must be off, gaussian_pulse or file, got 'bogus'"),
        ("check", "preset = bogus", "preset must be off, gaussian_pulse or file, got 'bogus'"),
        ("operator", "preset = bogus", "preset must be off, gaussian_pulse or file, got 'bogus'"),
        ("run", "preset = gaussian_pulse\npolarization = 0 0 0", "polarization must be a nonzero vector"),
        ("run", "[materials]\neps_kind = bogus", "eps_kind must be one of constant_isotropic, "),
        ("check", "[materials]\nmu_kind = bogus", "mu_kind must be one of constant_isotropic, "),
    ],
    ids=["preset_run", "preset_check", "preset_operator", "polarization", "eps_kind", "mu_kind"],
)
def test_unknown_kind_exits_two_before_the_set_up(tmp_path, capsys, monkeypatch, command, text, message):
    from delayfdtd import solver

    def set_up_started(*args, **kwargs):
        raise RuntimeError("the set-up started before the scenario was checked")

    monkeypatch.setattr(solver, "build_grid", set_up_started)
    body = BASE.replace("preset = gaussian_pulse", text) if text.startswith("preset") else BASE + "\n" + text + "\n"
    path, outdir = write_cfg(tmp_path, body)
    assert main([command, str(path)]) == 2
    assert capsys.readouterr().err.startswith("configuration error: " + message)
    assert not list(outdir.glob("*"))


def test_lab_commands_take_one_delay_cell(tmp_path):
    path, outdir = write_cfg(tmp_path, BASE)
    assert main(["operator", str(path), "--pairs", "1", "--m", "1"]) == 0
    assert main(["resolvent", str(path), "--b", "2.0", "--m", "1"]) == 0
    assert "pairs = 1" in (outdir / "monotonicity_report.txt").read_text()
    assert "outer_iterations = " in (outdir / "resolvent_report.txt").read_text()


def test_resolvent_report_counts_every_core_cg_iteration(tmp_path, monkeypatch):
    from delayfdtd import operator_lab

    solve = operator_lab.CoreCG.solve
    counts = []

    def counted(self, *args, **kwargs):
        x, it = solve(self, *args, **kwargs)
        counts.append(it)
        return x, it

    monkeypatch.setattr(operator_lab.CoreCG, "solve", counted)
    text = BASE.replace("kind = linear", "kind = saturating\nb = 1.0")
    path, outdir = write_cfg(tmp_path, text)
    assert main(["resolvent", str(path), "--b", "2.0", "--m", "8"]) == 0
    lines = (outdir / "resolvent_report.txt").read_text().splitlines()
    assert [line.split(" = ")[0] for line in lines] == [
        "residual", "outer_iterations", "penalty", "residual_E", "residual_H",
        "residual_Z_transport", "residual_Z_slot0", "residual_div", "core_cg_iterations",
    ]
    assert len(counts) > 2
    assert lines[-1] == f"core_cg_iterations = {sum(counts)}"


def test_resolvent_core_that_does_not_converge_exits_four(tmp_path, monkeypatch, capsys):
    from delayfdtd import operator_lab

    monkeypatch.setattr(operator_lab, "CORE_CG_MAX_ITER", 1)
    path, outdir = write_cfg(tmp_path, BASE)
    assert main(["resolvent", str(path), "--b", "2.0", "--m", "8"]) == 4
    assert "resolvent core did not converge in 1 iterations (residual " in capsys.readouterr().err
    assert not (outdir / "resolvent_report.txt").exists()


def test_resolvent_loads_no_dense_or_sparse_linear_algebra(tmp_path):
    # the core is solved by CG on its sparse matrix: nothing factors it
    path, _ = write_cfg(tmp_path, BASE)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    code = (
        "import sys; from delayfdtd.cli import main\n"
        "assert main(['resolvent', sys.argv[1], '--b', '2.0', '--m', '8']) == 0\n"
        "print(sorted(m for m in ('scipy.linalg', 'scipy.sparse.csgraph', 'scipy.sparse.linalg')"
        " if m in sys.modules))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code, str(path)],
        env=env, capture_output=True, text=True, check=True, timeout=120,
    )
    assert out.stdout.strip().splitlines()[-1] == "[]"


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
    ring = load_history_csv(path, n_slots, s)
    assert np.allclose(s.cross.cross_nu(ring.slots()), vals, atol=1e-15)


@pytest.mark.parametrize(
    "param, value, message",
    [
        ("feedback.gamma2", "nan", "non-finite number"),
        ("domain.nx", "6.5", "expected an integer"),
        ("run.record_every", "2.0", "expected an integer"),
    ],
)
def test_sweep_value_its_key_rejects_exits_two(tmp_path, capsys, param, value, message):
    path, outdir = write_cfg(tmp_path, BASE)
    assert main(["sweep", str(path), "--param", param, "--values", f"1,{value}"]) == 2
    err = capsys.readouterr().err
    assert param in err and message in err
    assert not outdir.exists()  # no row runs before every value parses


def test_integer_sweep_row_reruns_to_the_same_bytes(tmp_path):
    text = BASE.replace("t_end = 2.0", "t_end = 0.5")
    path, outdir = write_cfg(tmp_path, text)
    assert main(["sweep", str(path), "--param", "run.record_every", "--values", "2"]) == 0
    row = outdir / "record_every_2"
    assert "record_every = 2\n" in (row / "resolved.cfg").read_text()
    rerun = tmp_path / "rerun"
    assert main(["run", str(row / "resolved.cfg"), "--out", str(rerun)]) == 0
    assert (rerun / "energy.csv").read_bytes() == (row / "energy.csv").read_bytes()


def test_gain_sweep_builds_one_set_up_and_each_row_matches_a_cold_run(tmp_path, monkeypatch):
    from delayfdtd import solver

    builds = []
    build = solver.build_operators
    monkeypatch.setattr(solver, "build_operators", lambda *args: builds.append(args) or build(*args))
    path, outdir = write_cfg(tmp_path, BASE.replace("t_end = 2.0", "t_end = 0.5"))
    solver._SETUP.clear()
    assert main(["sweep", str(path), "--param", "feedback.gamma1", "--values", "0.8,1,1.5"]) == 0
    assert len(builds) == 1
    for name in ("gamma1_0.8", "gamma1_1", "gamma1_1.5"):
        solver._SETUP.clear()
        row, cold = outdir / name, tmp_path / "cold" / name
        assert main(["run", str(row / "resolved.cfg"), "--out", str(cold)]) == 0
        for fname in ("energy.csv", "summary.txt"):
            assert (cold / fname).read_bytes() == (row / fname).read_bytes()
    assert len(builds) == 4


def test_tau_sweep_builds_one_set_up_and_each_row_matches_a_cold_run(tmp_path, monkeypatch):
    # each row computes its own dt and delay slots; the set-up holds neither
    from delayfdtd import solver

    builds = []
    build = solver.build_operators
    monkeypatch.setattr(solver, "build_operators", lambda *args: builds.append(args) or build(*args))
    path, outdir = write_cfg(tmp_path, BASE.replace("t_end = 2.0", "t_end = 0.5"))
    solver._SETUP.clear()
    assert main(["sweep", str(path), "--param", "feedback.tau", "--values", "0.25,0.3"]) == 0
    assert len(builds) == 1
    for name in ("tau_0.25", "tau_0.3"):
        solver._SETUP.clear()
        row, cold = outdir / name, tmp_path / "cold" / name
        assert main(["run", str(row / "resolved.cfg"), "--out", str(cold)]) == 0
        assert (cold / "energy.csv").read_bytes() == (row / "energy.csv").read_bytes()


def test_sweep_row_with_explicit_xi_matches_run(tmp_path):
    # the row keeps the configured xi = 0.3; the midpoint would be 0.5
    text = BASE.replace("t_end = 2.0", "t_end = 0.5") + "\n[analysis]\nxi = 0.3\n"
    path, outdir = write_cfg(tmp_path, text)
    assert main(["sweep", str(path), "--param", "feedback.gamma2", "--values", "0.5"]) == 0
    single = tmp_path / "single"
    assert main(["run", str(path), "--out", str(single)]) == 0
    row = outdir / "gamma2_0.5"
    for name in ("energy.csv", "summary.txt"):
        assert (row / name).read_bytes() == (single / name).read_bytes()


def test_sweep_over_xi_records_each_value(tmp_path):
    text = BASE.replace("t_end = 2.0", "t_end = 0.5")
    path, outdir = write_cfg(tmp_path, text)
    assert main(["sweep", str(path), "--param", "analysis.xi", "--values", "0.3,0.6"]) == 0
    for xi in (0.3, 0.6):
        resolved = (outdir / f"xi_{xi}" / "resolved.cfg").read_text()
        assert parse_config(resolved).get("analysis", "xi") == xi
        summary = (outdir / f"xi_{xi}" / "summary.txt").read_text()
        assert f"xi = {xi:.17g}\n" in summary


def test_sweep_values_that_share_a_row_directory_exit_two(tmp_path, capsys):
    # both values print as gamma2_0.1 to six digits
    path, outdir = write_cfg(tmp_path, BASE)
    argv = ["sweep", str(path), "--param", "feedback.gamma2", "--values", "0.1000001,0.1000002"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "0.1000001" in err and "0.1000002" in err and "gamma2_0.1" in err
    assert not outdir.exists()  # no row runs


# the linear law on a 6^3 box to t_end = 0.8: 20 steps
BOX6 = BASE.replace("nx = 8\nny = 8\nnz = 8", "nx = 6\nny = 6\nnz = 6").replace(
    "t_end = 2.0", "t_end = 0.8"
)


@pytest.mark.parametrize(
    "param, values, blocker",
    [
        ("feedback.gamma2", "0.25,-1", None),
        ("run.record_every", "1,0", None),
        ("feedback.gamma2", "0.25,0.5", "gamma2_0.5"),
    ],
    ids=["negative_gain", "zero_record_every", "row_directory_is_a_file"],
)
def test_sweep_checks_every_row_before_the_first_runs(tmp_path, capsys, param, values, blocker):
    path, outdir = write_cfg(tmp_path, BOX6)
    if blocker:
        outdir.mkdir()
        (outdir / blocker).write_text("")
    assert main(["sweep", str(path), "--param", param, "--values", values]) == 2
    assert capsys.readouterr().err.startswith("configuration error: ")
    assert not list(outdir.glob("*/energy.csv"))


def test_sweep_with_an_out_of_range_later_row_creates_no_row_directory(tmp_path, capsys):
    path, outdir = write_cfg(tmp_path, BOX6)
    assert main(["sweep", str(path), "--param", "feedback.tau", "--values", "0.25,0"]) == 2
    assert capsys.readouterr().err == "configuration error: delay tau must be positive\n"
    assert not list(outdir.iterdir())


# (key, the line that sets it in BASE, a valid value, an out-of-range value, its owner's message)
RANGE_RULES = [
    ("feedback.gamma1", "gamma1 = 1.0", "1", "-1", "gamma1 must be nonnegative (0 only for the conservative limit)"),
    ("feedback.gamma2", "gamma2 = 0.5", "0.5", "-1", "gamma2 must be nonnegative"),
    ("feedback.tau", "tau = 0.25", "0.25", "0", "delay tau must be positive"),
    ("run.t_end", "t_end = 2.0", "2", "-1", "t_end must be nonnegative"),
]


@pytest.mark.parametrize("key, line, good, bad, message", RANGE_RULES, ids=["gamma1", "gamma2", "tau", "t_end"])
@pytest.mark.parametrize("command", ["run", "check", "operator", "sweep"])
def test_range_rules_exit_two_before_the_set_up(tmp_path, capsys, monkeypatch, command, key, line, good, bad, message):
    from delayfdtd import solver

    def set_up_started(*args, **kwargs):
        raise RuntimeError("the set-up started before the scenario was checked")

    monkeypatch.setattr(solver, "build_grid", set_up_started)
    if command == "sweep":  # the bad value is the second row
        path, outdir = write_cfg(tmp_path, BASE)
        argv = ["sweep", str(path), "--param", key, "--values", f"{good},{bad}"]
    else:
        path, outdir = write_cfg(tmp_path, BASE.replace(line, f"{line.split(' = ')[0]} = {bad}"))
        argv = [command, str(path)]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"configuration error: {message}\n"
    assert not list(outdir.glob("**/energy.csv"))


def test_amplitude_whose_square_overflows_exits_two_before_the_set_up(tmp_path, capsys, monkeypatch):
    from delayfdtd import solver

    def set_up_started(*args, **kwargs):
        raise RuntimeError("the set-up started before the scenario was checked")

    monkeypatch.setattr(solver, "build_grid", set_up_started)
    path, outdir = write_cfg(tmp_path, BASE6.replace("width = 0.15", "width = 0.15\namplitude = 1e300"))
    for command in ("run", "check"):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main([command, str(path)])
        assert (code, caught) == (2, [])
        assert capsys.readouterr().err.startswith("configuration error: amplitude must have a finite square")
    monkeypatch.undo()
    # the largest decade whose square is finite still runs
    path.write_text(path.read_text().replace("amplitude = 1e300", "amplitude = 1e154"))
    assert main(["run", str(path)]) == 0


@pytest.mark.parametrize(
    "line, bad, message",
    [
        ("width = 0.15", "width = 1e300", "width must have a finite square for a gaussian_pulse start, got 1e+300"),
        ("Lx = 1.0", "Lx = 1e-300", "Lx = 1e-300 gives the cell spacing 1.66667e-301, whose square"),
        ("Lx = 1.0", "Lx = 1e300", "Lx = 1e+300 gives the cell spacing 1.66667e+299, whose square"),
    ],
    ids=["width", "Lx_tiny", "Lx_huge"],
)
def test_squares_beyond_the_float_range_exit_two_before_the_set_up(tmp_path, capsys, monkeypatch, line, bad, message):
    from delayfdtd import solver

    def set_up_started(*args, **kwargs):
        raise RuntimeError("the set-up started before the scenario was checked")

    monkeypatch.setattr(solver, "build_grid", set_up_started)
    path, outdir = write_cfg(tmp_path, BASE6.replace(line, bad))
    for command in ("run", "check"):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main([command, str(path)])
        assert (code, caught) == (2, [])
        assert capsys.readouterr().err.startswith(f"configuration error: {message}")
    assert not (outdir / "energy.csv").exists()


@pytest.mark.parametrize(
    "line, bad, stable_step",
    [("tau = 0.25", "tau = 1e-300", "0.0481125"), ("[run]", "[materials]\neps_value = 1e300\n\n[run]", "4.81125e+148")],
    ids=["tau", "eps_value"],
)
def test_a_delay_of_no_slot_exits_two_before_the_operators(tmp_path, capsys, monkeypatch, line, bad, stable_step):
    from delayfdtd import solver

    def assembled(*args, **kwargs):
        raise RuntimeError("the operators were built for a delay line of no slot")

    monkeypatch.setattr(solver, "build_operators", assembled)
    path, outdir = write_cfg(tmp_path, BASE6.replace(line, bad))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["run", str(path)])
    assert (code, caught) == (2, [])
    tau = "1e-300" if "tau" in bad else "0.25"
    assert capsys.readouterr().err == (
        f"configuration error: delay tau = {tau} rounds to 0 delay slots at the stable step {stable_step}: "
        "tau must exceed 1e-12 stable steps\n"
    )
    assert not (outdir / "energy.csv").exists()


RING_BOUND = (
    ", more than the 155343 that fit a delay ring of 216 boundary samples in 33554432 sample-slots: "
    "lower tau or raise cfl_safety\n"
)


@pytest.mark.parametrize(
    "line, bad, message",
    [
        (
            "tau = 0.25", "tau = 1e300",
            "delay tau = 1e+300 needs 2.07846e+301 delay slots at the stable step 0.0481125 (cfl_safety = 0.5)"
            + RING_BOUND,
        ),
        (
            "cfl_safety = 0.5", "cfl_safety = 1e-300",
            "delay tau = 0.25 needs 2.59808e+300 delay slots at the stable step 9.6225e-302 (cfl_safety = 1e-300)"
            + RING_BOUND,
        ),
        (
            "Lx = 1.0", "Lx = 1e-100",
            "delay tau = 0.25 needs 3e+100 delay slots at the stable step 8.33333e-102 (cfl_safety = 0.5)"
            + RING_BOUND,
        ),
        (
            "cfl_safety = 0.5", "cfl_safety = 1e-308",
            "delay tau = 0.25 needs inf delay slots at the stable step 9.6225e-310 (cfl_safety = 1e-308)"
            + RING_BOUND,
        ),
        (
            "Lx = 1.0\nLy = 1.0\nLz = 1.0", "Lx = 6e-154\nLy = 6e-154\nLz = 6e-154",
            "delay tau = 0.25 needs inf delay slots at the stable step 0 (cfl_safety = 0.5)" + RING_BOUND,
        ),
        (
            "t_end = 2.0", "t_end = 1e300",
            "t_end = 1e+300 needs 2.4e+301 steps of dt = 0.0416667, more than the 1e+08 steps a run may take: "
            "lower t_end\n",
        ),
    ],
    ids=["tau", "cfl_safety", "Lx", "slots_overflow", "stable_step_underflow", "t_end"],
)
def test_a_ring_or_step_count_beyond_its_bound_exits_two_before_the_operators(
    tmp_path, capsys, monkeypatch, line, bad, message
):
    from delayfdtd import solver

    def assembled(*args, **kwargs):
        raise RuntimeError("the operators were built for a run beyond its bounds")

    # an empty memo, so that the run reaches `build_operators` before any ring or step
    monkeypatch.setattr(solver, "_SETUP", {})
    monkeypatch.setattr(solver, "build_operators", assembled)
    path, outdir = write_cfg(tmp_path, BASE6.replace(line, bad))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["run", str(path)])
    assert (code, caught) == (2, [])
    assert capsys.readouterr().err == "configuration error: " + message
    assert not (outdir / "energy.csv").exists()


@pytest.mark.parametrize(
    "materials, param, values, code, message",
    [
        (
            "", "feedback.tau", "0.25,1e300", 2,
            "configuration error: delay tau = 1e+300 needs 2.07846e+301 delay slots at the stable step 0.0481125 "
            "(cfl_safety = 0.5)" + RING_BOUND,
        ),
        (
            "\n[materials]\neps_kind = exponential_isotropic\neps_k = 1\n", "materials.eps_k", "1,-10", 3,
            "assumption violated: material/geometry assumptions violated: growth_bound\n",
        ),
    ],
    ids=["ring_bound", "growth_bound"],
)
def test_sweep_checks_every_row_against_the_materials_before_any_row_directory(
    tmp_path, capsys, materials, param, values, code, message
):
    path, outdir = write_cfg(tmp_path, BOX6 + materials)
    assert main(["sweep", str(path), "--param", param, "--values", values]) == code
    assert capsys.readouterr().err == message
    assert not list(outdir.iterdir())


FULL_EPS = "\n[materials]\neps_kind = constant_full\neps_upper = 2 1.5 1.8 0.2 0.1 0.15\n"


def _no_operators(monkeypatch):
    """Make any operator assembly fail, so that a test shows its refusal comes before it."""
    from delayfdtd import solver

    def assembled(*args, **kwargs):
        raise AssertionError("the operators were built before the refusal")

    monkeypatch.setattr(solver, "_SETUP", {})
    monkeypatch.setattr(solver, "build_operators", assembled)


def test_a_full_tensor_sweep_with_a_projected_start_exits_two_before_any_row_directory(
    tmp_path, capsys, monkeypatch
):
    # BOX6 starts from a gaussian_pulse with the default project = true
    _no_operators(monkeypatch)
    path, outdir = write_cfg(tmp_path, BOX6 + FULL_EPS)
    assert main(["sweep", str(path), "--param", "feedback.gamma2", "--values", "0.25,0.5"]) == 2
    assert capsys.readouterr().err == "configuration error: divergence projection requires diagonal material tensors\n"
    assert not list(outdir.iterdir())


@pytest.mark.parametrize("command", ["operator", "resolvent"])
def test_the_lab_refuses_a_full_tensor_before_assembly(tmp_path, capsys, monkeypatch, command):
    _no_operators(monkeypatch)
    path, outdir = write_cfg(tmp_path, BOX6 + FULL_EPS)
    assert main([command, str(path)]) == 2
    assert capsys.readouterr().err == "configuration error: the operator lab requires diagonal material tensors\n"
    assert not list(outdir.iterdir())


# the README physics on a 6^3 box
README6 = BASE.replace("nx = 8\nny = 8\nnz = 8", "nx = 6\nny = 6\nnz = 6").replace(
    "width = 0.15", "width = 0.12"
).replace("t_end = 2.0", "t_end = 20.0")


def test_a_run_without_an_admissible_delay_weight_exits_three_before_assembly(tmp_path, capsys, monkeypatch):
    _no_operators(monkeypatch)
    path, outdir = write_cfg(tmp_path, README6.replace("gamma2 = 0.5", "gamma2 = 2.0"))
    assert main(["run", str(path)]) == 3
    assert "no admissible delay weight" in capsys.readouterr().err
    assert not (outdir / "energy.csv").exists()


def _run_quietly(path):
    """main(["run", path]) with every warning recorded: (exit code, stderr, warnings)."""
    err = io.StringIO()
    with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        code = main(["run", str(path)])
    return code, err.getvalue(), caught


def _verdicts(outdir):
    """The verdict word of each certificate check in summary.txt."""
    lines = (outdir / "summary.txt").read_text().splitlines()
    keys = ("classification", "two_sided_dissipation", "observability", "certificate")
    return {k: v.split(" (")[0] for k, _, v in (ln.partition(" = ") for ln in lines) if k in keys}


@pytest.mark.parametrize(
    "k, one_axis",
    [(k, None) for k in (-340, -330, -300, -250, 100, 257, 260, 300, 330)] + [(None, 6e-154), (None, 1e-153)],
    ids=[f"k={k}" for k in (-340, -330, -300, -250, 100, 257, 260, 300, 330)] + ["Lx=6e-154", "Lx=1e-153"],
)
def test_a_scaled_box_gives_the_scaled_trace_or_exits_two_naming_lx(tmp_path, capsys, k, one_axis):
    # lengths, width, tau and t_end times 2**k pose the same problem in other units: t scales by
    # 2**k, the energies by 2**(3k), D and flux by 2**(2k); a box whose sums the set-up cannot hold exits 2
    path, outdir = write_cfg(tmp_path, README6, name="unit.cfg", outdir=tmp_path / "unit")
    assert _run_quietly(path)[:2] == (0, "")
    unit = np.loadtxt(outdir / "energy.csv", delimiter=",", skiprows=1)
    if one_axis is None:
        s = 2.0**k
        scaled = {"Lx": s, "Ly": s, "Lz": s, "tau": 0.25 * s, "width": 0.12 * s, "t_end": 20.0 * s}
    else:
        scaled = {"Lx": one_axis, "tau": 1e-155, "t_end": 1e-154}
    text = README6
    for key, value in scaled.items():
        text = re.sub(f"^{key} = .*$", f"{key} = {value!r}", text, flags=re.M)
    path, outdir = write_cfg(tmp_path, text, name="scaled.cfg", outdir=tmp_path / "scaled")
    code, err, caught = _run_quietly(path)
    assert caught == [] and "unexpected" not in err
    if code == 2:
        assert err.startswith("configuration error: Lx = ")
        return
    assert (code, one_axis) == (0, None)
    trace = np.loadtxt(outdir / "energy.csv", delimiter=",", skiprows=1)
    assert np.array_equal(trace, unit * np.array([s, s**3, s**3, s**3, s**2, s**2]))
    want, got = _verdicts(tmp_path / "unit"), _verdicts(outdir)
    if got.get("observability") != want["observability"]:
        assert got["observability"] == "not applicable"
        assert "float range" in (outdir / "summary.txt").read_text()
        want = {key: want[key] for key in ("classification", "two_sided_dissipation")}
        got.pop("observability")
    assert got == want


def test_a_box_length_whose_node_couplings_leave_the_float_range_runs(tmp_path, capsys):
    # 1/d^2 is about 3.6e201 here, so the product of two node diagonals overflows unless rescaled
    text = BASE6.replace("Lx = 1.0", "Lx = 1e-100").replace("tau = 0.25", "tau = 1e-101")
    path, outdir = write_cfg(tmp_path, text.replace("t_end = 2.0", "t_end = 1e-100"))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["run", str(path)])
    assert (code, caught) == (0, [])
    assert capsys.readouterr().err == ""
    assert (outdir / "energy.csv").exists()


@pytest.mark.parametrize(
    "line, bad",
    [
        ("gamma1 = 1.0", "gamma1 = 1e300"),
        ("a = 1.0", "a = 1e300"),
        ("kind = linear\na = 1.0", "kind = saturating\na = 1e300\nb = 1.0"),
    ],
    ids=["gamma1", "a", "a_saturating"],
)
def test_observability_constants_beyond_the_float_range_read_not_applicable(tmp_path, capsys, line, bad):
    path, outdir = write_cfg(tmp_path, BASE6.replace(line, bad))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        codes = (main(["run", str(path)]), main(["analyze", str(path), str(outdir / "energy.csv")]))
    assert (codes, caught) == ((0, 0), [])
    capsys.readouterr()
    verdict = "observability = not applicable (observability constants leave the float range"
    for name in ("summary.txt", "certificates.txt"):
        lines = (outdir / name).read_text().splitlines()
        assert any(ln.startswith(verdict) for ln in lines), name
        assert not any(ln.startswith("certificate") for ln in lines), name


def test_polarization_of_extreme_magnitude_runs_as_its_direction(tmp_path):
    outputs = []
    for pol in ("1 0 0", "1e200 0 0", "1e-200 0 0"):
        text = BOX6.replace("width = 0.15", f"width = 0.15\npolarization = {pol}")
        path, outdir = write_cfg(tmp_path, text, outdir=tmp_path / pol.split()[0])
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["run", str(path)])
        assert (code, caught) == (0, [])
        outputs.append((outdir / "energy.csv").read_bytes())
    assert outputs[1] == outputs[0] and outputs[2] == outputs[0]


def test_sweep_short_trace_is_not_a_failure(tmp_path):
    # 20 steps end far below 4c, where the certificate does not apply
    path, outdir = write_cfg(tmp_path, BOX6)
    assert main(["sweep", str(path), "--param", "feedback.gamma2", "--values", "0.5"]) == 0
    summary = (outdir / "gamma2_0.5" / "summary.txt").read_text()
    assert "steps = 20\n" in summary
    assert "FAIL" not in summary
    assert "certificate = not applicable (trace too short" in summary


def test_analyze_assert_exit_five(tmp_path):
    # a trace that grows with no damping violates the two-sided bound
    path, outdir = write_cfg(tmp_path, BASE)
    csv = _growing_trace_csv(tmp_path / "grow.csv")
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
    # scipy.stats would cost most of a fresh process's import time, and
    # nothing needs it
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


@pytest.mark.parametrize("how", ["plain", "flag", "env"])
def test_debug_prints_traceback_of_unexpected_failure(capsys, monkeypatch, how):
    def boom(args):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "cmd_check", boom)
    monkeypatch.delenv("DELAYFDTD_DEBUG", raising=False)
    if how == "env":
        monkeypatch.setenv("DELAYFDTD_DEBUG", "1")
    argv = (["--debug"] if how == "flag" else []) + ["check", "run.cfg"]
    assert main(argv) == 4
    err = capsys.readouterr().err
    assert "numerical failure (unexpected): boom" in err
    assert ("Traceback (most recent call last)" in err) == (how != "plain")


@pytest.mark.parametrize(
    "body, message",
    [
        ("0,1,1,1,0,0\n0.1,1,1,1,0\n", "line 3"),  # ragged row
        ("0,1,1,1,0,0\n0.1,abc,1,1,0,0\n", "line 3"),  # non-numeric field
        (None, "cannot read energy CSV"),  # missing file
        ("0,1,1,1,0,0\n0.1,1,1,nan,0,0\n", "non-finite entries in energy column E_xi"),
        ("0,1,1,1,0,0\n0,1,1,1,0,0\n", "record times must be strictly increasing"),
        ("0,-1,1,1,0,0\n0.1,1,1,1,0,0\n", "negative entries in energy column E_weighted"),
    ],
    ids=["ragged", "non_numeric", "missing", "nan", "repeated_time", "negative_energy"],
)
def test_analyze_bad_energy_csv_exit_two(tmp_path, capsys, body, message):
    path, _ = write_cfg(tmp_path, BASE)
    csv = tmp_path / "energy.csv"
    if body is not None:
        csv.write_text("t,E_weighted,E_plain,E_xi,D,flux\n" + body)
    assert main(["analyze", str(path), str(csv)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error:") and message in err


def test_run_and_analyze_write_the_same_certificate_block(tmp_path):
    path, outdir = write_cfg(tmp_path, BASE)
    assert main(["run", str(path)]) == 0
    assert main(["analyze", str(path), str(outdir / "energy.csv")]) == 0

    def entries(name):
        lines = (outdir / name).read_text().splitlines()
        return dict(line.split(" = ", 1) for line in lines)

    summary, cert = entries("summary.txt"), entries("certificates.txt")
    for key in ("two_sided_worst_upper", "obs_c", "classification"):
        assert key in cert
    shared = summary.keys() & cert.keys()
    assert {"xi", "c1E", "observability_ratio", "certificate"} <= shared
    assert {key: cert[key] for key in shared} == {key: summary[key] for key in shared}


@pytest.mark.parametrize(
    "edit",
    [
        ("gamma1 = 1.0\ngamma2 = 0.5", "gamma1 = 0.0\ngamma2 = 0.0"),  # conservative control
        ("[run]", "[analysis]\nxi = 5.0\n\n[run]"),  # explicit xi outside (0.25, 0.75)
    ],
    ids=["conservative", "inadmissible_xi"],
)
def test_run_and_analyze_agree_without_a_certificate(tmp_path, edit):
    path, outdir = write_cfg(tmp_path, BASE.replace("t_end = 2.0", "t_end = 0.5").replace(*edit))
    assert main(["run", str(path)]) == 0
    assert main(["analyze", str(path), str(outdir / "energy.csv")]) == 0

    def entries(name):
        lines = (outdir / name).read_text().splitlines()
        return dict(line.split(" = ", 1) for line in lines)

    summary, cert = entries("summary.txt"), entries("certificates.txt")
    shared = summary.keys() & cert.keys()
    assert {"xi", "classification", "certificate"} <= shared
    assert cert["certificate"].startswith("none")
    assert {key: cert[key] for key in shared} == {key: summary[key] for key in shared}


@pytest.mark.parametrize(
    "key,extra",
    [
        ("boundary_mode", "boundary_mode = lagged\n"),  # BASE ends inside [run]
        ("weighting", "\n[analysis]\nweighting = plain\n"),
        ("value", "\n[history]\nvalue = 0 0 0\n"),
    ],
    ids=["boundary_mode", "weighting", "history_value"],
)
def test_deleted_config_keys_exit_two(tmp_path, capsys, key, extra):
    path, _ = write_cfg(tmp_path, BASE + extra)
    assert main(["run", str(path)]) == 2
    assert f"unknown key {key!r}" in capsys.readouterr().err


BASE6 = BASE.replace("nx = 8\nny = 8\nnz = 8", "nx = 6\nny = 6\nnz = 6")


@pytest.mark.parametrize(
    "text, message",
    [
        (BASE6 + "\n[materials]\neps_kind = diagonal_ramp\neps_entry = 5\n", "eps_entry must be 0, 1 or 2"),
        (BASE6 + "\n[materials]\nmu_kind = diagonal_ramp\nmu_entry = -1\n", "mu_entry must be 0, 1 or 2"),
        (BASE6.replace("width = 0.15", "width = 0.0"), "width must be positive for a gaussian_pulse start"),
        (BASE6.replace("width = 0.15", "width = 1e-200"), "width must be positive for a gaussian_pulse start"),
        (BASE6 + "\n[analysis]\nslack_dissipation = 0\n", "slack_dissipation must be positive, got 0.0"),
        (BASE6 + "\n[analysis]\nslack_observability = -1\n", "slack_observability must be positive, got -1.0"),
        (
            BASE6 + "\n[materials]\neps_kind = exponential_isotropic\neps_k = 1000\n",
            "tensor entry inf at cell (4, 0, 0) is not finite (eps_kind = exponential_isotropic)",
        ),
        (
            BASE6 + "\n[materials]\nmu_kind = exponential_isotropic\nmu_k = 1000\n",
            "tensor entry inf at cell (4, 0, 0) is not finite (mu_kind = exponential_isotropic)",
        ),
    ],
    ids=[
        "eps_entry", "mu_entry", "width", "width_underflow", "slack_dissipation", "slack_observability",
        "eps_k", "mu_k",
    ],
)
def test_out_of_range_run_inputs_exit_two_before_any_step(tmp_path, capsys, monkeypatch, text, message):
    from delayfdtd import solver

    def stepped(*args):
        raise AssertionError("a step ran")

    monkeypatch.setattr(solver.Stepper, "step", stepped)
    path, outdir = write_cfg(tmp_path, text)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["run", str(path)])
    assert (code, caught) == (2, [])
    assert capsys.readouterr().err.startswith(f"configuration error: {message}")
    assert not (outdir / "energy.csv").exists()


def test_analyze_window_before_second_record_exit_two(tmp_path, capsys):
    path, outdir = write_cfg(tmp_path, BASE.replace("t_end = 2.0", "t_end = 0.5"))
    assert main(["run", str(path)]) == 0
    capsys.readouterr()
    assert main(["analyze", str(path), str(outdir / "energy.csv"), "--T", "0"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: T = 0 lies outside the trace window [t_1, t_end]")
    t1 = EnergyTrace.from_csv((outdir / "energy.csv").read_text()).t[1]
    assert main(["analyze", str(path), str(outdir / "energy.csv"), "--T", repr(float(t1))]) == 0


def test_analyze_window_past_the_last_record_exit_two(tmp_path, capsys):
    # [0, T] past t_end is not covered by the trace: no verdict is given for it
    path, outdir = write_cfg(tmp_path, BASE.replace("t_end = 2.0", "t_end = 0.5"))
    assert main(["run", str(path)]) == 0
    capsys.readouterr()
    csv = str(outdir / "energy.csv")
    t_end = float(EnergyTrace.from_csv((outdir / "energy.csv").read_text()).t[-1])
    assert main(["analyze", str(path), csv, "--T", repr(2 * t_end)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"configuration error: T = {2 * t_end:.6g} lies outside the trace window [t_1, t_end]")
    assert main(["analyze", str(path), csv, "--T", repr(t_end)]) == 0


def test_one_step_run_leaves_sparse_linalg_unloaded(tmp_path):
    # the projection needs no sparse factor, so a run never imports SuperLU
    path, outdir = write_cfg(tmp_path, BASE.replace("t_end = 2.0", "t_end = 0.000001"))
    code = (
        "import sys; from delayfdtd.cli import main; "
        f"assert main(['run', {str(path)!r}]) == 0; "
        "print('scipy.sparse.linalg' in sys.modules)"
    )
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True,
        timeout=120,
    )
    assert out.stdout.strip().splitlines()[-1] == "False"
    assert "steps = 1" in (outdir / "summary.txt").read_text()


def test_boundary_dump_seeds_a_file_history(tmp_path):
    # the dump of a run, read back as a file history, is that run's final ring;
    # a run shorter than tau (t_end = 0.1) keeps never-pushed zero slots
    from delayfdtd.config import parse_config, scenario_from_config
    from delayfdtd.solver import run

    for t_end in ("0.3", "0.1"):
        text = BASE.replace("= 8", "= 4").replace("t_end = 2.0", f"t_end = {t_end}")
        path, outdir = write_cfg(tmp_path, text, outdir=tmp_path / f"out_{t_end}")
        assert main(["run", str(path), "--dump-boundary"]) == 0
        final = run(scenario_from_config(parse_config(path.read_text()))).ring.slots()

        dump = outdir / "boundary_trace.csv"
        seeded = text.replace(f"t_end = {t_end}", "t_end = 0") + f"\n[history]\nkind = file\nfile = {dump}\n"
        path2, _ = write_cfg(tmp_path, seeded, name="seeded.cfg", outdir=tmp_path / "out2")
        ring = run(scenario_from_config(parse_config(path2.read_text()))).ring
        assert np.array_equal(ring.slots(), final)


def test_resolvent_report_independent_of_blas_threads(tmp_path):
    # the CG solves of the resolvent core sum without BLAS, so one or two threads
    # give the same digits
    text = BASE.replace("kind = linear", "kind = saturating\nb = 1.0")
    src = str(Path(__file__).resolve().parents[1] / "src")
    reports = []
    for threads in ("1", "2"):
        path, outdir = write_cfg(tmp_path, text, name=f"t{threads}.cfg", outdir=tmp_path / f"out{threads}")
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
        subprocess.run(
            [sys.executable, "-c", "import sys; from delayfdtd.cli import main; sys.exit(main())",
             "resolvent", str(path), "--b", "2.0", "--m", "16", "--seed", "0"],
            env=env, capture_output=True, text=True, check=True, timeout=120,
        )
        reports.append((outdir / "resolvent_report.txt").read_bytes())
    assert b"outer_iterations = " in reports[0]
    assert reports[0] == reports[1]


def test_boundary_dump_holds_the_final_ring_once(tmp_path):
    # one row per (sample, slot) of the final ring, stamped with the final
    # step, and every value round-trips exactly
    from delayfdtd.config import parse_config, scenario_from_config
    from delayfdtd.solver import run

    text = BASE.replace("= 8", "= 4").replace("t_end = 2.0", "t_end = 0.3")
    path, outdir = write_cfg(tmp_path, text)
    assert main(["run", str(path), "--dump-boundary"]) == 0
    out = run(scenario_from_config(parse_config(path.read_text())))
    slots = out.ops.grid.samples.cross.cross_nu(out.ring.slots())
    lines = (outdir / "boundary_trace.csv").read_text().splitlines()
    assert lines[0] == "step,sample_id,s_index,vx,vy,vz"
    data = np.loadtxt(lines[1:], delimiter=",", ndmin=2)
    assert data.shape == ((out.n_slots + 1) * slots.shape[1], 6)
    assert out.state.step > 1
    assert np.all(data[:, 0] == out.state.step)
    sid, j = data[:, 1].astype(int), data[:, 2].astype(int)
    assert np.unique(sid * (out.n_slots + 1) + j).size == data.shape[0]
    assert np.array_equal(data[:, 3:], slots[j, sid])


@pytest.mark.parametrize(
    "gamma2, slack, two_sided",
    [("0.5", "1.0", "FAIL"), ("0", "1.5", "pass")],
)
def test_certificate_judges_with_the_configured_slacks(tmp_path, gamma2, slack, two_sided):
    # the contraction certificate re-checks the two-sided dissipation
    # hypothesis, so it must agree with the line printed at the same slack
    text = (
        BASE.replace("gamma2 = 0.5", f"gamma2 = {gamma2}").replace("t_end = 2.0", "t_end = 20.0")
        + f"\n[analysis]\nslack_dissipation = {slack}\n"
    )
    path, outdir = write_cfg(tmp_path, text)
    main(["run", str(path)])
    summary = (outdir / "summary.txt").read_text()
    assert f"two_sided_dissipation = {two_sided}\n" in summary
    assert "observability = pass\n" in summary
    assert f"certificate = {two_sided}\n" in summary


def test_pairings_csv_independent_of_blas_threads(tmp_path):
    # n = 16: long enough vectors for OpenBLAS to split a dot product
    text = BASE.replace("= 8", "= 16").replace("kind = linear", "kind = saturating\nb = 1.0")
    src = str(Path(__file__).resolve().parents[1] / "src")
    pairings = []
    for threads in ("1", "2"):
        path, outdir = write_cfg(tmp_path, text, name=f"t{threads}.cfg", outdir=tmp_path / f"out{threads}")
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
        subprocess.run(
            [sys.executable, "-c", "import sys; from delayfdtd.cli import main; sys.exit(main())",
             "operator", str(path), "--pairs", "4", "--m", "4", "--seed", "0"],
            env=env, capture_output=True, text=True, check=True, timeout=120,
        )
        pairings.append((outdir / "pairings.csv").read_bytes())
    assert pairings[0].count(b"\n") == 5
    assert pairings[0] == pairings[1]


def _table_cfg(table):
    return BASE.replace("kind = linear", f"kind = table\ntable_file = {table}")


def test_run_missing_table_file_exit_two(tmp_path, capsys):
    table = tmp_path / "nothere.txt"
    path, _ = write_cfg(tmp_path, _table_cfg(table))
    assert main(["run", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: cannot read feedback table") and str(table) in err


def test_run_unparsable_table_entry_names_its_line(tmp_path, capsys):
    table = tmp_path / "g.txt"
    table.write_text("# r g(r)\n0.0 0.0\nnp.float64(0.0) 1.0\n2.0 2.0\n")
    path, _ = write_cfg(tmp_path, _table_cfg(table))
    assert main(["run", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"configuration error: {table}:3:")


@pytest.mark.parametrize("line", ["2 inf", "1 nan"], ids=["inf", "nan"])
def test_run_non_finite_table_entry_names_its_line(tmp_path, capsys, line):
    # before the check, `2 inf` reached the delay-weight test (exit 3) and
    # `1 nan` the monotonicity constants, whose message names no file
    table = tmp_path / "g.txt"
    table.write_text(f"0 0\n{line}\n4 4\n")
    path, _ = write_cfg(tmp_path, _table_cfg(table))
    assert main(["run", str(path)]) == 2
    assert capsys.readouterr().err == f"configuration error: {table}:2: non-finite entry\n"


def test_run_missing_history_file_exit_two(tmp_path, capsys):
    history = tmp_path / "nothere.csv"
    path, _ = write_cfg(tmp_path, BASE + f"\n[history]\nkind = file\nfile = {history}\n")
    assert main(["run", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: cannot read history file") and str(history) in err


def test_constant_history_kind_exits_two(tmp_path, capsys):
    # a constant vector is tangential to all six walls only if it is zero
    path, _ = write_cfg(tmp_path, BASE + "\n[history]\nkind = constant\n")
    assert main(["run", str(path)]) == 2
    assert "configuration error: unknown history.kind 'constant'" in capsys.readouterr().err


@pytest.mark.parametrize(
    "row, message",
    [
        ("0,0,1,nan,0,0", "sample 0, slot 1 holds [nan, 0.0, 0.0]"),
        # inf passes the relative tangency test: inf > 1e-12 * inf is false
        ("0,0,1,inf,0,0", "sample 0, slot 1 holds [inf, 0.0, 0.0]"),
        ("0,0,1,1,1,1", "sample 0, slot 1 holds [1.0, 1.0, 1.0]"),  # a normal component
        ("0,0,0,0,0.5,0", "no row for sample 0, slot 1"),  # every other pair has no row
    ],
    ids=["nan", "inf", "normal", "incomplete"],
)
def test_run_bad_history_row_exit_two(tmp_path, capsys, row, message):
    history = tmp_path / "history.csv"
    history.write_text(f"step,sample_id,s_index,vx,vy,vz\n{row}\n")
    path, _ = write_cfg(tmp_path, BASE + f"\n[history]\nkind = file\nfile = {history}\n")
    assert main(["run", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"configuration error: {history}: {message}")


@pytest.mark.parametrize("command", ["check", "run"])
@pytest.mark.parametrize(
    "body, message",
    [
        (None, "cannot read material file {path}"),
        ("0.5 0 0 1 1 1\n", "{path}:1: invalid literal for int()"),  # a fractional cell index
        ("# i j k e11 e22 e33\n0 0 0 1 x 1\n", "{path}:2: could not convert string to float"),
        ("0 0 0 1 nan 1\n", "{path}:1: non-finite entry"),
    ],
    ids=["missing", "fractional_index", "non_numeric", "nan"],
)
def test_bad_material_file_exits_two(tmp_path, capsys, command, body, message):
    eps = tmp_path / "eps.txt"
    if body is not None:
        eps.write_text(body)
    path, _ = write_cfg(tmp_path, BASE + f"\n[materials]\neps_kind = file\neps_file = {eps}\n")
    assert main([command, str(path)]) == 2
    assert capsys.readouterr().err.startswith("configuration error: " + message.format(path=eps))


def _field_file_cfg(field):
    return BASE.replace("preset = gaussian_pulse", f"preset = file\nfile = {field}")


@pytest.mark.parametrize(
    "body, message",
    [
        (None, "cannot read initial field file {path}"),
        ("0.0\n# a comment\n\nnan\n", "{path}:4: expected a finite number, got 'nan'"),
        ("0.0 1e400\n", "{path}:1: expected a finite number, got '1e400'"),
        ("0.0\n0.x\n", "{path}:2: expected a finite number, got '0.x'"),
    ],
    ids=["missing", "nan", "overflow", "non_numeric"],
)
def test_bad_initial_field_file_exits_two(tmp_path, capsys, body, message):
    field = tmp_path / "q.txt"
    if body is not None:
        field.write_text(body)
    path, _ = write_cfg(tmp_path, _field_file_cfg(field))
    assert main(["run", str(path)]) == 2
    assert capsys.readouterr().err.startswith("configuration error: " + message.format(path=field))


def test_initial_field_file_reproduces_the_run_it_was_saved_from(tmp_path):
    from delayfdtd.config import parse_config, scenario_from_config
    from delayfdtd.solver import run

    text = BASE.replace("t_end = 2.0", "t_end = 0.5")
    path, outdir = write_cfg(tmp_path, text)
    assert main(["run", str(path)]) == 0
    q0 = run(scenario_from_config(parse_config(path.read_text().replace("t_end = 0.5", "t_end = 0")))).state.q
    field = tmp_path / "q.txt"
    np.savetxt(field, q0, fmt="%.17g", header="E side of the projected pulse")
    path2, outdir2 = write_cfg(tmp_path, _field_file_cfg(field).replace("t_end = 2.0", "t_end = 0.5"),
                               name="file.cfg", outdir=tmp_path / "out2")
    assert main(["run", str(path2)]) == 0
    assert (outdir2 / "energy.csv").read_bytes() == (outdir / "energy.csv").read_bytes()


def test_run_table_law_end_to_end(tmp_path):
    # a 33-row table sampled from the saturating law r + r/(1+r) on [0, 8]
    table = tmp_path / "g.txt"
    table.write_text("".join(f"{r!r} {r + r / (1 + r)!r}\n" for r in (0.25 * i for i in range(33))))
    path, outdir = write_cfg(tmp_path, _table_cfg(table).replace("gamma2 = 0.5", "gamma2 = 0.25"))
    assert main(["run", str(path)]) == 0
    trace = EnergyTrace.from_csv((outdir / "energy.csv").read_text())
    assert trace.E_xi[-1] < trace.E_xi[0]
    assert "classification = decaying" in (outdir / "summary.txt").read_text()


def test_resolvent_on_the_saturating_table_converges(tmp_path):
    # the resolvent core holds the table's modulus c1 v, as it holds a v for the saturating law
    table = tmp_path / "g.txt"
    table.write_text("".join(f"{r!r} {r + r / (1 + r)!r}\n" for r in (0.25 * i for i in range(33))))
    path, outdir = write_cfg(tmp_path, _table_cfg(table).replace("gamma2 = 0.5", "gamma2 = 0.25"))
    assert main(["resolvent", str(path)]) == 0
    report = dict(
        line.split(" = ") for line in (outdir / "resolvent_report.txt").read_text().splitlines()
    )
    assert float(report["residual"]) <= 1e-8


def test_resolvent_rejects_a_table_off_the_origin(tmp_path, capsys):
    table = tmp_path / "g.txt"
    table.write_text("0.5 0.5\n1 1\n4 4\n")
    path, _ = write_cfg(tmp_path, _table_cfg(table))
    assert main(["resolvent", str(path)]) == 3
    err = capsys.readouterr().err
    assert err.startswith(
        "assumption violated: feedback table rejected: it starts at (0.5, 0.5), not (0, 0)"
    )


def test_table_law_run_leaves_scipy_stats_unloaded(tmp_path):
    table = tmp_path / "g.txt"
    table.write_text("0 0\n1 1.5\n4 5\n")
    path, _ = write_cfg(tmp_path, _table_cfg(table).replace("t_end = 2.0", "t_end = 0.1"))
    code = (
        "import sys; from delayfdtd.cli import main; "
        f"rc = main(['run', {str(path)!r}]); print(rc, 'scipy.stats' in sys.modules)"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=_src_env(), capture_output=True, text=True,
        check=True, timeout=120,
    )
    assert out.stdout.split()[-2:] == ["0", "False"]


@pytest.mark.parametrize(
    "rows, reason",
    [
        # exact c1 = 0.1 (the last slope) and c2 = 1: 0.1 < 0.5 * 1
        ("0 0\n1 1\n10 10\n12 10.2\n", "the condition gamma1*c1 > gamma2*c2 fails"),
        ("0.5 0.5\n1 1\n4 4\n", "feedback table rejected: it starts at (0.5, 0.5), not (0, 0)"),
    ],
    ids=["soft_tail", "off_origin"],
)
def test_run_table_law_without_admissible_constants_exits_three(tmp_path, capsys, rows, reason):
    table = tmp_path / "g.txt"
    table.write_text(rows)
    path, _ = write_cfg(tmp_path, _table_cfg(table))
    assert main(["run", str(path)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("assumption violated:") and reason in err


def _src_env() -> dict:
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return env


def test_console_process_freezes_its_import_heap_and_main_with_argv_does_not(tmp_path):
    path, _ = write_cfg(tmp_path, BASE)
    code = (
        "import gc, sys; from delayfdtd.cli import main; "
        f"sys.argv = ['delayfdtd', 'check', {str(path)!r}]; "
        "rc = main(); print(rc, gc.get_freeze_count())"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=_src_env(), capture_output=True, text=True,
        check=True, timeout=120,
    )
    rc, frozen = out.stdout.split()[-2:]
    assert rc == "0" and int(frozen) > 0
    before = gc.get_freeze_count()
    assert main(["check", str(path)]) == 0
    assert gc.get_freeze_count() == before


def test_console_process_writes_the_same_bytes_as_main_with_argv(tmp_path):
    # the freeze skips no finalizer that writes output: run and operator
    # through sys.exit(main()) match the same commands through main(argv)
    path, _ = write_cfg(tmp_path, BASE)
    commands = {
        "run": (["run", str(path)], ("energy.csv", "summary.txt", "resolved.cfg")),
        "operator": (
            ["operator", str(path), "--pairs", "2", "--m", "4"],
            ("pairings.csv", "monotonicity_report.txt"),
        ),
    }
    entry = "import sys; from delayfdtd.cli import main; sys.exit(main())"
    for name, (argv, files) in commands.items():
        console, inproc = tmp_path / f"{name}_console", tmp_path / f"{name}_inproc"
        subprocess.run(
            [sys.executable, "-c", entry, *argv, "--out", str(console)],
            env=_src_env(), capture_output=True, check=True, timeout=120,
        )
        assert main([*argv, "--out", str(inproc)]) == 0
        for f in files:
            assert (console / f).read_bytes() == (inproc / f).read_bytes(), f
