"""Smoke runs of the experiment scripts at small sizes."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        env=env, capture_output=True, text=True, timeout=300,
    )


def test_decay_vs_delay_gain_short_trace_is_not_a_failure():
    # 20 steps end far below 4c, where the certificate does not apply
    out = run_script("decay_vs_delay_gain.py", "--n", "6", "--steps", "20", "--gamma2", "0.5")
    assert out.returncode == 0, out.stderr
    row = out.stdout.splitlines()[1]
    assert "FAIL" not in row
    assert "not applicable (trace too short" in row


@pytest.mark.parametrize(
    "name, args",
    [
        ("conservation_check.py", ["--n", "6", "--steps", "50"]),
        ("generator_lab_report.py", ["--n", "4", "--pairs", "5", "--m", "4"]),
    ],
)
def test_script_runs(name, args):
    out = run_script(name, *args)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip()
