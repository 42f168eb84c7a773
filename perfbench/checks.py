"""Output checks that decide whether an operation succeeded.

A fast wrong answer must not score as a win, so every successful command is
checked against invariants that hold to round-off and, for simulations,
against a reference trace stored under perfbench/reference.  Byte identity
with the reference is recorded but not required: a justified round-off
change in energy.csv is allowed.  The dissipation residual of `analyze` is
not checked: it compares a trapezoid of the instantaneous flux with the
time-centered work and is not a round-off invariant.
"""

from __future__ import annotations

import functools
import hashlib
from pathlib import Path

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

# E_xi may rise between records by at most this share of E_xi(0).
MONOTONE_TOL = 1e-10
# Largest difference from the reference trace, as a share of the largest
# value of the same column in the reference (t compared as a share of t_end).
REFERENCE_TOL = 1e-9
PAIRING_FLOOR = -1e-10
RESOLVENT_TOL = 1e-8
CSV_HEADER = "t,E_weighted,E_plain,E_xi,D,flux"


def _guarded(check):
    """A missing or malformed output file fails the check instead of the benchmark."""

    @functools.wraps(check)
    def wrapper(out_dir: Path, *args, **kwargs) -> dict:
        try:
            return check(out_dir, *args, **kwargs)
        except (OSError, ValueError, IndexError, ZeroDivisionError) as exc:
            return {"out": str(out_dir), "ok": False, "problems": [f"unreadable output: {exc!r}"]}

    return wrapper


def read_summary(path: Path) -> dict[str, str]:
    out = {}
    for line in path.read_text().splitlines():
        key, sep, val = line.partition(" = ")
        if sep:
            out[key.strip()] = val.strip()
    return out


def read_trace(text: str) -> list[list[float]]:
    lines = text.strip().splitlines()
    if not lines or lines[0] != CSV_HEADER:
        raise ValueError("energy.csv has no header")
    return [[float(v) for v in ln.split(",")] for ln in lines[1:]]


def reference_path(name: str) -> Path:
    return REFERENCE_DIR / f"{name}.csv"


def compare_reference(rows, ref_rows) -> float:
    """Largest column-scaled difference between two traces."""
    if len(rows) != len(ref_rows):
        return float("inf")
    worst = 0.0
    for col in range(6):
        ref_col = [r[col] for r in ref_rows]
        scale = max(max(abs(v) for v in ref_col), 1e-300)
        diff = max(abs(r[col] - v) for r, v in zip(rows, ref_col))
        worst = max(worst, diff / scale)
    return worst


@_guarded
def check_run(out_dir: Path, reference: str | None, reference_required: bool = True) -> dict:
    """Check a finished `run`; returns a record with `ok` and the reasons.

    A reference is optional only for a command that is expected to fail
    today: if a later change makes it succeed, its invariants still hold.
    """
    problems = []
    rec: dict = {"out": str(out_dir)}
    summary = read_summary(out_dir / "summary.txt")
    csv_bytes = (out_dir / "energy.csv").read_bytes()
    rows = read_trace(csv_bytes.decode())
    rec["steps"] = int(summary.get("steps", -1))
    rec["records"] = len(rows)
    rec["sha256"] = hashlib.sha256(csv_bytes).hexdigest()

    e_xi = [r[3] for r in rows]
    rise = max((b - a for a, b in zip(e_xi, e_xi[1:])), default=0.0) / e_xi[0]
    rec["max_rise_rel"] = rise
    if not rise <= MONOTONE_TOL:
        problems.append(f"E_xi rises by {rise:.3e} of E_xi(0)")

    for key in ("two_sided_dissipation", "observability"):
        if summary.get(key) != "pass":
            problems.append(f"{key} = {summary.get(key)}")
    cert = summary.get("certificate", "")
    if cert != "pass":
        # only a trace shorter than 4c may skip the certificate
        too_short = cert.startswith("not applicable (trace too short") and rows[-1][0] <= 4.0 * float(
            summary.get("obs_c", "inf")
        )
        if not too_short:
            problems.append(f"certificate = {cert}")

    if reference is not None:
        ref_path = reference_path(reference)
        if ref_path.exists():
            ref_bytes = ref_path.read_bytes()
            rec["identical_to_reference"] = ref_bytes == csv_bytes
            dev = compare_reference(rows, read_trace(ref_bytes.decode()))
            rec["reference_deviation"] = dev
            if not dev <= REFERENCE_TOL:
                problems.append(f"trace deviates from reference {reference} by {dev:.3e}")
        elif reference_required:
            problems.append(f"no reference trace {reference}")
    rec["problems"] = problems
    rec["ok"] = not problems
    return rec


@_guarded
def check_one_step(out_dir: Path) -> dict:
    """The set-up probe must exit cleanly after exactly one step."""
    summary = read_summary(out_dir / "summary.txt")
    ok = summary.get("steps") == "1"
    return {"out": str(out_dir), "ok": ok, "problems": [] if ok else [f"steps = {summary.get('steps')}"]}


@_guarded
def check_operator(out_dir: Path) -> dict:
    summary = read_summary(out_dir / "monotonicity_report.txt")
    floor = float(summary.get("min_normalized_pairing", "nan"))
    problems = []
    if summary.get("passed") != "True" or not floor >= PAIRING_FLOOR:
        problems.append(f"min_normalized_pairing = {floor:.3e}")
    return {"out": str(out_dir), "min_normalized_pairing": floor, "ok": not problems, "problems": problems}


@_guarded
def check_resolvent(out_dir: Path) -> dict:
    summary = read_summary(out_dir / "resolvent_report.txt")
    residual = float(summary.get("residual", "nan"))
    problems = [] if residual <= RESOLVENT_TOL else [f"residual = {residual:.3e}"]
    return {"out": str(out_dir), "residual": residual, "ok": not problems, "problems": problems}
