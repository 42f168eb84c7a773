"""Line-based sectioned configuration with a strict schema.

Format: `[section]` headers, `key = value` lines, `#` comments, decimal
numbers only.  Unknown keys, duplicate keys and non-finite numbers are
rejected with line numbers.  A parsed config resolves every key to a value
(defaults filled in), and `echo` emits the resolved text such that parsing
the echo reproduces the config exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .domain import BoxDomain
from .errors import ConfigError
from .feedback import FeedbackLaw, load_table_law
from .solver import (
    AnalysisOptions,
    HistorySpec,
    InitialSpec,
    MaterialSpec,
    RunControls,
    Scenario,
)

AXES = {"x": 0, "y": 1, "z": 2}
AXIS_NAMES = {v: k for k, v in AXES.items()}

# (type, default); default None means required, "auto" handled as xi special
SCHEMA = {
    "domain": {
        "Lx": ("float", None),
        "Ly": ("float", None),
        "Lz": ("float", None),
        "nx": ("int", None),
        "ny": ("int", None),
        "nz": ("int", None),
        "x0": ("vec3", "center"),
    },
    "materials": {
        "eps_kind": ("str", "constant_isotropic"),
        "eps_value": ("float", 1.0),
        "eps_diag": ("vec3", (1.0, 1.0, 1.0)),
        "eps_axis": ("axis", 0),
        "eps_slope": ("float", 1.0),
        "eps_entry": ("int", 0),
        "eps_k": ("float", 1.0),
        "eps_upper": ("vec6", (1.0, 1.0, 1.0, 0.0, 0.0, 0.0)),
        "eps_file": ("str", ""),
        "mu_kind": ("str", "constant_isotropic"),
        "mu_value": ("float", 1.0),
        "mu_diag": ("vec3", (1.0, 1.0, 1.0)),
        "mu_axis": ("axis", 0),
        "mu_slope": ("float", 1.0),
        "mu_entry": ("int", 0),
        "mu_k": ("float", 1.0),
        "mu_upper": ("vec6", (1.0, 1.0, 1.0, 0.0, 0.0, 0.0)),
        "mu_file": ("str", ""),
    },
    "feedback": {
        "kind": ("str", "linear"),
        "a": ("float", 1.0),
        "b": ("float", 0.0),
        "gamma1": ("float", 1.0),
        "gamma2": ("float", 0.0),
        "tau": ("float", 0.25),
        "table_file": ("str", ""),
    },
    "history": {
        "kind": ("str", "zero"),
        "file": ("str", ""),
    },
    "initial": {
        "preset": ("str", "off"),
        "center": ("vec3", "center"),
        "width": ("float", 0.1),
        "amplitude": ("float", 1.0),
        "polarization": ("vec3", (0.0, 0.0, 1.0)),
        "project": ("bool", True),
        "file": ("str", ""),
    },
    "run": {
        "t_end": ("float", None),
        "cfl_safety": ("float", 0.95),
        "record_every": ("int", 1),
    },
    "analysis": {
        "xi": ("xi", "auto"),
        "slack_dissipation": ("float", 1.05),
        "slack_observability": ("float", 1.10),
    },
    "output": {
        "dir": ("str", "out"),
    },
}

REQUIRED_SECTIONS = ("domain", "feedback", "run")


@dataclass
class Config:
    """Fully resolved configuration: every schema key has a value."""

    data: dict

    def get(self, section: str, key: str):
        return self.data[section][key]

    def set(self, section: str, key: str, value):
        if section not in SCHEMA or key not in SCHEMA[section]:
            raise ConfigError(f"unknown parameter path {section}.{key}")
        self.data[section][key] = value


def _parse_value(kind: str, raw: str, where: str):
    def check_finite(vals):
        if not all(np.isfinite(v) for v in vals):
            raise ConfigError(f"{where}: non-finite number in {raw!r}")

    if kind == "float":
        try:
            v = float(raw)
        except ValueError as exc:
            raise ConfigError(f"{where}: expected a number, got {raw!r}") from exc
        check_finite([v])
        return v
    if kind == "int":
        try:
            return int(raw)
        except ValueError as exc:
            raise ConfigError(f"{where}: expected an integer, got {raw!r}") from exc
    if kind == "bool":
        low = raw.strip().lower()
        if low in ("true", "1", "yes"):
            return True
        if low in ("false", "0", "no"):
            return False
        raise ConfigError(f"{where}: expected true/false, got {raw!r}")
    if kind in ("vec3", "vec6"):
        n = 3 if kind == "vec3" else 6
        parts = raw.split()
        if len(parts) != n:
            raise ConfigError(f"{where}: expected {n} numbers, got {raw!r}")
        try:
            vals = tuple(float(p) for p in parts)
        except ValueError as exc:
            raise ConfigError(f"{where}: expected {n} numbers, got {raw!r}") from exc
        check_finite(vals)
        return vals
    if kind == "axis":
        if raw.strip() in AXES:
            return AXES[raw.strip()]
        raise ConfigError(f"{where}: expected axis x, y or z, got {raw!r}")
    if kind == "xi":
        return "auto" if raw.strip() == "auto" else _parse_value("float", raw, where)
    return raw.strip()


def _format_value(kind: str, value) -> str:
    if kind == "float":
        return f"{value:.17g}"
    if kind in ("vec3", "vec6"):
        return " ".join(f"{v:.17g}" for v in value)
    if kind == "bool":
        return "true" if value else "false"
    if kind == "axis":
        return AXIS_NAMES[value]
    if kind == "xi":
        return "auto" if value == "auto" else f"{value:.17g}"
    return str(value)


def parse_config(text: str) -> Config:
    """Parse and resolve a config; reject malformed or unknown input."""
    raw: dict[str, dict[str, tuple[str, int]]] = {}
    section = None
    for ln, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if body.startswith("[") and body.endswith("]"):
            section = body[1:-1].strip()
            if section not in SCHEMA:
                raise ConfigError(f"line {ln}: unknown section [{section}]")
            raw.setdefault(section, {})
            continue
        if section is None:
            raise ConfigError(f"line {ln}: key outside any [section]")
        if "=" not in body:
            raise ConfigError(f"line {ln}: expected `key = value`")
        key, _, val = body.partition("=")
        key, val = key.strip(), val.strip()
        if key not in SCHEMA[section]:
            raise ConfigError(f"line {ln}: unknown key {key!r} in [{section}]")
        if key in raw[section]:
            first = raw[section][key][1]
            raise ConfigError(
                f"line {ln}: duplicate key {key!r} in [{section}] (first set on line {first})"
            )
        raw[section][key] = (val, ln)

    for sec in REQUIRED_SECTIONS:
        if sec not in raw:
            raise ConfigError(f"missing required section [{sec}]")

    data: dict[str, dict] = {}
    for sec, keys in SCHEMA.items():
        data[sec] = {}
        for key, (kind, default) in keys.items():
            if sec in raw and key in raw[sec]:
                val, ln = raw[sec][key]
                data[sec][key] = _parse_value(kind, val, f"line {ln} ({sec}.{key})")
            elif default is None:
                raise ConfigError(f"missing required key {sec}.{key}")
            else:
                data[sec][key] = default

    # deferred defaults that depend on the box
    L = (data["domain"]["Lx"], data["domain"]["Ly"], data["domain"]["Lz"])
    center = tuple(0.5 * v for v in L)
    if data["domain"]["x0"] == "center":
        data["domain"]["x0"] = center
    if data["initial"]["center"] == "center":
        data["initial"]["center"] = center

    cfg = Config(data=data)
    validate_config(cfg)
    return cfg


def validate_config(cfg: Config):
    d = cfg.data
    if d["feedback"]["gamma1"] < 0:
        raise ConfigError("feedback.gamma1 must be positive (0 only for the conservative limit)")
    if d["feedback"]["gamma2"] < 0:
        raise ConfigError("feedback.gamma2 must be nonnegative")
    if d["feedback"]["tau"] <= 0:
        raise ConfigError("feedback.tau must be positive")
    if d["run"]["t_end"] < 0:
        raise ConfigError("run.t_end must be nonnegative")
    if d["history"]["kind"] not in ("zero", "replay", "file"):
        raise ConfigError(f"unknown history.kind {d['history']['kind']!r}")


def echo_config(cfg: Config) -> str:
    lines = []
    for sec, keys in SCHEMA.items():
        lines.append(f"[{sec}]")
        for key, (kind, _) in keys.items():
            lines.append(f"{key} = {_format_value(kind, cfg.data[sec][key])}")
        lines.append("")
    return "\n".join(lines)


def _material_spec(d: dict, prefix: str) -> MaterialSpec:
    return MaterialSpec(
        kind=d[f"{prefix}_kind"],
        value=d[f"{prefix}_value"],
        diag=d[f"{prefix}_diag"],
        axis=d[f"{prefix}_axis"],
        slope=d[f"{prefix}_slope"],
        entry=d[f"{prefix}_entry"],
        k=d[f"{prefix}_k"],
        upper=d[f"{prefix}_upper"],
        path=d[f"{prefix}_file"],
    )


def scenario_from_config(cfg: Config, unsafe: bool = False) -> Scenario:
    d = cfg.data
    dom = BoxDomain(
        lengths=(d["domain"]["Lx"], d["domain"]["Ly"], d["domain"]["Lz"]),
        resolution=(d["domain"]["nx"], d["domain"]["ny"], d["domain"]["nz"]),
        x0=d["domain"]["x0"],
    )
    fb = d["feedback"]
    if fb["kind"] == "table":
        law = load_table_law(
            fb["table_file"],
            a=1.0,
            b=fb["b"],
            gamma1=fb["gamma1"],
            gamma2=fb["gamma2"],
            tau=fb["tau"],
        )
    else:
        law = FeedbackLaw(
            kind=fb["kind"],
            a=fb["a"],
            b=fb["b"],
            gamma1=fb["gamma1"],
            gamma2=fb["gamma2"],
            tau=fb["tau"],
        )
    xi = d["analysis"]["xi"]
    return Scenario(
        domain=dom,
        eps=_material_spec(d["materials"], "eps"),
        mu=_material_spec(d["materials"], "mu"),
        law=law,
        history=HistorySpec(kind=d["history"]["kind"], path=d["history"]["file"]),
        initial=InitialSpec(
            preset=d["initial"]["preset"],
            center=d["initial"]["center"],
            width=d["initial"]["width"],
            amplitude=d["initial"]["amplitude"],
            polarization=d["initial"]["polarization"],
            project=d["initial"]["project"],
            path=d["initial"]["file"],
        ),
        run=RunControls(
            t_end=d["run"]["t_end"],
            cfl_safety=d["run"]["cfl_safety"],
            record_every=d["run"]["record_every"],
            unsafe=unsafe,
        ),
        analysis=AnalysisOptions(
            xi=None if xi == "auto" else float(xi),
            slack_dissipation=d["analysis"]["slack_dissipation"],
            slack_observability=d["analysis"]["slack_observability"],
        ),
    )
