"""Line-based sectioned configuration with a strict schema.

Format: `[section]` headers, `key = value` lines, `#` comments, decimal
numbers only.  Unknown keys, duplicate keys and non-finite numbers are
rejected with line numbers; value ranges are the scenario types' own rules,
checked where `scenario_from_config` builds them.  A parsed config resolves
every key to a value (defaults filled in), and `echo` emits the resolved
text such that parsing the echo reproduces the config exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .analysis import AnalysisOptions
from .domain import BoxDomain
from .errors import ConfigError
from .feedback import FeedbackLaw, load_table_law
from .solver import HistorySpec, InitialSpec, MaterialSpec, RunControls, Scenario

AXES = {"x": 0, "y": 1, "z": 2}
AXIS_NAMES = {v: k for k, v in AXES.items()}

# The keys each scenario type holds, with their value kinds; a `file` key is
# the type's `path` field.
MATERIAL_KEYS = {
    "kind": "str", "value": "float", "diag": "vec3", "axis": "axis", "slope": "float",
    "entry": "int", "k": "float", "upper": "vec6", "file": "str",
}
LAW_KEYS = {"kind": "str", "a": "float", "b": "float", "gamma1": "float", "gamma2": "float", "tau": "float"}
HISTORY_KEYS = {"kind": "str", "file": "str"}
INITIAL_KEYS = {
    "preset": "str", "center": "vec3", "width": "float", "amplitude": "float",
    "polarization": "vec3", "project": "bool", "file": "str",
}
RUN_KEYS = {"t_end": "float", "cfl_safety": "float", "record_every": "int"}
SLACK_KEYS = {"slack_dissipation": "float", "slack_observability": "float"}


def _field(key: str) -> str:
    return "path" if key == "file" else key


def _rows(spec_type, keys: dict, prefix: str = "") -> dict:
    """Schema rows of the keys a scenario type holds, each defaulting to the type's default."""
    return {prefix + key: (kind, getattr(spec_type, _field(key))) for key, kind in keys.items()}


# (type, default); default None means required, "auto" handled as xi special.
# A key repeated after a `**_rows(...)` spread keeps the spread's place in the echo.
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
    "materials": {**_rows(MaterialSpec, MATERIAL_KEYS, "eps_"), **_rows(MaterialSpec, MATERIAL_KEYS, "mu_")},
    "feedback": {**_rows(FeedbackLaw, LAW_KEYS), "table_file": ("str", "")},
    "history": _rows(HistorySpec, HISTORY_KEYS),
    "initial": {**_rows(InitialSpec, INITIAL_KEYS), "center": ("vec3", "center")},
    "run": {**_rows(RunControls, RUN_KEYS), "t_end": ("float", None)},
    "analysis": {"xi": ("xi", "auto"), **_rows(AnalysisOptions, SLACK_KEYS)},
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

    return Config(data=data)


def echo_config(cfg: Config) -> str:
    lines = []
    for sec, keys in SCHEMA.items():
        lines.append(f"[{sec}]")
        for key, (kind, _) in keys.items():
            lines.append(f"{key} = {_format_value(kind, cfg.data[sec][key])}")
        lines.append("")
    return "\n".join(lines)


def _spec(spec_type, section: dict, keys: dict, prefix: str = "", **extra):
    """A scenario type from its keys in a resolved section; its errors name the key."""
    try:
        return spec_type(**{_field(key): section[prefix + key] for key in keys}, **extra)
    except ConfigError as exc:
        raise ConfigError(f"{prefix}{exc}") from exc


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
            fb["table_file"], b=fb["b"], gamma1=fb["gamma1"], gamma2=fb["gamma2"], tau=fb["tau"]
        )
    else:
        law = _spec(FeedbackLaw, fb, LAW_KEYS)
    xi = d["analysis"]["xi"]
    return Scenario(
        domain=dom,
        eps=_spec(MaterialSpec, d["materials"], MATERIAL_KEYS, "eps_"),
        mu=_spec(MaterialSpec, d["materials"], MATERIAL_KEYS, "mu_"),
        law=law,
        history=_spec(HistorySpec, d["history"], HISTORY_KEYS),
        initial=_spec(InitialSpec, d["initial"], INITIAL_KEYS),
        run=_spec(RunControls, d["run"], RUN_KEYS, unsafe=unsafe),
        analysis=_spec(AnalysisOptions, d["analysis"], SLACK_KEYS, xi=None if xi == "auto" else float(xi)),
    )
