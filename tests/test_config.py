import dataclasses

import pytest

from delayfdtd.config import echo_config, parse_config, scenario_from_config
from delayfdtd.errors import ConfigError
from delayfdtd.solver import Scenario

MINIMAL = """
[domain]
Lx = 1.0
Ly = 1.0
Lz = 1.0
nx = 8
ny = 8
nz = 8

[feedback]
gamma1 = 1.0
tau = 0.25

[run]
t_end = 1.0
"""


def test_minimal_config_defaults():
    cfg = parse_config(MINIMAL)
    assert cfg.get("run", "cfl_safety") == 0.95
    assert cfg.get("run", "record_every") == 1
    assert cfg.get("analysis", "xi") == "auto"
    assert cfg.get("analysis", "slack_dissipation") == 1.05
    assert cfg.get("analysis", "slack_observability") == 1.10
    assert cfg.get("domain", "x0") == (0.5, 0.5, 0.5)


def test_negative_gamma1_rejected():
    text = MINIMAL.replace("gamma1 = 1.0", "gamma1 = -1")
    with pytest.raises(ConfigError, match="gamma1"):
        scenario_from_config(parse_config(text))


def test_duplicate_key_cites_both_lines():
    text = MINIMAL + "\n[run]\nt_end = 2.0\n"
    with pytest.raises(ConfigError, match=r"duplicate key 't_end'.*line \d+"):
        parse_config(text)


def test_unknown_key_rejected_with_line():
    text = MINIMAL + "\n[run]\nwarp = 9\n"
    with pytest.raises(ConfigError, match=r"line \d+: unknown key 'warp'"):
        parse_config(text)


def test_unknown_section_rejected():
    with pytest.raises(ConfigError, match="unknown section"):
        parse_config(MINIMAL + "\n[dragons]\nx = 1\n")


def test_missing_required_key():
    text = MINIMAL.replace("t_end = 1.0", "")
    with pytest.raises(ConfigError, match="t_end"):
        parse_config(text)


def test_non_finite_number_rejected():
    text = MINIMAL.replace("t_end = 1.0", "t_end = inf")
    with pytest.raises(ConfigError, match="non-finite"):
        parse_config(text)


def test_roundtrip_echo():
    cfg = parse_config(MINIMAL)
    echoed = echo_config(cfg)
    cfg2 = parse_config(echoed)
    assert cfg2.data == cfg.data
    assert echo_config(cfg2) == echoed


def test_roundtrip_preserves_odd_floats():
    text = MINIMAL.replace("tau = 0.25", "tau = 0.1") + "\n[analysis]\nxi = 0.07\n"
    cfg = parse_config(text)
    cfg2 = parse_config(echo_config(cfg))
    assert cfg2.get("feedback", "tau") == cfg.get("feedback", "tau")
    assert cfg2.get("analysis", "xi") == 0.07


def test_scenario_construction():
    sc = scenario_from_config(parse_config(MINIMAL))
    assert sc.domain.resolution == (8, 8, 8)
    assert sc.law.gamma1 == 1.0
    assert sc.analysis.xi is None  # auto


def test_minimal_config_scenario_holds_the_scenario_types_defaults():
    # MINIMAL sets only required keys and values equal to the defaults: a unit
    # box (its centre is InitialSpec's default), gamma1 = 1, tau = 0.25, t_end = 1
    sc = scenario_from_config(parse_config(MINIMAL))
    defaults = Scenario(domain=sc.domain)
    for part in dataclasses.fields(Scenario):
        got, want = getattr(sc, part.name), getattr(defaults, part.name)
        for f in dataclasses.fields(want):
            assert getattr(got, f.name) == getattr(want, f.name), f"{part.name}.{f.name}"


def test_set():
    cfg = parse_config(MINIMAL)
    cfg.set("feedback", "gamma2", 0.5)
    assert cfg.get("feedback", "gamma2") == 0.5


def test_key_outside_section():
    with pytest.raises(ConfigError, match="outside"):
        parse_config("t_end = 1\n" + MINIMAL)


def test_comments_and_blank_lines():
    text = "# leading comment\n" + MINIMAL.replace(
        "t_end = 1.0", "t_end = 1.0  # trailing comment"
    )
    cfg = parse_config(text)
    assert cfg.get("run", "t_end") == 1.0


@pytest.mark.parametrize(
    "section, line",
    [("analysis", "xi = abc"), ("initial", "center = 0.5 half 0.5")],
)
def test_non_numeric_entry_is_a_config_error(section, line):
    key = line.split(" = ")[0]
    with pytest.raises(ConfigError, match=rf"line \d+ \({section}\.{key}\): expected"):
        parse_config(MINIMAL + f"\n[{section}]\n{line}\n")
