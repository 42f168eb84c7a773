import numpy as np
import pytest

from delayfdtd.domain import BoxDomain, build_grid
from delayfdtd.errors import ConfigError
from delayfdtd.materials import (
    TensorField,
    constant_diagonal,
    constant_full,
    constant_isotropic,
    diagonal_ramp,
    exponential_isotropic,
    full_report,
    load_tensor_file,
)


@pytest.fixture(scope="module")
def grid16():
    return build_grid(BoxDomain((1, 1, 1), (16, 16, 16), (0.5, 0.5, 0.5)))


def test_alpha_constant_isotropic(grid16):
    eps = constant_isotropic(grid16, 2.0)
    mu = constant_isotropic(grid16, 2.0)
    report = full_report(eps, mu, grid16)
    assert report.alpha == pytest.approx(2.0, abs=1e-14)
    assert report.passed


def test_alpha_diagonal_ramp(grid16):
    eps = diagonal_ramp(grid16, (1.0, 1.0, 1.0), axis=0, slope=1.0, entry=0)
    mu = constant_isotropic(grid16, 1.0)
    report = full_report(eps, mu, grid16)
    assert report.alpha == pytest.approx(1.0, abs=1e-14)
    # lambda_max approaches 2 from below (cell centers stop at 1 - dx/2)
    assert report.lambda_max_eps == pytest.approx(2.0 - 0.5 / 16, abs=1e-12)


def test_asymmetric_tensor_reported_not_raised(grid16):
    vals = constant_isotropic(grid16, 1.0).values.copy()
    vals[..., 0, 1] = 0.3  # e12 != e21
    eps = TensorField.from_values(vals)
    report = full_report(eps, constant_isotropic(grid16, 1.0), grid16)
    assert not report.passed
    ok, _ = report.checks["eps_symmetric"]
    assert not ok


def test_indefinite_tensor_reported(grid16):
    eps = constant_diagonal(grid16, (-1.0, 1.0, 1.0))
    report = full_report(eps, constant_isotropic(grid16, 1.0), grid16)
    assert not report.passed
    assert report.alpha < 0


def test_d1_constant_materials_exactly_one(grid16):
    eps = constant_isotropic(grid16, 3.0)
    mu = constant_diagonal(grid16, (1.0, 2.0, 4.0))
    report = full_report(eps, mu, grid16)
    assert report.d1 == pytest.approx(1.0, abs=1e-13)


def test_d1_exponential_approaches_half():
    # analytic directional derivative (x1 - 0.5) e^{x1}; min of the
    # generalized eigenvalue 1 + (x1 - 0.5) over the closed box is 0.5,
    # approached by cell centers at dx/2
    dom = BoxDomain((1, 1, 1), (32, 32, 32), (0.5, 0.5, 0.5))
    grid = build_grid(dom)
    eps = exponential_isotropic(grid, 1.0, axis=0)
    mu = constant_isotropic(grid, 1.0)
    report = full_report(eps, mu, grid)
    assert report.d1 == pytest.approx(0.5, abs=0.02)
    assert report.d1 > 0.5  # floor approached from above


def test_d1_fails_for_steep_negative_gradient():
    dom = BoxDomain((1, 1, 1), (16, 16, 16), (0.5, 0.5, 0.5))
    grid = build_grid(dom)
    eps = exponential_isotropic(grid, -10.0, axis=0)
    mu = constant_isotropic(grid, 1.0)
    report = full_report(eps, mu, grid)
    # per-cell evaluation: 1 - 10*(x1-0.5) dips far below zero for x1 > 0.6
    assert report.d1 <= 0
    assert not report.passed


def test_d1_monotone_in_gradient_strength():
    dom = BoxDomain((1, 1, 1), (16, 16, 16), (0.5, 0.5, 0.5))
    grid = build_grid(dom)
    mu = constant_isotropic(grid, 1.0)
    d1s = []
    for k in (0.0, 0.5, 1.0):
        eps = exponential_isotropic(grid, k, axis=0)
        d1s.append(full_report(eps, mu, grid).d1)
    assert d1s[0] >= d1s[1] >= d1s[2]
    assert d1s[0] == pytest.approx(1.0, abs=1e-12)


def test_d1_full_tensor_path(grid16):
    eps = constant_full(grid16, (2.0, 1.5, 1.0, 0.2, 0.1, 0.0))
    mu = constant_isotropic(grid16, 1.0)
    report = full_report(eps, mu, grid16)
    assert report.d1 == pytest.approx(1.0, abs=1e-12)


def test_full_report_combines(grid16):
    eps = constant_isotropic(grid16, 1.0)
    mu = constant_isotropic(grid16, 1.0)
    report = full_report(eps, mu, grid16)
    assert report.passed
    assert report.alpha == 1.0
    assert report.d1 == pytest.approx(1.0, abs=1e-13)
    assert report.beta == pytest.approx(0.5)
    assert any("box" in note for note in report.notes)


def test_tensor_file_roundtrip(tmp_path):
    grid = build_grid(BoxDomain((1, 1, 1), (4, 4, 4), (0.5, 0.5, 0.5)))
    lines = []
    rng = np.random.default_rng(3)
    expected = np.zeros((4, 4, 4, 3, 3))
    for i, j, k in np.ndindex(4, 4, 4):
        d = 1.0 + rng.random(3)
        off = 0.05 * rng.random(3)
        lines.append(
            f"{i} {j} {k} {d[0]} {d[1]} {d[2]} {off[0]} {off[1]} {off[2]}"
        )
        expected[i, j, k] = [
            [d[0], off[0], off[1]],
            [off[0], d[1], off[2]],
            [off[1], off[2], d[2]],
        ]
    path = tmp_path / "eps.txt"
    path.write_text("\n".join(lines) + "\n")
    field = load_tensor_file(grid, path)
    assert np.allclose(field.values, expected)


def test_tensor_file_defaults_offdiagonals(tmp_path):
    grid = build_grid(BoxDomain((1, 1, 1), (4, 4, 4), (0.5, 0.5, 0.5)))
    lines = [f"{i} {j} {k} 2 3 4" for i, j, k in np.ndindex(4, 4, 4)]
    path = tmp_path / "eps.txt"
    path.write_text("\n".join(lines) + "\n")
    field = load_tensor_file(grid, path)
    assert field.diagonal_only
    assert field.lambda_min_global == pytest.approx(2.0)


def test_tensor_file_missing_cell(tmp_path):
    grid = build_grid(BoxDomain((1, 1, 1), (4, 4, 4), (0.5, 0.5, 0.5)))
    path = tmp_path / "eps.txt"
    path.write_text("0 0 0 1 1 1\n")
    with pytest.raises(ConfigError):
        load_tensor_file(grid, path)
