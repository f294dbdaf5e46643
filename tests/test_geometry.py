"""Charts, normal coordinates, gamma series, and media fields."""

import numpy as np
import pytest

from maxdtn.geometry import (GammaSeries, MediaField, ScalarField,
                             SurfaceChart, beta_pointwise, gamma_pointwise)

CHARTS = [SurfaceChart.sphere(1.0), SurfaceChart.sphere(2.5),
          SurfaceChart.ellipsoid(1.0, 1.2, 0.8), SurfaceChart.plane()]


@pytest.mark.parametrize("chart", CHARTS, ids=lambda c: c.kind + str(c.params))
def test_frame_orthogonality(chart):
    rng = np.random.default_rng(3)
    x2, x3 = chart.random_points(200, rng, margin=0.05)
    fr = chart.frame(x2, x3)
    nu = fr["nu"]
    assert np.max(np.abs(np.sum(nu * nu, axis=-1) - 1.0)) < 1e-13
    assert np.max(np.abs(np.sum(nu * fr["t2"], axis=-1))) < 1e-12
    assert np.max(np.abs(np.sum(nu * fr["t3"], axis=-1))) < 1e-12


def test_sphere_normal_points_inward():
    chart = SurfaceChart.sphere(1.0)
    fr = chart.frame(1.0, 0.5)
    # on the unit sphere the inward normal is -s
    assert np.max(np.abs(fr["nu"] + fr["s"])) < 1e-13


@pytest.mark.parametrize("chart", CHARTS[:3], ids=lambda c: c.kind + str(c.params))
def test_normal_derivatives_finite_difference(chart):
    x2, x3, d = 1.1, 0.4, 1e-6
    fr = chart.frame(x2, x3)
    fd2 = (chart.frame(x2 + d, x3)["nu"] - chart.frame(x2 - d, x3)["nu"]) / (2 * d)
    fd3 = (chart.frame(x2, x3 + d)["nu"] - chart.frame(x2, x3 - d)["nu"]) / (2 * d)
    assert np.max(np.abs(fr["dnu2"] - fd2)) < 1e-8
    assert np.max(np.abs(fr["dnu3"] - fd3)) < 1e-8


@pytest.mark.parametrize("chart", CHARTS, ids=lambda c: c.kind + str(c.params))
def test_gamma_is_inverse_transpose(chart):
    rng = np.random.default_rng(5)
    x2, x3 = chart.random_points(50, rng, margin=0.05)
    for x1 in (0.0, 0.03):
        fr = chart.frame(x2, x3)
        j2 = fr["t2"] + x1 * fr["dnu2"]
        j3 = fr["t3"] + x1 * fr["dnu3"]
        jac = np.stack([fr["nu"], j2, j3], axis=-1)
        gam = gamma_pointwise(chart, x2, x3, x1)
        prod = np.einsum("...ji,...jk->...ik", gam, jac)
        assert np.max(np.abs(prod - np.eye(3))) < 1e-10


def test_gamma_first_column_is_normal():
    chart = SurfaceChart.ellipsoid(1.0, 1.2, 0.8)
    rng = np.random.default_rng(7)
    x2, x3 = chart.random_points(100, rng, margin=0.05)
    gam = gamma_pointwise(chart, x2, x3, 0.05)
    nu = chart.frame(x2, x3)["nu"]
    assert np.max(np.abs(gam[..., :, 0] - nu)) < 1e-12


@pytest.mark.parametrize("chart", CHARTS[:3], ids=lambda c: c.kind + str(c.params))
def test_gamma_series_matches_pointwise(chart):
    base = (1.2, 0.6)
    gs = GammaSeries(chart, base, n1=4, order=4)
    for x1 in (0.0, 0.01, 0.05):
        series_val = np.zeros((3, 3), dtype=complex)
        for k in range(gs.n1):
            series_val += x1 ** k * np.array(
                [[gs.gamma[i][j].coeffs[k].value for j in range(3)]
                 for i in range(3)])
        exact = gamma_pointwise(chart, base[0], base[1], x1)
        # gamma is rational in x1: the n1 = 4 truncation carries an O(x1^4) tail
        assert np.max(np.abs(series_val - exact)) < 1e-10 + 10.0 * x1 ** 4


def test_gamma_series_tangential_jets():
    # jet evaluation off the base point agrees with the pointwise frame
    chart = SurfaceChart.sphere(1.0)
    base = (1.0, 0.2)
    gs = GammaSeries(chart, base, n1=2, order=6)
    d2, d3 = 0.02, -0.03
    val = np.array([[gs.gamma[i][j].coeffs[0].evaluate(x2=d2, x3=d3)
                     for j in range(3)] for i in range(3)])
    exact = gamma_pointwise(chart, base[0] + d2, base[1] + d3, 0.0)
    assert np.max(np.abs(val - exact)) < 1e-8


def test_beta_tangential():
    for chart in CHARTS:
        rng = np.random.default_rng(11)
        x2, x3 = chart.random_points(100, rng, margin=0.05)
        xi2, xi3 = rng.uniform(-2, 2, 100), rng.uniform(-2, 2, 100)
        beta, r0 = beta_pointwise(chart, x2, x3, xi2, xi3)
        nu = chart.frame(x2, x3)["nu"]
        assert np.max(np.abs(np.sum(beta * nu, axis=-1))) < 1e-12
        assert np.max(np.abs(np.sum(beta * beta, axis=-1) - r0)) < 1e-12
        assert np.all(r0 >= 0.0)


def test_plane_beta_is_euclidean():
    chart = SurfaceChart.plane()
    beta, r0 = beta_pointwise(chart, 0.3, -0.5, 1.5, -2.0)
    assert np.max(np.abs(beta - np.array([0.0, 1.5, -2.0]))) < 1e-14
    assert abs(r0 - (1.5 ** 2 + 2.0 ** 2)) < 1e-13


def test_media_constant():
    media = MediaField.constant(2.0, 1.5)
    chart = SurfaceChart.sphere(1.0)
    eps, mu = media.boundary_values(chart, 1.0, 0.5)
    assert eps == 2.0 and mu == 1.5


def test_media_normal_series_matches_values_at():
    chart = SurfaceChart.ellipsoid(1.0, 1.2, 0.8)
    media = MediaField(
        ScalarField("affine", c0=1.3, g1=0.1, g2=-0.05, g3=0.2),
        ScalarField("affine", c0=1.1, g1=-0.07, g2=0.12, g3=0.03))
    base = (1.1, 0.7)
    gs = GammaSeries(chart, base, n1=4, order=6)
    eps_s, mu_s = media.normal_series(gs)
    for x1 in (0.0, 0.01, 0.05):
        es = sum(eps_s.coeffs[k].value * x1 ** k for k in range(4))
        ms = sum(mu_s.coeffs[k].value * x1 ** k for k in range(4))
        ev, mv = media.values_at(chart, base[0], base[1], x1)
        assert abs(es - ev) < 1e-10 + 0.5 * x1 ** 4
        assert abs(ms - mv) < 1e-10 + 0.5 * x1 ** 4


def test_scalar_field_unknown_formula():
    with pytest.raises(ValueError):
        ScalarField("nope", value=1.0)
