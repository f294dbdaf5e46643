"""Charts, normal coordinates, gamma series, and media fields."""

import numpy as np
import pytest

from maxdtn.errors import FocalDegeneracy
from maxdtn.geometry import (GammaSeries, MediaField, ScalarField,
                             SurfaceChart, beta_pointwise, gamma_pointwise)
from maxdtn.jets import Jet

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
        series_val = sum(x1 ** k * gs.gamma_k(k).value for k in range(gs.n1))
        exact = gamma_pointwise(chart, base[0], base[1], x1)
        # gamma is rational in x1: the n1 = 4 truncation carries an O(x1^4) tail
        assert np.max(np.abs(series_val - exact)) < 1e-10 + 10.0 * x1 ** 4


def test_gamma_series_tangential_jets():
    # jet evaluation off the base point agrees with the pointwise frame
    chart = SurfaceChart.sphere(1.0)
    base = (1.0, 0.2)
    gs = GammaSeries(chart, base, n1=2, order=6)
    d2, d3 = 0.02, -0.03
    val = gs.gamma_k(0).evaluate(x2=d2, x3=d3)
    exact = gamma_pointwise(chart, base[0] + d2, base[1] + d3, 0.0)
    assert np.max(np.abs(val - exact)) < 1e-8


@pytest.mark.parametrize("chart", CHARTS, ids=lambda c: c.kind + str(c.params))
def test_gamma_series_is_dual_basis_of_jacobian(chart):
    # <gamma column i, J column j> as an x1-series is delta_ij in every jet
    # coefficient; gamma's column 0 is the normal itself, with no x1 term
    n1, order = 4, 4
    gs = GammaSeries(chart, (1.2, 0.6), n1=n1, order=order)
    nu, j2, j3 = chart.jacobian_series(gs.base, gs.embedding, n1, order)
    jac = [Jet.stack([nu if k == 0 else 0.0 * nu, j2.coeffs[k], j3.coeffs[k]])
           for k in range(n1)]
    gam = [gs.gamma_k(k) for k in range(n1)]
    scale = max(g.max_abs() for g in gam) * max(m.max_abs() for m in jac)
    for k in range(n1):
        # sum over l <= k and the component c of gamma_l[c, i] J_{k-l}[c, j]
        p = sum(gam[ell][..., :, :, None] * jac[k - ell][..., :, None, :]
                for ell in range(k + 1))
        pair = p[..., 0, :, :] + p[..., 1, :, :] + p[..., 2, :, :]
        want = np.zeros(pair.coef.shape)
        want[..., 0] = np.eye(3) if k == 0 else 0.0
        assert np.max(np.abs(pair.coef - want)) <= 1e-12 * scale, k
        col0 = gam[k][..., 0].coef
        if k == 0:
            assert np.array_equal(col0, gs.nu.coef) and np.array_equal(col0, nu.coef)
        else:
            assert not np.any(col0)


def test_gamma_series_small_sphere():
    # the determinant scales as R^2: a smooth sphere of radius 1e-7 builds,
    # and gamma(x', 0) matches the pointwise inverse on its own scale
    chart = SurfaceChart.sphere(1e-7)
    base = (1.2, 0.6)
    gs = GammaSeries(chart, base, n1=3, order=4)
    exact = gamma_pointwise(chart, *base)
    assert np.max(np.abs(gs.gamma_k(0).value - exact)) <= 1e-12 * np.max(np.abs(exact))


@pytest.mark.parametrize("base", [(0.0, 0.0), (np.pi, 0.0)], ids=["pole", "antipode"])
def test_gamma_series_at_the_poles_raises(base):
    # the chart's tangent d/dx3 vanishes there, so no normal can be formed
    with pytest.raises(FocalDegeneracy):
        GammaSeries(SurfaceChart.sphere(1.0), base, n1=3, order=4)


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
