"""Phase recursion: structure, residual decay, and the flattened variant."""

import numpy as np
import pytest

from maxdtn.eikonal import eikonal_coeffs, eikonal_residual
from maxdtn.errors import DegenerateRho, OrderBudgetExceeded, OutsideRetainedRegion
from maxdtn.geometry import (GammaSeries, MediaField, ScalarField, SurfaceChart,
                             gamma_pointwise)
from maxdtn.jets import Jet
from maxdtn.spectral import split_lambda

SP = split_lambda(5.0 + 2.0j)


def _phase(chart, media, base, xi, N, flattened=False):
    gs = GammaSeries(chart, base, n1=N + 1, order=N + 3)
    return eikonal_coeffs(gs, media, SP, xi, N=N, flattened=flattened)


def test_leading_coefficients():
    ps = _phase(SurfaceChart.sphere(1.0), MediaField.constant(1.0, 1.0),
                (1.1, 0.3), (0.7, -0.4), N=4)
    # phi_0 is linear with gradient -xi'
    p0 = ps.phis[0]
    assert abs(p0.value) < 1e-15
    assert abs(p0.coefficient(x2=1) + 0.7) < 1e-14
    assert abs(p0.coefficient(x3=1) - 0.4) < 1e-14
    # phi_1 is the root symbol with the upper-half-plane branch
    p1 = ps.phis[1].value
    assert p1.imag > 0.0
    assert abs(ps.rho - ps.rho_jet.value) == 0.0


@pytest.mark.parametrize("chart", [SurfaceChart.sphere(1.0),
                                   SurfaceChart.ellipsoid(1.0, 1.2, 0.8)],
                         ids=["sphere", "ellipsoid"])
def test_psi_series_matches_pointwise(chart):
    # the first n x1-coefficients psi_k of psi = gamma grad phi kept by the
    # recursion, summed, against
    # exact pointwise gamma times the phase gradient: the gap is O(x1^n)
    base = (1.1, 0.3)
    ps = _phase(chart, MediaField.constant(1.0, 1.0), base, (0.7, -0.4), N=4)
    x1s = np.geomspace(1e-3, 1e-1, 8)
    exact = (gamma_pointwise(chart, *base, x1s) @ ps.grad_at(x1s)[..., None])[..., 0]
    assert len(ps.psis) == 4
    for n in range(1, 5):
        series = sum(np.array([c.value for c in ps.psis[k]]) * x1s[:, None] ** k
                     for k in range(n))
        err = np.max(np.abs(series - exact), axis=-1)
        assert np.polyfit(np.log(x1s), np.log(err), 1)[0] > n - 0.2


def test_phase_forms_each_psi_once(monkeypatch):
    # psi_k is formed once per step and <psi, psi> only at its new x1^k
    # coefficient: an N = 5 phase on the ellipsoid makes at most 300 jet
    # products (__mul__), where re-forming psi and <psi, psi> at every step
    # made 518
    media = MediaField(
        ScalarField("affine", c0=1.3, g1=0.1, g2=-0.05, g3=0.2),
        ScalarField("affine", c0=1.1, g1=-0.07, g2=0.12, g3=0.03))
    gs = GammaSeries(SurfaceChart.ellipsoid(1.0, 1.2, 0.8), (1.1, 0.7), n1=5, order=8)
    calls = []
    mul = Jet.__mul__

    def counting(self, other):
        calls.append(1)
        return mul(self, other)

    monkeypatch.setattr(Jet, "__mul__", counting)
    ps = eikonal_coeffs(gs, media, SP, (4.0, -3.0), N=5)
    assert len(calls) <= 300
    assert len(ps.phis) == 6 and len(ps.psis) == 5


def test_residual_decay_sphere():
    ps = _phase(SurfaceChart.sphere(1.0), MediaField.constant(1.0, 1.0),
                (1.1, 0.3), (0.7, -0.4), N=4)
    x1s = np.geomspace(1e-3, 1e-1, 8)
    res = np.array([abs(eikonal_residual(ps, t)) for t in x1s])
    slope = np.polyfit(np.log(x1s), np.log(res), 1)[0]
    assert slope > 3.7


def test_residual_decay_ellipsoid_variable_media():
    media = MediaField(
        ScalarField("affine", c0=1.3, g1=0.1, g2=-0.05, g3=0.2),
        ScalarField("affine", c0=1.1, g1=-0.07, g2=0.12, g3=0.03))
    ps = _phase(SurfaceChart.ellipsoid(1.0, 1.2, 0.8), media,
                (1.2, 0.5), (0.5, 0.3), N=5)
    x1s = np.geomspace(1e-3, 5e-2, 8)
    res = np.array([abs(eikonal_residual(ps, t)) for t in x1s])
    keep = res > 1e-14
    slope = np.polyfit(np.log(x1s[keep]), np.log(res[keep]), 1)[0]
    assert slope > 4.7


def test_flat_chart_terminates():
    ps = _phase(SurfaceChart.plane(), MediaField.constant(1.0, 1.0),
                (0.2, -0.3), (0.7, -0.4), N=5)
    flat = max(abs(eikonal_residual(ps, t))
               for t in np.geomspace(1e-3, ps.x1_max(), 8))
    assert flat < 1e-13


def test_x1_max_and_region_guard():
    ps = _phase(SurfaceChart.sphere(1.0), MediaField.constant(1.0, 1.0),
                (1.1, 0.3), (0.7, -0.4), N=3)
    assert abs(ps.x1_max() - 2.0 * ps.delta * min(1.0, abs(ps.rho) ** 3)) < 1e-15
    with pytest.raises(OutsideRetainedRegion):
        eikonal_residual(ps, 2.0 * ps.x1_max())
    with pytest.raises(OutsideRetainedRegion):
        eikonal_residual(ps, 0.0)


def test_imag_lower_bound_holds():
    ps = _phase(SurfaceChart.sphere(1.0), MediaField.constant(1.0, 1.0),
                (1.1, 0.3), (0.7, -0.4), N=4)
    assert ps.imag_lower_bound_ok()


def test_flattened_media_independent():
    base, xi = (1.1, 0.3), (0.9, -0.6)
    chart = SurfaceChart.sphere(1.0)
    ps1 = _phase(chart, MediaField.constant(1.0, 1.0), base, xi, 4, flattened=True)
    ps2 = _phase(chart, MediaField.constant(3.0, 1.7), base, xi, 4, flattened=True)
    for k in range(5):
        d = (ps1.phis[k] - ps2.phis[k]).max_abs()
        assert d < 1e-13
    # flattened rho is i sqrt(r0)
    assert abs(ps1.rho.real) < 1e-13
    assert ps1.rho.imag > 0.0


def test_flattened_residual_decay():
    ps = _phase(SurfaceChart.sphere(1.0), MediaField.constant(1.0, 1.0),
                (1.1, 0.3), (0.9, -0.6), N=4, flattened=True)
    x1s = np.geomspace(1e-3, min(5e-2, 0.5 * ps.x1_max()), 6)
    res = np.array([abs(eikonal_residual(ps, t)) for t in x1s])
    slope = np.polyfit(np.log(x1s), np.log(res), 1)[0]
    assert slope > 3.7


def test_flattened_zero_covector_rejected():
    chart = SurfaceChart.sphere(1.0)
    gs = GammaSeries(chart, (1.1, 0.3), n1=4, order=6)
    with pytest.raises(DegenerateRho):
        eikonal_coeffs(gs, MediaField.constant(1.0, 1.0), SP, (0.0, 0.0),
                       N=3, flattened=True)


def test_series_too_short_rejected():
    chart = SurfaceChart.sphere(1.0)
    gs = GammaSeries(chart, (1.1, 0.3), n1=2, order=5)
    with pytest.raises(OrderBudgetExceeded):
        eikonal_coeffs(gs, MediaField.constant(1.0, 1.0), SP, (0.5, 0.1), N=4)


@pytest.mark.parametrize("flattened", [False, True])
@pytest.mark.parametrize("N", range(1, 7))
def test_gamma_order_too_low_rejected(N, flattened):
    # phi_0..phi_{N-1} are differentiated: a gamma series of order below
    # max(1, N - 1) is refused with both orders named, not left to fail
    # inside the recursion
    chart = SurfaceChart.sphere(1.0)
    need = max(1, N - 1)
    for order in range(N + 1):
        gs = GammaSeries(chart, (1.1, 0.3), n1=N, order=order)
        if order < need:
            with pytest.raises(OrderBudgetExceeded,
                               match=f"order {order} below the order {need} .* N = {N}"):
                eikonal_coeffs(gs, MediaField.constant(1.3, 0.9), SP, (0.5, 0.1), N=N,
                               flattened=flattened)
        else:
            ps = eikonal_coeffs(gs, MediaField.constant(1.3, 0.9), SP, (0.5, 0.1), N=N,
                                flattened=flattened)
            assert min(phi.order for phi in ps.phis[:N]) >= 1


@pytest.mark.parametrize("flattened", [False, True])
def test_batched_residual_matches_pointwise(flattened):
    media = MediaField(
        ScalarField("affine", c0=1.3, g1=0.1, g2=-0.05, g3=0.2),
        ScalarField("affine", c0=1.1, g1=-0.07, g2=0.12, g3=0.03))
    ps = _phase(SurfaceChart.ellipsoid(1.0, 1.2, 0.8), media,
                (1.2, 0.5), (0.5, 0.3), N=5, flattened=flattened)
    x1s = np.geomspace(1e-3, ps.x1_max(), 12).reshape(3, 4)
    res = eikonal_residual(ps, x1s)
    assert res.shape == x1s.shape
    assert ps.grad_at(x1s).shape == x1s.shape + (3,)
    for idx in np.ndindex(x1s.shape):
        assert res[idx] == eikonal_residual(ps, float(x1s[idx]))
    assert isinstance(eikonal_residual(ps, float(x1s[0, 0])), complex)


def test_batched_region_guard_names_first_bad():
    ps = _phase(SurfaceChart.sphere(1.0), MediaField.constant(1.0, 1.0),
                (1.1, 0.3), (0.7, -0.4), N=3)
    top = ps.x1_max()
    x1s = np.array([0.5 * top, 2.0 * top, 0.25 * top, 3.0 * top])
    with pytest.raises(OutsideRetainedRegion, match=f"x1={2.0 * top}"):
        eikonal_residual(ps, x1s)


def test_batched_phase_matches_each_point():
    # one build over points (z, xi') at one GammaSeries: element p equals the
    # build of point p alone, bit for bit, delta included.  The first point
    # (steep eps along the normal, near glancing) needs three halvings.
    gs = GammaSeries(SurfaceChart.plane(), (0.2, -0.3), n1=3, order=5)
    media = MediaField(ScalarField("affine", c0=9.0, g1=80.0, g2=0.0, g3=0.0),
                       ScalarField("constant", value=1.0))
    lams = np.array([5.0 + 0.05j, 5.0 + 0.05j, 5.0 + 2.0j])
    xi = (np.array([8.0 ** 0.5, 2.0, 0.4]), np.array([0.0, 0.0, -0.3]))
    ps = eikonal_coeffs(gs, media, split_lambda(lams), xi, N=2)
    assert ps.points == (3,)
    assert ps.phis[2].batch == (3, 1) and ps.psis[1][0].batch == (3, 1)
    for p in range(3):
        one = eikonal_coeffs(gs, media, split_lambda(lams[p]), (xi[0][p], xi[1][p]), N=2)
        assert one.points == () and one.phis[2].batch == ()
        assert np.asarray(ps.delta)[p, 0] == one.delta
        for k in range(3):
            assert np.array_equal(ps.phis[k].coef[p, 0], one.phis[k].coef)
        for k in range(2):
            for c in range(3):
                assert np.array_equal(ps.psis[k][c].coef[p, 0], one.psis[k][c].coef)
    assert one.delta == 0.1
    assert eikonal_coeffs(gs, media, split_lambda(lams[0]), (xi[0][0], 0.0), N=2).delta == 0.0125


@pytest.mark.parametrize("bad_xi", [0.0, 0.3 + 0.2j])
def test_batched_degenerate_point_is_named(bad_xi):
    # the flattened phase needs a real r0 > 0 at every point: the second has
    # xi' = 0 (r0 = 0) or a complex xi' (complex r0)
    gs = GammaSeries(SurfaceChart.sphere(1.0), (1.1, 0.3), n1=4, order=6)
    xi = (np.array([0.5, bad_xi, 0.2]), np.array([0.1, 0.0, 0.0]))
    with pytest.raises(DegenerateRho, match=r"batch index \(1,\)$"):
        eikonal_coeffs(gs, MediaField.constant(1.0, 1.0), SP, xi, N=3, flattened=True)
