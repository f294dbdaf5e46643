"""Transport recursion: block structure, boundary conditions, and residuals."""

import numpy as np
import pytest

import maxdtn.transport
from maxdtn.crosssys import CrossSystem
from maxdtn.errors import OrderBudgetExceeded, OutsideRetainedRegion
from maxdtn.eikonal import eikonal_coeffs
from maxdtn.jets import Jet
from maxdtn.geometry import GammaSeries, MediaField, ScalarField, SurfaceChart, beta_pointwise
from maxdtn.numerics import cross, dot
from maxdtn.spectral import cutoff_eta, split_lambda, symbol_m
from maxdtn.transport import boundary_symbol, maxwell_residual, transport_coeffs

from coefficient_oracle import equation_residual, trial_batch_table

SP = split_lambda(5.0 + 2.0j)
CHART = SurfaceChart.sphere(1.0)
MEDIA = MediaField(
    ScalarField("affine", c0=1.3, g1=0.1, g2=-0.05, g3=0.2),
    ScalarField("affine", c0=1.1, g1=-0.07, g2=0.12, g3=0.03))
BASE = (1.1, 0.7)
XI = (0.4, -0.3)


def _basis(table, name):
    """Per-basis dicts {slot: jet 3-vector} of the batched table ``name``."""
    return [{s: [c[i] for c in v] for s, v in table.batched[name].items()} for i in range(3)]


@pytest.fixture(scope="module")
def table():
    N, J = 3, 2
    gs = GammaSeries(CHART, BASE, n1=N + J, order=N + J + 3)
    ps = eikonal_coeffs(gs, MEDIA, SP, XI, N=N + J)
    return transport_coeffs(ps, MEDIA, N=N, J=J)


def test_principal_block_is_m(table):
    mval = symbol_m(SP, CHART, MEDIA)(BASE[0], BASE[1], XI[0], XI[1])
    nu = np.array([c.value.real for c in table.gs.nu])
    Pt = np.eye(3) - np.outer(nu, nu)
    assert np.max(np.abs(table.iota_nu_B(0) - mval @ Pt)) < 1e-13


def test_higher_levels_have_no_tangential_trace(table):
    nu = np.array([c.value.real for c in table.gs.nu])
    for j in range(1, table.J + 1):
        A = table.matrix("A", j, 0)
        err = max(np.max(np.abs(np.cross(nu, A[:, c]))) for c in range(3))
        assert err < 1e-12


def test_phase_amplitude_orthogonality(table):
    # x1-coefficients of <gamma grad phi, a_0> vanish through the retained
    # orders: the level-0 amplitude stays transversal to the complex ray
    psi = table.psis
    ta = _basis(table, "a")
    for i in range(3):
        for k in range(table.K[0]):
            acc = None
            for ell in range(k + 1):
                t = dot(psi[k - ell], ta[i][(0, ell)])
                acc = t if acc is None else acc + t
            assert abs(acc.value) < 1e-10


def test_equation_coefficients_vanish(table):
    # both first-order equations, coefficient by coefficient, at every
    # retained (j, k): the defining property of the consistent scheme
    assert equation_residual(table) < 1e-10


@pytest.mark.parametrize("media", [MEDIA, MediaField.constant(1.3, 0.9)],
                         ids=["affine", "constant"])
@pytest.mark.parametrize("N,J", [(3, 2), (4, 2)])
def test_equation_coefficients_vanish_ellipsoid(media, N, J):
    # every jet coefficient, not only values: the ellipsoid at N/J = 3/2
    # and 4/2 is where rounding in the solvability choice shows most
    chart = SurfaceChart.ellipsoid(1.0, 1.2, 0.8)
    gs = GammaSeries(chart, BASE, n1=N + J, order=N + J + 3)
    ps = eikonal_coeffs(gs, media, SP, XI, N=N + J)
    assert equation_residual(transport_coeffs(ps, media, N=N, J=J)) <= 1e-10


@pytest.mark.parametrize("media", [MEDIA, MediaField.constant(1.3, 0.9)],
                         ids=["affine", "constant"])
@pytest.mark.parametrize("N,J", [(3, 2), (4, 2)])
def test_consistent_slot_solves_its_datum(media, N, J):
    # every slot the solvability choice sets is the direct solve of its own
    # right-hand side with g = nu x a_{j,k}, although the recursion formed it
    # from the three trial solutions
    chart = SurfaceChart.ellipsoid(1.0, 1.2, 0.8)
    gs = GammaSeries(chart, BASE, n1=N + J, order=N + J + 3)
    ps = eikonal_coeffs(gs, media, SP, XI, N=N + J)
    tab = transport_coeffs(ps, media, N=N, J=J)
    assert tab.r0 >= 1e-12
    checked = 0
    for j in range(J):
        for k in range(1, tab.K[j]):
            g = cross(tab.nu, tab.a[(j, k)])
            direct = tab.system.solve(*tab.rhs(j, k), g)
            for name, ref in zip(("a", "b", "nu_cross_b"), direct):
                got = np.array([c.coef for c in tab.batched[name][(j, k)]])
                want = np.array([c.coef for c in ref])
                assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
            checked += 1
    assert checked == sum(tab.K[j] - 1 for j in range(J))


def test_one_solve_per_slot(monkeypatch):
    # every slot is one solve of its own data; the consistent slots combine
    # it with the two tau solutions, which the table solves once
    N, J = 4, 2
    gs = GammaSeries(CHART, BASE, n1=N + J, order=N + J + 3)
    ps = eikonal_coeffs(gs, MEDIA, SP, XI, N=N + J)
    calls = []
    solve = CrossSystem.solve

    def counting(self, *args):
        calls.append(1)
        return solve(self, *args)

    monkeypatch.setattr(CrossSystem, "solve", counting)
    for scheme, tau_solves in (("consistent", 2), ("literal", 0)):
        calls.clear()
        tab = transport_coeffs(ps, MEDIA, N=N, J=J, scheme=scheme)
        assert tab.scheme == scheme
        assert len(tab.a) == sum(tab.K.values())
        assert len(calls) == len(tab.a) + tau_solves


def test_pointwise_residual_slope(table):
    x1s = np.geomspace(3e-4, 3e-2, 8)
    res = []
    for x1 in x1s:
        V1, V2 = maxwell_residual(table, float(x1), h=1e-6,
                                  ftilde=(0.3, -0.5, 0.8))
        res.append(max(np.max(np.abs(V1)), np.max(np.abs(V2))))
    res = np.array(res)
    keep = res > 3e-14
    slope = np.polyfit(np.log(x1s[keep]), np.log(res[keep]), 1)[0]
    assert slope >= table.N + table.J - 0.7


def test_residual_region_guard(table):
    with pytest.raises(OutsideRetainedRegion):
        maxwell_residual(table, 10.0, h=1e-6)


def test_flat_chart_collapses():
    N, J = 3, 2
    gs = GammaSeries(SurfaceChart.plane(), (0.2, -0.3), n1=N + J, order=N + J + 3)
    media = MediaField.constant(1.0, 1.0)
    ps = eikonal_coeffs(gs, media, SP, XI, N=N + J)
    tab = transport_coeffs(ps, media, N=N, J=J)
    worst = 0.0
    ta, tb = _basis(tab, "a"), _basis(tab, "b")
    for i in range(3):
        for (j, k), av in ta[i].items():
            if (j, k) == (0, 0):
                continue
            worst = max(worst, max(abs(c.value) for c in av))
            worst = max(worst, max(abs(c.value) for c in tb[i][(j, k)]))
    assert worst < 1e-12


def test_media_other_than_the_phases_raise():
    # the media series come from the phase: equal values are not enough
    gs = GammaSeries(CHART, BASE, n1=2, order=5)
    ps = eikonal_coeffs(gs, MediaField.constant(1.0, 1.0), SP, XI, N=2)
    with pytest.raises(ValueError, match="media.*phase was built with"):
        transport_coeffs(ps, MediaField.constant(1.0, 1.0), N=1, J=0)


def test_order_budget_guard():
    gs = GammaSeries(CHART, BASE, n1=2, order=5)
    ps = eikonal_coeffs(gs, MEDIA, SP, XI, N=2)
    with pytest.raises(OrderBudgetExceeded):
        transport_coeffs(ps, MEDIA, N=3, J=2)


def test_boundary_symbol_blocks(table):
    sym = boundary_symbol(table)
    assert np.max(np.abs(sym.m - table.iota_nu_B(0))) == 0.0
    assert np.max(np.abs(sym.m_tilde_full - (sym.n + table.iota_nu_B(1)))) == 0.0


def test_flattened_corrector_built_once_on_read(monkeypatch):
    # the symbol forms m, n and m_tilde_full; the flattened phase and
    # transport of m_tilde run on its first read only
    flattened = []
    phase = maxdtn.transport.eikonal_coeffs

    def recording(*args, **kwargs):
        flattened.append(kwargs.get("flattened", False))
        return phase(*args, **kwargs)

    gs = GammaSeries(CHART, BASE, n1=3, order=6)
    ps = eikonal_coeffs(gs, MEDIA, SP, (4.0, -3.0), N=3)
    monkeypatch.setattr(maxdtn.transport, "eikonal_coeffs", recording)
    sym = boundary_symbol(transport_coeffs(ps, MEDIA, N=2, J=1))
    assert flattened == []
    first = sym.m_tilde
    assert flattened == [True]
    assert sym.m_tilde is first
    assert flattened == [True]


def test_short_series_raises_on_corrector_read():
    # m_tilde reads the N = 2 flattened phase: a two-term series carries it,
    # equal to the three-term series' result; a one-term series carries the
    # symbol's own build but not that phase, so only reading m_tilde raises
    xi = (4.0, -3.0)
    gs = GammaSeries(CHART, BASE, n1=2, order=5)
    ps = eikonal_coeffs(gs, MEDIA, SP, xi, N=2)
    tab = transport_coeffs(ps, MEDIA, N=1, J=1)
    sym = boundary_symbol(tab)
    assert np.array_equal(sym.m, tab.iota_nu_B(0))
    assert np.array_equal(sym.m_tilde_full, sym.n + tab.iota_nu_B(1))
    gs3 = GammaSeries(CHART, BASE, n1=3, order=5)
    sym3 = boundary_symbol(transport_coeffs(eikonal_coeffs(gs3, MEDIA, SP, xi, N=3),
                                            MEDIA, N=2, J=1))
    assert np.array_equal(sym.m_tilde, sym3.m_tilde)
    gs1 = GammaSeries(CHART, BASE, n1=1, order=5)
    tab1 = transport_coeffs(eikonal_coeffs(gs1, MEDIA, SP, xi, N=1), MEDIA, N=1, J=0)
    sym1 = boundary_symbol(tab1)
    assert np.array_equal(sym1.m, tab1.iota_nu_B(0))
    with pytest.raises(OrderBudgetExceeded):
        sym1.m_tilde


def test_corrector_media_independence():
    # mu0 * m_tilde is the same matrix for different constant media at a
    # cotangent point beyond the cutoff support
    xi_big = (5.2, 3.1)
    vals = []
    for e0, m0 in [(1.0, 1.0), (2.0, 1.3), (3.0, 0.7)]:
        med = MediaField.constant(e0, m0)
        gsb = GammaSeries(CHART, BASE, n1=3, order=4)
        psb = eikonal_coeffs(gsb, med, SP, xi_big, N=3)
        tb = transport_coeffs(psb, med, N=2, J=1)
        vals.append(m0 * boundary_symbol(tb).m_tilde)
    spread = max(np.max(np.abs(v - vals[0])) for v in vals[1:])
    assert spread < 1e-12


def test_table_views_match_batched_storage(table):
    # matrix() and iota_nu_B() read the basis elements of the one batched pass
    for j in range(table.J + 1):
        for k in range(table.K[j]):
            for which, name in (("A", "a"), ("B", "b")):
                cols = [[c.value for c in per[(j, k)]] for per in _basis(table, name)]
                assert np.array_equal(table.matrix(which, j, k), np.array(cols).T)
        cols = [[c.value for c in per[(j, 0)]] for per in _basis(table, "nu_cross_b")]
        assert np.array_equal(table.iota_nu_B(j), np.array(cols).T)


def test_one_batched_pass_op_count(monkeypatch):
    # the three basis data share one recursion: a consistent N=2, J=1 build
    # makes at most 40% of the 4,941 jet products (__mul__ and __rmul__) of
    # the former column-by-column build, which ran the recursion per datum
    med = MediaField.constant(1.3, 0.9)
    gs = GammaSeries(CHART, BASE, n1=3, order=6)
    ps = eikonal_coeffs(gs, med, SP, XI, N=3)
    calls = []
    mul = Jet.__mul__

    def counting(self, other):
        calls.append(1)
        return mul(self, other)

    monkeypatch.setattr(Jet, "__mul__", counting)
    monkeypatch.setattr(Jet, "__rmul__", counting)
    tab = transport_coeffs(ps, med, N=2, J=1)
    assert tab.scheme == "consistent"
    assert len(calls) <= 0.4 * 4941


def test_batched_residual_matches_pointwise(table):
    # x1 = 0 is inside the closed region the residual accepts
    x1s = np.concatenate([[0.0], np.geomspace(3e-4, 3e-2, 7)]).reshape(2, 4)
    V1, V2 = maxwell_residual(table, x1s, h=1e-3, ftilde=(0.3, -0.5, 0.8))
    assert V1.shape == V2.shape == x1s.shape + (3,)
    for idx in np.ndindex(x1s.shape):
        W1, W2 = maxwell_residual(table, float(x1s[idx]), h=1e-3,
                                  ftilde=(0.3, -0.5, 0.8))
        assert np.array_equal(V1[idx], W1) and np.array_equal(V2[idx], W2)


def test_batched_residual_region_guard(table):
    x1s = np.array([1e-3, 10.0, 2e-3])
    with pytest.raises(OutsideRetainedRegion, match="x1=10.0"):
        maxwell_residual(table, x1s, h=1e-6)


def test_media_series_formed_once_per_build(monkeypatch):
    # the eikonal forms eps and mu along the normal once and the transport
    # recursion reads them from the phase; reading the flattened corrector
    # forms them once more, for its own phase
    calls = []
    series = MediaField.normal_series

    def counting(self, gs):
        calls.append(1)
        return series(self, gs)

    monkeypatch.setattr(MediaField, "normal_series", counting)
    chart = SurfaceChart.ellipsoid(1.0, 1.2, 0.8)
    gs = GammaSeries(chart, BASE, n1=5, order=8)
    ps = eikonal_coeffs(gs, MEDIA, SP, XI, N=5)
    tab = transport_coeffs(ps, MEDIA, N=3, J=2)
    assert len(calls) == 1
    # the table keeps a prefix of each series, truncated to its input order
    for mine, phase in ((tab.eps_k, ps.eps_k), (tab.mu_k, ps.mu_k)):
        assert len(mine) == tab.K[0] <= len(phase)
        for c, full in zip(mine, phase):
            assert c.order <= full.order
            assert np.array_equal(c.coef, full.coef[..., :c.coef.shape[-1]])
    sym = boundary_symbol(transport_coeffs(eikonal_coeffs(gs, MEDIA, SP, XI, N=3), MEDIA, N=2, J=1))
    assert len(calls) == 2
    sym.m_tilde
    assert len(calls) == 3


def _slot_orders(tab):
    return [c.order for d in tab.batched.values() for v in d.values() for c in v]


def _slots_and_residual(tab):
    """Every slot's values and first derivatives, and the pointwise residual."""
    slots = {(name, s): [(c.value, c.derivative("x2").value, c.derivative("x3").value)
                         for c in v]
             for name, d in tab.batched.items() for s, v in d.items()}
    x1s = np.geomspace(3e-4, 3e-2, 5)
    return slots, maxwell_residual(tab, x1s, h=1e-3, ftilde=(0.3, -0.5, 0.8))


@pytest.mark.parametrize("scheme", ["consistent", "literal"])
@pytest.mark.parametrize("chart", [CHART, SurfaceChart.ellipsoid(1.0, 1.2, 0.8)],
                         ids=["sphere", "ellipsoid"])
def test_truncated_inputs_change_no_slot(monkeypatch, chart, scheme):
    # the table's inputs are cut to the order its recursion consumes: every
    # slot value, first derivative and residual is bitwise that of an
    # untruncated build, every slot keeps order >= 1, and one order less
    # leaves a slot at order 0
    rule = maxdtn.transport._input_order
    for N in range(1, 5):
        for J in range(4):
            for extra in (0, 3):
                gs = GammaSeries(chart, BASE, n1=N + J, order=N + J + extra)
                ps = eikonal_coeffs(gs, MEDIA, SP, XI, N=N + J)
                tab = transport_coeffs(ps, MEDIA, N=N, J=J, scheme=scheme)
                assert min(_slot_orders(tab)) >= 1
                monkeypatch.setattr(maxdtn.transport, "_input_order", lambda *a: 100)
                full = transport_coeffs(ps, MEDIA, N=N, J=J, scheme=scheme)
                if extra:
                    lower = rule(N, J, scheme) - 1
                    monkeypatch.setattr(maxdtn.transport, "_input_order", lambda *a: lower)
                    assert min(_slot_orders(transport_coeffs(ps, MEDIA, N=N, J=J,
                                                             scheme=scheme))) == 0
                monkeypatch.setattr(maxdtn.transport, "_input_order", rule)
                got, want = _slots_and_residual(tab), _slots_and_residual(full)
                assert got[0].keys() == want[0].keys()
                for key in want[0]:
                    assert np.array_equal(got[0][key], want[0][key])
                for g, w in zip(got[1], want[1]):
                    assert np.array_equal(g, w)


def test_symbol_sweep_table_holds_no_jet_above_its_order():
    # an N = 2, J = 1 table from an order-6 gamma series: input order 3,
    # whatever the series carries
    gs = GammaSeries(_ELLIPSOID, BASE, n1=3, order=6)
    ps = eikonal_coeffs(gs, MEDIA, SP, (4.0, -3.0), N=3)
    assert max(c.order for p in ps.psis for c in p) == 5
    tab = transport_coeffs(ps, MEDIA, N=2, J=1)
    inputs = ([c for p in tab.psis for c in p] + tab.eps_k + tab.mu_k + tab.nu
              + list(tab.system.beta) + [tab.system.rho]
              + [c for m in tab.gcols for col in m for c in col])
    assert max(c.order for c in inputs) == 3
    assert max(_slot_orders(tab)) == 3 and min(_slot_orders(tab)) == 1


def _symbols(lams, xi, N=3, J=1):
    gs = GammaSeries(CHART, BASE, n1=N, order=6)
    ps = eikonal_coeffs(gs, MEDIA, split_lambda(lams), xi, N=N)
    return boundary_symbol(transport_coeffs(ps, MEDIA, N=2, J=J))


def test_batched_symbol_matches_each_point():
    # one transport pass over points (z, xi') at one GammaSeries: amplitudes
    # of batch P + (3,), and element p of every symbol matrix as the build of
    # point p alone.  The last point has xi' = 0, where r0 < 1e-12 takes the
    # zero datum in place of the solvability choice.
    lams = np.array([5.0 + 2.0j, 40.0 + 20.0j, 3.0 - 1.0j, 5.0 + 2.0j])
    xi = (np.array([0.4, 4.0, -1.2, 0.0]), np.array([-0.3, -3.0, 0.5, 0.0]))
    sym = _symbols(lams, xi)
    assert sym.m.shape == sym.m_tilde_full.shape == sym.n.shape == (4, 3, 3)
    for p in range(4):
        one = _symbols(lams[p], (xi[0][p], xi[1][p]))
        assert one.m.shape == (3, 3)
        for name in ("m", "m_tilde_full", "n"):
            a, b = getattr(sym, name)[p], getattr(one, name)
            assert np.max(np.abs(a - b)) <= 1e-13 * np.max(np.abs(b))


def test_batched_flattened_corrector_matches_each_point():
    # m_tilde of a batch: r0 beyond the cutoff support, and one point inside
    # its transition r0 in [10, 20]
    lams = np.array([5.0 + 2.0j, 7.0 + 1.0j, 5.0 + 2.0j])
    xi = (np.array([5.2, -4.0, 3.5]), np.array([3.1, 2.5, 0.3]))
    r0 = beta_pointwise(CHART, *BASE, *xi)[1]
    assert r0[0] > 20.0 and r0[1] > 20.0 and 10.0 < r0[2] < 20.0
    sym = _symbols(lams, xi)
    assert sym.m_tilde.shape == (3, 3, 3)
    for p in range(3):
        one = _symbols(lams[p], (xi[0][p], xi[1][p])).m_tilde
        assert np.max(np.abs(sym.m_tilde[p] - one)) <= 1e-13 * np.max(np.abs(one))


def test_right_hand_side_formed_once(monkeypatch):
    # the level-(j+1), order-(k-1) right-hand side formed for the solvability
    # choice of slot (j, k) is completed, not formed again, at its own slot
    formed = []
    grad_cross = maxdtn.transport._grad_cross

    def counting(cols, vec):
        formed.append(1)
        return grad_cross(cols, vec)

    gs = GammaSeries(CHART, BASE, n1=3, order=6)
    ps = eikonal_coeffs(gs, MEDIA, SP, XI, N=3)
    monkeypatch.setattr(maxdtn.transport, "_grad_cross", counting)
    tab = transport_coeffs(ps, MEDIA, N=2, J=1)
    # level 1 has orders k = 0, 1: sum_k 2 (k + 1) curl terms, each once
    assert len(formed) == 2 * (1 + 2)
    assert tab.K == {0: 3, 1: 2}


_ELLIPSOID = SurfaceChart.ellipsoid(1.0, 1.2, 0.8)


@pytest.mark.parametrize("media", [MEDIA, MediaField.constant(1.3, 0.9)],
                         ids=["affine", "constant"])
@pytest.mark.parametrize("chart", [CHART, _ELLIPSOID], ids=["sphere", "ellipsoid"])
@pytest.mark.parametrize("batched", [False, True], ids=["point", "batch"])
def test_flattened_corrector_reads_its_blocks_only(media, chart, batched):
    # m_tilde builds an N = 2 flattened phase and an N = 1, J = 1 table; it
    # equals the corrector formed from the N = 3 phase and the N = 2, J = 1
    # table, whose slots (0, 2) and (1, 1) it never read
    if batched:
        sp = split_lambda(np.array([5.0 + 2.0j, 7.0 + 1.0j, 5.0 + 2.0j]))
        xi = (np.array([5.2, -4.0, 3.5]), np.array([3.1, 2.5, 0.3]))
    else:
        sp, xi = SP, (5.2, 3.1)
    gs = GammaSeries(chart, BASE, n1=3, order=6)
    ps = eikonal_coeffs(gs, media, sp, xi, N=3)
    sym = boundary_symbol(transport_coeffs(ps, media, N=2, J=1))
    dxi = maxdtn.transport._dxi_ingredients(gs, xi)
    n_flat = maxdtn.transport._commutator_n(
        gs, maxdtn.transport._dxi_m0_cut(sp.z, ps.mu_k[0].value, *dxi))
    ps_flat = eikonal_coeffs(gs, media, sp, xi, N=3, flattened=True)
    t_flat = transport_coeffs(ps_flat, media, N=2, J=1)
    r0 = dxi[1]
    want = n_flat + np.asarray(1.0 - cutoff_eta(r0))[..., None, None] * t_flat.iota_nu_B(1)
    assert sym.m_tilde.shape == want.shape == np.shape(r0) + (3, 3)
    assert np.array_equal(sym.m_tilde, want)


@pytest.mark.parametrize("batched", [False, True], ids=["point", "batch"])
def test_consistent_slots_match_trial_batch(batched):
    # every slot (a, b, nu x b) equals the (data, tau0, tau1) trial batch
    # solved with explicit zero vectors; the batch has a point with xi' = 0
    # (r0 < 1e-12), which takes its data trial alone
    N, J = 4, 2
    if batched:
        sp = split_lambda(np.array([5.0 + 2.0j, 40.0 + 20.0j, 3.0 - 1.0j]))
        xi = (np.array([0.4, 4.0, 0.0]), np.array([-0.3, -3.0, 0.0]))
    else:
        sp, xi = SP, XI
    gs = GammaSeries(_ELLIPSOID, BASE, n1=N + J, order=N + J + 3)
    ps = eikonal_coeffs(gs, MEDIA, sp, xi, N=N + J)
    tab = transport_coeffs(ps, MEDIA, N=N, J=J)
    ref = trial_batch_table(ps, N, J)
    if batched:
        assert np.count_nonzero(tab.r0 < 1e-12) == 1
    assert tab.a.keys() == ref.a.keys()
    for name in ("a", "b", "nu_cross_b"):
        for slot, vec in tab.batched[name].items():
            for got, want in zip(vec, ref.batched[name][slot]):
                assert got.order == want.order
                assert np.array_equal(got.coef, want.coef), (name, slot)
