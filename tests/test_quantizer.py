"""Discrete quantization on the grid: exactness, norms, and warnings."""

import tracemalloc
import warnings

import numpy as np
import pytest

import quantizer_oracle as oracle
from maxdtn import cli, quantizer
from maxdtn.config import RunConfig
from maxdtn.quantizer import (AliasWarning, ConvergenceWarning,
                              _defect_operator, _kind, _nyquist_mass, _sample,
                              boundedness_check, composition_defect,
                              operator_norm, quantize)
from quantizer_oracle import flat


def test_identity_symbol_exact():
    op = quantize(lambda x1, x2, s1, s2: 1.0 + 0.0 * x1 + 0.0 * s1, 0.1, 8)
    assert np.array_equal(op.matrix, np.eye(64, dtype=complex))
    assert operator_norm(op.matrix) == 1.0


def test_constant_symbol_exact():
    op = quantize(lambda x1, x2, s1, s2: (2.0 - 1.0j) + 0.0 * x1 + 0.0 * s1,
                  0.1, 8)
    assert np.array_equal(op.matrix, (2.0 - 1.0j) * np.eye(64, dtype=complex))


def test_multiplication_symbol_is_diagonal():
    a = lambda x1, x2, s1, s2: np.cos(x1) + np.sin(2 * x2) + 0.0 * s1
    op = quantize(a, 0.1, 8)
    assert np.count_nonzero(op.matrix - np.diag(np.diag(op.matrix))) == 0
    x = np.arange(8) * (2 * np.pi / 8)
    X1, X2 = np.meshgrid(x, x, indexing="ij")
    want = (np.cos(X1) + np.sin(2 * X2)).ravel()
    assert np.max(np.abs(np.diag(op.matrix) - want)) < 1e-14


def test_multiplier_symbol_on_plane_waves():
    # a pure xi-symbol acts on e^{i k x} by multiplication with a(h k)
    h, n = 0.25, 8
    a = lambda x1, x2, s1, s2: 1.0 / (1.0 + s1 ** 2 + 0.5 * s2 ** 2) + 0.0 * x1
    op = quantize(a, h, n)
    x = np.arange(n) * (2 * np.pi / n)
    X1, X2 = np.meshgrid(x, x, indexing="ij")
    for k1, k2 in [(0, 0), (1, 0), (2, 3), (-3, 1)]:
        v = np.exp(1j * (k1 * X1 + k2 * X2)).ravel()
        want = a(0, 0, h * k1, h * k2) * v
        assert np.max(np.abs(op.matrix @ v - want)) < 1e-12


def test_mixed_symbol_matches_direct_sum():
    # independent assembly of the quantization formula on a small grid
    h, n = 0.2, 4
    rng = np.random.default_rng(14)
    c = rng.normal(size=4)

    def a(x1, x2, s1, s2):
        return (c[0] + c[1] * np.cos(x1) + c[2] * np.sin(s2)
                + c[3] * np.cos(x2) * np.sin(s1))

    op = quantize(a, h, n)
    x = np.arange(n) * (2 * np.pi / n)
    k = np.fft.fftfreq(n, d=1.0 / n)
    pts = [(x[i], x[j]) for i in range(n) for j in range(n)]
    freqs = [(k[i], k[j]) for i in range(n) for j in range(n)]
    M = np.zeros((n * n, n * n), dtype=complex)
    for r, (x1, x2) in enumerate(pts):
        for cc, (y1, y2) in enumerate(pts):
            s = 0.0j
            for (k1, k2) in freqs:
                s += (a(x1, x2, h * k1, h * k2)
                      * np.exp(1j * (k1 * (x1 - y1) + k2 * (x2 - y2))))
            M[r, cc] = s / (n * n)
    assert np.max(np.abs(op.matrix - M)) < 1e-11


def _unitary(rng, m):
    Q, R = np.linalg.qr(rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m)))
    return Q * (np.diag(R) / np.abs(np.diag(R)))


def test_operator_norm_matches_svd():
    rng = np.random.default_rng(15)
    cases = [rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m))
             for m in (40, 40, 40, 40, 40, 3, 8, 16, 32)]
    # clustered top singular values, the gap from 1e-4 down to a double one
    for m in (3, 8, 16, 32):
        for gap in (1e-4, 5e-5, 1e-6, 0.0):
            s = np.concatenate([[1.0, 1.0 - gap],
                                np.sort(rng.uniform(0.1, 0.9, m - 2))[::-1]])
            cases.append((_unitary(rng, m) * s) @ _unitary(rng, m).conj().T)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for M in cases:
            ref = np.linalg.svd(M, compute_uv=False)[0]
            assert abs(operator_norm(M) - ref) <= 1e-12 * ref


@pytest.mark.parametrize("gap", [1e-4, 9e-5, 5e-5, 1e-5])
def test_operator_norm_clustered_diagonal(gap):
    # two successive estimates of a tight cluster agree long before either
    # is the norm; the Ritz residual does not stop there
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert abs(operator_norm(np.diag([1.0, 1.0 - gap, 0.5])) - 1.0) <= 1e-12


def test_alias_warning():
    n = 8
    # mixed symbol with all its spatial mass at the Nyquist band
    with pytest.warns(AliasWarning):
        quantize(lambda x1, x2, s1, s2:
                 np.cos((n // 2) * x1) * (1.0 + 0.1 * np.sin(s1)), 0.1, n)


def test_alias_warning_odd_grid():
    # odd n: the band is the two frequencies +-(n - 1)/2
    n = 9
    with pytest.warns(AliasWarning):
        quantize(lambda x1, x2, s1, s2:
                 np.cos((n // 2) * x2) * (1.0 + 0.1 * np.sin(s1)), 0.1, n)


@pytest.mark.parametrize("n", [8, 9])
def test_nyquist_mass_matches_full_fft(n):
    rng = np.random.default_rng(n)
    A = rng.normal(size=(n * n, n * n)) + 1j * rng.normal(size=(n * n, n * n))
    spec = np.fft.fft2(A.reshape(n, n, n * n), axes=(0, 1))
    k = np.abs(np.fft.fftfreq(n, d=1.0 / n))
    top = (k[:, None] >= n // 2) | (k[None, :] >= n // 2)
    mass, total = _nyquist_mass(A.reshape(n, n, n, n), n)
    assert abs(mass - np.sum(np.abs(spec[top, :]) ** 2)) <= 1e-12 * mass
    assert abs(total - np.sum(np.abs(spec) ** 2)) <= 1e-12 * total


def _dense_quantization(a, h, n):
    # the quantization formula as a product of two n^2 x n^2 DFT tables
    X1, X2, K1, K2 = flat(n)
    A = np.broadcast_to(a(X1[:, None], X2[:, None], h * K1[None, :],
                          h * K2[None, :]), (n * n, n * n))
    G = np.exp(1j * (X1[:, None] * K1[None, :] + X2[:, None] * K2[None, :]))
    H = np.exp(-1j * (K1[:, None] * X1[None, :] + K2[:, None] * X2[None, :]))
    return (A * G) @ H / (n * n)


@pytest.mark.parametrize("n", [5, 16, 32])
def test_fft_assembly_matches_dense_product(n):
    mixed = lambda x1, x2, s1, s2: (np.exp(1j * x1) * (1.0 + 0.5 * np.sin(s2 + 0.3))
                                    + np.cos(x2) * s1 ** 2)
    multiplier = lambda x1, x2, s1, s2: 1.0 / (1.0 + s1 ** 2 + 0.3j * s2) + 0.0 * x1
    for a in (mixed, multiplier):
        want = _dense_quantization(a, 0.1, n)
        got = quantize(a, 0.1, n).matrix
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_multiplier_norm_matches_svd():
    def factory(h, th):
        def a(x1, x2, s1, s2):
            w = np.sqrt(complex(1.0, th) ** 2 - (s1 ** 2 + s2 ** 2))
            return 1.0 / np.where(w.imag > 0.0, w, -w) + 0.0 * x1
        return a
    rows, _ = boundedness_check(factory, [0.1], (0.1, 0.4), n=16)
    for h, th, norm in rows:
        ref = np.linalg.svd(quantize(factory(h, th), h, 16).matrix,
                            compute_uv=False)[0]
        assert abs(norm - ref) <= 1e-12 * ref


def test_operator_norm_warns_when_unconverged(monkeypatch):
    # about 22 Lanczos steps converge on this matrix; a cap of 3 warns and
    # returns the last estimate, a lower bound on the norm
    rng = np.random.default_rng(15)
    M = rng.normal(size=(40, 40)) + 1j * rng.normal(size=(40, 40))
    ref = np.linalg.svd(M, compute_uv=False)[0]
    monkeypatch.setattr(quantizer, "POWER_ITERS", 3)
    with pytest.warns(ConvergenceWarning):
        est = operator_norm(M)
    assert 0.5 * ref < est <= ref * (1.0 + 1e-12)
    assert abs(est - ref) > 1e-6 * ref
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert abs(operator_norm(np.diag([1.0, 0.5, 0.25])) - 1.0) < 1e-9


def test_smooth_symbol_no_warning(recwarn):
    quantize(lambda x1, x2, s1, s2: np.cos(x1) + 0.0 * s1, 0.1, 16)
    assert not any(isinstance(w.message, AliasWarning) for w in recwarn.list)


def test_grid_budget():
    with pytest.raises(ValueError):
        quantize(lambda x1, x2, s1, s2: 1.0, 0.1, 65)


def test_composition_defect_first_order():
    a = lambda x1, x2, s1, s2: np.exp(1j * x1) * (1.0 + 0.5 * np.sin(s2 + 0.3))
    b = lambda x1, x2, s1, s2: np.cos(x2) * (1.0 + 0.4 * np.sin(s2 - 0.2))
    hs = [2.0 ** -k for k in range(3, 8)]
    defects, slope = composition_defect(a, b, hs, n=16)
    assert np.all(np.array(defects) > 0.0)
    assert 0.6 <= slope <= 1.4


def test_composition_commuting_pair_is_exact():
    # x-only times xi-only in that order composes exactly on the grid
    a = lambda x1, x2, s1, s2: np.cos(x1) + 0.0 * s1
    b = lambda x1, x2, s1, s2: np.sin(s1) + 0.0 * x1
    defects, slope = composition_defect(a, b, [0.25, 0.125], n=8)
    assert np.all(np.array(defects) < 1e-13)
    assert np.isnan(slope)


# one symbol of each kind, for the factored (matrix-free) operator
_KINDS = {
    "mixed": lambda x1, x2, s1, s2: (np.exp(1j * x1) * (1.0 + 0.5 * np.sin(s2 + 0.3))
                                     + np.cos(x2) * s1 ** 2),
    "multiplication": lambda x1, x2, s1, s2: np.cos(x1) + np.sin(2 * x2) + 0.0 * s1,
    "multiplier": lambda x1, x2, s1, s2: 1.0 / (1.0 + s1 ** 2 + 0.3j * s2) + 0.0 * x1,
}


def _rel(got, want):
    return np.linalg.norm(got - want) / np.linalg.norm(want)


@pytest.mark.parametrize("n", [5, 16, 32])
def test_factored_operator_matches_matrix(n):
    # with b = 1 and ab = 0, as samples, the defect operator is Op(a) itself
    h = 0.1
    rng = np.random.default_rng(n)
    one, zero = np.ones((1, 1, 1, 1), complex), np.zeros((1, 1, 1, 1), complex)
    v = rng.normal(size=n * n) + 1j * rng.normal(size=n * n)
    w = rng.normal(size=n * n) + 1j * rng.normal(size=n * n)
    for kind, a in _KINDS.items():
        A, got_kind = _sample(a, h, n)
        assert got_kind == kind
        apply, adjoint = _defect_operator(A, one, zero, n, [0.0])
        M = quantize(a, h, n).matrix
        assert _rel(apply(v), M @ v) <= 1e-12
        assert _rel(adjoint(w), M.conj().T @ w) <= 1e-12


# at n = 5 the products reach the Nyquist band; the identity holds regardless
@pytest.mark.filterwarnings("ignore::maxdtn.quantizer.AliasWarning")
@pytest.mark.parametrize("n", [5, 16, 32])
def test_defect_operator_matches_dense(n):
    h = 0.1
    rng = np.random.default_rng(100 + n)
    v = rng.normal(size=n * n) + 1j * rng.normal(size=n * n)
    w = rng.normal(size=n * n) + 1j * rng.normal(size=n * n)
    # the pairs with a nonzero defect: a multiplication on the left or a
    # multiplier on the right composes exactly
    for ka, kb in [("multiplier", "mixed"), ("mixed", "multiplication"),
                   ("mixed", "mixed")]:
        a, b = _KINDS[ka], _KINDS[kb]

        def ab(x1, x2, s1, s2):
            return a(x1, x2, s1, s2) * b(x1, x2, s1, s2)

        D = (quantize(a, h, n).matrix @ quantize(b, h, n).matrix
             - quantize(ab, h, n).matrix)
        apply, adjoint = _defect_operator(*(_sample(c, h, n)[0] for c in (a, b, ab)),
                                          n, [0.0])
        assert _rel(apply(v), D @ v) <= 1e-12
        assert _rel(adjoint(w), D.conj().T @ w) <= 1e-12


# test_09's pair
_PAIR = (lambda x1, x2, s1, s2: np.exp(1j * x1) * (1.0 + 0.5 * np.sin(s2 + 0.3)),
         lambda x1, x2, s1, s2: np.cos(x2) * (1.0 + 0.4 * np.sin(s2 - 0.2)))
_HS = [2.0 ** -k for k in range(3, 8)]


@pytest.mark.parametrize("n", [16, 32])
def test_composition_defect_matches_dense_norm(n):
    # the reference is the dense SVD of the formed n^2 x n^2 defect matrix;
    # at n = 32 only the smallest h, one 1024 x 1024 SVD
    a, b = _PAIR
    ab = lambda x1, x2, s1, s2: a(x1, x2, s1, s2) * b(x1, x2, s1, s2)
    hs = _HS if n == 16 else _HS[-1:]
    defects, _ = composition_defect(a, b, hs, n=n)
    for h, d in zip(hs, defects):
        D = (quantize(a, h, n).matrix @ quantize(b, h, n).matrix
             - quantize(ab, h, n).matrix)
        ref = np.linalg.svd(D, compute_uv=False)[0]
        assert abs(d - ref) <= 1e-12 * ref


def _count_applications(monkeypatch, module=quantizer, name="_defect_operator"):
    """A list that gains one entry per application of a composition defect
    made by ``module.name``."""
    calls = []
    make = getattr(module, name)

    def counted(*args):
        apply, adjoint = make(*args)

        def apply_counted(v):
            calls.append(1)
            return apply(v)
        return apply_counted, adjoint

    monkeypatch.setattr(module, name, counted)
    return calls


def test_composition_defect_application_count(monkeypatch):
    # the Ritz-residual stop applies test_09's defects 34 times over its
    # five h (7/6/7/7/7, the final Ritz vector's application included)
    calls = _count_applications(monkeypatch)
    composition_defect(*_PAIR, _HS, n=32)
    assert len(calls) <= 45


def test_composition_defect_stops_at_the_rounding_floor(monkeypatch):
    # an exactly commuting pair leaves rounding noise of about 1e-16, on
    # which a relative Ritz residual has nothing to converge to (32 and 37
    # applications at n = 16 without the floor rule): Lanczos stops once
    # the estimate is under n eps times the size of the subtracted terms
    a = lambda x1, x2, s1, s2: np.cos(x1) + 0.0 * s1
    b = lambda x1, x2, s1, s2: np.sin(s1) + 0.0 * x1
    calls = _count_applications(monkeypatch)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for h in (1 / 8, 1 / 16):
            calls.clear()
            defects, _ = composition_defect(a, b, [h], n=16)
            assert len(calls) <= 4
            assert defects[0] < 1e-13
        _, slope = composition_defect(a, b, [1 / 8, 1 / 16], n=16)
    assert np.isnan(slope)


def test_rounding_floor_leaves_a_resolved_defect_alone(monkeypatch):
    # test_09's pair stops by the Ritz residual long before the floor: the
    # same 34 applications and bitwise the same norms as without the rule
    calls = _count_applications(monkeypatch)
    with_floor = composition_defect(*_PAIR, _HS, n=32)[0]
    count = len(calls)
    power_norm = quantizer._power_norm
    monkeypatch.setattr(quantizer, "_power_norm",
                        lambda apply, adjoint, size, scale: power_norm(apply, adjoint, size, None))
    calls.clear()
    without = composition_defect(*_PAIR, _HS, n=32)[0]
    assert count == len(calls) <= 45
    assert np.array_equal(with_floor, without)


def test_rounding_floor_needs_the_unresolved_part_small_too():
    # a rank-one map of norm ten times the floor: the seeded start vector
    # overlaps its one direction by about 1/n, so theta alone starts near
    # 0.1 floor^2, but beta carries the unresolved rest and Lanczos goes on
    n = 32
    size = n * n
    rng = np.random.default_rng(7)
    u = rng.normal(size=size) + 1j * rng.normal(size=size)
    u /= np.linalg.norm(u)
    scale = [1.0]
    sigma = 10.0 * n * np.finfo(float).eps * scale[0]
    got = quantizer._power_norm(lambda v: sigma * u * np.vdot(u, v),
                                lambda w: sigma * u * np.vdot(u, w), size, scale)
    assert abs(got - sigma) <= 1e-12 * sigma


@pytest.mark.parametrize("n", [8, 9])
def test_composition_defect_alias_warning(n):
    # a Nyquist-band mixed symbol warns as an argument of the composition...
    with pytest.warns(AliasWarning):
        composition_defect(
            lambda x1, x2, s1, s2: np.cos((n // 2) * x2) * (1.0 + 0.1 * np.sin(s1)),
            lambda x1, x2, s1, s2: 1.0 + 0.2 * np.sin(s2) + 0.0 * x1, [0.1], n=n)
    # ...and as the product ab, when neither factor reaches the band
    a = lambda x1, x2, s1, s2: np.cos(2 * x1) * (1.0 + 0.1 * np.sin(s1))
    b = lambda x1, x2, s1, s2: np.cos(2 * x1) + 0.0 * s1
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        quantize(a, 0.1, n)
        quantize(b, 0.1, n)
    with pytest.warns(AliasWarning):
        composition_defect(a, b, [0.1], n=n)


def test_composition_defect_grid_budget():
    calls = []

    def a(x1, x2, s1, s2):
        calls.append(1)
        return 1.0 + 0.0 * x1 + 0.0 * s1

    with pytest.raises(ValueError):
        composition_defect(a, a, [0.1], n=65)
    assert calls == []


# ---------------------------------------------------------------------------
# reduced samples against the full grid


def _smooth(shape, n):
    # a symbol varying smoothly along each axis of size n, far from Nyquist
    axes = [np.cos(np.arange(d) * (2 * np.pi / n) + 0.1 * i) if d == n else np.ones(1)
            for i, d in enumerate(shape)]
    return (2.0 + 0.3 * axes[0][:, None, None, None] * axes[1][None, :, None, None]
            + 0.2j * axes[2][None, None, :, None] * axes[3][None, None, None, :])


def _kind_and_warnings(A, n):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        kind = _kind(A, n, stacklevel=2)
    return kind, sum(issubclass(w.category, AliasWarning) for w in caught)


@pytest.mark.parametrize("n", [8, 9])
def test_reduced_samples_match_full_grid(n):
    # every pattern of size-one axes: the Nyquist mass, the total and the
    # kind (and its warning) of the reduced samples are those of the same
    # array broadcast to the full grid
    rng = np.random.default_rng(n)
    for pattern in range(16):
        shape = tuple(n if pattern >> i & 1 else 1 for i in range(4))
        rough = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        for A in (rough, _smooth(shape, n)):
            full = np.broadcast_to(A, (n,) * 4)
            mass, total = _nyquist_mass(A, n)
            want_mass, want_total = _nyquist_mass(full, n)
            assert abs(mass - want_mass) <= 1e-12 * want_total
            assert abs(total - want_total) <= 1e-12 * want_total
            assert _kind_and_warnings(A, n) == _kind_and_warnings(full, n)


_SHAPED = {   # symbol, shape of its samples, kind
    "scalar": (lambda x1, x2, s1, s2: 2.0, (1, 1, 1, 1), "multiplication"),
    "xi1 only": (lambda x1, x2, s1, s2: np.sin(s1), (1, 1, 8, 1), "multiplier"),
    "padded multiplier": (lambda x1, x2, s1, s2: np.sin(s1) + 0.0 * x1,
                          (8, 1, 8, 1), "multiplier"),
    "padded multiplication": (lambda x1, x2, s1, s2: np.cos(x2) + 0.0 * s1,
                              (1, 8, 8, 1), "multiplication"),
    "padded constant": (lambda x1, x2, s1, s2: 1.0 + 0.0 * x1 + 0.0 * s1,
                        (8, 1, 8, 1), "multiplication"),
    "pair a": (_PAIR[0], (8, 1, 1, 8), "mixed"),
    "pair b": (_PAIR[1], (1, 8, 1, 8), "mixed"),
}


@pytest.mark.parametrize("name", sorted(_SHAPED))
def test_samples_keep_their_broadcast_shape(name):
    # a symbol is sampled at the shape numpy returns, and classified by its
    # values as on the full grid
    a, shape, kind = _SHAPED[name]
    n, h = 8, 0.1
    A, got = _sample(a, h, n)
    assert A.shape == shape
    assert got == kind == oracle.kind(a, h, n)
    assert np.array_equal(quantize(a, h, n).matrix, oracle.quantize_matrix(a, h, n))


class _Captured(Exception):
    pass


def _factors(monkeypatch, a, b, h, n):
    """The samples of a, b and ab that composition_defect hands to its
    factored operator, no Lanczos run."""
    got = []

    def capture(*args):
        got.append(args[:3])
        raise _Captured

    monkeypatch.setattr(quantizer, "_defect_operator", capture)
    with pytest.raises(_Captured):
        composition_defect(a, b, [h], n=n)
    return got[0]


@pytest.mark.filterwarnings("ignore::maxdtn.quantizer.AliasWarning")
@pytest.mark.parametrize("n", [5, 16, 32])
def test_assembly_equals_full_grid_oracle(monkeypatch, n):
    # the matrices from reduced samples, and the defect's factors formed
    # here from its reduced samples, are bitwise those of the full-grid
    # sampling
    h = 0.1
    symbols = list(_KINDS.values()) + list(_PAIR)
    for a in symbols:
        assert np.array_equal(quantize(a, h, n).matrix, oracle.quantize_matrix(a, h, n))
    pairs = [_PAIR] + [(a, b) for a in _KINDS.values() for b in _KINDS.values()]
    for a, b in pairs:
        got = _factors(monkeypatch, a, b, h, n)
        want = oracle.defect_factors(a, b, h, n)
        for S, W in zip(got, want):
            assert S.ndim == 4
            K = np.broadcast_to(S, (n,) * 4).reshape(n * n, n * n) * oracle.phases(n)
            assert np.array_equal(K, W)


def test_quantizer_rows_equal_full_grid_oracle(monkeypatch):
    # cmd_quantizer at test_09's grid: the theta norms and |Op(1)| are
    # bitwise those of the full-grid sampling, and the defect takes as many
    # applications (34 over the five h, where measured) as on the oracle's
    # dense factors.  The defects agree to 1e-14 relative: an apply here
    # contracts the samples, the oracle's multiplies by formed matrices,
    # and the two sum in different orders
    cfg = RunConfig(grid_n=32, h_list=tuple(_HS))
    calls = _count_applications(monkeypatch)
    oracle_calls = _count_applications(monkeypatch, oracle, "defect_operator")
    rows, _, ok, summary = cli.cmd_quantizer(cfg)
    defects = oracle.composition_defects(*_PAIR, _HS, 32)
    assert len(calls) == len(oracle_calls) <= 45
    got = np.array(rows)
    assert np.array_equal(got[:len(_HS), :2], np.array([(h, np.nan) for h in _HS]),
                          equal_nan=True)
    assert np.all(np.abs(got[:len(_HS), 2] - defects) <= 1e-14 * defects)
    assert np.all(np.isnan(got[:len(_HS), 3]))
    factory = cli._rho_inverse_factory(cfg.eps, cfg.mu)
    want = [(0.1, th, np.nan, oracle.boundedness_norm(factory(0.1, th), 0.1, 32))
            for th in cfg.thetas]
    assert np.array_equal(got[len(_HS):], np.array(want), equal_nan=True)
    slope = float(np.polyfit(np.log(_HS), np.log(got[:len(_HS), 2]), 1)[0])
    assert abs(slope - float(np.polyfit(np.log(_HS), np.log(defects), 1)[0])) <= 1e-12
    assert f"composition slope = {cli._fmt(slope)} (1.0 +- 0.2)" in summary
    unit = lambda x1, x2, s1, s2: 1.0 + 0.0 * x1 + 0.0 * s1
    assert operator_norm(oracle.quantize_matrix(unit, _HS[0], 32)) == 1.0
    assert "|Op(1)| = 1" in summary and ok


def test_composition_defect_forms_no_full_factor(monkeypatch):
    # test_09's pair at n = 32: nothing builds a phase table of n^4 values
    # or a dense operator, and the pass peaks far below one n^2 x n^2 complex
    # array (16 MB); forming K_a, K_b and K_ab took it to 69 MB
    def refuse(*args, **kwargs):
        raise AssertionError("the composition defect formed an n^2 x n^2 array")

    for name in ("_phases", "_mixed_matrix", "quantize"):
        monkeypatch.setattr(quantizer, name, refuse)
    tracemalloc.start()
    try:
        defects, slope = composition_defect(*_PAIR, _HS, n=32)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 16 * 2 ** 20
    assert np.all(defects > 0.0) and 0.8 <= slope <= 1.2


def test_multiplier_sweep_assembles_nothing(monkeypatch):
    # a multiplier's norm is read from its samples: nothing is quantized,
    # gathered or handed to Lanczos
    def refuse(*args, **kwargs):
        raise AssertionError("a multiplier sweep assembled an operator")

    for name in ("quantize", "_gather_index", "_phases", "operator_norm"):
        monkeypatch.setattr(quantizer, name, refuse)
    n, h = 32, 0.1
    factory = cli._rho_inverse_factory(1.0, 1.0)
    thetas = (0.1, 0.2, 0.4, 0.8)
    rows, _ = boundedness_check(factory, [h], thetas, n=n)
    _, _, K1, K2 = flat(n)
    for (hh, th, norm) in rows:
        assert norm == np.max(np.abs(factory(h, th)(0.0, 0.0, h * K1, h * K2)))


def test_multiplication_norm_is_read_from_samples(monkeypatch):
    # a diagonal's norm is max |a(x_j)|, read exactly, and it is the SVD's
    a = lambda x1, x2, s1, s2: np.cos(x1) + 0.5j * np.sin(2 * x2) + 0.0 * s1
    ref = np.linalg.svd(quantize(a, 0.1, 16).matrix, compute_uv=False)[0]
    monkeypatch.setattr(quantizer, "operator_norm", None)
    rows, _ = boundedness_check(lambda h, th: a, [0.1], (0.1, 0.4), n=16)
    X1, X2, _, _ = flat(16)
    for _, _, norm in rows:
        assert norm == np.max(np.abs(np.cos(X1) + 0.5j * np.sin(2 * X2)))
        assert abs(norm - ref) <= 1e-12 * ref
