"""Truncated multivariate Taylor arithmetic (jets) and normal-variable series.

A :class:`Jet` is a truncated Taylor polynomial in the two tangential
variables ``VARS`` = (x2, x3) around an (implicit) base point; all symbol
recursions run on jets.
A :class:`NormalSeries` is a polynomial in the boundary-normal variable whose
coefficients are jets in the tangential variables, mirroring the x1-expansions
used by the phase/amplitude recursions.

A jet of order o stores its coefficients of degree <= o by degree: that of
x2^i x3^j at position d(d+1)/2 + i, d = i + j.  A truncation is a prefix, and
binary operations read the operands' prefixes of the weaker order, which
automatically tracks the accuracy lost by differentiation.

A jet may carry leading batch axes: ``coef`` has shape
``(*batch, (o+1)(o+2)/2)`` and holds one polynomial per batch
element (Taylor arithmetic over a vector of directions).  Every operation
broadcasts the batch axes like numpy, so a batched jet combines with an
unbatched one (batch shape ``()``) element by element; ``.value`` is then an
array of the batch shape, and a numpy array of that shape acts as one scalar
per element in ``+``, ``-`` and ``*``.  The transport recursion runs its three
boundary data as one batch of size 3.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .errors import AmbiguousBranch, OrderUnderflow, ZeroConstantTerm

#: the tangential variables of every jet
VARS = ("x2", "x3")
_NV = len(VARS)


@lru_cache(maxsize=None)
def _indices(nvars: int, order: int):
    """All multi-indices of total degree <= order, ascending degree."""
    idx = [()]
    for _ in range(nvars):
        idx = [i + (k,) for i in idx for k in range(order + 1 - sum(i))]
    idx.sort(key=sum)
    return tuple(idx)


def _size(order):
    """Number of coefficients of total degree <= order."""
    return (order + 1) * (order + 2) // 2


def _position(i, j):
    """Position of the coefficient of x2^i x3^j."""
    d = i + j
    return d * (d + 1) // 2 + i


@lru_cache(maxsize=None)
def _mul_matrix(nvars: int, order: int):
    """The 0/1 matrix folding outer(a, b) into the truncated product, by nonzeros.

    Returns ``(ia, ib, starts)`` over the positions of :func:`_indices`: the
    product's entry k sums ``a[ia[j]] * b[ib[j]]`` over ``starts[k] <= j <
    starts[k + 1]``.  It serves operands of any order >= ``order`` too: their
    positions start with these.
    """
    idx = _indices(nvars, order)
    pos = {i: p for p, i in enumerate(idx)}
    terms = []
    for pa, a in enumerate(idx):
        for pb, b in enumerate(idx):
            s = tuple(x + y for x, y in zip(a, b))
            if sum(s) <= order:
                terms.append((pos[s], pa, pb))
    terms.sort(key=lambda t: t[0])
    dest, ia, ib = (np.array(t, dtype=np.intp) for t in zip(*terms))
    return ia, ib, np.flatnonzero(np.r_[True, dest[1:] != dest[:-1]])


@lru_cache(maxsize=256)
def _product_plan(order: int, shape_a, shape_b):
    """:func:`_mul_matrix` laid over the operands' whole flattened arrays.

    ``shape_a`` and ``shape_b`` are the operands' coefficient shapes, of
    order >= ``order``; their batch axes broadcast.  Returns ``(ia, ib,
    starts, shape)``: the gather/reduce indices repeated for every batch
    element of the product, and the product's coefficient shape.
    """
    ia, ib, starts = _mul_matrix(_NV, order)
    batch = np.broadcast_shapes(shape_a[:-1], shape_b[:-1])

    def tiled(idx, step, src_batch):
        # offset of each product element's source table, then its indices
        src = np.arange(math.prod(src_batch)).reshape(src_batch)
        offsets = np.broadcast_to(src, batch).ravel() * step
        return (offsets[:, None] + idx).ravel()

    return (tiled(ia, shape_a[-1], shape_a[:-1]),
            tiled(ib, shape_b[-1], shape_b[:-1]),
            tiled(starts, len(ia), batch),
            batch + (_size(order),))


@lru_cache(maxsize=None)
def _derivative_plan(order: int, pos: int):
    """(source positions, factors) of the derivative along variable ``pos``
    of an order-``order`` jet: its entry for exponents e reads the entry for
    e + unit(pos), times that exponent."""
    idx = _indices(_NV, order - 1)
    src = [_position(*(k + (v == pos) for v, k in enumerate(e))) for e in idx]
    return np.array(src, dtype=np.intp), np.array([e[pos] + 1 for e in idx], dtype=complex)


def _jet(order, coef):
    """Jet around a complex table already of the right shape (no checks)."""
    j = object.__new__(Jet)
    j.order = order
    j.coef = coef
    return j


def _number(c):
    """An unbatched entry as a complex; a batched one as a fresh array."""
    return complex(c) if np.ndim(c) == 0 else np.array(c, dtype=complex)


def _at(mask):
    """Where a per-element check first fails, for an error message."""
    if np.ndim(mask) == 0:
        return ""
    return f" at batch index {tuple(int(i) for i in np.argwhere(mask)[0])}"


def _sqrt_coefs(s0, c, order):
    """Taylor coefficients of sqrt(c + u) = s0 sum_k binom(1/2, k) (u/c)^k."""
    coefs = []
    binom = 1.0
    for k in range(order + 1):
        coefs.append(s0 * binom / c ** k)
        binom *= (0.5 - k) / (k + 1)
    return coefs


def _trig_coefs(f, df, order):
    """Taylor coefficients of sin or cos at c from f = sin/cos(c), df = f'(c)."""
    cycle = [f, df, -f, -df]
    return [cycle[k % 4] / math.factorial(k) for k in range(order + 1)]


def _sum_of_products(xs, ys):
    """x0 y0 + x1 y1 + ..., summed left to right."""
    acc = xs[0] * ys[0]
    for x, y in zip(xs[1:], ys[1:]):
        acc = acc + x * y
    return acc


_SCALARS = (int, float, complex, np.integer, np.floating, np.complexfloating)


class Jet:
    """Truncated Taylor polynomial in (x2, x3), optionally batched."""

    __slots__ = ("order", "coef")
    #: numpy defers to the jet's reflected operators (``array * jet``)
    __array_ufunc__ = None

    def __init__(self, order, coef):
        self.order = int(order)
        self.coef = np.asarray(coef, dtype=complex)
        if self.coef.shape[-1:] != (_size(self.order),):
            raise ValueError("coefficient table shape mismatch")

    # -- constructors ---------------------------------------------------
    @classmethod
    def constant(cls, c, order):
        """Constant jet; an array ``c`` gives one constant per batch element."""
        order = int(order)
        coef = np.zeros(np.shape(c) + (_size(order),), dtype=complex)
        coef[..., 0] = c
        return _jet(order, coef)

    @classmethod
    def variable(cls, name, value, order):
        """Jet of the coordinate ``name`` with base value ``value``."""
        j = cls.constant(value, order)
        if order >= 1:
            j.coef[..., _position(*(int(v == name) for v in VARS))] = 1.0
        return j

    # -- basic access ---------------------------------------------------
    @property
    def batch(self):
        """Shape of the leading batch axes (``()`` for a single jet)."""
        return self.coef.shape[:-1]

    @property
    def value(self):
        """Constant (base-point) coefficient, per batch element."""
        return _number(self.coef[..., 0])

    def __getitem__(self, index):
        """The jet of batch element(s) ``index``; never indexes coefficients."""
        if len(index if isinstance(index, tuple) else (index,)) > len(self.batch):
            raise IndexError(f"jet with batch shape {self.batch} indexed by {index!r}")
        return _jet(self.order, self.coef[index])

    def coefficient(self, **powers):
        idx = tuple(powers.get(v, 0) for v in VARS)
        if sum(idx) > self.order:
            return _number(np.zeros(self.batch))
        return _number(self.coef[..., _position(*idx)])

    def evaluate(self, **offsets):
        """Evaluate the polynomial at base + offsets."""
        total = 0.0 + 0.0j
        for p, idx in enumerate(_indices(_NV, self.order)):
            term = self.coef[..., p]
            for v, k in zip(VARS, idx):
                if k:
                    term = term * offsets.get(v, 0.0) ** k
            total = total + term
        return _number(total)

    def truncate(self, order):
        return self if order >= self.order else _jet(order, self.coef[..., :_size(order)])

    def max_abs(self):
        return float(np.max(np.abs(self.coef)))

    # -- ring operations ------------------------------------------------
    def _sum(self, other, sign):
        if isinstance(other, Jet):
            order = min(self.order, other.order)
            a, b = self.coef, other.coef
            if other.order != self.order:
                a, b = a[..., :_size(order)], b[..., :_size(order)]
            return _jet(order, a + b if sign > 0 else a - b)
        if isinstance(other, _SCALARS):
            coef = self.coef.copy()
        elif isinstance(other, np.ndarray):   # one scalar per batch element
            batch = np.broadcast_shapes(self.batch, other.shape)
            coef = np.array(np.broadcast_to(self.coef, batch + self.coef.shape[-1:]))
        else:
            return NotImplemented
        coef[..., 0] += other if sign > 0 else -other
        return _jet(self.order, coef)

    def __add__(self, other):
        return self._sum(other, 1)

    __radd__ = __add__

    def __neg__(self):
        return _jet(self.order, -self.coef)

    def __sub__(self, other):
        return self._sum(other, -1)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, Jet):
            order = min(self.order, other.order)
            ia, ib, starts, shape = _product_plan(order, self.coef.shape, other.coef.shape)
            terms = self.coef.ravel()[ia] * other.coef.ravel()[ib]
            return _jet(order, np.add.reduceat(terms, starts).reshape(shape))
        if isinstance(other, _SCALARS):
            return _jet(self.order, self.coef * complex(other))
        if isinstance(other, np.ndarray):     # one scalar per batch element
            return _jet(self.order, self.coef * other[..., None])
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, _SCALARS):
            return self * (1.0 / complex(other))
        if isinstance(other, Jet):
            return self * other.invert()
        return NotImplemented

    def __rtruediv__(self, other):
        return self.invert() * other

    # -- calculus -------------------------------------------------------
    def derivative(self, var):
        """Partial derivative; lowers the order by one."""
        if self.order == 0:
            raise OrderUnderflow("cannot differentiate an order-0 jet")
        src, factors = _derivative_plan(self.order, VARS.index(var))
        return _jet(self.order - 1, self.coef[..., src] * factors)

    # -- analytic composition -------------------------------------------
    def compose_series(self, series_coef):
        """Sum series_coef[k] * (self - const)^k, k = 0..order.

        Each coefficient is a number or an array with one per batch element.
        """
        u = self - self.value
        out = Jet.constant(series_coef[0], self.order)
        power = u
        for k in range(1, min(len(series_coef), self.order + 1)):
            if k > 1:
                power = power * u
            out = out + series_coef[k] * power
        return out

    def _compose(self, coefs_of):
        """compose_series with the coefficients ``coefs_of(c)`` of the constant
        term c, computed per batch element in Python complex arithmetic: a
        batched jet then matches its unbatched elements bit for bit."""
        c = self.value
        if np.ndim(c) == 0:
            return self.compose_series(coefs_of(c))
        per = np.array([coefs_of(complex(x)) for x in c.ravel()])
        return self.compose_series(list(per.T.reshape((-1,) + c.shape)))

    def invert(self):
        zero = np.abs(self.value) == 0.0
        if np.any(zero):
            raise ZeroConstantTerm(
                "jet inversion requires a nonzero constant term" + _at(zero))
        return self._compose(
            lambda c: [(-1.0) ** k / c ** (k + 1) for k in range(self.order + 1)])

    def sqrt_series(self, s0, c):
        """sqrt(c + u) = s0 sum_k binom(1/2, k) (u/c)^k, u the non-constant part."""
        return self.compose_series(_sqrt_coefs(s0, c, self.order))

    def sqrt_upper(self):
        """Square root with Im > 0 constant term; series continuation."""
        c = self.value
        on_cut = (np.imag(c) == 0.0) & (np.real(c) >= 0.0)
        if np.any(on_cut):
            raise AmbiguousBranch(
                "jet sqrt_upper with constant term on [0, +inf)" + _at(on_cut))

        def coefs(c):
            s0 = np.sqrt(c)
            return _sqrt_coefs(s0 if s0.imag > 0.0 else -s0, c, self.order)
        return self._compose(coefs)

    def sin(self):
        return self._compose(lambda c: _trig_coefs(np.sin(c), np.cos(c), self.order))

    def cos(self):
        return self._compose(lambda c: _trig_coefs(np.cos(c), -np.sin(c), self.order))

    def __repr__(self):
        if not self.batch:
            return f"Jet(order={self.order}, value={self.value:.6g})"
        value = np.array2string(self.value, precision=6)
        return f"Jet(order={self.order}, batch={self.batch}, value={value})"


class NormalSeries:
    """Polynomial in the normal variable x1 with Jet coefficients.

    ``coeffs[k]`` is the jet multiplying x1**k; the series is understood
    modulo x1**len(coeffs).
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        self.coeffs = list(coeffs)
        if not self.coeffs:
            raise ValueError("empty series")

    @classmethod
    def constant(cls, c0, n1):
        """Series with the single x1-independent jet ``c0``, padded to length n1."""
        zero = c0 * 0.0
        return cls([c0] + [zero] * (n1 - 1))

    @property
    def n1(self):
        return len(self.coeffs)

    @property
    def value(self):
        """Base-point value (x1 = 0, tangential offsets = 0)."""
        return self.coeffs[0].value

    def _coerce(self, other):
        if isinstance(other, NormalSeries):
            return other
        if isinstance(other, _SCALARS):
            other = Jet.constant(complex(other), self.coeffs[0].order)
        if isinstance(other, Jet):
            return NormalSeries.constant(other, self.n1)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return NormalSeries([a + b for a, b in zip(self.coeffs, o.coeffs)])

    __radd__ = __add__

    def __neg__(self):
        return NormalSeries([-c for c in self.coeffs])

    def __sub__(self, other):
        o = self._coerce(other)
        return NotImplemented if o is None else self + (-o)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, _SCALARS):
            return NormalSeries([c * complex(other) for c in self.coeffs])
        if isinstance(other, Jet):
            return NormalSeries([c * other for c in self.coeffs])
        if not isinstance(other, NormalSeries):
            return NotImplemented
        return NormalSeries([_sum_of_products(self.coeffs[:k + 1], other.coeffs[k::-1])
                             for k in range(min(self.n1, other.n1))])

    __rmul__ = __mul__

    def invert(self):
        r0 = self.coeffs[0].invert()
        out = [r0]
        for k in range(1, self.n1):
            out.append(-(r0 * _sum_of_products(self.coeffs[1:k + 1], out[k - 1::-1])))
        return NormalSeries(out)

    def __repr__(self):
        return f"NormalSeries(n1={self.n1}, value={self.value:.6g})"
