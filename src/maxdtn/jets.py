"""Truncated multivariate Taylor arithmetic (jets) and normal-variable series.

A :class:`Jet` is a dense truncated Taylor polynomial in the two tangential
variables ``VARS`` = (x2, x3) around an (implicit) base point; all symbol
recursions run on jets.
A :class:`NormalSeries` is a polynomial in the boundary-normal variable whose
coefficients are jets in the tangential variables, mirroring the x1-expansions
used by the phase/amplitude recursions.

Coefficients are stored densely up to a total order; binary
operations truncate to the weaker operand, which automatically tracks the
accuracy lost by differentiation.

A jet may carry leading batch axes: ``coef`` has shape
``(*batch, order+1, ..., order+1)`` and holds one polynomial per batch
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


@lru_cache(maxsize=None)
def _mul_matrix(nvars: int, order: int, order_a=None, order_b=None):
    """The 0/1 matrix folding outer(a, b) into the truncated product, by nonzeros.

    Returns ``(ia, ib, starts, dest)`` over flattened coefficient tables: the
    product's entry ``dest[k]`` is the sum of ``a[ia[j]] * b[ib[j]]`` over
    ``starts[k] <= j < starts[k + 1]``.  The operands' tables may be of a
    higher order than the product (``order_a``, ``order_b``, default
    ``order``); only their entries of degree <= ``order`` are read.
    """
    def flat(i, o):
        return int(np.ravel_multi_index(i, (o + 1,) * nvars))

    oa = order if order_a is None else order_a
    ob = order if order_b is None else order_b
    idx = _indices(nvars, order)
    terms = []
    for ia in idx:
        for ib in idx:
            s = tuple(x + y for x, y in zip(ia, ib))
            if sum(s) <= order:
                terms.append((flat(s, order), flat(ia, oa), flat(ib, ob)))
    terms.sort(key=lambda t: t[0])
    dest, ia, ib = (np.array(t, dtype=np.intp) for t in zip(*terms))
    first = np.flatnonzero(np.r_[True, dest[1:] != dest[:-1]])
    return ia, ib, first, dest[first]


@lru_cache(maxsize=None)
def _product_plan(order_a: int, order_b: int, shape_a, shape_b):
    """:func:`_mul_matrix` laid over the operands' whole flattened arrays.

    ``shape_a`` and ``shape_b`` are the operands' coefficient shapes
    ``(*batch, o+1, ..., o+1)``; their batch axes broadcast.  Returns
    ``(ia, ib, starts, dest, shape)``: the same gather/reduce/scatter
    indices, repeated for every batch element of the product, and the
    product's coefficient shape.
    """
    order = min(order_a, order_b)
    if order_a == order_b:
        ia, ib, starts, dest = _mul_matrix(_NV, order)
    else:
        ia, ib, starts, dest = _mul_matrix(_NV, order, order_a, order_b)
    batch_a = shape_a[:len(shape_a) - _NV]
    batch_b = shape_b[:len(shape_b) - _NV]
    batch = np.broadcast_shapes(batch_a, batch_b)

    def tiled(idx, step, src_batch):
        # offset of each product element's source table, then its indices
        src = np.arange(math.prod(src_batch)).reshape(src_batch)
        offsets = np.broadcast_to(src, batch).ravel() * step
        return (offsets[:, None] + idx).ravel()

    return (tiled(ia, (order_a + 1) ** _NV, batch_a),
            tiled(ib, (order_b + 1) ** _NV, batch_b),
            tiled(starts, len(ia), batch),
            tiled(dest, (order + 1) ** _NV, batch),
            batch + (order + 1,) * _NV)


@lru_cache(maxsize=None)
def _keep(order: int):
    """Complex 0/1 table zeroing the entries of total degree > order."""
    grids = np.indices((order + 1,) * _NV).sum(axis=0)
    return (grids <= order).astype(complex)


@lru_cache(maxsize=None)
def _dpowers(order: int, pos: int):
    """Exponents 1..order along axis ``pos``, zero above the derivative's degree."""
    shape = [1] * _NV
    shape[pos] = order
    powers = np.arange(1, order + 1, dtype=float).reshape(shape)
    return powers * _keep(order - 1)


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


_SCALARS = (int, float, complex, np.integer, np.floating, np.complexfloating)


class Jet:
    """Truncated Taylor polynomial in (x2, x3), optionally batched."""

    __slots__ = ("order", "coef")
    #: numpy defers to the jet's reflected operators (``array * jet``)
    __array_ufunc__ = None

    def __init__(self, order, coef):
        self.order = int(order)
        shape = (self.order + 1,) * _NV
        self.coef = np.asarray(coef, dtype=complex)
        if self.coef.shape[self.coef.ndim - _NV:] != shape:
            raise ValueError("coefficient table shape mismatch")

    # -- constructors ---------------------------------------------------
    @classmethod
    def constant(cls, c, order):
        """Constant jet; an array ``c`` gives one constant per batch element."""
        order = int(order)
        coef = np.zeros(np.shape(c) + (order + 1,) * _NV, dtype=complex)
        coef[(Ellipsis,) + (0,) * _NV] = c
        return _jet(order, coef)

    @classmethod
    def variable(cls, name, value, order):
        """Jet of the coordinate ``name`` with base value ``value``."""
        j = cls.constant(value, order)
        if order >= 1:
            idx = [0] * _NV
            idx[VARS.index(name)] = 1
            j.coef[(Ellipsis,) + tuple(idx)] = 1.0
        return j

    # -- basic access ---------------------------------------------------
    @property
    def batch(self):
        """Shape of the leading batch axes (``()`` for a single jet)."""
        return self.coef.shape[:self.coef.ndim - _NV]

    @property
    def value(self):
        """Constant (base-point) coefficient, per batch element."""
        return _number(self.coef[(Ellipsis,) + (0,) * _NV])

    def __getitem__(self, index):
        """The jet of batch element(s) ``index``; never indexes coefficients."""
        if len(index if isinstance(index, tuple) else (index,)) > len(self.batch):
            raise IndexError(f"jet with batch shape {self.batch} indexed by {index!r}")
        return _jet(self.order, self.coef[index])

    def coefficient(self, **powers):
        idx = tuple(powers.get(v, 0) for v in VARS)
        if sum(idx) > self.order:
            return _number(np.zeros(self.batch))
        return _number(self.coef[(Ellipsis,) + idx])

    def evaluate(self, **offsets):
        """Evaluate the polynomial at base + offsets."""
        total = 0.0 + 0.0j
        for idx in _indices(_NV, self.order):
            term = self.coef[(Ellipsis,) + idx]
            for v, k in zip(VARS, idx):
                if k:
                    term = term * offsets.get(v, 0.0) ** k
            total = total + term
        return _number(total)

    def truncate(self, order):
        if order >= self.order:
            return self
        coef = self.coef[(Ellipsis,) + (slice(0, order + 1),) * _NV] * _keep(order)
        return _jet(order, coef)

    def max_abs(self):
        return float(np.max(np.abs(self.coef)))

    # -- ring operations ------------------------------------------------
    def _aligned(self, other):
        """(order, a, b): both coefficient tables cut to the weaker order.

        Entries above that degree are left in place; callers zero them.
        """
        if other.order == self.order:
            return self.order, self.coef, other.coef
        order = min(self.order, other.order)
        sl = (Ellipsis,) + (slice(0, order + 1),) * _NV
        return order, self.coef[sl], other.coef[sl]

    def _sum(self, other, sign):
        if isinstance(other, Jet):
            order, a, b = self._aligned(other)
            coef = a + b if sign > 0 else a - b
            if self.order != other.order:
                coef *= _keep(order)
            return _jet(order, coef)
        if isinstance(other, _SCALARS):
            coef = self.coef.copy()
        elif isinstance(other, np.ndarray):   # one scalar per batch element
            batch = np.broadcast_shapes(self.batch, other.shape)
            coef = np.array(np.broadcast_to(self.coef, batch + self.coef.shape[-_NV:]))
        else:
            return NotImplemented
        coef[(Ellipsis,) + (0,) * _NV] += other if sign > 0 else -other
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
            ia, ib, starts, dest, shape = _product_plan(
                self.order, other.order, self.coef.shape, other.coef.shape)
            terms = self.coef.ravel()[ia] * other.coef.ravel()[ib]
            coef = np.zeros(shape, dtype=complex)
            coef.ravel()[dest] = np.add.reduceat(terms, starts)
            return _jet(min(self.order, other.order), coef)
        if isinstance(other, _SCALARS):
            return _jet(self.order, self.coef * complex(other))
        if isinstance(other, np.ndarray):     # one scalar per batch element
            scale = other.reshape(other.shape + (1,) * _NV)
            return _jet(self.order, self.coef * scale)
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
        pos = VARS.index(var)
        order = self.order - 1
        src = [slice(0, order + 1)] * _NV
        src[pos] = slice(1, self.order + 1)
        out = self.coef[(Ellipsis, *src)] * _dpowers(self.order, pos)
        return _jet(order, out)

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
    def constant(cls, jet_or_scalar, n1, template=None):
        """Series with a single x1-independent coefficient, padded to length n1."""
        if isinstance(jet_or_scalar, Jet):
            c0 = jet_or_scalar
        else:
            if template is None:
                raise ValueError("template jet required to lift a scalar")
            c0 = Jet.constant(complex(jet_or_scalar), template.order)
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
        if isinstance(other, Jet):
            zero = other * 0.0
            return NormalSeries([other] + [zero] * (self.n1 - 1))
        if isinstance(other, _SCALARS):
            return NormalSeries.constant(other, self.n1, template=self.coeffs[0])
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        n = min(self.n1, o.n1)
        return NormalSeries([self.coeffs[k] + o.coeffs[k] for k in range(n)])

    __radd__ = __add__

    def __neg__(self):
        return NormalSeries([-c for c in self.coeffs])

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, _SCALARS):
            return NormalSeries([c * complex(other) for c in self.coeffs])
        if isinstance(other, Jet):
            return NormalSeries([c * other for c in self.coeffs])
        if not isinstance(other, NormalSeries):
            return NotImplemented
        n = min(self.n1, other.n1)
        out = []
        for k in range(n):
            acc = None
            for ell in range(k + 1):
                term = self.coeffs[ell] * other.coeffs[k - ell]
                acc = term if acc is None else acc + term
            out.append(acc)
        return NormalSeries(out)

    __rmul__ = __mul__

    def invert(self):
        n = self.n1
        r0 = self.coeffs[0].invert()
        out = [r0]
        for k in range(1, n):
            acc = None
            for j in range(1, k + 1):
                term = self.coeffs[j] * out[k - j]
                acc = term if acc is None else acc + term
            out.append(-(r0 * acc))
        return NormalSeries(out)

    def __repr__(self):
        return f"NormalSeries(n1={self.n1}, value={self.value:.6g})"
