"""Truncated multivariate Taylor arithmetic (jets) and normal-variable series.

A :class:`Jet` is a dense truncated Taylor polynomial in a small set of named
variables around an (implicit) base point; all symbol recursions run on jets.
A :class:`NormalSeries` is a polynomial in the boundary-normal variable whose
coefficients are jets in the tangential variables, mirroring the x1-expansions
used by the phase/amplitude recursions.

Coefficients are stored densely up to a total order (default 8); binary
operations truncate to the weaker operand, which automatically tracks the
accuracy lost by differentiation.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .errors import AmbiguousBranch, OrderUnderflow, ZeroConstantTerm

DEFAULT_ORDER = 8


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
def _powers(nvars: int, order: int, pos: int):
    """Exponents 1..order along axis ``pos``, shaped to scale a derivative."""
    shape = [1] * nvars
    shape[pos] = order
    return np.arange(1, order + 1, dtype=float).reshape(shape)


@lru_cache(maxsize=None)
def _above_degree(nvars: int, order: int):
    """Boolean mask selecting entries with total degree > order."""
    shape = (order + 1,) * nvars
    grids = np.indices(shape).sum(axis=0)
    return grids > order


def _jet(vars, order, coef):
    """Jet around a complex table already of the right shape (no checks)."""
    j = object.__new__(Jet)
    j.vars = vars
    j.order = order
    j.coef = coef
    return j


_SCALARS = (int, float, complex, np.integer, np.floating, np.complexfloating)


class Jet:
    """Truncated Taylor polynomial in named variables."""

    __slots__ = ("vars", "order", "coef")

    def __init__(self, vars, order, coef=None):
        self.vars = tuple(vars)
        self.order = int(order)
        shape = (self.order + 1,) * len(self.vars)
        if coef is None:
            self.coef = np.zeros(shape, dtype=complex)
        else:
            self.coef = np.asarray(coef, dtype=complex)
            if self.coef.shape != shape:
                raise ValueError("coefficient table shape mismatch")

    # -- constructors ---------------------------------------------------
    @classmethod
    def constant(cls, c, vars, order=DEFAULT_ORDER):
        j = cls(vars, order)
        j.coef[(0,) * len(j.vars)] = c
        return j

    @classmethod
    def variable(cls, name, value, vars, order=DEFAULT_ORDER):
        """Jet of the coordinate ``name`` with base value ``value``."""
        j = cls.constant(value, vars, order)
        if order >= 1:
            pos = j.vars.index(name)
            idx = [0] * len(j.vars)
            idx[pos] = 1
            j.coef[tuple(idx)] = 1.0
        return j

    # -- basic access ---------------------------------------------------
    @property
    def value(self):
        """Constant (base-point) coefficient."""
        return complex(self.coef.flat[0])

    def coefficient(self, **powers):
        idx = tuple(powers.get(v, 0) for v in self.vars)
        if sum(idx) > self.order:
            return 0.0 + 0.0j
        return complex(self.coef[idx])

    def evaluate(self, **offsets):
        """Evaluate the polynomial at base + offsets."""
        total = 0.0 + 0.0j
        for idx in _indices(len(self.vars), self.order):
            c = self.coef[idx]
            if c == 0.0:
                continue
            term = c
            for v, k in zip(self.vars, idx):
                if k:
                    term = term * offsets.get(v, 0.0) ** k
            total += term
        return total

    def truncate(self, order):
        if order >= self.order:
            return self
        sl = (slice(0, order + 1),) * len(self.vars)
        coef = self.coef[sl].copy()
        coef[_above_degree(len(self.vars), order)] = 0.0
        return _jet(self.vars, order, coef)

    def max_abs(self):
        return float(np.max(np.abs(self.coef)))

    # -- ring operations ------------------------------------------------
    def _aligned(self, other):
        """(order, a, b): both coefficient tables cut to the weaker order.

        Entries above that degree are left in place; callers zero them.
        """
        if other.vars != self.vars:
            raise ValueError(f"variable sets differ: {self.vars} vs {other.vars}")
        if other.order == self.order:
            return self.order, self.coef, other.coef
        order = min(self.order, other.order)
        sl = (slice(0, order + 1),) * len(self.vars)
        return order, self.coef[sl], other.coef[sl]

    def _sum(self, other, sign):
        if isinstance(other, Jet):
            order, a, b = self._aligned(other)
            coef = a + b if sign > 0 else a - b
            if self.order != other.order:
                coef[_above_degree(len(self.vars), order)] = 0.0
            return _jet(self.vars, order, coef)
        if isinstance(other, _SCALARS):
            coef = self.coef.copy()
            coef.flat[0] += other if sign > 0 else -other
            return _jet(self.vars, self.order, coef)
        return NotImplemented

    def __add__(self, other):
        return self._sum(other, 1)

    __radd__ = __add__

    def __neg__(self):
        return _jet(self.vars, self.order, -self.coef)

    def __sub__(self, other):
        return self._sum(other, -1)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, Jet):
            if other.vars != self.vars:
                raise ValueError(f"variable sets differ: {self.vars} vs {other.vars}")
            n = len(self.vars)
            if other.order == self.order:
                order = self.order
                ia, ib, starts, dest = _mul_matrix(n, order)
            else:
                order = min(self.order, other.order)
                ia, ib, starts, dest = _mul_matrix(n, order, self.order, other.order)
            terms = self.coef.ravel()[ia] * other.coef.ravel()[ib]
            coef = np.zeros((order + 1,) * n, dtype=complex)
            coef.ravel()[dest] = np.add.reduceat(terms, starts)
            return _jet(self.vars, order, coef)
        if isinstance(other, _SCALARS):
            return _jet(self.vars, self.order, self.coef * complex(other))
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

    def __pow__(self, k):
        if not isinstance(k, int) or k < 0:
            return NotImplemented
        out = Jet.constant(1.0, self.vars, self.order)
        for _ in range(k):
            out = out * self
        return out

    # -- calculus -------------------------------------------------------
    def derivative(self, var):
        """Partial derivative; lowers the order by one."""
        if self.order == 0:
            raise OrderUnderflow("cannot differentiate an order-0 jet")
        pos = self.vars.index(var)
        n = len(self.vars)
        order = self.order - 1
        src = [slice(0, order + 1)] * n
        src[pos] = slice(1, self.order + 1)
        out = self.coef[tuple(src)] * _powers(n, self.order, pos)
        out[_above_degree(n, order)] = 0.0
        return _jet(self.vars, order, out)

    # -- analytic composition -------------------------------------------
    def compose_series(self, series_coef):
        """Sum series_coef[k] * (self - const)^k, k = 0..order."""
        u = self - self.value
        out = Jet.constant(series_coef[0], self.vars, self.order)
        power = u
        for k in range(1, min(len(series_coef), self.order + 1)):
            if k > 1:
                power = power * u
            out = out + series_coef[k] * power
        return out

    def invert(self):
        c = self.value
        if abs(c) == 0.0:
            raise ZeroConstantTerm("jet inversion requires a nonzero constant term")
        coefs = [(-1.0) ** k / c ** (k + 1) for k in range(self.order + 1)]
        return self.compose_series(coefs)

    def sqrt_upper(self):
        """Square root with Im > 0 constant term; series continuation."""
        c = self.value
        if c.imag == 0.0 and c.real >= 0.0:
            raise AmbiguousBranch("jet sqrt_upper with constant term on [0, +inf)")
        s0 = np.sqrt(c)
        if s0.imag <= 0.0:
            s0 = -s0
        # binomial series for sqrt(c + u) = s0 * sum binom(1/2, k) (u/c)^k
        coefs = []
        binom = 1.0
        for k in range(self.order + 1):
            coefs.append(s0 * binom / c ** k)
            binom *= (0.5 - k) / (k + 1)
        return self.compose_series(coefs)

    def exp(self):
        e = np.exp(self.value)
        coefs = [e / math.factorial(k) for k in range(self.order + 1)]
        return self.compose_series(coefs)

    def sin(self):
        s, c = np.sin(self.value), np.cos(self.value)
        cycle = [s, c, -s, -c]
        coefs = [cycle[k % 4] / math.factorial(k) for k in range(self.order + 1)]
        return self.compose_series(coefs)

    def cos(self):
        s, c = np.sin(self.value), np.cos(self.value)
        cycle = [c, -s, -c, s]
        coefs = [cycle[k % 4] / math.factorial(k) for k in range(self.order + 1)]
        return self.compose_series(coefs)

    def __repr__(self):
        return f"Jet(vars={self.vars}, order={self.order}, value={self.value:.6g})"


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
            c0 = Jet.constant(complex(jet_or_scalar), template.vars, template.order)
        zero = c0 * 0.0
        return cls([c0] + [zero] * (n1 - 1))

    @classmethod
    def x1(cls, n1, template):
        """The series of the normal coordinate itself."""
        zero = Jet.constant(0.0, template.vars, template.order)
        one = Jet.constant(1.0, template.vars, template.order)
        coeffs = [zero, one] + [zero] * (n1 - 2)
        return cls(coeffs[:n1])

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

    def __truediv__(self, other):
        if isinstance(other, _SCALARS):
            return self * (1.0 / complex(other))
        if isinstance(other, Jet):
            return self * other.invert()
        if isinstance(other, NormalSeries):
            return self * other.invert()
        return NotImplemented

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

    def sqrt_upper(self):
        s0 = self.coeffs[0].sqrt_upper()
        out = [s0]
        inv2s0 = (2.0 * s0).invert()
        for k in range(1, self.n1):
            acc = self.coeffs[k]
            for j in range(1, k):
                acc = acc - out[j] * out[k - j]
            out.append(acc * inv2s0)
        return NormalSeries(out)

    def exp(self):
        """exp of the series; terminates because x1-positive part is nilpotent."""
        head = self.coeffs[0].exp()
        tail = NormalSeries([self.coeffs[0] * 0.0] + self.coeffs[1:])
        out = NormalSeries.constant(1.0, self.n1, template=self.coeffs[0])
        power = out
        fact = 1.0
        for k in range(1, self.n1):
            power = power * tail
            fact *= k
            out = out + power * (1.0 / fact)
        return out * head

    def dx1(self):
        """d/dx1; shortens the series by one term."""
        if self.n1 == 1:
            return NormalSeries([self.coeffs[0] * 0.0])
        return NormalSeries([(k + 1) * self.coeffs[k + 1] for k in range(self.n1 - 1)])

    def derivative(self, var):
        """Tangential partial derivative, coefficient-wise."""
        return NormalSeries([c.derivative(var) for c in self.coeffs])

    def eval_x1(self, x1):
        """Collapse the x1 dependence at a numeric value, returning a Jet."""
        acc = self.coeffs[-1]
        for c in reversed(self.coeffs[:-1]):
            acc = acc * x1 + c
        return acc

    def __repr__(self):
        return f"NormalSeries(n1={self.n1}, value={self.value:.6g})"
