"""Exact coefficient arithmetic: rationals and cyclotomic field elements.

Rationals are stdlib ``fractions.Fraction``.  An element of Q(zeta_m) is a
coordinate vector over the power basis 1, z, ..., z^(phi(m)-1), reduced
modulo the m-th cyclotomic polynomial and kept as integer numerators over
one common denominator in lowest terms, which makes the representation
canonical at a fixed order.  Phi_m is monic with integer coefficients, so
products reduce through a table of x^e mod Phi_m without any division.
Mixed-order arithmetic embeds both operands into Q(zeta_lcm) so callers
never manage orders by hand.  A rational value, at whatever order it is
stored, multiplies as a scaling and inverts as a rational, with no
convolution or conjugate product; a product still lives at the lcm of the
orders, as the full product would.  All values are immutable and safe to
share.
Equal values at different orders must hash alike, so the hash reads no
coordinate: it hashes the rational Tr(x)/phi(order), the mean of x's
Galois conjugates, which embedding leaves unchanged and which is x itself
when x is rational.
`str` (for reports, rational values print as Fractions) and
`format_scalar` (the syntax `parse_scalar` reads back) share one term
renderer and differ only in how z is spelt and in the term separator.
This module alone decides what a scalar is: the types `SCALARS`, the
canonical form `coeff_value` (an integral rational is an int, a Fraction
only when not integral; `parse_scalar` returns this form too), the exact
`inverse` and the field cap `capped_field`.  No other module tests a type
against Fraction or Cyclotomic, or keeps a Fraction constant of an
integer, so adding a coefficient field starts with one class here.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from functools import lru_cache


def divisors(m: int) -> list[int]:
    """Positive divisors of m in increasing order."""
    small, large = [], []
    d = 1
    while d * d <= m:
        if m % d == 0:
            small.append(d)
            if d != m // d:
                large.append(m // d)
        d += 1
    return small + large[::-1]


def prime_factorization(m: int) -> dict[int, int]:
    """Prime factorisation {p: e} of a positive integer, primes increasing."""
    if m < 1:
        raise ValueError("prime_factorization needs a positive integer")
    out: dict[int, int] = {}
    p = 2
    while p * p <= m:
        while m % p == 0:
            out[p] = out.get(p, 0) + 1
            m //= p
        p += 1
    if m > 1:
        out[m] = 1
    return out


@lru_cache(maxsize=None)
def euler_phi(m: int) -> int:
    return math.prod(p ** (e - 1) * (p - 1) for p, e in prime_factorization(m).items())


def _mobius(m: int) -> int:
    exponents = prime_factorization(m).values()
    return 0 if any(e > 1 for e in exponents) else (-1) ** len(exponents)


# -- integer polynomials modulo Phi_m (index = power) --

def _divide_monic(a: list[int], b: tuple[int, ...]) -> list[int]:
    """Exact quotient of a by the monic integer polynomial b."""
    rem = list(a)
    top = len(b) - 1
    quot = [0] * (len(a) - top)
    for k in range(len(quot) - 1, -1, -1):
        c = rem[k + top]
        if c:
            quot[k] = c
            for j, bj in enumerate(b):
                rem[k + j] -= c * bj
    if any(rem):
        raise AssertionError("cyclotomic division left a remainder")
    return quot


@lru_cache(maxsize=None)
def _phi_ints(m: int) -> tuple[int, ...]:
    """Integer coefficients of Phi_m, low power first.

    Computed by the recursive exact division
    x^m - 1 = product of Phi_d over divisors d of m; every Phi_d is monic
    with integer coefficients, so the division never leaves Z.
    """
    if m < 1:
        raise ValueError("order must be positive")
    num = [-1] + [0] * (m - 1) + [1]
    for d in divisors(m)[:-1]:
        num = _divide_monic(num, _phi_ints(d))
    return tuple(num)


@lru_cache(maxsize=None)
def _powers(m: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """x^e modulo Phi_m for 0 <= e < m, each as its nonzero (index, coefficient) pairs.

    Phi_m divides x^m - 1, so x^e reduces like x^(e mod m); Phi_m is monic,
    so every entry is an integer.
    """
    low = _phi_ints(m)[:-1]
    vec = [1] + [0] * (len(low) - 1)
    out = []
    for _ in range(m):
        out.append(tuple((i, c) for i, c in enumerate(vec) if c))
        top = vec[-1]
        vec = [0] + vec[:-1]
        if top:                          # x^phi = -(low part of Phi_m)
            for i, p in enumerate(low):
                vec[i] -= top * p
    return tuple(out)


def _reduce(m: int, raw: list[int]) -> list[int]:
    """Numerators of sum raw[e] x^e modulo Phi_m, of length phi(m)."""
    phi = euler_phi(m)
    out = raw[:phi] + [0] * (phi - len(raw))
    powers = _powers(m)
    for e in range(phi, len(raw)):
        c = raw[e]
        if c:
            for i, p in powers[e % m]:
                out[i] += c * p
    return out


def _convolve(a, b) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    terms = [(j, y) for j, y in enumerate(b) if y]
    for i, x in enumerate(a):
        if x:
            for j, y in terms:
                out[i + j] += x * y
    return out


def _conjugate(m: int, num, k: int) -> list[int]:
    """Numerators of the Galois conjugate zeta_m -> zeta_m^k."""
    raw = [0] * m
    for j, c in enumerate(num):
        raw[j * k % m] += c
    return _reduce(m, raw)


class Cyclotomic:
    """Element of Q(zeta_order) in the reduced power basis.

    Stored as integer numerators over one positive common denominator in
    lowest terms, so a value has one representation at each order;
    ``coeffs`` is the same vector as a tuple of Fractions.  Products are
    integer convolutions reduced with the table of x^e mod Phi_order, and
    the inverse is the product of the other Galois conjugates over the
    norm, so no arithmetic step leaves the integers.  A rational operand
    at any order is a scaling: the product is the other operand embedded
    at the lcm of the orders and scaled, which is the convolution's
    result since the form at a fixed order is canonical.
    """

    __slots__ = ("order", "_num", "_den")

    def __init__(self, order: int, coeffs):
        if order < 1:
            raise ValueError("order must be positive")
        vec = [c if isinstance(c, (int, Fraction)) else Fraction(c) for c in coeffs]
        den = math.lcm(*(c.denominator for c in vec))
        raw = _reduce(order, [c.numerator * (den // c.denominator) for c in vec])
        made = Cyclotomic._trusted(order, raw, den)
        self.order, self._num, self._den = order, made._num, made._den

    @classmethod
    def _trusted(cls, order: int, num, den: int) -> "Cyclotomic":
        """Wrap numerators already reduced mod Phi_order over a positive
        denominator, unchecked; their common factor is cancelled."""
        if den != 1:
            g = math.gcd(den, *num)
            if g != 1:
                num = [c // g for c in num]
                den //= g
        x = object.__new__(cls)
        x.order, x._num, x._den = order, tuple(num), den
        return x

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        den = self._den
        return tuple(Fraction(c, den) for c in self._num)

    # -- order unification --

    def embed(self, new_order: int) -> "Cyclotomic":
        """Image in Q(zeta_new_order) via zeta_m -> zeta_new_order^(new_order/m)."""
        if new_order % self.order != 0:
            raise ValueError(f"{new_order} is not divisible by order {self.order}")
        if new_order == self.order:
            return self
        step = new_order // self.order
        raw = [0] * ((len(self._num) - 1) * step + 1)
        for k, c in enumerate(self._num):
            raw[k * step] = c
        return Cyclotomic._trusted(new_order, _reduce(new_order, raw), self._den)

    def _unify(self, other: "Cyclotomic") -> tuple["Cyclotomic", "Cyclotomic"]:
        if self.order == other.order:
            return self, other
        m = math.lcm(self.order, other.order)
        return self.embed(m), other.embed(m)

    # -- predicates --

    def __bool__(self) -> bool:
        return any(self._num)

    def is_rational(self) -> bool:
        return not any(self._num[1:])

    def as_rational(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"{self} is not rational")
        return Fraction(self._num[0], self._den)

    # -- ring/field operations --

    def _combine(self, other, sign: int):
        """self + sign * other, for sign 1 or -1."""
        if isinstance(other, Cyclotomic):
            a, b = self._unify(other)
            da, db = a._den, b._den
            if da == db:
                num = [x + sign * y for x, y in zip(a._num, b._num)]
            else:
                num = [x * db + sign * y * da for x, y in zip(a._num, b._num)]
                da *= db
            return Cyclotomic._trusted(a.order, num, da)
        if isinstance(other, (int, Fraction)):
            q = other.denominator
            num = [c * q for c in self._num]
            num[0] += sign * other.numerator * self._den
            return Cyclotomic._trusted(self.order, num, self._den * q)
        return NotImplemented

    def __add__(self, other):
        return self._combine(other, 1)

    __radd__ = __add__

    def __sub__(self, other):
        return self._combine(other, -1)

    def __rsub__(self, other):
        return (-self)._combine(other, 1)

    def __neg__(self):
        return Cyclotomic._trusted(self.order, [-c for c in self._num], self._den)

    def _scaled(self, p: int, q: int) -> "Cyclotomic":
        """self * p/q for q > 0, at self's order."""
        if p == q:
            return self
        return Cyclotomic._trusted(self.order, [c * p for c in self._num], self._den * q)

    def __mul__(self, other):
        if not isinstance(other, Cyclotomic):
            if isinstance(other, (int, Fraction)):
                return self._scaled(other.numerator, other.denominator)
            return NotImplemented
        # a rational operand at any order scales the other one; the order
        # stays the lcm, as format_scalar prints it
        if other.is_rational():
            m = math.lcm(self.order, other.order)
            return self.embed(m)._scaled(other._num[0], other._den)
        if self.is_rational():
            m = math.lcm(self.order, other.order)
            return other.embed(m)._scaled(self._num[0], self._den)
        a, b = self._unify(other)
        return Cyclotomic._trusted(a.order, _reduce(a.order, _convolve(a._num, b._num)),
                                a._den * b._den)

    __rmul__ = __mul__

    def inverse(self) -> "Cyclotomic":
        """Multiplicative inverse: the other Galois conjugates over the norm.

        With self = a/d, the product P of sigma_k(a) over the units k != 1
        mod order satisfies a * P = N(a), a nonzero integer, so
        self^-1 = d * P / N(a).  A rational a/d inverts to d/a at its own
        order, with no conjugate product.
        """
        if not self:
            raise ZeroDivisionError("inverse of zero cyclotomic")
        m, a = self.order, self._num
        if self.is_rational():               # d/a0 = sign(a0) d / |a0|
            d = self._den if a[0] > 0 else -self._den
            return Cyclotomic._trusted(m, [d] + [0] * (len(a) - 1), abs(a[0]))
        rest = [1] + [0] * (len(a) - 1)
        for k in range(2, m):
            if math.gcd(k, m) == 1:
                rest = _reduce(m, _convolve(rest, _conjugate(m, a, k)))
        norm = _reduce(m, _convolve(a, rest))[0]
        d = self._den if norm > 0 else -self._den
        return Cyclotomic._trusted(m, [d * c for c in rest], abs(norm))

    def __truediv__(self, other):
        try:
            other = inverse(other)
        except TypeError:
            return NotImplemented
        return self * other

    def __rtruediv__(self, other):
        return self.inverse() * other

    # -- equality and hashing (consistent across orders and with Fraction) --

    def __eq__(self, other):
        if isinstance(other, Cyclotomic):
            a, b = self._unify(other)
            return a._den == b._den and a._num == b._num
        if isinstance(other, (int, Fraction)):
            return self.is_rational() and self._num[0] == other * self._den
        return NotImplemented

    def __hash__(self):
        """Hash of Tr(x)/phi(order), the same at every order and x itself
        for a rational x.  Over Q(zeta_m), Tr(z^k) is the Ramanujan sum
        mu(m/g) phi(m)/phi(m/g) with g = gcd(k, m)."""
        m, mean = self.order, Fraction(0)
        for k, c in enumerate(self._num):
            if c:
                d = m // math.gcd(k, m)
                mean += Fraction(c * _mobius(d), euler_phi(d))
        return hash(mean / self._den)

    # -- rendering --

    def __str__(self):
        if self.is_rational():
            return str(self.as_rational())
        return f"{_render_terms(self, 'z', ' + ')} (order {self.order})"

    def __repr__(self):
        return f"Cyclotomic({self.order}, {list(self.coeffs)!r})"


def zeta(m: int, k: int = 1) -> Cyclotomic:
    """The root of unity zeta_m^k; equal roots are one shared object."""
    return _zeta(m, k % m)


@lru_cache(maxsize=None)
def _zeta(m: int, k: int) -> Cyclotomic:
    return Cyclotomic(m, [0] * k + [1])


# -- the scalar interface: every other module asks here what a scalar is --

SCALARS = (int, Fraction, Cyclotomic)


def coeff_value(c):
    """Canonical coefficient: integral rationals (bool included) as int,
    other rationals as Fraction, Cyclotomic unchanged."""
    if type(c) is int:
        return c
    if isinstance(c, int):
        return int(c)
    if isinstance(c, Fraction):
        return c.numerator if c.denominator == 1 else c
    if isinstance(c, Cyclotomic):
        return c
    raise TypeError(f"unsupported coefficient type {type(c).__name__}")


def inverse(c):
    """1/c for a nonzero scalar, canonical and exact: a rational never
    turns into a float, and a Cyclotomic inverts through its conjugates."""
    c = coeff_value(c)              # a float or other non-scalar raises here
    if isinstance(c, Cyclotomic):
        return c.inverse()
    return c if c in (1, -1) else coeff_value(Fraction(1) / c)


def field_order(x) -> int:
    """The m of the field Q(zeta_m) a scalar is stored in; 1 for a rational."""
    return x.order if isinstance(x, Cyclotomic) else 1


def _render_terms(x: Cyclotomic, z: str, sep: str) -> str:
    """The nonzero power-basis terms of x joined by sep, with z^k spelt
    through the symbol z; a negative term turns the "+" of sep into "-"."""
    parts = []
    for k, c in enumerate(x.coeffs):
        if not c:
            continue
        if k == 0:
            parts.append(str(c))
            continue
        power = z if k == 1 else f"{z}^{k}"
        if c == 1:
            parts.append(power)
        elif c == -1:
            parts.append(f"-{power}")
        else:
            parts.append(f"{c}*{power}")
    return sep.join(parts).replace(sep + "-", sep.replace("+", "-"))


# -- parse-friendly scalar syntax: sums of "a/b" and "a/b*zM^k" terms --
# (the denominator b and the order M are positive integers)

RATIONAL = r"\d+(?:/0*[1-9]\d*)?"       # a/b, or a, with a positive denominator b
_SCALAR_TERM_RE = re.compile(
    rf"^(?:(?P<rat>{RATIONAL})\*?)?(?:z(?P<m>0*[1-9]\d*)(?:\^(?P<k>\d+))?)?$")


def format_scalar(x) -> str:
    """Render a Fraction/Cyclotomic so that parse_scalar reads it back."""
    if isinstance(x, (int, Fraction)):
        return str(Fraction(x))
    if x.is_rational():
        return str(x.as_rational())
    return _render_terms(x, f"z{x.order}", "+")


SCALAR_MAX_ORDER = 256


def capped_field(orders, subject: str) -> int:
    """The lcm m of the orders: Q(zeta_m) holds a root of unity of each.
    Refused above SCALAR_MAX_ORDER, with subject naming what lives there."""
    field = math.lcm(*orders)
    if field > SCALAR_MAX_ORDER:
        raise ValueError(f"{subject} in Q(zeta_{field}); roots of unity are capped at "
                         f"order {SCALAR_MAX_ORDER} (cyclotomic arithmetic cost)")
    return field


def parse_scalar(text: str):
    """Parse the exact scalar syntax into a canonical coefficient: an int
    when the value is an integer, a Fraction when it is another rational,
    and a Cyclotomic otherwise.

    A scalar whose roots of unity, term by term or summed, live above
    Q(zeta_SCALAR_MAX_ORDER) is refused: the cost of arithmetic there
    grows about as the square of the order (multiplication) and faster
    still (inversion)."""
    text = text.replace(" ", "")
    if not text:
        raise ValueError("empty scalar")
    total = None
    pos = 0
    first = True
    field = 1                       # the scalar lies in Q(zeta_field)
    while pos < len(text):
        sign = 1
        if text[pos] in "+-":
            sign = -1 if text[pos] == "-" else 1
            pos += 1
        elif not first:
            raise ValueError(f"expected +/- at {text[pos:]!r}")
        end = pos
        while end < len(text) and text[end] not in "+-":
            end += 1
        m = _SCALAR_TERM_RE.match(text[pos:end])
        if not m or (m.group("rat") is None and m.group("m") is None):
            raise ValueError(f"cannot parse scalar term {text[pos:end]!r}")
        coeff = Fraction(m.group("rat")) if m.group("rat") else Fraction(1)
        coeff *= sign
        if m.group("m"):
            order = int(m.group("m"))
            field = capped_field((field, order), f"scalar {text!r} lives")
            power = int(m.group("k") or 1)
            value = zeta(order, power) * coeff
        else:
            value = coeff
        total = value if total is None else total + value
        pos = end
        first = False
    if isinstance(total, Cyclotomic) and total.is_rational():
        total = total.as_rational()
    return coeff_value(total)
