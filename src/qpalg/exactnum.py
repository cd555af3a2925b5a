"""Exact coefficient arithmetic: rationals and cyclotomic field elements.

Rationals are stdlib ``fractions.Fraction``.  An element of Q(zeta_m) is a
coordinate vector over the power basis 1, z, ..., z^(phi(m)-1), reduced
modulo the m-th cyclotomic polynomial, which makes the representation
canonical at a fixed order.  Mixed-order arithmetic embeds both operands
into Q(zeta_lcm) so callers never manage orders by hand.  All values are
immutable and safe to share.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from functools import lru_cache

from . import linalg

_ZERO = Fraction(0)
_ONE = Fraction(1)


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


# -- dense polynomial helpers over Fraction (index = power) --

def _trim(p: list[Fraction]) -> list[Fraction]:
    while p and not p[-1]:
        p.pop()
    return p


def _polymul(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    if not a or not b:
        return []
    out = [_ZERO] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if not ai:
            continue
        for j, bj in enumerate(b):
            if bj:
                out[i + j] += ai * bj
    return _trim(out)


def _polydivmod(a: list[Fraction], b: list[Fraction]) -> tuple[list[Fraction], list[Fraction]]:
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(a)
    quot = [_ZERO] * max(0, len(a) - len(b) + 1)
    inv_lead = 1 / b[-1]
    while len(rem) >= len(b):
        c = rem[-1] * inv_lead
        k = len(rem) - len(b)
        if c:
            quot[k] = c
            for j, bj in enumerate(b):
                rem[k + j] -= c * bj
        rem.pop()
        _trim(rem)
        if not rem:
            break
    return _trim(quot), rem


@lru_cache(maxsize=None)
def cyclotomic_polynomial(m: int) -> tuple[Fraction, ...]:
    """Coefficients of the m-th cyclotomic polynomial, low power first.

    Computed by the recursive exact division
    x^m - 1 = product of Phi_d over divisors d of m.
    """
    if m < 1:
        raise ValueError("order must be positive")
    num = [_ZERO] * (m + 1)
    num[0], num[m] = Fraction(-1), _ONE
    for d in divisors(m)[:-1]:
        num, rem = _polydivmod(num, list(cyclotomic_polynomial(d)))
        if rem:
            raise AssertionError("cyclotomic division left a remainder")
    return tuple(num)


def _reduce_mod_phi(order: int, raw: list[Fraction]) -> tuple[Fraction, ...]:
    phi = euler_phi(order)
    _, rem = _polydivmod(_trim(list(raw)), list(cyclotomic_polynomial(order)))
    rem.extend([_ZERO] * (phi - len(rem)))
    return tuple(rem)


class Cyclotomic:
    """Element of Q(zeta_order) in the reduced power basis."""

    __slots__ = ("order", "coeffs", "_min")

    def __init__(self, order: int, coeffs, reduce: bool = True):
        if order < 1:
            raise ValueError("order must be positive")
        vec = [Fraction(c) if not isinstance(c, Fraction) else c for c in coeffs]
        if reduce:
            self.coeffs = _reduce_mod_phi(order, vec)
        else:
            if len(vec) != euler_phi(order):
                raise ValueError("coefficient vector has wrong length")
            self.coeffs = tuple(vec)
        self.order = order
        self._min = None

    @classmethod
    def from_rational(cls, q) -> "Cyclotomic":
        return cls(1, [Fraction(q)], reduce=False)

    # -- promotion and order unification --

    @staticmethod
    def _promote(x) -> "Cyclotomic":
        if isinstance(x, Cyclotomic):
            return x
        if isinstance(x, (int, Fraction)):
            return Cyclotomic.from_rational(x)
        raise TypeError(f"cannot promote {type(x).__name__} to Cyclotomic")

    def embed(self, new_order: int) -> "Cyclotomic":
        """Image in Q(zeta_new_order) via zeta_m -> zeta_new_order^(new_order/m)."""
        if new_order % self.order != 0:
            raise ValueError(f"{new_order} is not divisible by order {self.order}")
        if new_order == self.order:
            return self
        step = new_order // self.order
        raw = [_ZERO] * ((len(self.coeffs) - 1) * step + 1)
        for k, c in enumerate(self.coeffs):
            if c:
                raw[k * step] = c
        return Cyclotomic(new_order, raw)

    def _unify(self, other: "Cyclotomic") -> tuple["Cyclotomic", "Cyclotomic"]:
        m = math.lcm(self.order, other.order)
        return self.embed(m), other.embed(m)

    def restrict(self, small_order: int) -> "Cyclotomic":
        """Inverse of embed: rewrite self in Q(zeta_small_order) if possible.

        Raises ValueError when the value does not lie in the smaller field.
        """
        if self.order % small_order != 0:
            raise ValueError(f"{small_order} does not divide order {self.order}")
        if small_order == self.order:
            return self
        basis = [
            Cyclotomic.zeta(small_order, j).embed(self.order).coeffs
            for j in range(euler_phi(small_order))
        ]
        combo = linalg.solve_combination(basis, self.coeffs)
        if combo is None:
            raise ValueError(f"value does not lie in Q(zeta_{small_order})")
        return Cyclotomic(small_order, combo, reduce=False)

    def minimal(self) -> "Cyclotomic":
        """Equal value at the smallest order dividing self.order."""
        if self._min is not None:
            return self._min
        out = self
        if all(not c for c in self.coeffs[1:]):
            out = Cyclotomic(1, [self.coeffs[0] if self.coeffs else _ZERO], reduce=False)
        else:
            for d in divisors(self.order)[:-1]:
                try:
                    out = self.restrict(d)
                    break
                except ValueError:
                    continue
        self._min = out
        out._min = out
        return out

    # -- predicates --

    def __bool__(self) -> bool:
        return any(self.coeffs)

    def is_rational(self) -> bool:
        return all(not c for c in self.coeffs[1:])

    def as_rational(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"{self} is not rational")
        return self.coeffs[0] if self.coeffs else _ZERO

    # -- ring/field operations --

    def __add__(self, other):
        try:
            other = self._promote(other)
        except TypeError:
            return NotImplemented
        a, b = self._unify(other)
        return Cyclotomic(a.order, [x + y for x, y in zip(a.coeffs, b.coeffs)], reduce=False)

    __radd__ = __add__

    def __neg__(self):
        return Cyclotomic(self.order, [-c for c in self.coeffs], reduce=False)

    def __sub__(self, other):
        try:
            other = self._promote(other)
        except TypeError:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        try:
            other = self._promote(other)
        except TypeError:
            return NotImplemented
        if other.order == 1:
            q = other.coeffs[0]
            return Cyclotomic(self.order, [c * q for c in self.coeffs], reduce=False)
        if self.order == 1:
            q = self.coeffs[0]
            return Cyclotomic(other.order, [c * q for c in other.coeffs], reduce=False)
        a, b = self._unify(other)
        return Cyclotomic(a.order, _polymul(list(a.coeffs), list(b.coeffs)))

    __rmul__ = __mul__

    def inverse(self) -> "Cyclotomic":
        """Multiplicative inverse via extended Euclid in Q[x] mod Phi_order."""
        if not self:
            raise ZeroDivisionError("inverse of zero cyclotomic")
        if self.order == 1:
            return Cyclotomic(1, [1 / self.coeffs[0]], reduce=False)
        a = _trim(list(self.coeffs))
        # invariants: s * self + (..) * Phi = r  for every (r, s) pair below
        r0, s0 = list(cyclotomic_polynomial(self.order)), []
        r1, s1 = a, [_ONE]
        while len(r1) > 1:
            q, rem = _polydivmod(r0, r1)
            r0, r1 = r1, rem
            qs1 = _polymul(q, s1)
            news = [x - y for x, y in
                    zip(s0 + [_ZERO] * max(0, len(qs1) - len(s0)),
                        qs1 + [_ZERO] * max(0, len(s0) - len(qs1)))]
            s0, s1 = s1, _trim(news)
        if not r1:
            raise ArithmeticError("element shares a factor with the cyclotomic polynomial")
        g = r1[0]
        return Cyclotomic(self.order, [c / g for c in s1])

    def __truediv__(self, other):
        try:
            other = self._promote(other)
        except TypeError:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

    def __pow__(self, k: int):
        if k < 0:
            return self.inverse() ** (-k)
        out = Cyclotomic.from_rational(1)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    # -- equality and hashing (consistent across orders and with Fraction) --

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.is_rational() and self.as_rational() == other
        if not isinstance(other, Cyclotomic):
            return NotImplemented
        a, b = self._unify(other)
        return a.coeffs == b.coeffs

    def __hash__(self):
        m = self.minimal()
        if m.order == 1:
            return hash(m.coeffs[0])
        return hash((m.order, m.coeffs))

    # -- rendering --

    def __str__(self):
        if self.is_rational():
            return str(self.as_rational())
        parts = []
        for k, c in enumerate(self.coeffs):
            if not c:
                continue
            if k == 0:
                parts.append(str(c))
            else:
                z = "z" if k == 1 else f"z^{k}"
                if c == 1:
                    parts.append(z)
                elif c == -1:
                    parts.append(f"-{z}")
                else:
                    parts.append(f"{c}*{z}")
        body = " + ".join(parts).replace("+ -", "- ")
        return f"{body} (order {self.order})"

    def __repr__(self):
        return f"Cyclotomic({self.order}, {list(self.coeffs)!r})"

    @classmethod
    def zeta(cls, m: int, k: int = 1) -> "Cyclotomic":
        """The root of unity zeta_m^k."""
        k %= m
        raw = [_ZERO] * (k + 1)
        raw[k] = _ONE
        return cls(m, raw)


def zeta(m: int, k: int = 1) -> Cyclotomic:
    return Cyclotomic.zeta(m, k)


def render_scalar(x) -> str:
    """Uniform text rendering for Fraction and Cyclotomic report values."""
    if isinstance(x, Cyclotomic) and x.is_rational():
        return str(x.as_rational())
    return str(x)


# -- parse-friendly scalar syntax: sums of "a/b" and "a/b*zM^k" terms --
# (the denominator b and the order M are positive integers)

_SCALAR_TERM_RE = re.compile(
    r"^(?:(?P<rat>\d+(?:/0*[1-9]\d*)?)\*?)?(?:z(?P<m>0*[1-9]\d*)(?:\^(?P<k>\d+))?)?$")


def format_scalar(x) -> str:
    """Render a Fraction/Cyclotomic so that parse_scalar reads it back."""
    if isinstance(x, (int, Fraction)):
        return str(Fraction(x))
    if x.is_rational():
        return str(x.as_rational())
    parts = []
    for k, c in enumerate(x.coeffs):
        if not c:
            continue
        if k == 0:
            parts.append(str(c))
            continue
        z = f"z{x.order}" if k == 1 else f"z{x.order}^{k}"
        if c == 1:
            parts.append(z)
        elif c == -1:
            parts.append(f"-{z}")
        else:
            parts.append(f"{c}*{z}")
    return "+".join(parts).replace("+-", "-")


def parse_scalar(text: str):
    """Parse the exact scalar syntax; returns Fraction when rational."""
    text = text.replace(" ", "")
    if not text:
        raise ValueError("empty scalar")
    total = None
    pos = 0
    first = True
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
            power = int(m.group("k") or 1)
            value = Cyclotomic.zeta(order, power) * coeff
        else:
            value = coeff
        total = value if total is None else total + value
        pos = end
        first = False
    if isinstance(total, Cyclotomic) and total.is_rational():
        return total.as_rational()
    return total
