"""Reference arithmetic in Q(zeta_m) on Fraction coefficient vectors, for tests.

A value is a pair (order, coeffs) with one Fraction per power-basis
coefficient.  Products are dense polynomial products divided by the m-th
cyclotomic polynomial, and inverses come from the extended Euclidean
algorithm in Q[x].  qpalg computes the same values on integer numerators
with a table of reduced powers and with Galois conjugates.
"""

import math
from fractions import Fraction

from qpalg.exactnum import divisors, euler_phi

ZERO = Fraction(0)
ONE = Fraction(1)


def trim(p):
    while p and not p[-1]:
        p.pop()
    return p


def polymul(a, b):
    if not a or not b:
        return []
    out = [ZERO] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    return trim(out)


def polydivmod(a, b):
    rem = list(a)
    quot = [ZERO] * max(0, len(a) - len(b) + 1)
    inv_lead = ONE / b[-1]
    while len(rem) >= len(b):
        c = rem[-1] * inv_lead
        k = len(rem) - len(b)
        quot[k] = c
        for j, bj in enumerate(b):
            rem[k + j] -= c * bj
        rem.pop()
        trim(rem)
    return trim(quot), rem


def phi_poly(m):
    """Phi_m by exact division of x^m - 1 by Phi_d over the proper divisors d."""
    num = [ZERO] * (m + 1)
    num[0], num[m] = -ONE, ONE
    for d in divisors(m)[:-1]:
        num, rem = polydivmod(num, phi_poly(d))
        assert not rem
    return num


def reduce(order, raw):
    _, rem = polydivmod(trim([Fraction(c) for c in raw]), phi_poly(order))
    return order, tuple(rem + [ZERO] * (euler_phi(order) - len(rem)))


def embed(x, new_order):
    order, coeffs = x
    step = new_order // order
    raw = [ZERO] * ((len(coeffs) - 1) * step + 1)
    for k, c in enumerate(coeffs):
        raw[k * step] = c
    return reduce(new_order, raw)


def unify(x, y):
    m = math.lcm(x[0], y[0])
    return embed(x, m), embed(y, m)


def add(x, y):
    a, b = unify(x, y)
    return a[0], tuple(p + q for p, q in zip(a[1], b[1]))


def neg(x):
    return x[0], tuple(-c for c in x[1])


def mul(x, y):
    if y[0] == 1:
        return x[0], tuple(c * y[1][0] for c in x[1])
    if x[0] == 1:
        return y[0], tuple(c * x[1][0] for c in y[1])
    a, b = unify(x, y)
    return reduce(a[0], polymul(list(a[1]), list(b[1])))


def inverse(x):
    """Extended Euclid: s * x + t * Phi = r, run until r is a constant."""
    order, coeffs = x
    r0, s0 = phi_poly(order), []
    r1, s1 = trim(list(coeffs)), [ONE]
    while len(r1) > 1:
        q, rem = polydivmod(r0, r1)
        r0, r1 = r1, rem
        qs1 = polymul(q, s1)
        width = max(len(s0), len(qs1))
        news = [p - q for p, q in zip(s0 + [ZERO] * (width - len(s0)),
                                      qs1 + [ZERO] * (width - len(qs1)))]
        s0, s1 = s1, trim(news)
    return reduce(order, [c / r1[0] for c in s1])


def equal(x, y):
    a, b = unify(x, y)
    return a[1] == b[1]


def render(x):
    """Text of a value, as qpalg renders it."""
    order, coeffs = x
    if not any(coeffs[1:]):
        return str(coeffs[0])
    parts = []
    for k, c in enumerate(coeffs):
        if not c:
            continue
        if k == 0:
            parts.append(str(c))
        else:
            z = "z" if k == 1 else f"z^{k}"
            parts.append(z if c == 1 else f"-{z}" if c == -1 else f"{c}*{z}")
    return " + ".join(parts).replace("+ -", "- ") + f" (order {order})"
