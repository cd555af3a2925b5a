"""Independent checks of qpalg's outputs, written without qpalg.

Nothing here imports qpalg.  Polynomials are read as plain dictionaries
{word tuple: Fraction}, permutations as image tuples, and the counts come
from prime factorisations.  Each check returns a list of error strings;
an empty list means the outputs passed.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction


# -- magic-matrix relations, S_n evaluation and a plain reducer --

def letter(n: int, i: int, j: int) -> int:
    """Generator index of u_ij (1-based) in the row-major alphabet."""
    return (i - 1) * n + (j - 1)


def magic_relations(n: int) -> list[dict]:
    """The four relation families of an n x n magic matrix, as term maps."""
    rels = []
    for k, i, j in itertools.product(range(1, n + 1), repeat=3):
        for a, b in (((k, i), (k, j)), ((i, k), (j, k))):
            rel = {(letter(n, *a), letter(n, *b)): Fraction(1)}
            if i == j:
                rel[(letter(n, *a),)] = Fraction(-1)
            rels.append(rel)
    for i in range(1, n + 1):
        for cells in ([(i, k) for k in range(1, n + 1)], [(k, i) for k in range(1, n + 1)]):
            rel = {(letter(n, *c),): Fraction(1) for c in cells}
            rel[()] = Fraction(-1)
            rels.append(rel)
    return rels


def vanishes_on_sn(terms: dict, n: int, perms) -> bool:
    """Does the polynomial vanish under u_ij -> [sigma(j) = i] for every sigma?"""
    for sigma in perms:
        total = Fraction(0)
        for w, c in terms.items():
            if all(sigma[x % n] == x // n for x in w):
                total += c
        if total:
            return False
    return True


def parse_u_poly(text: str, n: int) -> dict:
    """Read qpalg's rendering "c*u11.u33 - c*u33.u11" (n <= 9) into a term map."""
    terms: dict = {}
    for term in text.replace(" - ", " + -").split(" + "):
        coeff, _, word = term.strip().partition("*")
        w = tuple(letter(n, int(g[1]), int(g[2])) for g in word.split(".")) if word else ()
        terms[w] = terms.get(w, 0) + Fraction(coeff)
    return terms


def _deglex(w: tuple) -> tuple:
    return (len(w), w)


class LeftmostReducer:
    """Rewrites the deglex-largest reducible word at its leftmost match."""

    def __init__(self, rules: dict):
        self.rules = rules                       # lhs word -> {word: coeff}
        self.lengths = sorted({len(lhs) for lhs in rules})

    def match(self, w: tuple):
        for pos in range(len(w)):
            for length in self.lengths:
                lhs = w[pos:pos + length]
                if len(lhs) == length and lhs in self.rules:
                    return pos, lhs
        return None

    def normal_form(self, terms: dict) -> dict:
        work = {w: c for w, c in terms.items() if c}
        out: dict = {}
        while work:
            w = max(work, key=_deglex)
            c = work.pop(w)
            hit = self.match(w)
            if hit is None:
                out[w] = c
                continue
            pos, lhs = hit
            for rw, rc in self.rules[lhs].items():
                nw = w[:pos] + rw + w[pos + len(lhs):]
                s = work.get(nw, 0) + c * rc
                if s:
                    work[nw] = s
                else:
                    work.pop(nw, None)
        return out


def check_rule_system(rules: dict, n: int, cap: int | None,
                      perms) -> list[str]:
    """Checks on a completed magic presentation given as {lhs: rhs terms}.

    cap None means the system claims confluence, so every overlap must
    resolve; otherwise every overlap of degree <= cap must.
    """
    errors = []
    lhs_set = set(rules)
    for lhs, rhs in rules.items():
        if any(other != lhs and _contains(lhs, other) for other in lhs_set):
            errors.append(f"lhs {lhs} contains another lhs")
        for w in rhs:
            if _deglex(w) >= _deglex(lhs):
                errors.append(f"rhs word {w} is not deglex-below {lhs}")
            if any(_contains(w, other) for other in lhs_set):
                errors.append(f"rhs word {w} of {lhs} is reducible")
        relation = {w: -c for w, c in rhs.items()}
        relation[lhs] = relation.get(lhs, 0) + 1
        if not vanishes_on_sn(relation, n, perms):
            errors.append(f"rule {lhs} does not vanish on S_{n}")
    reducer = LeftmostReducer(rules)
    for rel in magic_relations(n):
        if reducer.normal_form(rel):
            errors.append(f"defining relation {sorted(rel)} does not reduce to zero")
    for a, b in itertools.product(rules, repeat=2):
        for olap in range(1, min(len(a), len(b))):
            if a[-olap:] != b[:olap] or (cap is not None and len(a) + len(b) - olap > cap):
                continue
            prefix, suffix = a[:len(a) - olap], b[olap:]
            diff: dict = {}
            for w, c in rules[a].items():
                diff[w + suffix] = diff.get(w + suffix, 0) + c
            for w, c in rules[b].items():
                diff[prefix + w] = diff.get(prefix + w, 0) - c
            if reducer.normal_form(diff):
                errors.append(f"overlap of {a} and {b} at {olap} does not resolve")
    return errors


def _contains(big: tuple, small: tuple) -> bool:
    ls = len(small)
    return any(big[i:i + ls] == small for i in range(len(big) - ls + 1))


# -- counts from prime factorisations --

def factorise(m: int) -> dict:
    out: dict = {}
    p = 2
    while p * p <= m:
        while m % p == 0:
            out[p] = out.get(p, 0) + 1
            m //= p
        p += 1
    if m > 1:
        out[m] = out.get(m, 0) + 1
    return out


def integer_partitions(m: int, largest: int | None = None):
    largest = m if largest is None else largest
    if m == 0:
        yield ()
        return
    for first in range(min(m, largest), 0, -1):
        for rest in integer_partitions(m - first, first):
            yield (first,) + rest


def abelian_group_count(m: int) -> int:
    """Number of abelian groups of order m: product of p(e) over p^e || m."""
    return math.prod(sum(1 for _ in integer_partitions(e)) for e in factorise(m).values())


def partition_grading_count(n: int) -> int:
    """Partitions of n with an abelian group of each block's order."""
    return sum(math.prod(abelian_group_count(m) for m in part)
               for part in integer_partitions(n))


def element_orders(invariant_factors) -> list[int]:
    """Sorted element orders of Z_d1 x ... x Z_dr."""
    orders = []
    for x in itertools.product(*(range(d) for d in invariant_factors)):
        orders.append(math.lcm(1, *(d // math.gcd(d, c) for c, d in zip(x, invariant_factors))))
    return sorted(orders)


# -- permutation groups as plain tuples --

def compose(a: tuple, b: tuple) -> tuple:
    """(a * b)(i) = a(b(i))."""
    return tuple(a[i] for i in b)


def perm_order(a: tuple) -> int:
    ident = tuple(range(len(a)))
    k, x = 1, a
    while x != ident:
        x, k = compose(x, a), k + 1
    return k


def check_regular_abelian(elements, n: int) -> list[str]:
    """Closed, abelian, transitive and regular (free) subgroup of S_n."""
    elems = set(elements)
    errors = []
    if tuple(range(n)) not in elems:
        errors.append("identity missing")
    for a, b in itertools.product(elems, repeat=2):
        ab = compose(a, b)
        if ab not in elems:
            errors.append(f"not closed: {a} * {b}")
            break
        if ab != compose(b, a):
            errors.append(f"not abelian: {a}, {b}")
            break
    orbit = {a[0] for a in elems}
    if orbit != set(range(n)):
        errors.append("not transitive")
    if len(elems) != n or any(a[i] == i for a in elems if a != tuple(range(n)) for i in range(n)):
        errors.append("not regular")
    return errors
