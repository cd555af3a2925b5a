"""Finite group machinery: S_n, functions on S_n, the grading groups
(finite abelian groups and free products of them), characters with
cyclotomic values, and transitive abelian subgroups.

A function on S_n is a dict from image tuples to its nonzero values,
read at a Perm and rendered in cycle notation: there is no pointwise
algebra on it, and the one map into such functions is
qperm.to_sn_function.

Permutations act on 0-based points internally and render 1-based cycle
notation.  Finite abelian groups are canonicalized by invariant factors
d_1 | d_2 | ... | d_r (all >= 2, empty chain = trivial group); elements
are exponent tuples, written "e" or dot-joined exponents in grading files
(key_text / parse_key).  A free product of block groups over a partition
of the point set has reduced words of (block, exponent tuple) letters as
elements, written "e" or "b<block>:<element>" letters joined by "*".
Both grading groups share one interface: identity, mul, block_element
(block i's element c as an element of the grading group), element_order,
is_abelian, generates, key_text and parse_key.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

from .exactnum import Cyclotomic, prime_factorization, zeta


class Perm:
    """Permutation of {0, ..., n-1} stored as the image tuple."""

    __slots__ = ("images",)

    def __init__(self, images):
        images = tuple(images)
        if sorted(images) != list(range(len(images))):
            raise ValueError(f"not a permutation of 0..{len(images)-1}: {images}")
        self.images = images

    @classmethod
    def _trusted(cls, images: tuple) -> "Perm":
        """Wrap an image tuple already known to be a permutation, unchecked."""
        perm = object.__new__(cls)
        perm.images = images
        return perm

    @classmethod
    def identity(cls, n: int) -> "Perm":
        return cls(range(n))

    @property
    def n(self) -> int:
        return len(self.images)

    def __call__(self, i: int) -> int:
        return self.images[i]

    def __mul__(self, other: "Perm") -> "Perm":
        """Composition: (self * other)(i) = self(other(i))."""
        mine = self.images
        if len(mine) != len(other.images):
            raise ValueError(f"cannot compose permutations of degrees "
                             f"{len(mine)} and {len(other.images)}")
        return Perm._trusted(tuple([mine[j] for j in other.images]))

    def inverse(self) -> "Perm":
        inv = [0] * self.n
        for i, v in enumerate(self.images):
            inv[v] = i
        return Perm._trusted(tuple(inv))

    def __eq__(self, other):
        return isinstance(other, Perm) and self.images == other.images

    def __hash__(self):
        return hash(self.images)

    def __lt__(self, other):
        return self.images < other.images

    def cycle_string(self) -> str:
        seen = [False] * self.n
        cycles = []
        for start in range(self.n):
            if seen[start] or self.images[start] == start:
                seen[start] = True
                continue
            cyc = [start]
            seen[start] = True
            nxt = self.images[start]
            while nxt != start:
                cyc.append(nxt)
                seen[nxt] = True
                nxt = self.images[nxt]
            cycles.append("(" + " ".join(str(i + 1) for i in cyc) + ")")
        return "".join(cycles) if cycles else "id"

    def __repr__(self):
        return f"Perm{self.images}"


def all_perms(n: int) -> list[Perm]:
    """All of S_n in lexicographic image order."""
    return [Perm(p) for p in itertools.permutations(range(n))]


class FunctionOnSn(dict):
    """Exact-valued function on S_n: a map from image tuples to its nonzero
    values, so f(sigma) reads the entry of sigma.images (0 where absent).

    It is the value type of qperm.to_sn_function, the one map onto
    functions on S_n; there is no pointwise algebra on it.
    """

    __slots__ = ()

    def __call__(self, sigma: Perm):
        return self.get(sigma.images, 0)

    def render(self, limit: int = 8) -> str:
        if not self:
            return "0"
        support = sorted(self)
        parts = [f"{self[s]}*e[{Perm._trusted(s).cycle_string()}]" for s in support[:limit]]
        if len(support) > limit:
            parts.append(f"... ({len(support)} supported permutations)")
        return " + ".join(parts)


class FiniteAbelianGroup:
    """Finite abelian group in invariant-factor form."""

    __slots__ = ("invariant_factors",)

    def __init__(self, invariant_factors):
        factors = tuple(int(d) for d in invariant_factors)
        if any(d < 2 for d in factors):
            raise ValueError("invariant factors must be >= 2")
        for a, b in zip(factors, factors[1:]):
            if b % a != 0:
                raise ValueError(f"invariant factors must form a divisibility chain: {factors}")
        self.invariant_factors = factors

    @property
    def order(self) -> int:
        return math.prod(self.invariant_factors)

    @property
    def exponent(self) -> int:
        return self.invariant_factors[-1] if self.invariant_factors else 1

    def elements(self) -> list[tuple]:
        """All exponent tuples, lexicographic."""
        return list(itertools.product(*(range(d) for d in self.invariant_factors)))

    def identity(self) -> tuple:
        return (0,) * len(self.invariant_factors)

    def mul(self, a: tuple, b: tuple) -> tuple:
        return tuple((x + y) % d for x, y, d in zip(a, b, self.invariant_factors))

    def block_element(self, i: int, c: tuple) -> tuple:
        """The element c of the one block: the group is its own block group."""
        return c

    def element_order(self, a: tuple) -> int:
        return math.lcm(*(d // math.gcd(d, x) for x, d in zip(a, self.invariant_factors))) \
            if self.invariant_factors else 1

    def is_abelian(self) -> bool:
        return True

    def subgroup(self, elems) -> set:
        """The subgroup the given elements generate, as a set of elements."""
        closure = {self.identity()}
        frontier = list(elems)
        while frontier:
            x = frontier.pop()
            if x not in closure:
                closure.add(x)
                frontier.extend(self.mul(x, y) for y in list(closure))
        return closure

    def generates(self, support) -> bool:
        """Do the given elements generate the whole group?"""
        return len(self.subgroup(support)) == self.order

    def descriptor(self) -> str:
        if not self.invariant_factors:
            return "Z1"
        return "x".join(f"Z{d}" for d in self.invariant_factors)

    def key_text(self, key: tuple) -> str:
        """Element syntax: "e" for the identity, else dot-joined exponents."""
        if key == self.identity():
            return "e"
        return ".".join(str(c) for c in key)

    def parse_key(self, text: str) -> tuple:
        """Inverse of key_text; exponents are read modulo the invariant factors."""
        if text == "e":
            return self.identity()
        parts = tuple(int(c) for c in text.split("."))
        if len(parts) != len(self.invariant_factors):
            raise ValueError(f"element {text!r} does not match {self.descriptor()}")
        return tuple(c % d for c, d in zip(parts, self.invariant_factors))

    def __eq__(self, other):
        return isinstance(other, FiniteAbelianGroup) and \
            self.invariant_factors == other.invariant_factors

    def __hash__(self):
        return hash(self.invariant_factors)

    def __repr__(self):
        return f"FiniteAbelianGroup({self.descriptor()})"


@dataclass(frozen=True)
class FreeProductGroup:
    """Free product of finite abelian block groups over a partition of [n]."""

    blocks: tuple          # tuple of tuples of 0-based point indices
    groups: tuple          # FiniteAbelianGroup per block

    def __post_init__(self):
        if len(self.blocks) != len(self.groups):
            raise ValueError(f"{len(self.blocks)} blocks need as many groups, "
                             f"not {len(self.groups)}")
        points = sorted(p for b in self.blocks for p in b)
        n = sum(len(b) for b in self.blocks)
        if points != list(range(n)):
            raise ValueError("blocks must partition the point set")
        for b, g in zip(self.blocks, self.groups):
            if len(b) != g.order:
                raise ValueError(f"block of size {len(b)} cannot carry {g.descriptor()}")

    @property
    def n(self) -> int:
        return sum(len(b) for b in self.blocks)

    def identity(self) -> tuple:
        return ()

    def mul(self, a: tuple, b: tuple) -> tuple:
        word = list(a) + list(b)
        out: list = []
        for letter in word:
            if out and out[-1][0] == letter[0]:
                i = letter[0]
                combined = self.groups[i].mul(out[-1][1], letter[1])
                out.pop()
                if combined != self.groups[i].identity():
                    out.append((i, combined))
            else:
                out.append(letter)
        return tuple(out)

    def block_element(self, i: int, c: tuple) -> tuple:
        """Block i's element c as a reduced word: e, or the one letter (i, c)."""
        return () if c == self.groups[i].identity() else ((i, c),)

    def element_order(self, a: tuple):
        """Order of a reduced word; None means infinite.

        Conjugating x*u*y by x gives u*(y*x), a conjugate of the same
        order, so the word is first cyclically reduced: conjugated by its
        first letter while its first and last letters share a block.
        """
        while len(a) >= 2 and a[0][0] == a[-1][0]:
            a = self.mul(a[1:], a[:1])
        if not a:
            return 1
        if len(a) == 1:
            i, c = a[0]
            return self.groups[i].element_order(c)
        return None   # a cyclically reduced word of length >= 2 in a free product

    def is_abelian(self) -> bool:
        return sum(1 for g in self.groups if g.order > 1) <= 1

    def descriptor(self) -> str:
        return "*".join(g.descriptor() for g in self.groups)

    def generates(self, support) -> bool:
        """Do the supported words generate the whole free product?

        Grows, per block, a subgroup of letters known to lie in the
        generated subgroup H: a letter joins when some supported word holds
        it at the only position whose letter is not yet known, since it is
        then a product of elements of H.  Only when every block group is
        reached is H everything, so True is never said of a proper
        subgroup.  The test is sound, not complete: {a*b, a^2*b} in Z3*Z2
        generates (it holds a^-1) but no letter of it joins, so it gets
        False.
        """
        known = [g.subgroup(()) for g in self.groups]
        grown = True
        while grown:
            grown = False
            for key in support:
                unknown = [(i, c) for i, c in key if c not in known[i]]
                if len(unknown) == 1:
                    i, c = unknown[0]
                    known[i] = self.groups[i].subgroup(known[i] | {c})
                    grown = True
        return all(len(h) == g.order for h, g in zip(known, self.groups))

    def key_text(self, key: tuple) -> str:
        """Element syntax: "e", or letters "b<block>:<element>" joined by "*"."""
        if not key:
            return "e"
        return "*".join(f"b{i}:{self.groups[i].key_text(c)}" for i, c in key)

    def parse_key(self, text: str) -> tuple:
        """Inverse of key_text; the word read is reduced, so every spelling
        of the identity (e, b0:0, b1:e, b0:1*b0:1 in Z2) reads as e."""
        if text == "e":
            return self.identity()
        letters = []
        for chunk in text.split("*"):
            if not chunk.startswith("b") or ":" not in chunk:
                raise ValueError(f"bad free-product element {text!r}")
            i_str, elem_str = chunk[1:].split(":", 1)
            i = int(i_str)
            if not 0 <= i < len(self.groups):
                raise ValueError(f"block index {i} out of range in element {text!r}")
            letters.append(self.block_element(i, self.groups[i].parse_key(elem_str)))
        return functools.reduce(self.mul, letters, ())


def parse_group_descriptor(text: str) -> FiniteAbelianGroup:
    """Parse "Z4xZ2"-style descriptors (any factor order; canonicalized)."""
    parts = [p.strip() for p in text.lower().split("x")]
    sizes = []
    for p in parts:
        if not p.startswith("z") or not p[1:].isdigit():
            raise ValueError(f"bad group descriptor component {p!r}")
        d = int(p[1:])
        if d < 1:
            raise ValueError(f"bad cyclic order {d}")
        if d > 1:
            sizes.append(d)
    return abelian_group_from_cyclic_orders(sizes)


def abelian_group_from_cyclic_orders(sizes) -> FiniteAbelianGroup:
    """Canonical invariant factors of a direct product of cyclic groups."""
    primary: dict[int, list[int]] = {}
    for size in sizes:
        for p, e in prime_factorization(size).items():
            primary.setdefault(p, []).append(e)
    factors = [1] * max(map(len, primary.values()), default=0)
    for p, exps in primary.items():
        # the k-th largest power of each prime goes into the k-th largest factor
        for k, e in enumerate(sorted(exps, reverse=True)):
            factors[k] *= p ** e
    return FiniteAbelianGroup(tuple(sorted(factors)))


def partitions_desc(n: int) -> list[tuple]:
    """Partitions of n as nonincreasing tuples, reverse-lex order."""
    out: list[tuple] = []

    def gen(rest, maxpart, prefix):
        if rest == 0:
            out.append(tuple(prefix))
            return
        for part in range(min(rest, maxpart), 0, -1):
            gen(rest - part, part, prefix + [part])

    gen(n, n, [])
    return out


def abelian_groups_of_order(n: int) -> list[FiniteAbelianGroup]:
    """One representative per isomorphism class, sorted by invariant factors.

    The classes correspond to one partition of each prime's exponent in n.
    """
    if n < 1:
        raise ValueError("order must be positive")
    primes = prime_factorization(n)
    result = [abelian_group_from_cyclic_orders(
                  p ** e for p, part in zip(primes, combo) for e in part)
              for combo in itertools.product(*map(partitions_desc, primes.values()))]
    result.sort(key=lambda g: g.invariant_factors)
    return result


def regular_embedding(G: FiniteAbelianGroup) -> list[Perm]:
    """Translation action of G on itself via the lexicographic point labeling.

    Returns the image permutations listed in the element order of G; the
    result is a transitive abelian subgroup of S_|G| acting regularly.
    """
    elems = G.elements()
    index = {e: i for i, e in enumerate(elems)}
    return [Perm(tuple(index[G.mul(g, x)] for x in elems)) for g in elems]


@dataclass(frozen=True)
class Character:
    """Character of a finite abelian group, valued in roots of unity."""

    group: FiniteAbelianGroup
    exponents: tuple

    def __call__(self, element: tuple) -> Cyclotomic:
        E = self.group.exponent
        total = 0
        for c, a, d in zip(self.exponents, element, self.group.invariant_factors):
            total = (total + c * a * (E // d)) % E
        return zeta(E, total)


def characters(G: FiniteAbelianGroup) -> list[Character]:
    return [Character(G, e) for e in G.elements()]


def subgroup_closure(gens: list[Perm], n: int, maxsize: int | None = None) -> frozenset[Perm]:
    """Multiplicative closure; stops early once maxsize is exceeded."""
    elems = {Perm.identity(n)}
    frontier = list(elems)
    while frontier:
        new = []
        for g in gens:
            for h in frontier:
                x = g * h
                if x not in elems:
                    elems.add(x)
                    new.append(x)
                    if maxsize is not None and len(elems) > maxsize:
                        return frozenset(elems)
        frontier = new
    return frozenset(elems)


def _conjugates(elements: frozenset[Perm], n: int) -> list[tuple]:
    """Every conjugate tau G tau^-1 over tau in S_n, as a sorted image tuple."""
    out = []
    for tau in all_perms(n):
        tinv = tau.inverse()
        out.append(tuple(sorted((tau * g * tinv).images for g in elements)))
    return out


def is_transitive(elements, n: int) -> bool:
    reached = {0}
    frontier = [0]
    while frontier:
        nxt = []
        for g in elements:
            for x in frontier:
                y = g(x)
                if y not in reached:
                    reached.add(y)
                    nxt.append(y)
        frontier = nxt
    return len(reached) == n


def is_abelian(elements) -> bool:
    elems = list(elements)
    return all(a * b == b * a for a, b in itertools.combinations(elems, 2))


def transitive_abelian_subgroups(n: int, mode: str = "classified"):
    """Transitive abelian subgroups of S_n, one per conjugacy class.

    classified mode returns (group, elements) pairs built from the regular
    embedding of each abelian group of order n (complete because a
    transitive abelian subgroup is regular).  brute_force mode (n <= 6)
    searches S_n directly and is the cross-validation oracle.

    The brute-force search closes every commuting pair of fixed-point-free
    permutations.  The first closure of a new class that is transitive and
    abelian of order n has all n! of its conjugates computed once: the class
    is keyed by the minimal one, and all of them go into a seen set, so a
    later closure that is any conjugate of a class already found is skipped
    before it is checked or conjugated again.  Each class is still recorded
    at its first closure and keyed by its minimal conjugate, so the classes,
    their order and their representatives are those of conjugating every
    closure.
    """
    if mode == "classified":
        out = []
        for G in abelian_groups_of_order(n):
            elems = frozenset(regular_embedding(G))
            out.append((G, elems))
        return out
    if mode != "brute_force":
        raise ValueError(f"unknown mode {mode!r}")
    if n > 6:
        raise ValueError("brute-force subgroup search is capped at n = 6; "
                         "use classified mode for larger n")
    if n == 1:
        return [(FiniteAbelianGroup(()), frozenset([Perm.identity(1)]))]
    # every non-identity element of a regular subgroup is fixed-point-free
    candidates = [g for g in all_perms(n)
                  if all(g(i) != i for i in range(n)) ]
    found: dict[tuple, frozenset[Perm]] = {}
    seen: set[tuple] = set()     # every conjugate of every class found so far
    for a, b in itertools.combinations_with_replacement(candidates, 2):
        if a * b != b * a:
            continue
        elems = subgroup_closure([a, b], n, maxsize=n)
        if len(elems) != n or tuple(sorted(g.images for g in elems)) in seen:
            continue
        if not is_transitive(elems, n) or not is_abelian(elems):
            continue
        conjugates = _conjugates(elems, n)
        seen.update(conjugates)
        found[min(conjugates)] = elems
    out = []
    for key in sorted(found):
        elems = found[key]
        orders = sorted(_perm_order(g) for g in elems)
        match = None
        for G in abelian_groups_of_order(n):
            reg = regular_embedding(G)
            if sorted(_perm_order(g) for g in reg) == orders:
                match = G
                break
        out.append((match, elems))
    return out


def _perm_order(g: Perm) -> int:
    k = 1
    x = g
    ident = Perm.identity(g.n)
    while x != ident:
        x = x * g
        k += 1
    return k
