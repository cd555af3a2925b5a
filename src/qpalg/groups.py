"""Finite group machinery: the grading groups (finite abelian groups and
free products of them), characters with cyclotomic values, and the
search for transitive abelian subgroups of S_n, on image tuples.

Permutations act on 0-based points.  Finite abelian groups are
canonicalized by invariant factors d_1 | d_2 | ... | d_r (all >= 2,
empty chain = trivial group); elements are exponent tuples, written "e"
or dot-joined exponents in grading files (key_text / parse_key).  A free
product of block groups over a partition of the point set has reduced
words of (block, exponent tuple) letters as elements, written "e" or
"b<block>:<element>" letters joined by "*".  Both grading groups share
one interface: identity, mul, block_element (block i's element c as an
element of the grading group), element_order, is_abelian, generates,
key_text, parse_key, header_lines (the grading file header) and
restriction (to an orbit block).  Descriptors of order above
GROUP_MAX_ORDER are refused.

Every group closed here is abelian, and subgroup_closure is the one
closure, of pairwise commuting generators under any law: it serves
FiniteAbelianGroup.subgroup (so both generates tests) and the
brute-force search for transitive abelian subgroups of S_n, which reads
transitivity off the point 0 and names each class by its element orders.
"""

from __future__ import annotations

import functools
import itertools
import math
import sys
from dataclasses import dataclass, field

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

    def __mul__(self, other: "Perm") -> "Perm":
        """Composition: (self * other)(i) = self(other(i))."""
        mine = self.images
        if len(mine) != len(other.images):
            raise ValueError(f"cannot compose permutations of degrees "
                             f"{len(mine)} and {len(other.images)}")
        return Perm._trusted(tuple([mine[j] for j in other.images]))

    def __eq__(self, other):
        return isinstance(other, Perm) and self.images == other.images

    def __hash__(self):
        return hash(self.images)

    def __repr__(self):
        return f"Perm{self.images}"


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

    def header_lines(self) -> list[str]:
        """The grading file header that names the group."""
        return [f"group: {self.descriptor()}"]

    def restriction(self, comps: dict) -> tuple:
        """(group, components) of an orbit block's restriction: both unchanged."""
        return self, comps

    def element_order(self, a: tuple) -> int:
        return math.lcm(*(d // math.gcd(d, x) for x, d in zip(a, self.invariant_factors))) \
            if self.invariant_factors else 1

    def is_abelian(self) -> bool:
        return True

    def subgroup(self, elems) -> set:
        """The subgroup the given elements generate, as a set of elements."""
        return set(subgroup_closure(elems, self.mul, self.identity()))

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
    """Free product of finite abelian block groups over a partition of [n].

    Element texts join letter texts, and a grading's texts spell the same
    few letters again and again: each letter's text `b<i>:<element>` is
    rendered once per group and kept in a memo that takes no part in the
    constructor, equality, hashing or repr.
    """

    blocks: tuple          # tuple of tuples of 0-based point indices
    groups: tuple          # FiniteAbelianGroup per block
    # letter -> its text, rendered the first time a word holds it; interned,
    # so the many groups of a classification keep one copy of each text
    _letter_texts: dict = field(default_factory=dict, init=False, repr=False, compare=False)

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

    def header_lines(self) -> list[str]:
        """The grading file header that names the blocks and their groups."""
        return ["blocks: " + " | ".join(",".join(str(p + 1) for p in b) for b in self.blocks),
                "groups: " + " | ".join(g.descriptor() for g in self.groups)]

    def restriction(self, comps: dict) -> tuple:
        """(group, components) of an orbit block's restriction, over one
        block group.  Its support is a finite subgroup of the free product,
        hence conjugate into one factor (Kurosh): when its keys name more
        than one block, each is x*l*x^-1 for one shared x, read as l in l's
        block."""
        factors = {i for key in comps if key for i, _ in key}
        if len(factors) > 1:
            first = next(key for key in comps if key)
            r = len(first) // 2
            for key in comps:
                if key and (len(key) != 2 * r + 1 or key[:r] != first[:r] or
                            key[r][0] != first[r][0] or self.mul(key[:r], key[r + 1:]) != ()):
                    raise ValueError(
                        f"restricted key {self.key_text(key)} is no conjugate x*l*x^-1 with "
                        f"the x and the block of {self.key_text(first)}; the grading is "
                        "not a verified grading of a diagonal algebra")
            comps = {key[r:r + 1] if key else key: vecs for key, vecs in comps.items()}
            factors = {first[r][0]}
        if not factors:
            return FiniteAbelianGroup(()), {(): comps.get((), [])}
        G = self.groups[factors.pop()]
        return G, {key[0][1] if key else G.identity(): vecs for key, vecs in comps.items()}

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
        texts = self._letter_texts
        out = []
        for letter in key:
            text = texts.get(letter)
            if text is None:
                i, c = letter
                text = texts[letter] = sys.intern(f"b{i}:{self.groups[i].key_text(c)}")
            out.append(text)
        return "*".join(out)

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


GROUP_MAX_ORDER = 2**16


def parse_group_descriptor(text: str) -> FiniteAbelianGroup:
    """Parse "Z4xZ2"-style descriptors (any factor order; canonicalized).

    A group of order above GROUP_MAX_ORDER is refused: closing a subgroup
    costs a product per element.  Canonicalizing keeps the order, so it
    is checked first, before the factoriser meets a large cyclic order."""
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
    order = math.prod(sizes)
    if order > GROUP_MAX_ORDER:
        raise ValueError(f"group of order {order}; grading groups are capped at order "
                         f"{GROUP_MAX_ORDER} (subgroup closure cost)")
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
    """Character of a finite abelian group, valued in roots of unity.

    chi(g) = zeta_E^k for the group's exponent E, returned as the canonical
    scalar `parse_scalar` gives for the same value: a rational value is a
    plain int (1 at k = 0, -1 at 2k = E), every other one the shared root
    `zeta(E, k)`.  Products of values then stay on ints and exponents.
    """

    group: FiniteAbelianGroup
    exponents: tuple

    def __call__(self, element: tuple) -> int | Cyclotomic:
        E = self.group.exponent
        total = 0
        for c, a, d in zip(self.exponents, element, self.group.invariant_factors):
            total = (total + c * a * (E // d)) % E
        if not total:
            return 1
        return -1 if 2 * total == E else zeta(E, total)


def characters(G: FiniteAbelianGroup) -> list[Character]:
    return [Character(G, e) for e in G.elements()]


def subgroup_closure(gens, mul, identity) -> list:
    """The subgroup that pairwise commuting generators generate, as a list
    that starts at the identity.

    A generator g outside the subgroup H closed so far adds the cosets
    g^k H for k = 1, 2, ... until g^k lies in H; as g commutes with H,
    their union is a subgroup again.  Each coset is g times the one
    before it, so every new element costs one product.  Every group qpalg
    closes is abelian; a non-abelian one needs a closure of its own.
    """
    closure, members = [identity], {identity}
    for g in gens:
        cosets, coset, power = [], closure, g
        while power not in members:
            coset = [power] + [mul(g, x) for x in coset[1:]]
            cosets.append(coset)
            power = mul(g, power)
        new = [x for coset in cosets for x in coset]
        closure += new
        members.update(new)
    return closure


def _compose(a: tuple, b: tuple) -> tuple:
    """(a b)(i) = a(b(i)) on image tuples."""
    return tuple(map(a.__getitem__, b))


def _semiregular(g: tuple) -> bool:
    """Does g move every point, along cycles of one length?"""
    lengths = set()
    for i in range(len(g)):
        j, length = g[i], 1
        while j != i:
            j, length = g[j], length + 1
        lengths.add(length)
    return len(lengths) == 1 and 1 not in lengths


def _conjugates(elements: frozenset[tuple], n: int) -> list[tuple]:
    """Each distinct conjugate tau G tau^-1 over tau in S_n once, as a
    sorted image tuple.

    They are the orbit of G under conjugation by the transposition (0 1)
    and the n-cycle i -> i+1, which generate S_n; for n = 2 the two
    coincide, and S_1 has neither.  Each conjugate found is conjugated
    once by each generator.
    """
    ident = tuple(range(n))
    taus = dict.fromkeys(((1, 0) + ident[2:], ident[1:] + ident[:1])) if n > 1 else ()
    gens = [(tau, tuple(sorted(ident, key=tau.__getitem__))) for tau in taus]
    orbit = [tuple(sorted(elements))]
    members = set(orbit)
    for H in orbit:
        for tau, tinv in gens:
            K = tuple(sorted(tuple(map(tau.__getitem__, map(g.__getitem__, tinv))) for g in H))
            if K not in members:
                members.add(K)
                orbit.append(K)
    return orbit


def transitive_abelian_subgroups(n: int, mode: str = "classified"):
    """Transitive abelian subgroups of S_n, one per conjugacy class.

    classified mode returns (group, elements) pairs built from the regular
    embedding of each abelian group of order n (complete because a
    transitive abelian subgroup is regular).  brute_force mode (n <= 6)
    searches S_n directly and is the cross-validation oracle.

    The brute-force search runs on image tuples; only its answer is wrapped
    in Perm.  It closes commuting pairs (tested at the point 0 first) of
    semiregular permutations, whose cycles all have one length > 1 (S_1
    has none and closes its identity): in a regular group a power of g that
    fixes a point is 1, so no other permutation lies in one.  The closure is
    abelian, and one of order n is transitive exactly when it moves the
    point 0 to all n points.  The first closure of a new class has its
    distinct conjugates listed once (_conjugates), and the class is keyed
    by the minimal one.  Each element is mapped to the seen conjugates
    that hold it, and a commuting pair whose two elements lie in one seen
    conjugate H is skipped before its full products are compared: its
    closure is a subgroup of H, so it is either of order below n or H
    itself, a class already found.  Each class is still recorded at its
    first closure and keyed by its minimal conjugate, so the classes,
    their order and their representatives are those of conjugating every
    closure.  A class is named by the abelian group of order n with its
    element orders, each the size of an element's closure.
    """
    if mode == "classified":
        return [(G, frozenset(regular_embedding(G))) for G in abelian_groups_of_order(n)]
    if mode != "brute_force":
        raise ValueError(f"unknown mode {mode!r}")
    if n > 6:
        raise ValueError("brute-force subgroup search is capped at n = 6; "
                         "use classified mode for larger n")
    ident = tuple(range(n))
    candidates = [g for g in itertools.permutations(ident) if _semiregular(g)] or [ident]
    found: dict[tuple, frozenset[tuple]] = {}
    holders: dict[tuple, int] = {}   # element -> bit set of the seen conjugates holding it
    bit = 1
    for a, b in itertools.combinations_with_replacement(candidates, 2):
        if a[b[0]] != b[a[0]] or holders.get(a, 0) & holders.get(b, 0) or \
                _compose(a, b) != _compose(b, a):
            continue
        elems = frozenset(subgroup_closure((a, b), _compose, ident))
        if len(elems) != n or len({g[0] for g in elems}) != n:
            continue
        conjugates = _conjugates(elems, n)
        for H in conjugates:
            for g in H:
                holders[g] = holders.get(g, 0) | bit
            bit <<= 1
        found[min(conjugates)] = elems
    named = {tuple(sorted(map(G.element_order, G.elements()))): G
             for G in abelian_groups_of_order(n)}
    return [(named[tuple(sorted(len(subgroup_closure((g,), _compose, ident))
                                for g in elems))], frozenset(map(Perm._trusted, elems)))
            for _, elems in sorted(found.items())]
