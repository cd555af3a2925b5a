"""Reference group computations for tests, on plain tuples.

Two subgroups are conjugate in S_n exactly when they have the same
canonical conjugate: the least, over every tau in S_n, of tau G tau^-1
written as the sorted tuple of its elements' image tuples.  The set of
all of them is listed by conjugating with every tau in S_n.

The other oracles read permutations as image tuples and close a set of
generators by multiplying every element reached by every generator, for
any group law.  This module imports nothing from `qpalg`, so none of its
oracles shares code with the closure, the search, the conjugate orbits or
the candidate filter of `qpalg.groups`.
"""

import itertools


def compose(a: tuple, b: tuple) -> tuple:
    """(a b)(i) = a(b(i)) on image tuples."""
    return tuple(a[j] for j in b)


def all_conjugates(elements, n: int) -> set:
    """Every tau G tau^-1 over all tau in S_n, each as the sorted tuple of
    its elements' image tuples, for G given as image tuples."""
    return {tuple(sorted(compose(compose(tau, g), tuple(map(tau.index, range(n))))
                         for g in elements))
            for tau in itertools.permutations(range(n))}


def canonical_conjugate(elements, n: int) -> tuple:
    """The least tau G tau^-1 over tau in S_n, for G given as image tuples."""
    return min(all_conjugates(elements, n))


def product_closure(gens, identity, mul=compose) -> frozenset:
    """Everything the generators reach from the identity by multiplication."""
    reached = {identity}
    frontier = [identity]
    while frontier:
        frontier = [y for y in {mul(g, x) for g in gens for x in frontier} if y not in reached]
        reached.update(frontier)
    return frozenset(reached)


def is_transitive(elements, n: int) -> bool:
    """Do the image tuples, applied again and again, move 0 to every point?"""
    orbit, frontier = {0}, [0]
    while frontier:
        frontier = [y for y in {g[x] for g in elements for x in frontier} if y not in orbit]
        orbit.update(frontier)
    return len(orbit) == n


def is_abelian(elements) -> bool:
    return all(compose(a, b) == compose(b, a) for a, b in itertools.combinations(elements, 2))


def is_semiregular(g: tuple) -> bool:
    """g is not the identity, and each of its powers is the identity or moves every point."""
    ident = tuple(range(len(g)))
    return g != ident and all(p == ident or all(p[i] != i for i in ident)
                              for p in product_closure([g], ident))
