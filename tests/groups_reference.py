"""Reference group computations for tests, on plain tuples.

Two subgroups are conjugate in S_n exactly when they have the same
canonical conjugate: the least, over every tau in S_n, of tau G tau^-1
written as the sorted tuple of its elements' image tuples.

The other oracles read permutations as image tuples and close a set of
generators by multiplying every element reached by every generator, for
any group law; none of them calls the closure or the search in
`qpalg.groups`.
"""

import itertools

from qpalg.groups import all_perms


def canonical_conjugate(elements, n: int) -> tuple:
    return min(tuple(sorted((tau * g * tau.inverse()).images for g in elements))
               for tau in all_perms(n))


def compose(a: tuple, b: tuple) -> tuple:
    """(a b)(i) = a(b(i)) on image tuples."""
    return tuple(a[j] for j in b)


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
