"""Reference invariant of a conjugacy class of subgroups of S_n, for tests.

Two subgroups are conjugate in S_n exactly when they have the same
canonical conjugate: the least, over every tau in S_n, of tau G tau^-1
written as the sorted tuple of its elements' image tuples.
"""

from qpalg.groups import all_perms


def canonical_conjugate(elements, n: int) -> tuple:
    return min(tuple(sorted((tau * g * tau.inverse()).images for g in elements))
               for tau in all_perms(n))
