"""Exact dense linear algebra over field-like coefficients.

Entries are `exactnum` scalars (int, Fraction and Cyclotomic mix
freely).  Elimination only adds and multiplies, and each pivot is
inverted once by `exactnum.inverse`, so int input never turns into
floats.  Zero entries are skipped.  One incremental echelon form, `Span`,
serves span queries and the exact rank.

`rank` first reduces the rows modulo a prime p that splits in the field
Q(zeta_m) of their entries (`exactnum.split_prime`, `exactnum.residue`).
If the images are independent over F_p, some k x k minor is nonzero mod
p, hence nonzero over Q(zeta_m), and the rank is the row count with no
field arithmetic.  Only when that fails (the images are dependent, p
divides a denominator, or there are more rows than columns) does `Span`
eliminate over Q(zeta_m) for the exact rank.  Matrices are lists of row
lists; nothing here mutates its arguments.
"""

from __future__ import annotations

import math

from .exactnum import field_order, inverse, residue, split_prime


class Span:
    """Incremental row echelon form of a growing list of vectors.

    Every stored row has entry 1 in its pivot column and entry 0 in the
    pivot columns of the rows stored before it, so reducing a vector by
    the rows in insertion order clears every pivot column; the vector lies
    in the span exactly when nothing is left.
    """

    __slots__ = ("_rows",)

    def __init__(self, vectors=()):
        self._rows: list = []        # (pivot column, nonzero (column, entry) pairs)
        for v in vectors:
            self.add(v)

    @property
    def rank(self) -> int:
        return len(self._rows)

    def _residue(self, v) -> list:
        v = list(v)
        for pivot, row in self._rows:
            c = v[pivot]
            if c:
                for j, x in row:
                    v[j] = v[j] - c * x if v[j] else -c * x
        return v

    def __contains__(self, v) -> bool:
        return not any(self._residue(v))

    def add(self, v) -> bool:
        """Extend the span by v; False when v already lies in it."""
        v = self._residue(v)
        for pivot, x in enumerate(v):
            if x:
                break
        else:
            return False
        inv = inverse(x)
        self._rows.append((pivot, [(j, y * inv) for j, y in enumerate(v) if y]))
        return True


def rank(rows: list[list]) -> int:
    """Exact rank: the row count when the rows are independent modulo a
    split prime, else the rank of their `Span`."""
    if rows and len(rows) <= len(rows[0]) and _independent_mod_p(rows):
        return len(rows)
    return Span(rows).rank


def _independent_mod_p(rows: list[list]) -> bool:
    """Are the images of the rows in F_p independent?  Sparse elimination
    as in `Span`, on residues; False also when p divides a denominator."""
    m = math.lcm(*(field_order(x) for row in rows for x in row if x))
    p, r = split_prime(m)
    try:
        images = [[residue(x, p, r, m) if x else 0 for x in row] for row in rows]
    except ZeroDivisionError:
        return False
    echelon = []                     # (pivot column, nonzero (column, residue) pairs)
    for v in images:
        for pivot, pairs in echelon:
            c = v[pivot]
            if c:
                for j, y in pairs:
                    v[j] = (v[j] - c * y) % p
        pivot = next((j for j, x in enumerate(v) if x), None)
        if pivot is None:
            return False
        inv = pow(v[pivot], -1, p)
        echelon.append((pivot, [(j, x * inv % p) for j, x in enumerate(v) if x]))
    return True
