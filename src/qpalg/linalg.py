"""Exact dense linear algebra over field-like coefficients.

Entries are `exactnum` scalars (int, Fraction and Cyclotomic mix
freely).  Elimination only adds and multiplies, and each pivot is
inverted once by `exactnum.inverse`, so int input never turns into
floats.  Zero entries are skipped.  One incremental echelon form, `Span`,
serves span queries and `rank`.  Matrices are lists of row lists;
nothing here mutates its arguments.
"""

from __future__ import annotations

from .exactnum import inverse


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
    return Span(rows).rank
