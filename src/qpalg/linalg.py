"""Exact dense linear algebra over field-like coefficients.

Works with any entries supporting +, -, *, bool and ``Fraction(1) / x``
(int, Fraction and Cyclotomic mix freely, and int input never turns into
floats).  Each pivot is inverted once and zero entries are skipped.  Span
queries go through one incremental echelon form, `Span`; `_echelon`
serves `solve_combination` only.  Matrices are lists of row lists;
nothing here mutates its arguments.
"""

from __future__ import annotations

from fractions import Fraction

_ONE = Fraction(1)


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
        inv = _ONE / x
        self._rows.append((pivot, [(j, y * inv) for j, y in enumerate(v) if y]))
        return True


def rank(rows: list[list]) -> int:
    return Span(rows).rank


def _echelon(rows: list[list]) -> tuple[list[list], list[int]]:
    """Reduced row echelon form; returns (rows, pivot columns)."""
    mat = [list(r) for r in rows]
    pivots: list[int] = []
    row = 0
    ncols = len(mat[0]) if mat else 0
    for col in range(ncols):
        pivot_row = None
        for r in range(row, len(mat)):
            if mat[r][col]:
                pivot_row = r
                break
        if pivot_row is None:
            continue
        mat[row], mat[pivot_row] = mat[pivot_row], mat[row]
        inv = _ONE / mat[row][col]
        mat[row] = [x * inv if x else x for x in mat[row]]
        for r in range(len(mat)):
            if r != row and mat[r][col]:
                factor = mat[r][col]
                mat[r] = [x - factor * y if y else x for x, y in zip(mat[r], mat[row])]
        pivots.append(col)
        row += 1
        if row == len(mat):
            break
    return mat, pivots


def solve_combination(vectors: list, target) -> list | None:
    """Coefficients c with sum(c_i * vectors[i]) == target, or None.

    Vectors and target are equal-length sequences.  Free variables are set
    to zero, so the answer is deterministic.
    """
    n = len(target)
    k = len(vectors)
    if k == 0:
        return [] if not any(target) else None
    zero = target[0] - target[0] if n else 0
    aug = [[vectors[j][i] for j in range(k)] + [target[i]] for i in range(n)]
    mat, pivots = _echelon(aug)
    if k in pivots:
        return None
    combo = [zero] * k
    for r, col in enumerate(pivots):
        combo[col] = mat[r][k]
    return combo
