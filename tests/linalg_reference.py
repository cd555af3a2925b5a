"""Plain dense elimination over exact entries, as an oracle for tests.

Every entry of the pivot row is divided by the pivot, with no caching and
no skipped zeros, so it shares no shortcut with `qpalg.linalg`.
"""

from fractions import Fraction


def reference_rank(rows) -> int:
    mat = [list(r) for r in rows]
    rk = 0
    for col in range(len(mat[0]) if mat else 0):
        pivot = next((r for r in range(rk, len(mat)) if mat[r][col]), None)
        if pivot is None:
            continue
        mat[rk], mat[pivot] = mat[pivot], mat[rk]
        p = mat[rk][col]
        mat[rk] = [Fraction(1) * x / p for x in mat[rk]]
        for r in range(len(mat)):
            if r != rk:
                factor = mat[r][col]
                mat[r] = [x - factor * y for x, y in zip(mat[r], mat[rk])]
        rk += 1
    return rk


def in_reference_span(rows, v) -> bool:
    """Does v lie in the span of rows (any rows, dependent or empty)?"""
    return reference_rank(list(rows) + [v]) == reference_rank(rows)
