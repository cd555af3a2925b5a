from fractions import Fraction

from hypothesis import given, settings, strategies as st

from qpalg import linalg
from qpalg.exactnum import Cyclotomic, zeta
from qpalg.linalg import Span, _echelon, rank, solve_combination

F = Fraction


def _reference_rank(rows):
    """Plain Gauss elimination with `/` on every entry, as a cross-check."""
    mat = [list(r) for r in rows]
    rk = 0
    for col in range(len(mat[0]) if mat else 0):
        pivot = next((r for r in range(rk, len(mat)) if mat[r][col]), None)
        if pivot is None:
            continue
        mat[rk], mat[pivot] = mat[pivot], mat[rk]
        p = mat[rk][col]
        mat[rk] = [F(1) * x / p for x in mat[rk]]
        for r in range(len(mat)):
            if r != rk:
                factor = mat[r][col]
                mat[r] = [x - factor * y for x, y in zip(mat[r], mat[rk])]
        rk += 1
    return rk


def _no_floats(values):
    return not any(isinstance(x, float) for x in values)


def test_int_input_stays_exact():
    mat, pivots = _echelon([[2, 1], [1, 3]])
    assert pivots == [0, 1] and mat == [[1, 0], [0, 1]]
    assert all(_no_floats(row) for row in mat)
    combo = solve_combination([[3, 0], [0, 3]], [1, 2])
    assert combo == [F(1, 3), F(2, 3)] and _no_floats(combo)
    for rows in ([[2, 1], [1, 3]], [[F(2), F(1, 2)], [F(1), F(3)]],
                 [[zeta(3), 2], [1, zeta(3, 2)]]):
        span = Span(rows)
        assert span.rank == 2
        assert all(_no_floats(x for _, x in row) for _, row in span._rows)
        assert all(_no_floats(row) for row in _echelon(rows)[0])


def test_span_queries():
    span = Span()
    assert span.rank == 0 and [0, 0] in span and [1, 0] not in span
    assert span.add([2, 4]) and not span.add([1, 2]) and not span.add([0, 0])
    assert [F(-1, 2), -1] in span and [0, 1] not in span
    assert span.add([0, 1]) and span.rank == 2 and [7, 9] in span
    assert rank([]) == 0 and rank([[0, 0]]) == 0


_ENTRIES = st.one_of(st.integers(-2, 2), st.fractions(-2, 2, max_denominator=3),
                     st.sampled_from([zeta(3), zeta(4), zeta(6, 5), zeta(3) + 1]))


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 4).flatmap(lambda n: st.tuples(
    st.lists(st.lists(_ENTRIES, min_size=n, max_size=n), max_size=4),
    st.lists(_ENTRIES, min_size=n, max_size=n))))
def test_span_agrees_with_reference_elimination(case):
    rows, v = case
    span = Span(rows)
    assert span.rank == _reference_rank(rows) == rank(rows)
    assert (v in span) == (_reference_rank(rows + [v]) == _reference_rank(rows))
    # add() reports exactly the vectors that raise the rank
    grown = Span()
    for i, row in enumerate(rows):
        assert grown.add(row) == (_reference_rank(rows[:i + 1]) > _reference_rank(rows[:i]))


def test_rank_inverts_each_pivot_once(monkeypatch):
    n = 5
    rows = [[zeta(7, i * j) + i for j in range(n)] for i in range(n)]
    expected = _reference_rank(rows)
    calls = []
    inverse = Cyclotomic.inverse

    def counting(self):
        calls.append(self)
        return inverse(self)

    monkeypatch.setattr(Cyclotomic, "inverse", counting)
    assert linalg.rank(rows) == expected == n
    assert len(calls) <= n
