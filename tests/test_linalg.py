import math
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from qpalg.exactnum import Cyclotomic, field_order, split_prime, zeta
from qpalg.linalg import Span, rank
from linalg_reference import reference_rank

F = Fraction


def _no_floats(values):
    return not any(isinstance(x, float) for x in values)


def test_int_input_stays_exact():
    for rows in ([[2, 1], [1, 3]], [[F(2), F(1, 2)], [F(1), F(3)]],
                 [[zeta(3), 2], [1, zeta(3, 2)]]):
        span = Span(rows)
        assert span.rank == 2
        assert all(_no_floats(x for _, x in row) for _, row in span._rows)
        assert _no_floats(span._residue([1, 7]))


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
    assert span.rank == reference_rank(rows) == rank(rows)
    assert (v in span) == (reference_rank(rows + [v]) == reference_rank(rows))
    # add() reports exactly the vectors that raise the rank
    grown = Span()
    for i, row in enumerate(rows):
        assert grown.add(row) == (reference_rank(rows[:i + 1]) > reference_rank(rows[:i]))


def test_rank_inverts_each_pivot_once(monkeypatch):
    n = 5
    rows = [[zeta(7, i * j) + i for j in range(n)] for i in range(n)]
    expected = reference_rank(rows)
    calls = []
    inverse = Cyclotomic.inverse

    def counting(self):
        calls.append(self)
        return inverse(self)

    monkeypatch.setattr(Cyclotomic, "inverse", counting)
    assert Span(rows).rank == expected == n
    assert len(calls) <= n


def _combination(coeffs, rows):
    return [sum((c * row[j] for c, row in zip(coeffs, rows)), 0) for j in range(len(rows[0]))]


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 4).flatmap(lambda n: st.tuples(
    st.lists(st.lists(_ENTRIES, min_size=n, max_size=n), min_size=1, max_size=3),
    st.lists(st.lists(_ENTRIES, min_size=3, max_size=3), max_size=2),
    st.booleans(), st.randoms(use_true_random=False))))
def test_rank_agrees_with_reference_on_dependent_rows(case):
    rows, combos, over_p, rng = case
    rows = rows + [_combination(c, rows) for c in combos]
    rng.shuffle(rows)
    if over_p:              # a denominator p leaves the rank to the exact form
        m = math.lcm(*(field_order(x) for row in rows for x in row))
        p, _ = split_prime(m)
        rows[0] = [x * F(1, p) for x in rows[0]]
    assert rank(rows) == reference_rank(rows)


def test_rows_dependent_only_mod_p_take_the_exact_rank():
    p, _ = split_prime(1)
    for rows in ([[1, 0], [1, p]],                 # equal images in F_p
                 [[F(1, p), 0], [0, 1]],           # p divides a denominator
                 [[zeta(4), 1], [1, zeta(4, 3)], [1, 0]]):   # more rows than columns
        assert rank(rows) == reference_rank(rows) == 2

