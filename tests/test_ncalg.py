import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from qpalg.exactnum import coeff_value, zeta
from qpalg.ncalg import Alphabet, NCPoly, TensorAlgebra, deglex_key, parse_poly, substitute
from qpalg.rewrite import CONFLUENT, RewriteSystem, TensorPowerSystem, normal_form
from render_reference import reference_render
from tensor_reference import reference_tensor_system

F = Fraction

A = Alphabet(["u11", "u12", "u21", "u22"])
u11, u12, u21, u22 = (NCPoly.gen(A, k) for k in range(4))


def test_alphabet_rejects_duplicates():
    with pytest.raises(ValueError):
        Alphabet(["a", "a"])


def test_mul_rejects_alphabet_mismatch():
    B = Alphabet(["p", "q"])
    with pytest.raises(ValueError, match="alphabet"):
        u11 * NCPoly.gen(B, 0)


def test_mul_examples():
    assert (u11 * u12).terms == {(0, 1): F(1)}
    assert (u11 + u12) * NCPoly.one(A) == u11 + u12
    p, q = u11, u12
    expanded = (p - q) * (p + q)
    assert expanded == p * p + p * q - q * p - q * q
    assert expanded != p * p - q * q   # noncommutative cross terms survive


def test_degree_and_leading():
    # deglex puts a longest word first, so the leading word carries the degree
    assert len((u11 * u12 + u11).leading_word()) == 2
    assert (u11 * u12 + u12 * u11).leading_word() == (1, 0)
    with pytest.raises(ValueError, match="zero polynomial"):
        NCPoly.zero(A).leading_word()


def test_compare_words_examples():
    assert deglex_key(()) < deglex_key((0,))               # degree dominates
    assert deglex_key((0, 1)) > deglex_key((1,))
    assert deglex_key((0, 1)) < deglex_key((0, 2))         # lex on the second letter
    assert deglex_key((0, 1)) == deglex_key((0, 1))


def test_order_compatible_with_concatenation():
    rng = random.Random(99)
    words = [tuple(rng.randrange(4) for _ in range(rng.randrange(4)))
             for _ in range(200)]
    for _ in range(200):
        w1, w2, a, b = (rng.choice(words) for _ in range(4))
        if deglex_key(w1) < deglex_key(w2):
            assert deglex_key(a + w1 + b) < deglex_key(a + w2 + b)
    # only equal words tie
    for w1 in words[:20]:
        for w2 in words[:20]:
            assert (deglex_key(w1) == deglex_key(w2)) == (w1 == w2)


def test_substitute_delta_example():
    # comultiplication image of u11 at n = 2
    T = TensorAlgebra(A, 2)

    def pure(a, b):                     # letter a in factor 0 times letter b in factor 1
        return NCPoly.gen(T.alphabet, T.letter(a, 0)) * NCPoly.gen(T.alphabet, T.letter(b, 1))

    delta = {0: pure(0, 0) + pure(1, 2)}
    image = substitute(u11, delta)
    expected = T.inject(u11, 0) * T.inject(u11, 1) + T.inject(u12, 0) * T.inject(u21, 1)
    assert image == expected


def test_substitute_antihomomorphism():
    s_images = {0: u11, 1: u21, 2: u12, 3: u22}
    assert substitute(u12, s_images, antihom=True) == u21
    assert substitute(u11 * u12, s_images, antihom=True) == u21 * u11


def test_substitute_identity_images_is_identity():
    rng = random.Random(5)
    images = {k: NCPoly.gen(A, k) for k in range(4)}
    for _ in range(30):
        terms = {tuple(rng.randrange(4) for _ in range(rng.randrange(3))):
                 F(rng.randint(-3, 3)) for _ in range(4)}
        p = NCPoly(A, terms)
        assert substitute(p, images) == p


def test_substitute_missing_image_rejected():
    with pytest.raises(ValueError):
        substitute(u11, {1: u12})
    with pytest.raises(ValueError, match="no image for generator u12$"):
        substitute(u22 * u12 + u21, {0: u11, 2: u21})     # the lowest missing letter


def test_substitute_rejects_images_over_two_alphabets():
    # the first image fixes the target algebra; one-letter words are checked too
    B = Alphabet(["p", "q"])
    p_b = NCPoly.gen(B, 0)
    for images, polys in (({0: u11, 1: p_b}, (u12, u12 * u12, u11 * u12, u12 + u11)),
                          ({1: p_b, 0: u11}, (u11, u11 * u11, u12 * u11, 2 * u11 - 1))):
        for poly in polys:
            for antihom in (False, True):
                with pytest.raises(ValueError, match="alphabet mismatch"):
                    substitute(poly, images, antihom=antihom)
    assert substitute(u11 * u11 - 1, {0: u12, 1: p_b}) == u12 * u12 - 1   # unused images


def test_equal_alphabets_are_one_alphabet():
    """An equal but distinct Alphabet object adds, multiplies and
    substitutes; an alphabet of other names is still a mismatch."""
    twin = Alphabet(A.names)
    assert twin is not A and twin == A
    v11, v12 = NCPoly.gen(twin, 0), NCPoly.gen(twin, 1)
    assert u11 + v12 == u11 + u12 and u11 * v12 == u11 * u12 and not u11 - v11
    assert substitute(u11 * u12, {0: v12, 1: u11}) == u12 * u11 == \
        substitute(u11 * u12, {0: u12, 1: v11})
    w11 = NCPoly.gen(Alphabet(["w11", "w12", "w21", "w22"]), 0)
    for clash in (lambda: u11 + w11, lambda: u11 - w11, lambda: u11 * w11,
                  lambda: substitute(u11 * u12, {0: u12, 1: w11})):
        with pytest.raises(ValueError, match="alphabet mismatch"):
            clash()


def test_substitute_scalar_images():
    images = {k: NCPoly.scalar(A, c) for k, c in enumerate((1, 0, 0, 1))}
    assert substitute(u11 * u12 - u11, images) == -1
    assert substitute(NCPoly.one(A), images) == 1


def test_tensor_straightening_confluent():
    """Any interleaving reduces to the unique factor-sorted word."""
    T = TensorAlgebra(A, 2)
    free = RewriteSystem(A, [], status=CONFLUENT)
    sys = TensorPowerSystem(free, T)
    reference = reference_tensor_system(free, T)
    rng = random.Random(11)
    for _ in range(50):
        left = [rng.randrange(4) for _ in range(rng.randrange(3))]
        right = [rng.randrange(4) for _ in range(rng.randrange(3))]
        mixed = [(l, 0) for l in left] + [(r, 1) for r in right]
        rng.shuffle(mixed)
        word = tuple(T.letter(g, t) for g, t in mixed)
        poly = NCPoly(T.alphabet, {word: 1})
        nf = normal_form(poly, sys)
        # order within each factor must be preserved, factors sorted
        expect_left = [g for g, t in mixed if t == 0]
        expect_right = [g for g, t in mixed if t == 1]
        expected = tuple(T.letter(g, 0) for g in expect_left) + \
            tuple(T.letter(g, 1) for g in expect_right)
        assert nf.terms == {expected: F(1)}
        assert nf == normal_form(poly, reference)
    assert sys.status_label() == CONFLUENT


def test_poly_text_roundtrip():
    rng = random.Random(3)
    for _ in range(40):
        terms = {tuple(rng.randrange(4) for _ in range(rng.randrange(4))):
                 F(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(4)}
        p = NCPoly(A, terms)
        assert parse_poly(p.render(), A) == p
    assert parse_poly("1*u11.u12 - 1*u12.u11", A) == u11 * u12 - u12 * u11
    assert parse_poly("3/2 - u11", A) == NCPoly.scalar(A, F(3, 2)) - u11
    assert parse_poly("0", A) == NCPoly.zero(A)


_render_coeffs = st.one_of(
    st.integers(-30, 30),
    st.fractions(max_denominator=12),
    st.builds(lambda m, coeffs: sum((c * zeta(m, k) for k, c in enumerate(coeffs)), 0),
              st.sampled_from((3, 4, 5, 8)), st.lists(st.integers(-3, 3), min_size=1, max_size=4)))


@settings(max_examples=200, deadline=None)
@given(terms=st.dictionaries(st.lists(st.integers(0, 3), max_size=4).map(tuple), _render_coeffs,
                             max_size=8))
def test_render_matches_the_one_key_sort(terms):
    """Two sorts on builtin keys give descending deglex, and ints skip a
    parenthesis test they would always pass: the text is the reference's."""
    p = NCPoly(A, terms)
    assert p.render() == reference_render(p)


def test_integral_rationals_are_stored_as_int():
    for c in (3, F(6, 2), F(-4, 1)):
        assert type(coeff_value(c)) is int and coeff_value(c) == c
    assert coeff_value(F(1, 2)) == F(1, 2)
    p = parse_poly("4/2*u11 - 3 + 1/2*u12 + 1/2*u12 + 1/3*u21", A)
    assert p.terms == {(0,): 2, (): -3, (1,): 1, (2,): F(1, 3)}
    assert [type(c) for c in p.terms.values()] == [int, int, int, Fraction]


def test_bool_coefficients_act_as_integers():
    true_poly = NCPoly(A, {(0,): True, (): True})
    assert true_poly.render() == "1*u11 + 1"
    assert true_poly == u11 + 1 and hash(true_poly) == hash(u11 + 1)
    assert all(type(c) is int for c in true_poly.terms.values())
    false_poly = NCPoly(A, {(0,): False})
    assert false_poly.render() == "0" and false_poly == 0 and not false_poly
    assert (u12 * True).render() == "1*u12" and u12 * False == 0
    assert (u12 + True).render() == "1*u12 + 1"
    assert type(coeff_value(True)) is int and coeff_value(False) == 0


_OPERATORS = {"+": lambda a, b: a + b, "-": lambda a, b: a - b, "*": lambda a, b: a * b,
              "right *": lambda a, b: b * a, "==": lambda a, b: a == b}


@pytest.mark.parametrize("name", _OPERATORS)
def test_operators_take_exactly_the_exact_scalars(name):
    """Each operator takes an int, Fraction, Cyclotomic or bool as the
    constant polynomial, and refuses a float."""
    op = _OPERATORS[name]
    for c in (3, F(1, 2), zeta(4), True):
        const = NCPoly.scalar(A, c)
        for p in (u11 + 2, const):
            assert op(p, c) == op(p, const)
            assert isinstance(op(p, c), bool if name == "==" else NCPoly)
    if name == "==":
        assert (u11 + 2 == 0.5) is False and (NCPoly.scalar(A, 2) == 2.0) is False
    else:
        with pytest.raises(TypeError):
            op(u11 + 2, 0.5)


def test_poly_parse_rejects_garbage():
    for bad in ["u11 +", "* u11", "1*u99", "u11..u12", "1/0*u11", "1/0", "2/00"]:
        with pytest.raises(ValueError):
            parse_poly(bad, A)


def test_ring_axioms_randomized():
    rng = random.Random(17)

    def rand_poly():
        terms = {tuple(rng.randrange(4) for _ in range(rng.randrange(3))):
                 F(rng.randint(-3, 3)) for _ in range(3)}
        return NCPoly(A, terms)

    saw_noncommutative = False
    for _ in range(60):
        p, q, r = rand_poly(), rand_poly(), rand_poly()
        assert (p + q) + r == p + (q + r)
        assert (p * q) * r == p * (q * r)
        assert p * (q + r) == p * q + p * r
        assert (p + q) * r == p * r + q * r
        assert p * NCPoly.one(A) == p == NCPoly.one(A) * p
        if p * q != q * p:
            saw_noncommutative = True
    assert saw_noncommutative


# -- term order: the plain loops each operator ran before it summed through
# `_combine`; the order of a result's terms is part of the contract, since
# the rewrite memo is read in insertion order

def _loop_add(a: dict, b: dict) -> dict:
    terms = dict(a)
    for w, c in b.items():
        s = terms.get(w, 0) + c
        if s:
            terms[w] = s
        else:
            terms.pop(w, None)
    return terms


def _loop_mul(a: dict, b: dict) -> dict:
    terms = {}
    for w1, c1 in a.items():
        for w2, c2 in b.items():
            w = w1 + w2
            s = terms.get(w, 0) + c1 * c2
            if s:
                terms[w] = s
            else:
                del terms[w]
    return terms


def _loop_substitute(p: dict, images: dict, antihom: bool) -> dict:
    out = {}
    for w, c in p.items():
        acc = {(): c}
        for letter in reversed(w) if antihom else w:
            acc = _loop_mul(acc, images[letter])
            if not acc:
                break
        out = _loop_add(out, acc)
    return out


_AB = Alphabet(["a", "b"])
_order_polys = st.dictionaries(st.lists(st.integers(0, 1), max_size=3).map(tuple),
                               st.sampled_from((1, -1, 2, F(1, 2), F(-1, 2), zeta(3))),
                               max_size=5).map(lambda terms: NCPoly(_AB, terms))


@settings(max_examples=150, deadline=None)
@given(a=_order_polys, b=_order_polys, images=st.tuples(_order_polys, _order_polys),
       antihom=st.booleans())
def test_terms_come_out_in_summing_order(a, b, images, antihom):
    """Sums, differences, products and substitutions list their terms as
    summing the parts one after another, a cancelled word deleted on the
    spot, lists them."""
    def items(p: NCPoly) -> list:
        return list(p.terms.items())

    assert items(a + b) == list(_loop_add(a.terms, b.terms).items())
    assert items(a - b) == list(_loop_add(a.terms, (-b).terms).items())
    assert items(a * b) == list(_loop_mul(a.terms, b.terms).items())
    table = dict(enumerate(images))
    assert items(substitute(a, table, antihom=antihom)) == \
        list(_loop_substitute(a.terms, {k: p.terms for k, p in table.items()}, antihom).items())
