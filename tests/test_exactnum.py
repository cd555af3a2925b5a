import hashlib
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import cyclotomic_reference as ref
from qpalg.exactnum import (SCALAR_MAX_ORDER, Cyclotomic, _phi_ints, divisors,
                            euler_phi, format_scalar, inverse, parse_scalar,
                            prime_factorization, zeta)
from qpalg.gradings import parse_grading

F = Fraction


def test_cyclotomic_polynomials():
    # Phi_1 = x - 1, Phi_2 = x + 1, Phi_4 = x^2 + 1, Phi_6 = x^2 - x + 1
    assert _phi_ints(1) == (-1, 1)
    assert _phi_ints(2) == (1, 1)
    assert _phi_ints(4) == (1, 0, 1)
    assert _phi_ints(6) == (1, -1, 1)
    assert len(_phi_ints(12)) == euler_phi(12) + 1


def test_divisors_and_phi():
    assert divisors(12) == [1, 2, 3, 4, 6, 12]
    assert [euler_phi(m) for m in (1, 2, 3, 4, 6, 8, 12)] == [1, 1, 2, 2, 2, 4, 4]


def test_euler_phi_is_pinned():
    # recorded from the trial division that euler_phi did itself
    out = [euler_phi(m) for m in range(1, 3000)]
    assert hashlib.sha256(repr(out).encode()).hexdigest() == \
        "e6e904a77b8ab157481da266b4c2138b6a3d4f21ac39fbcf81e13582844ef03e"


def test_prime_factorization():
    assert prime_factorization(1) == {}
    assert prime_factorization(360) == {2: 3, 3: 2, 5: 1}
    assert prime_factorization(9973) == {9973: 1}
    for m in range(1, 500):
        factors = prime_factorization(m)
        assert math.prod(p ** e for p, e in factors.items()) == m
        assert list(factors) == sorted(factors)
        assert all(divisors(p) == [1, p] for p in factors)
    for bad in (0, -4):
        with pytest.raises(ValueError):
            prime_factorization(bad)


def test_embed_identity_element():
    one = Cyclotomic(1, [1]).embed(2)
    assert one.embed(4) == 1
    assert one.embed(4).coeffs == (F(1), F(0))


def test_embed_zeta2_into_order_4():
    # zeta_4^2 reduces to -1 modulo x^2 + 1: coefficient vector (-1, 0)
    img = zeta(2).embed(4)
    assert img.order == 4
    assert img.coeffs == (F(-1), F(0))


def test_embed_zeta3_into_order_6():
    # zeta_6^2 = zeta_6 - 1 modulo x^2 - x + 1: coefficient vector (-1, 1)
    img = zeta(3).embed(6)
    assert img.order == 6
    assert img.coeffs == (F(-1), F(1))
    assert img == zeta(6) * zeta(6) == zeta(6, 2)


def test_embed_requires_divisible_order():
    with pytest.raises(ValueError):
        zeta(4).embed(6)


def test_inverse_examples():
    assert Cyclotomic(1, [1]).inverse() == 1
    assert zeta(4).inverse() == -zeta(4)
    assert Cyclotomic(1, [2]).inverse() == F(1, 2)
    with pytest.raises(ZeroDivisionError):
        Cyclotomic(1, [0]).inverse()


def _random_cyclotomic(rng, order):
    return Cyclotomic(order, [F(rng.randint(-4, 4), rng.randint(1, 5))
                              for _ in range(euler_phi(order))])


def test_field_axioms_randomized():
    rng = random.Random(20240817)
    orders = [1, 2, 3, 4, 5, 6, 8, 12]
    for _ in range(120):
        m = rng.choice(orders)
        x = _random_cyclotomic(rng, m)
        y = _random_cyclotomic(rng, rng.choice(orders))
        z = _random_cyclotomic(rng, rng.choice(orders))
        assert (x + y) + z == x + (y + z)
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z
        assert x * y == y * x
        if x:
            assert x * x.inverse() == 1


def test_roots_of_unity_relations():
    for m in range(2, 13):
        power = Cyclotomic(1, [1])
        for _ in range(m):
            power = power * zeta(m)
        assert power == 1
        total = Cyclotomic(1, [0])
        for k in range(m):
            total = total + zeta(m, k)
        assert total == 0


def test_canonical_form_two_construction_paths():
    # same value built by embedding and by multiplication at order 6
    a = zeta(3).embed(6)
    b = zeta(6) * zeta(6)
    assert a.coeffs == b.coeffs and a.order == b.order
    # rational reached through cyclotomic arithmetic
    c = zeta(4) * zeta(4) + 2
    assert c == 1 and c.is_rational() and c.as_rational() == 1


def test_mixed_order_arithmetic_auto_embeds():
    v = zeta(2) + zeta(3)
    assert v.order == 6
    assert v == zeta(6, 3) + zeta(6, 2)


def test_hash_consistent_across_orders():
    assert hash(zeta(3).embed(12)) == hash(zeta(3))
    assert hash(Cyclotomic(1, [F(3, 2)])) == hash(F(3, 2))
    assert zeta(3).embed(12) == zeta(3)


def test_scalar_text_roundtrip():
    rng = random.Random(7)
    values = [F(3, 4), F(-2), zeta(3), 2 * zeta(6, 5) - F(1, 3), -zeta(4) + F(1, 2)]
    for _ in range(20):
        values.append(_random_cyclotomic(rng, rng.choice([2, 3, 4, 6, 8])))
    for v in values:
        assert parse_scalar(format_scalar(v)) == v


def test_parse_scalar_rejects_garbage():
    for bad in ["", "z", "1**2", "q3", "1//2", "1/0", "2/00*z3", "z0", "1+z00^2"]:
        with pytest.raises(ValueError):
            parse_scalar(bad)
    # roots of unity above the cost guard, alone or in a sum (Q(zeta_8633))
    assert parse_scalar(f"z{SCALAR_MAX_ORDER}").order == SCALAR_MAX_ORDER
    for bad in [f"z{SCALAR_MAX_ORDER + 1}", "2*z25601^3", "z97+z89", "1-z16^3+z17"]:
        with pytest.raises(ValueError, match="capped"):
            parse_scalar(bad)


def test_field_cap_messages():
    """parse_scalar caps the field term by term as it reads, parse_grading
    the field of all the file's scalars together; one guard words both."""
    tail = "; roots of unity are capped at order 256 (cyclotomic arithmetic cost)"
    for text, field in [("z97+z89", 8633), ("z300+z7", 300), ("z7+z64+z3", 448)]:
        with pytest.raises(ValueError) as err:
            parse_scalar(text)
        assert str(err.value) == f"scalar {text!r} lives in Q(zeta_{field})" + tail
    with pytest.raises(ValueError) as err:
        parse_grading("n: 3\ngroup: Z2\ncomponent e: (1,1,z7)\ncomponent 1: (z64,z3,1/2)\n")
    assert str(err.value) == "the grading's scalars live in Q(zeta_1344)" + tail


def test_inverse_is_exact_and_canonical():
    """A rational inverts to an int when integral and a Fraction otherwise,
    never a float; a Cyclotomic inverts in its field."""
    for c, inv in [(1, 1), (-1, -1), (True, 1), (-2, F(-1, 2)), (F(1, 3), 3), (F(-2, 3), F(-3, 2))]:
        assert inverse(c) == inv and type(inverse(c)) is type(inv)
    assert inverse(zeta(4)) == zeta(4, 3) and inverse(zeta(6) + 1) * (zeta(6) + 1) == 1
    for zero in (0, F(0), Cyclotomic(3, [0])):
        with pytest.raises(ZeroDivisionError):
            inverse(zero)
    for bad in (0.5, 1.0):
        with pytest.raises(TypeError):
            inverse(bad)
        with pytest.raises(TypeError):
            zeta(4) / bad


def test_rendering():
    assert format_scalar(F(3, 4)) == "3/4"
    assert "z4" in format_scalar(zeta(4) * 2)
    assert str(zeta(8) + 2).endswith("(order 8)")


def test_cyclotomic_polynomials_match_reference():
    for m in range(1, 61):
        assert _phi_ints(m) == tuple(ref.phi_poly(m))


def test_roots_of_unity_are_shared():
    assert zeta(12, 5) is zeta(12, 17) is zeta(12, -7)
    assert zeta(12, 5).coeffs == ref.reduce(12, [0] * 5 + [1])[1]


_SCALARS = st.one_of(st.just(F(0)), st.just(F(1)), st.just(F(-1)),
                     st.fractions(min_value=-4, max_value=4, max_denominator=6))


@st.composite
def _values(draw):
    """A Cyclotomic of order 1..12 and its reference pair (order, coeffs)."""
    m = draw(st.integers(1, 12))
    coeffs = tuple(draw(st.lists(_SCALARS, min_size=euler_phi(m), max_size=euler_phi(m))))
    return Cyclotomic(m, coeffs), (m, coeffs)


def _agree(x, expected):
    assert (x.order, x.coeffs) == expected
    assert not any(isinstance(c, float) for c in x.coeffs)


@settings(max_examples=100, deadline=None)
@given(_values(), _values())
def test_cyclotomic_agrees_with_reference(xa, ya):
    (x, rx), (y, ry) = xa, ya
    _agree(x + y, ref.add(rx, ry))
    _agree(x - y, ref.add(rx, ref.neg(ry)))
    _agree(-x, ref.neg(rx))
    _agree(x * y, ref.mul(rx, ry))
    assert (x == y) == ref.equal(rx, ry)
    if x == y:
        assert hash(x) == hash(y)
    if y:
        _agree(y.inverse(), ref.inverse(ry))
        _agree(x / y, ref.mul(rx, ref.inverse(ry)))
    assert str(x) == ref.render(rx)
    assert parse_scalar(format_scalar(x)) == x
    # equal values at different orders, or equal to a Fraction, hash alike
    big = math.lcm(x.order, y.order)
    _agree(x.embed(big), ref.embed(rx, big))
    assert x.embed(big) == x and hash(x.embed(big)) == hash(x)
    if x.is_rational():
        assert x == x.as_rational() and hash(x) == hash(x.as_rational())


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 12), st.lists(_SCALARS, max_size=30))
def test_reduction_agrees_with_reference(m, raw):
    _agree(Cyclotomic(m, raw), ref.reduce(m, raw))


@st.composite
def _rationals_at_order(draw):
    """A rational stored at an order 2..12 above Q, and its reference pair."""
    m = draw(st.integers(2, 12))
    coeffs = (draw(_SCALARS),) + (F(0),) * (euler_phi(m) - 1)
    return Cyclotomic(m, coeffs), (m, coeffs)


@st.composite
def _roots(draw):
    """A root of unity zeta(m, k), and its reference pair."""
    m = draw(st.integers(1, 12))
    k = draw(st.integers(0, m - 1))
    return zeta(m, k), ref.reduce(m, [0] * k + [1])


@settings(max_examples=200, deadline=None)
@given(st.one_of(_rationals_at_order(), _roots(), _values()),
       st.one_of(_rationals_at_order(), _roots(), _values()))
def test_rational_operands_agree_with_reference(xa, ya):
    # a rational operand scales the other one, whatever order stores it
    (x, rx), (y, ry) = xa, ya
    _agree(x * y, ref.mul(rx, ry))
    _agree(y * x, ref.mul(ry, rx))
    if y:
        _agree(y.inverse(), ref.inverse(ry))
        _agree(x / y, ref.mul(rx, ref.inverse(ry)))


def test_rational_operand_keeps_the_lcm_order():
    # chi(e) = zeta(6, 0) = 1 in Q(zeta_6) times zeta_4 = zeta_12^3
    product = zeta(4) * zeta(6, 0)
    assert product.order == 12 and format_scalar(product) == "z12^3"
    assert (zeta(6, 0) * zeta(4)).coeffs == product.coeffs
    # -2/3 stored in Q(zeta_6) inverts to -3/2 there
    inv = Cyclotomic(6, [F(-2, 3), 0]).inverse()
    assert (inv.order, inv.coeffs) == (6, (F(-3, 2), F(0)))
