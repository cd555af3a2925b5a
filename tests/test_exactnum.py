import hashlib
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import cyclotomic_reference as ref
from qpalg.exactnum import (SCALAR_MAX_ORDER, Cyclotomic, _phi_ints, divisors,
                            euler_phi, field_order, format_scalar, inverse, parse_scalar,
                            prime_factorization, residue, split_prime, zeta)
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


def test_negated_roots_agree_with_reference():
    # -zeta_m^k, zeta_m^k * -1 and -1 * zeta_m^k, alone and times roots; at
    # an even order m each is the shared root zeta_m^(k + m/2)
    for m in range(1, 33):
        negated = [ref.reduce(m, [0] * e + [-1]) for e in range(m)]     # -zeta_m^e
        for k in range(m):
            z = zeta(m, k)
            for x in (-z, z * -1, -1 * z, z * F(-1)):
                _agree(x, negated[k])
                assert (x is zeta(m, k + m // 2)) == (m % 2 == 0)
            for j in range(m):
                for product in (-z * zeta(m, j), zeta(m, j) * -z):
                    _agree(product, negated[(k + j) % m])
                    assert product._root is not None or m % 2
        # across orders the product lives at the lcm of the orders
        x = -zeta(m)
        for y in (zeta(3), zeta(4, 3)):
            expected = ref.mul(negated[1 % m], ref.reduce(y.order, [0] * y._root + [1]))
            for product in (x * y, y * x):
                _agree(product, expected)
                assert product._root is not None or m % 2


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


def test_split_primes_up_to_the_order_cap():
    sieve = bytearray([1]) * (math.isqrt(2**31) + 1)
    small = []
    for d in range(2, len(sieve)):
        if sieve[d]:
            small.append(d)
            sieve[d * d::d] = bytearray(len(sieve[d * d::d]))
    for m in range(1, SCALAR_MAX_ORDER + 1):
        p, r = split_prime(m)
        assert 2**30 < p < 2**31 and (p - 1) % m == 0
        assert all(p % d for d in small if d * d <= p)
        assert pow(r, m, p) == 1 and all(pow(r, k, p) != 1 for k in range(1, m))


_RING = st.one_of(_values().map(lambda v: v[0]), _roots().map(lambda v: v[0]),
                  _rationals_at_order().map(lambda v: v[0]), _SCALARS,
                  st.integers(-5, 5))


@settings(max_examples=150, deadline=None)
@given(_RING, _RING, _RING, st.integers(1, 3))
def test_residue_is_a_ring_map(x, y, z, k):
    # at the lcm of the orders or a multiple of it, zeta_m -> r respects + and *
    m = k * math.lcm(field_order(x), field_order(y), field_order(z))
    p, r = split_prime(m)

    def image(v):
        return residue(v, p, r, m)

    assert image(x + y) == (image(x) + image(y)) % p
    assert image(x * y) == image(x) * image(y) % p
    assert image(x * y - z) == (image(x) * image(y) - image(z)) % p
    assert image(1) == 1 and image(zeta(m)) == r


def test_residue_refuses_what_it_cannot_map():
    p, r = split_prime(12)
    assert residue(zeta(4), p, r, 12) == pow(r, 3, p)
    with pytest.raises(ZeroDivisionError):
        residue(F(1, p), p, r, 12)
    with pytest.raises(ZeroDivisionError):
        residue(zeta(3) * F(3, p), p, r, 12)
    with pytest.raises(ValueError):
        residue(zeta(5), p, r, 12)


@st.composite
def _root_pairs(draw):
    """Two roots of unity zeta(m1, j), zeta(m2, k) whose orders divide an L <= 64."""
    field = draw(st.integers(1, 64))
    m1, m2 = (draw(st.sampled_from(divisors(field))) for _ in range(2))
    return (m1, draw(st.integers(0, m1 - 1))), (m2, draw(st.integers(0, m2 - 1)))


@settings(max_examples=200, deadline=None)
@given(_root_pairs())
def test_roots_agree_with_the_same_values_without_exponents(pair):
    (m1, j), (m2, k) = pair
    x, y = zeta(m1, j), zeta(m2, k)
    # the same values rebuilt from coordinates remember no exponent
    px, py = Cyclotomic(m1, x.coeffs), Cyclotomic(m2, y.coeffs)
    L = math.lcm(m1, m2)
    product = x * y
    assert product is zeta(L, j * (L // m1) + k * (L // m2))
    for exact in (px * py, px * y, x * py):
        assert (exact.order, exact._num, exact._den) == \
            (product.order, product._num, product._den)
    _agree(product, ref.mul(ref.reduce(m1, [0] * j + [1]), ref.reduce(m2, [0] * k + [1])))
    assert (x == y) == (px == py) and x == px and y == py
    assert hash(x) == hash(px) and hash(y) == hash(py) and hash(product) == hash(px * py)
    p, r = split_prime(L)
    for root, plain in ((x, px), (y, py), (product, px * py)):
        assert residue(root, p, r, L) == residue(plain, p, r, L)
    assert format_scalar(product) == format_scalar(px * py)
