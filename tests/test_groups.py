import hashlib
import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from qpalg.exactnum import Cyclotomic, zeta
from qpalg.groups import (Character, FiniteAbelianGroup, Perm,
                          abelian_group_from_cyclic_orders,
                          abelian_groups_of_order, all_perms,
                          characters, is_abelian,
                          is_transitive, parse_group_descriptor,
                          regular_embedding, subgroup_closure,
                          transitive_abelian_subgroups)
from qpalg.ncalg import Alphabet, parse_poly
from qpalg.qperm import e_sigma_product_check, to_sn_function, u_names
from qpalg.reports import VERIFIED
from groups_reference import canonical_conjugate

F = Fraction


def test_perm_basics():
    s = Perm((1, 2, 0))
    t = Perm((1, 0, 2))
    assert (s * t).images == (2, 1, 0)   # s after t
    assert s.inverse() * s == Perm.identity(3)
    assert s.cycle_string() == "(1 2 3)"
    assert Perm.identity(4).cycle_string() == "id"
    for bad in ((0, 0, 1), (0, 0)):
        with pytest.raises(ValueError):
            Perm(bad)
    with pytest.raises(ValueError, match="degrees"):
        Perm((1, 0)) * Perm((0, 1, 2))


@settings(max_examples=100, deadline=None)
@given(data=st.data(), n=st.integers(1, 7))
def test_unchecked_products_match_checked_perms(data, n):
    """Products and inverses skip validation; they must equal checked Perms."""
    a = Perm(data.draw(st.permutations(range(n))))
    b = Perm(data.draw(st.permutations(range(n))))
    for fast, images in ((a * b, tuple(a.images[b.images[i]] for i in range(n))),
                         (a.inverse(), tuple(a.images.index(i) for i in range(n)))):
        checked = Perm(images)
        assert fast.images == checked.images
        assert fast == checked and hash(fast) == hash(checked)
    assert a * a.inverse() == Perm.identity(n) == a.inverse() * a


def test_e_sigma_examples():
    assert e_sigma_product_check(1).verdict == VERIFIED
    rep3 = e_sigma_product_check(3)
    assert rep3.verdict == VERIFIED
    cycle = Perm((1, 2, 0))
    monomial = parse_poly("u21.u32.u13", Alphabet(u_names(3)))
    assert to_sn_function(monomial, 3) == {cycle.images: 1}
    assert e_sigma_product_check(5).verdict == VERIFIED


def test_abelian_groups_of_order_counts():
    assert [g.descriptor() for g in abelian_groups_of_order(4)] == ["Z2xZ2", "Z4"]
    assert [g.descriptor() for g in abelian_groups_of_order(6)] == ["Z6"]
    assert [g.descriptor() for g in abelian_groups_of_order(8)] == \
        ["Z2xZ2xZ2", "Z2xZ4", "Z8"]
    assert len(abelian_groups_of_order(1)) == 1
    # oracle for n = 8: one class per partition of the exponent 3: p(3) = 3
    def partition_count(k):
        table = [1] + [0] * k
        for part in range(1, k + 1):
            for s in range(part, k + 1):
                table[s] += table[s - part]
        return table[k]
    assert len(abelian_groups_of_order(8)) == partition_count(3)
    assert len(abelian_groups_of_order(16)) == partition_count(4)


def test_invariant_factor_chain():
    for n in range(1, 30):
        for g in abelian_groups_of_order(n):
            facs = g.invariant_factors
            assert g.order == n
            for a, b in zip(facs, facs[1:]):
                assert b % a == 0


def test_abelian_groups_of_order_is_pinned():
    # recorded from the earlier code, which factored n and partitioned exponents itself
    out = [[g.invariant_factors for g in abelian_groups_of_order(n)] for n in range(1, 301)]
    assert hashlib.sha256(repr(out).encode()).hexdigest() == \
        "78aa38a1e524a6728d7cec39db3e7127afaa881e8a5e4841e2f1c80fa46ce076"


def test_cyclic_orders_give_the_invariant_factors():
    assert abelian_group_from_cyclic_orders([]).invariant_factors == ()
    assert abelian_group_from_cyclic_orders([1, 1]).invariant_factors == ()
    assert abelian_group_from_cyclic_orders([4, 6]).invariant_factors == (2, 12)
    assert abelian_group_from_cyclic_orders([2, 3, 4, 9]).invariant_factors == (6, 36)
    assert abelian_group_from_cyclic_orders([8, 2, 4]).invariant_factors == (2, 4, 8)


def test_abelian_group_interface():
    for n in range(1, 13):
        for G in abelian_groups_of_order(n):
            assert G.is_abelian() and G.generates(G.elements())
            assert G.key_text(G.identity()) == "e"
            for k in G.elements():
                assert G.parse_key(G.key_text(k)) == k
                assert G.mul(k, G.identity()) == k
    z4 = FiniteAbelianGroup((4,))
    assert z4.generates([(1,)]) and not z4.generates([(2,)])
    assert not z4.generates([])
    assert FiniteAbelianGroup(()).generates([])
    assert z4.parse_key("5") == (1,) and z4.key_text((3,)) == "3"
    with pytest.raises(ValueError, match="does not match"):
        z4.parse_key("1.1")


def test_group_descriptor_roundtrip():
    assert parse_group_descriptor("Z4xZ2").descriptor() == "Z2xZ4"
    assert parse_group_descriptor("Z1").descriptor() == "Z1"
    assert parse_group_descriptor("Z2xZ3").descriptor() == "Z6"
    with pytest.raises(ValueError):
        parse_group_descriptor("D4")


def test_regular_embedding_examples():
    z2 = regular_embedding(FiniteAbelianGroup((2,)))
    assert [p.cycle_string() for p in z2] == ["id", "(1 2)"]
    klein = regular_embedding(FiniteAbelianGroup((2, 2)))
    assert {p.cycle_string() for p in klein} == \
        {"id", "(1 2)(3 4)", "(1 3)(2 4)", "(1 4)(2 3)"}
    z4 = regular_embedding(FiniteAbelianGroup((4,)))
    gen = Perm((1, 2, 3, 0))   # the 4-cycle (1 2 3 4)
    assert set(z4) == subgroup_closure([gen], 4)


def test_regular_embedding_is_regular_transitive_abelian():
    for n in range(1, 9):
        for G in abelian_groups_of_order(n):
            elems = regular_embedding(G)
            assert len(set(elems)) == n
            assert is_transitive(elems, n)
            assert is_abelian(elems)
            for g in elems:                     # trivial point stabilizers
                if g != Perm.identity(n):
                    assert all(g(i) != i for i in range(n))


def character_table(G: FiniteAbelianGroup) -> list[list[Cyclotomic]]:
    """Rows = characters, columns = elements, both in lexicographic order."""
    return [[chi(g) for g in G.elements()] for chi in characters(G)]


def test_character_table_z2():
    table = character_table(FiniteAbelianGroup((2,)))
    assert table == [[Cyclotomic(1, [1])] * 2,
                     [Cyclotomic(1, [1]), Cyclotomic(1, [-1])]]


def test_character_table_z3_vandermonde():
    G = FiniteAbelianGroup((3,))
    table = character_table(G)
    for j, row in enumerate(table):
        for k, val in enumerate(row):
            assert val == zeta(3, j * k)


def test_character_table_klein_rank():
    from qpalg import linalg
    G = FiniteAbelianGroup((2, 2))
    table = character_table(G)
    for row in table:
        for v in row:
            assert v in (Cyclotomic(1, [1]), Cyclotomic(1, [-1]))
    assert linalg.rank(table) == 4


@pytest.mark.parametrize("factors", [(2,), (3,), (4,), (2, 2), (5,), (6,),
                                     (2, 4), (2, 2, 2), (3, 3), (12,), (2, 6)])
def test_character_orthogonality_exact(factors):
    G = FiniteAbelianGroup(factors)
    elems = G.elements()
    chars = characters(G)
    for i, chi in enumerate(chars):
        for j, psi in enumerate(chars):
            total = Cyclotomic(1, [0])
            for g in elems:
                inverse = tuple(-x % d for x, d in zip(g, G.invariant_factors))
                total = total + chi(g) * psi(inverse)
            assert total == (G.order if i == j else 0)


def test_characters_form_a_group():
    G = FiniteAbelianGroup((2, 4))
    chars = characters(G)
    for chi in chars[:4]:
        for psi in chars[:4]:
            prod = Character(G, G.mul(chi.exponents, psi.exponents))
            for g in G.elements():
                assert prod(g) == chi(g) * psi(g)


def test_transitive_abelian_subgroups_modes_agree():
    for n in range(1, 7):
        classified = transitive_abelian_subgroups(n, "classified")
        brute = transitive_abelian_subgroups(n, "brute_force")
        assert len(classified) == len(brute)
        canon_c = sorted(canonical_conjugate(e, n) for _, e in classified)
        canon_b = sorted(canonical_conjugate(e, n) for _, e in brute)
        assert canon_c == canon_b
        for G, elems in brute:
            assert G is not None and G.order == n
            assert is_transitive(elems, n) and is_abelian(elems)


# sha256 of [(descriptor, sorted element images)] from brute_force mode,
# recorded from the search that conjugated every closure
_BRUTE_FORCE_SHA256 = {
    1: "d2645f4a36c42ce69df5d1dd2c83b4508bb4b7cb1d251f0b93ad0d290d22c87a",
    2: "4365296a8d01996bc8ce7a12742904179552ab49b1a4115fbf8a81ecceb02167",
    3: "28c7d28fe76156999754cc3da43be274cb09d2ad6cd9b9c37ea6f0c231b4de9f",
    4: "7094c06597f9258e57928c25189632e6e2d884d959c95e4476c8491c7e716d63",
    5: "b435a76a95484e703a4698d1bc15c2e31d82e64f670261911ddfdb5f7f2cb0e3",
    6: "079873a067073581038371838886406756dda3c136013045602d40ec3954e6c5",
}


@pytest.mark.parametrize("n", sorted(_BRUTE_FORCE_SHA256))
def test_brute_force_output_is_pinned(n):
    out = [(G.descriptor(), sorted(g.images for g in elems))
           for G, elems in transitive_abelian_subgroups(n, "brute_force")]
    assert hashlib.sha256(repr(out).encode()).hexdigest() == _BRUTE_FORCE_SHA256[n]


def _unpruned_class_representatives(n):
    """Reference search: canonicalize every closure, keep the first per class."""
    candidates = [g for g in all_perms(n) if all(g(i) != i for i in range(n))]
    found = {}
    for a, b in itertools.combinations_with_replacement(candidates, 2):
        if a * b != b * a:
            continue
        elems = subgroup_closure([a, b], n, maxsize=n)
        if len(elems) != n or not is_transitive(elems, n) or not is_abelian(elems):
            continue
        found.setdefault(canonical_conjugate(elems, n), elems)
    return [found[key] for key in sorted(found)]


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_orbit_pruning_matches_unpruned_search(n):
    pruned = [elems for _, elems in transitive_abelian_subgroups(n, "brute_force")]
    assert pruned == _unpruned_class_representatives(n)


def test_brute_force_cost_guard():
    with pytest.raises(ValueError, match="capped"):
        transitive_abelian_subgroups(7, "brute_force")
    with pytest.raises(ValueError):
        transitive_abelian_subgroups(4, "nonsense")
