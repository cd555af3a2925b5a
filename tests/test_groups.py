import hashlib
import itertools
import operator
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from qpalg.exactnum import Cyclotomic, format_scalar, parse_scalar, zeta
from qpalg import groups
from qpalg.groups import (Character, FiniteAbelianGroup, Perm, _conjugates, _semiregular,
                          abelian_group_from_cyclic_orders,
                          abelian_groups_of_order,
                          characters, parse_group_descriptor,
                          regular_embedding, subgroup_closure,
                          transitive_abelian_subgroups)
from qpalg.ncalg import Alphabet, parse_poly
from qpalg.qperm import cycle_string, e_sigma_product_check, to_sn_function, u_names
from qpalg.reports import VERIFIED
from groups_reference import (all_conjugates, canonical_conjugate, compose, is_abelian,
                              is_semiregular, is_transitive, product_closure)

F = Fraction


def test_perm_basics():
    s = Perm((1, 2, 0))
    t = Perm((1, 0, 2))
    assert (s * t).images == (2, 1, 0)   # s after t
    assert cycle_string(s.images) == "(1 2 3)"
    assert cycle_string((0, 1, 2, 3)) == "id"
    for bad in ((0, 0, 1), (0, 0)):
        with pytest.raises(ValueError):
            Perm(bad)
    with pytest.raises(ValueError, match="degrees"):
        Perm((1, 0)) * Perm((0, 1, 2))


@settings(max_examples=100, deadline=None)
@given(data=st.data(), n=st.integers(1, 7))
def test_unchecked_products_match_checked_perms(data, n):
    """Products skip validation; they must equal checked Perms."""
    a = Perm(data.draw(st.permutations(range(n))))
    b = Perm(data.draw(st.permutations(range(n))))
    fast, checked = a * b, Perm(a.images[b.images[i]] for i in range(n))
    assert fast.images == checked.images
    assert fast == checked and hash(fast) == hash(checked)


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
    assert [cycle_string(p.images) for p in z2] == ["id", "(1 2)"]
    klein = regular_embedding(FiniteAbelianGroup((2, 2)))
    assert {cycle_string(p.images) for p in klein} == \
        {"id", "(1 2)(3 4)", "(1 3)(2 4)", "(1 4)(2 3)"}
    z4 = regular_embedding(FiniteAbelianGroup((4,)))
    gen = (1, 2, 3, 0)         # the 4-cycle (1 2 3 4)
    assert {p.images for p in z4} == product_closure([gen], (0, 1, 2, 3))


def test_regular_embedding_is_regular_transitive_abelian():
    for n in range(1, 9):
        for G in abelian_groups_of_order(n):
            elems = regular_embedding(G)
            assert len(set(elems)) == n
            images = [g.images for g in elems]
            assert is_transitive(images, n)
            assert is_abelian(images)
            for g in images:                    # trivial point stabilizers
                if g != tuple(range(n)):
                    assert all(g[i] != i for i in range(n))


def character_table(G: FiniteAbelianGroup) -> list[list[int | Cyclotomic]]:
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


def test_character_values_are_canonical_scalars():
    # chi(g) = zeta_E^k is a plain int exactly when it is rational (as
    # parse_scalar returns it), and the shared root zeta(E, k) otherwise
    for n in range(1, 11):
        for G in abelian_groups_of_order(n):
            E = G.exponent
            for chi in characters(G):
                for g in G.elements():
                    k = sum(c * a * (E // d) for c, a, d in
                            zip(chi.exponents, g, G.invariant_factors)) % E
                    root, value = zeta(E, k), chi(g)
                    assert value == root
                    assert isinstance(value, int) == root.is_rational()
                    assert isinstance(value, int) or value is root
                    assert type(value) is type(parse_scalar(format_scalar(value)))


def test_transitive_abelian_subgroups_modes_agree():
    for n in range(1, 7):
        classified = transitive_abelian_subgroups(n, "classified")
        brute = transitive_abelian_subgroups(n, "brute_force")
        assert len(classified) == len(brute)
        canon_c = sorted(canonical_conjugate([g.images for g in e], n) for _, e in classified)
        canon_b = sorted(canonical_conjugate([g.images for g in e], n) for _, e in brute)
        assert canon_c == canon_b
        for G, elems in brute:
            images = [g.images for g in elems]
            assert G.order == n and len(images) == n
            assert is_transitive(images, n) and is_abelian(images)
            assert sorted(len(product_closure([g], tuple(range(n))))
                          for g in images) == sorted(map(G.element_order, G.elements()))


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
    """Reference search on image tuples: close every commuting pair,
    canonicalize every closure, keep the first per class."""
    ident = tuple(range(n))
    candidates = [g for g in itertools.permutations(ident) if all(g[i] != i for i in ident)]
    found = {}
    for a, b in itertools.combinations_with_replacement(candidates, 2):
        if compose(a, b) != compose(b, a):
            continue
        elems = product_closure([a, b], ident)
        if len(elems) != n or not is_transitive(elems, n) or not is_abelian(elems):
            continue
        found.setdefault(canonical_conjugate(elems, n), elems)
    return [found[key] for key in sorted(found)]


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_orbit_pruning_matches_unpruned_search(n):
    pruned = [frozenset(g.images for g in elems)
              for _, elems in transitive_abelian_subgroups(n, "brute_force")]
    assert pruned == _unpruned_class_representatives(n)


def _assert_each_conjugate_once(elements, n):
    out = _conjugates(frozenset(elements), n)
    assert len(out) == len(set(out))
    assert set(out) == all_conjugates(elements, n)


@pytest.mark.parametrize("n", range(1, 7))
def test_conjugates_of_each_class_found_are_listed_once(n):
    for _, elems in transitive_abelian_subgroups(n, "brute_force"):
        _assert_each_conjugate_once([g.images for g in elems], n)


@pytest.mark.parametrize("gens, n", [
    ([(1, 0, 2, 3)], 4),                    # <(0 1)> in S_4
    ([(1, 2, 0, 3, 4)], 5),                 # <(0 1 2)> in S_5
    ([(1, 0, 2)], 3),
    ([(1, 2, 0), (1, 0, 2)], 3),            # S_3 itself
    ([(0,)], 1), ([(0, 1)], 2), ([(0, 1, 2, 3)], 4)],
    ids=lambda v: "-".join("".join(map(str, g)) for g in v) if isinstance(v, list) else f"S{v}")
def test_conjugates_of_other_subgroups_are_listed_once(gens, n):
    """Subgroups the search never returns: with fixed points, trivial,
    non-abelian, and in S_1 and S_2."""
    _assert_each_conjugate_once(product_closure(gens, tuple(range(n))), n)


def test_search_work_at_n6_is_pinned(monkeypatch):
    """A commuting pair inside a class already seen is not closed, and each
    class has its conjugates listed once: 93 closures at n = 6, six of
    them naming the class."""
    calls = {"closure": 0, "conjugates": 0}

    def counted(name, f):
        def wrapper(*args):
            calls[name] += 1
            return f(*args)
        return wrapper
    monkeypatch.setattr(groups, "subgroup_closure", counted("closure", subgroup_closure))
    monkeypatch.setattr(groups, "_conjugates", counted("conjugates", _conjugates))
    for n in range(1, 7):
        calls.update(closure=0, conjugates=0)
        classes = transitive_abelian_subgroups(n, "brute_force")
        assert calls["conjugates"] == len(classes)
    assert calls["closure"] == 93


def test_semiregular_matches_the_oracle():
    for n in range(1, 7):
        for g in itertools.permutations(range(n)):
            assert _semiregular(g) == is_semiregular(g), g


def test_regular_elements_pass_the_candidate_filter():
    """The search keeps only semiregular candidates; no element it needs is dropped."""
    for n in range(1, 9):
        for G in abelian_groups_of_order(n):
            for g in regular_embedding(G):
                assert _semiregular(g.images) == (g.images != tuple(range(n)))


def test_brute_force_search_builds_no_perm(monkeypatch):
    """The search runs on image tuples; only its answer is wrapped, unchecked."""
    def refuse(*args):
        raise AssertionError("Perm built or multiplied in the search")
    monkeypatch.setattr(Perm, "__init__", refuse)
    monkeypatch.setattr(Perm, "__mul__", refuse)
    for n in range(1, 7):
        for _, elems in transitive_abelian_subgroups(n, "brute_force"):
            assert len(elems) == n and all(isinstance(g, Perm) for g in elems)


def test_brute_force_cost_guard():
    with pytest.raises(ValueError, match="capped"):
        transitive_abelian_subgroups(7, "brute_force")
    with pytest.raises(ValueError):
        transitive_abelian_subgroups(4, "nonsense")


def _exponent_sum(G):
    """The law of G written out here, apart from G.mul."""
    return lambda a, b: tuple((x + y) % d for x, y, d in zip(a, b, G.invariant_factors))


@settings(max_examples=150, deadline=None)
@given(data=st.data(), m=st.integers(1, 48))
def test_subgroup_is_the_product_closure(data, m):
    G = data.draw(st.sampled_from(abelian_groups_of_order(m)))
    elems = G.elements()
    gens = data.draw(st.lists(st.sampled_from(elems), max_size=4))
    gens.insert(data.draw(st.integers(0, len(gens))), G.identity())
    gens.append(data.draw(st.sampled_from(gens)))               # a repeat
    closure = subgroup_closure(gens, G.mul, G.identity())
    assert len(closure) == len(set(closure)) and closure[0] == G.identity()
    assert G.subgroup(gens) == set(closure) == product_closure(gens, G.identity(), _exponent_sum(G))


def test_closure_of_one_element_has_its_order():
    for m in range(1, 49):
        for G in abelian_groups_of_order(m):
            for g in G.elements():
                assert len(subgroup_closure((g,), G.mul, G.identity())) == G.element_order(g)


@settings(max_examples=100, deadline=None)
@given(data=st.data(), n=st.integers(1, 6))
def test_closure_of_commuting_permutations(data, n):
    a = tuple(data.draw(st.permutations(range(n))))
    b = data.draw(st.sampled_from([g for g in itertools.permutations(range(n))
                                   if compose(a, g) == compose(g, a)]))
    closure = subgroup_closure((Perm(a), Perm(b)), operator.mul, Perm(range(n)))
    assert len(closure) == len(set(closure))
    assert {g.images for g in closure} == product_closure([a, b], tuple(range(n)))


def test_closure_costs_one_product_per_element():
    class Counting(FiniteAbelianGroup):
        def mul(self, a, b):
            self.calls += 1
            return super().mul(a, b)
    G = Counting((8192,))
    G.calls = 0
    assert G.generates([G.identity(), (1,)])
    assert G.calls <= 8192
