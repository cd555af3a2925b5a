import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from qpalg import gradings, linalg
from qpalg.exactnum import format_scalar, zeta
from qpalg.gradings import (Grading, classify_gradings, format_grading,
                            grading_from_partition, orbit_decompose, parse_grading,
                            partitions_desc, verify_grading)
from qpalg.groups import (FiniteAbelianGroup, FreeProductGroup, abelian_groups_of_order,
                          characters)
from qpalg.reports import REFUTED, VERIFIED, CertificateReport, IdentityCheck
from linalg_reference import in_reference_span, reference_rank

F = Fraction

Z2 = FiniteAbelianGroup((2,))
Z3 = FiniteAbelianGroup((3,))
Z4 = FiniteAbelianGroup((4,))
K4 = FiniteAbelianGroup((2, 2))


def trivial_grading(n: int) -> Grading:
    """Everything in the identity component of the trivial group."""
    G = FiniteAbelianGroup(())
    basis = [tuple(F(int(i == j)) for j in range(n)) for i in range(n)]
    return Grading(n, G, {G.identity(): basis})


def test_z2_grading_components():
    g = grading_from_partition((2,), (Z2,))
    assert g.components[(0,)] == [(F(1), F(1))]
    assert g.components[(1,)] == [(F(1), F(-1))]
    # (e1 - e2)^2 = e1 + e2 lands back in the identity component
    diff = g.components[(1,)][0]
    square = tuple(x * x for x in diff)
    assert square == (F(1), F(1))
    rep = verify_grading(g)
    assert rep.verdict == VERIFIED
    assert rep.details["ergodic"] and rep.details["faithful"]


def test_z3_grading_components():
    g = grading_from_partition((3,), (Z3,))
    for c in range(3):
        vec = g.components[(c,)][0]
        assert vec == tuple(zeta(3, c * k) for k in range(3))
    assert verify_grading(g).verdict == VERIFIED


def test_klein_grading_pm1():
    g = grading_from_partition((4,), (K4,))
    for key, vecs in g.components.items():
        for v in vecs:
            assert all(x == 1 or x == -1 for x in v)
    assert verify_grading(g).verdict == VERIFIED


def test_character_basis_multiplies_along_the_group():
    # f_chi * f_psi = f_{chi psi} exactly, for |G| <= 8
    for n in range(1, 9):
        for G in abelian_groups_of_order(n):
            chars = characters(G)
            elems = G.elements()
            vec = {chi.exponents: tuple(chi(g) for g in elems) for chi in chars}
            for chi in chars:
                for psi in chars:
                    prod = tuple(x * y for x, y in
                                 zip(vec[chi.exponents], vec[psi.exponents]))
                    assert prod == vec[G.mul(chi.exponents, psi.exponents)]


def test_swapped_labels_refuted_with_witness():
    g = grading_from_partition((4,), (Z4,))
    comps = dict(g.components)
    comps[(1,)], comps[(2,)] = comps[(2,)], comps[(1,)]
    rep = verify_grading(Grading(4, Z4, comps))
    assert rep.verdict == REFUTED
    assert "witness" in rep.details
    assert rep.details["witness"]["g"] is not None


def test_non_direct_sum_refuted():
    # K^1 over Z2 with A_e = A_1 = K: rank 1, but the sum is not direct
    non_direct = Grading(1, Z2, {(0,): [(F(1),)], (1,): [(F(1),)]})
    assert verify_grading(non_direct).verdict == REFUTED
    # the regular Z2 grading of K^2 with its non-identity vector listed twice
    g = grading_from_partition((2,), (Z2,))
    comps = dict(g.components)
    comps[(1,)] = comps[(1,)] * 2
    rep = verify_grading(Grading(2, Z2, comps))
    assert rep.verdict == REFUTED
    assert not rep.identities[0].reduced_to_zero


def test_unit_outside_identity_component_refuted():
    # K^2 over Z2 with A_e = span(e1), A_1 = span(e2): a nonzero identity
    # component that misses the all-ones unit
    rep = verify_grading(Grading(2, Z2, {(0,): [(F(1), F(0))], (1,): [(F(0), F(1))]}))
    unit = [c for c in rep.identities if c.label == "unit lies in the identity component"]
    assert len(unit) == 1 and not unit[0].reduced_to_zero
    assert rep.verdict == REFUTED


def test_trivial_grading():
    rep = verify_grading(trivial_grading(3))
    assert rep.verdict == VERIFIED
    assert rep.details["faithful"] is True
    assert rep.details["ergodic"] is False
    assert rep.details["dim_identity_component"] == 3


def test_partition_grading_identity_dimension():
    g = grading_from_partition((3, 2), (Z3, Z2))
    rep = verify_grading(g)
    assert rep.verdict == VERIFIED
    assert rep.details["dim_identity_component"] == 2
    assert rep.details["faithful"] is True
    assert rep.details["ergodic"] is False
    assert isinstance(g.group, FreeProductGroup)
    assert g.group.descriptor() == "Z3*Z2"


def test_single_block_partition_is_abelian_grading():
    # one block is graded by its own group, keyed by character exponents,
    # chi spanning its component with the values chi(g) on the points g
    for m in range(1, 17):
        for G in abelian_groups_of_order(m):
            g = grading_from_partition((m,), (G,))
            assert g.group == G
            chars = characters(G)
            assert list(g.components) == [chi.exponents for chi in chars]
            for chi in chars:
                assert g.components[chi.exponents] == [tuple(chi(x) for x in G.elements())]


def test_all_singleton_partition_is_trivial():
    triv = FiniteAbelianGroup(())
    g = grading_from_partition((1, 1, 1), (triv, triv, triv))
    rep = verify_grading(g)
    assert rep.verdict == VERIFIED
    assert rep.details["dim_identity_component"] == 3


def test_orbit_decompose_ergodic():
    orb = orbit_decompose(grading_from_partition((4,), (Z4,)))
    assert orb.partition == (4,) and orb.k == 1


def test_orbit_decompose_partition_roundtrip():
    g = grading_from_partition((3, 2), (Z3, Z2))
    orb = orbit_decompose(g)
    assert orb.partition == (3, 2) and orb.k == 2
    assert [r.group.descriptor() for r in orb.restrictions] == ["Z3", "Z2"]
    for r in orb.restrictions:
        rep = verify_grading(r)
        assert rep.verdict == VERIFIED and rep.details["ergodic"] is True


def test_orbit_decompose_trivial():
    orb = orbit_decompose(trivial_grading(3))
    assert orb.partition == (1, 1, 1) and orb.k == 3


def test_restricted_support_must_be_a_conjugate_of_one_factor():
    fp = FreeProductGroup(((0, 1), (2, 3)), (Z2, Z2))
    a, b = (0, (1,)), (1, (1,))
    comps = {(): [(1, 1, 0, 0), (0, 0, 1, 1)], (a,): [(1, -1, 0, 0)]}
    # a*b*a is the conjugate of b by a: block [3,4] is graded by the Z2 of b
    orb = orbit_decompose(Grading(4, fp, {**comps, (a, b, a): [(0, 0, 1, -1)]}))
    assert orb.restrictions[1].group == Z2
    assert set(orb.restrictions[1].components) == {(0,), (1,)}
    # a*b has infinite order, so no verified grading has it on a block
    with pytest.raises(ValueError, match="conjugate"):
        orbit_decompose(Grading(4, fp, {**comps, (a, b): [(0, 0, 1, -1)]}))


def test_orbit_roundtrip_all_partitions_up_to_5():
    for n in range(1, 6):
        for partition in partitions_desc(n):
            pools = [abelian_groups_of_order(m) for m in partition]
            for choice in itertools.product(*pools):
                g = grading_from_partition(partition, choice)
                orb = orbit_decompose(g)
                assert orb.partition == partition
                assert orb.k == len(partition)
                for r in orb.restrictions:
                    assert verify_grading(r).details["ergodic"] is True


def test_orbit_decompose_verifies_nothing(monkeypatch):
    def refuse(grading):
        raise AssertionError("an orbit split verifies nothing")

    monkeypatch.setattr(gradings, "verify_grading", refuse)
    orb = orbit_decompose(grading_from_partition((3, 2, 2), (Z3, Z2, Z2)))
    assert (orb.partition, orb.k, orb.blocks) == ((3, 2, 2), 3, ((0, 1, 2), (3, 4), (5, 6)))


def test_classification_verifies_each_grading_once(monkeypatch):
    calls = []
    real = gradings.verify_grading

    def counted(grading):
        calls.append(grading)
        return real(grading)

    monkeypatch.setattr(gradings, "verify_grading", counted)
    rep = classify_gradings(6)
    assert len(calls) == len(rep.general) == 13
    assert [e.grading for e in rep.general] == calls


def test_partitions_desc():
    assert partitions_desc(5) == [(5,), (4, 1), (3, 2), (3, 1, 1), (2, 2, 1),
                                  (2, 1, 1, 1), (1, 1, 1, 1, 1)]


def test_classification_counts():
    assert len(classify_gradings(4, ergodic_only=True).ergodic) == 2
    assert len(classify_gradings(5, ergodic_only=True).ergodic) == 1
    assert len(classify_gradings(6, ergodic_only=True).ergodic) == 1
    rep5 = classify_gradings(5)
    # oracle: sum over partitions of the product of per-block class counts
    expected = 0
    for partition in partitions_desc(5):
        count = 1
        for m in partition:
            count *= len(abelian_groups_of_order(m))
        expected += count
    assert len(rep5.general) == expected == 8
    assert rep5.verdict == VERIFIED
    rep1 = classify_gradings(1)
    assert len(rep1.ergodic) == 1 and len(rep1.general) == 1


def test_ergodic_entries_are_the_one_block_entries():
    rep = classify_gradings(6)
    one_block = [e for e in rep.general if e.partition == (6,)]
    assert one_block and [id(e) for e in rep.ergodic] == [id(e) for e in one_block]
    alone = classify_gradings(6, ergodic_only=True)
    assert [e.to_dict() for e in alone.ergodic] == [e.to_dict() for e in rep.ergodic]


def test_classification_cost_guard():
    with pytest.raises(ValueError, match="capped"):
        classify_gradings(15)


def test_grading_file_roundtrip_abelian():
    g = grading_from_partition((4,), (Z4,))
    back = parse_grading(format_grading(g))
    assert back.components == g.components
    assert verify_grading(back).verdict == VERIFIED


def test_grading_file_roundtrip_partition():
    g = grading_from_partition((3, 2), (Z3, Z2))
    back = parse_grading(format_grading(g))
    assert verify_grading(back).verdict == VERIFIED
    orb = orbit_decompose(back)
    assert orb.partition == (3, 2)


def test_grading_file_rejects_garbage():
    with pytest.raises(ValueError):
        parse_grading("component e: (1,1)\n")
    with pytest.raises(ValueError):
        parse_grading("n: 2\nnonsense: 1\n")


def test_grading_file_merges_spellings_of_one_element():
    # "e" and "0" both name the identity of Z2: three vectors in K^2 are no direct sum
    g = parse_grading("n: 2\ngroup: Z2\ncomponent e: (1,0)\n"
                      "component 0: (1,1)\ncomponent 1: (1,-1)\n")
    assert g.components[(0,)] == [(F(1), F(0)), (F(1), F(1))]
    assert verify_grading(g).verdict == REFUTED


def test_free_product_group_words():
    fp = FreeProductGroup(((0, 1, 2), (3, 4)), (Z3, Z2))
    a = ((0, (1,)),)
    b = ((1, (1,)),)
    ab = fp.mul(a, b)
    assert ab == ((0, (1,)), (1, (1,)))
    assert fp.element_order(ab) is None          # length-2 words have infinite order
    assert fp.element_order(a) == 3
    assert fp.mul(a, fp.mul(a, a)) == ()
    assert not fp.is_abelian()


def test_element_order_of_conjugates():
    fp = _free_product((Z2, Z2))
    a, b = ((0, (1,)),), ((1, (1,)),)
    aba = fp.mul(a, fp.mul(b, a))
    assert aba == ((0, (1,)), (1, (1,)), (0, (1,))) and fp.element_order(aba) == 2
    fp = _free_product((Z3, Z2, Z4))
    x, x2, y, z = ((0, (1,)),), ((0, (2,)),), ((1, (1,)),), ((2, (1,)),)
    assert fp.element_order(fp.mul(x, fp.mul(z, x2))) == 4         # x z x^-1
    assert fp.element_order(fp.mul(x, fp.mul(y, fp.mul(z, fp.mul(y, x2))))) == 4
    assert fp.element_order(fp.mul(x, fp.mul(y, x))) is None        # ~ y x^2
    assert fp.element_order(fp.mul(x, y)) is None                   # cyclically reduced
    assert fp.element_order(fp.mul(x, fp.mul(y, fp.mul(x, z)))) is None


@pytest.mark.parametrize("groups", [(Z2, Z2), (Z3, Z2), (Z2, Z2, Z3)])
def test_element_order_against_powers(groups):
    fp = _free_product(groups)
    bound = max(G.order for G in groups)       # a finite order is a letter's order
    for word in _reduced_words(fp, 4):
        power, order = word, None
        for k in range(1, bound + 1):
            if power == ():
                order = k
                break
            power = fp.mul(power, word)
        assert fp.element_order(word) == order, fp.key_text(word)


def _free_product(groups):
    blocks, start = [], 0
    for G in groups:
        blocks.append(tuple(range(start, start + G.order)))
        start += G.order
    return FreeProductGroup(tuple(blocks), tuple(groups))


def _reduced_words(fp, max_length):
    letters = [(i, c) for i, G in enumerate(fp.groups)
               for c in G.elements() if c != G.identity()]
    words, frontier = [()], [()]
    for _ in range(max_length):
        frontier = [w + (x,) for w in frontier for x in letters
                    if not w or w[-1][0] != x[0]]
        words += frontier
    return words


_BLOCK_GROUPS = [G for m in range(1, 13) for G in abelian_groups_of_order(m)]


@pytest.mark.parametrize("blocks", [2, 3])
def test_free_product_key_text_round_trip(blocks):
    pool = _BLOCK_GROUPS if blocks == 2 else _BLOCK_GROUPS[:5]     # orders <= 4
    for groups in itertools.combinations_with_replacement(pool, blocks):
        fp = _free_product(groups)
        for word in _reduced_words(fp, 3):
            assert fp.parse_key(fp.key_text(word)) == word
            assert fp.mul(word, fp.identity()) == word


def test_free_product_group_interface():
    fp = FreeProductGroup(((0, 1, 2), (3, 4)), (Z3, Z2))
    assert fp.key_text(()) == "e" and fp.parse_key("e") == ()
    assert fp.key_text(((0, (2,)), (1, (1,)))) == "b0:2*b1:1"
    assert fp.parse_key("b0:1*b0:2*b1:3") == ((1, (1,)),)    # read as a reduced word
    for identity in ("b0:0", "b1:e", "b0:3*b1:2", "b0:e*b1:0"):
        assert fp.parse_key(identity) == ()
    assert fp.parse_key("b0:0*b1:1") == fp.parse_key("b1:1") == ((1, (1,)),)
    assert fp.block_element(0, (2,)) == ((0, (2,)),) and fp.block_element(1, (0,)) == ()
    assert Z3.block_element(0, (2,)) == (2,) and Z3.block_element(0, (0,)) == (0,)
    assert fp.generates([((0, (1,)),), ((1, (1,)),)])
    assert not fp.generates([((0, (1,)),)])
    for bad in ("b2:1", "b-1:1", "c0:1", "b0:1.1"):
        with pytest.raises(ValueError):
            fp.parse_key(bad)
    with pytest.raises(ValueError, match="groups"):
        FreeProductGroup(((0, 1), (2,)), (Z2,))


_LETTER_GROUPS = (Z3, Z2, FiniteAbelianGroup(()))


@st.composite
def _letter_strings(draw):
    """Free-product element text over Z3*Z2*Z1 as letters b<i>:<exponent>,
    identity letters and adjacent letters of one block included, exponents
    spelled "e" or unreduced; with the (block, exponents) letters it names."""
    letters, chunks = [], []
    for _ in range(draw(st.integers(1, 6))):
        i = draw(st.integers(0, 2))
        d = _LETTER_GROUPS[i].order
        k = draw(st.integers(0, 2 * d - 1)) if d > 1 else 0
        c = (k % d,) if d > 1 else ()
        text = "e" if k == 0 and (d == 1 or draw(st.booleans())) else str(k)
        letters.append((i, c))
        chunks.append(f"b{i}:{text}")
    return "*".join(chunks), letters


def _reduced(letters):
    """The reduced word of a product of letters: drop an identity letter or
    merge the first two adjacent letters of one block, until neither is left."""
    word = list(letters)
    while True:
        word = [(i, c) for i, c in word if any(c)]      # the identity has zero exponents
        for k in range(len(word) - 1):
            (i, a), (j, b) = word[k], word[k + 1]
            if i == j:
                factors = _LETTER_GROUPS[i].invariant_factors
                word[k:k + 2] = [(i, tuple((x + y) % d for x, y, d in zip(a, b, factors)))]
                break
        else:
            return tuple(word)


@settings(max_examples=200, deadline=None)
@given(_letter_strings())
def test_parse_key_reads_reduced_words(drawn):
    text, letters = drawn
    fp = _free_product(_LETTER_GROUPS)
    word = fp.parse_key(text)
    assert word == _reduced(letters)
    assert fp.parse_key(fp.key_text(word)) == word


def test_free_product_generates_only_when_every_letter_is_reached():
    fp = FreeProductGroup(((0, 1, 2), (3, 4)), (Z3, Z2))
    assert not fp.generates([((0, (1,)), (1, (1,)))])     # infinite cyclic
    fp = _free_product((Z2, Z2))
    a, b = ((0, (1,)),), ((1, (1,)),)
    ab, aba, bab = fp.mul(a, b), fp.mul(a, fp.mul(b, a)), fp.mul(b, fp.mul(a, b))
    assert fp.generates([a, ab])
    assert not fp.generates([a, bab])                      # a subgroup of index 2
    assert fp.generates([a, aba])
    assert fp.generates([ab, b]) and not fp.generates([ab, aba])


def test_subgroup_closure():
    assert Z4.subgroup([(2,)]) == {(0,), (2,)}
    assert K4.subgroup([(1, 0)]) == {(0, 0), (1, 0)}
    assert K4.subgroup([(1, 0), (0, 1)]) == set(K4.elements())
    assert FiniteAbelianGroup(()).subgroup([]) == {()}


def _grading_law_holds(grading):
    """The definition of a grading, read off spans by plain elimination:
    K^n is the direct sum of the components, the unit lies in A_e, and
    A_g * A_h lies in A_gh (on basis vectors, which suffices by
    bilinearity)."""
    n, comps = grading.n, grading.components
    vectors = [v for vecs in comps.values() for v in vecs]
    dims = sum(reference_rank(vecs) for vecs in comps.values())
    if not dims == reference_rank(vectors) == n:
        return False
    group = grading.group
    if not in_reference_span(comps.get(group.identity(), []), (1,) * n):
        return False
    for (g, a_basis), (h, b_basis) in itertools.product(comps.items(), repeat=2):
        target = comps.get(group.mul(g, h), [])
        for a in a_basis:
            for b in b_basis:
                if not in_reference_span(target, tuple(x * y for x, y in zip(a, b))):
                    return False
    return True


_SMALL_GROUPS = [FiniteAbelianGroup(()), Z2, Z3, Z4, K4]
_PERTURBATIONS = [0, 1, -1, 2, F(1, 2), zeta(3), zeta(4)]


@st.composite
def _small_gradings(draw):
    """Sums of copies of a regular character grading of a group of order at
    most 4 on K^n, n <= 4, with points permuted, then vectors moved between
    components or entries perturbed."""
    G = draw(st.sampled_from(_SMALL_GROUPS))
    copies = draw(st.integers(1, 4 // G.order))
    n = copies * G.order
    regular = grading_from_partition((G.order,), (G,))
    comps = {key: [] for key in G.elements()}
    for c in range(copies):
        for key, (v,) in regular.components.items():
            pad = [0] * n
            pad[c * G.order:(c + 1) * G.order] = v
            comps[key].append(tuple(pad))
    perm = draw(st.permutations(range(n)))
    comps = {key: [tuple(v[p] for p in perm) for v in vecs] for key, vecs in comps.items()}
    for _ in range(draw(st.integers(0, 2))):
        source = draw(st.sampled_from(sorted(k for k, vecs in comps.items() if vecs)))
        i = draw(st.integers(0, len(comps[source]) - 1))
        if draw(st.booleans()):
            comps[draw(st.sampled_from(G.elements()))].append(comps[source].pop(i))
        else:
            v = list(comps[source][i])
            v[draw(st.integers(0, n - 1))] = draw(st.sampled_from(_PERTURBATIONS))
            comps[source][i] = tuple(v)
    return Grading(n, G, comps)


@settings(max_examples=150, deadline=None)
@given(_small_gradings())
def test_verify_grading_agrees_with_the_definition(grading):
    assert (verify_grading(grading).verdict == VERIFIED) == _grading_law_holds(grading)


def _reference_report(grading):
    """verify_grading's report with every rank and membership decided by
    plain elimination and every product taken in its own row."""
    group, comps, n = grading.group, grading.components, grading.n
    vectors = [v for key in grading.support() for v in comps[key]]
    rk = reference_rank(vectors)
    identity_basis = comps.get(group.identity(), [])
    rows = [IdentityCheck(
                "direct sum spans K^n",
                f"rank {rk} of {len(vectors)} component basis vectors (need {n})",
                rk == n == len(vectors)),
            IdentityCheck(
                "unit lies in the identity component",
                "all-ones vector against the identity component basis",
                bool(identity_basis) and in_reference_span(identity_basis, (1,) * n))]
    details = {"n": n}
    text = group.key_text
    for g, h in itertools.product(grading.support(), repeat=2):
        target = group.mul(g, h)
        for (ai, a), (bi, b) in itertools.product(enumerate(comps[g]), enumerate(comps[h])):
            prod = tuple(x * y for x, y in zip(a, b))
            ok = in_reference_span(comps.get(target, []), prod)
            rows.append(IdentityCheck(
                f"product law [{text(g)}][{ai}] * [{text(h)}][{bi}] in [{text(target)}]",
                "pointwise product against target component basis", ok))
            if not ok and "witness" not in details:
                details["witness"] = {"g": text(g), "h": text(h),
                                      "product": [format_scalar(x) for x in prod]}
    for key in grading.support():
        order = group.element_order(key)
        rows.append(IdentityCheck(f"finite order [{text(key)}]",
                                  f"element order {order if order else 'infinite'}",
                                  order is not None))
    dim = reference_rank(identity_basis) if identity_basis else 0
    details.update(faithful=group.generates(grading.support()), ergodic=dim == 1,
                   dim_identity_component=dim)
    if dim == 1 and details["faithful"]:
        rows.append(IdentityCheck("ergodic faithful grading has abelian group",
                                  f"group {group.descriptor()} commutativity",
                                  group.is_abelian()))
    details["group"] = group.descriptor()
    return CertificateReport.from_identities(
        f"grading of K^{n} by {group.descriptor()}", rows, details=details)


def _scaled(grading, scale):
    """The same grading with vector i of component key multiplied by c, for
    each (key, i, c) in scale; every component keeps its span."""
    comps = {key: list(vecs) for key, vecs in grading.components.items()}
    for key, i, c in scale:
        comps[key][i] = tuple(c * x for x in comps[key][i])
    return Grading(grading.n, grading.group, comps)


@settings(max_examples=100, deadline=None)
@given(data=st.data(), grading=_small_gradings())
def test_scaled_components_take_the_span_path(data, grading):
    # a vector scaled by c != 0, 1 spans what it spanned, but a product of it
    # equals no target basis vector, so the product law needs span queries
    basis = [(key, i) for key, vecs in grading.components.items() for i in range(len(vecs))]
    chosen = []
    if basis:
        chosen = data.draw(st.lists(st.sampled_from(basis), unique=True, min_size=1))
    scale = [(key, i, data.draw(st.sampled_from([2, -1, F(1, 2), F(-3, 2)])))
             for key, i in chosen]
    scaled = _scaled(grading, scale)
    assert verify_grading(scaled).to_dict() == _reference_report(scaled).to_dict()


@st.composite
def _partition_gradings(draw):
    """Partition gradings of K^n, n <= 8, with 2 or 3 blocks whose groups
    have order at most 4, so graded by free products; then possibly one
    coordinate perturbed, or one vector moved to another key, a product of
    two supported keys (whose two orders may differ)."""
    groups = draw(st.lists(st.sampled_from(_SMALL_GROUPS), min_size=2, max_size=3)
                  .filter(lambda gs: sum(G.order for G in gs) <= 8))
    grading = grading_from_partition([G.order for G in groups], groups)
    fp, n = grading.group, grading.n
    comps = {key: list(vecs) for key, vecs in grading.components.items()}
    source = draw(st.sampled_from(sorted(comps)))
    i = draw(st.integers(0, len(comps[source]) - 1))
    change = draw(st.sampled_from(["none", "perturb", "move"]))
    if change == "perturb":
        v = list(comps[source][i])
        v[draw(st.integers(0, n - 1))] = draw(st.sampled_from(_PERTURBATIONS))
        comps[source][i] = tuple(v)
    elif change == "move":
        keys = sorted(grading.components)
        target = fp.mul(draw(st.sampled_from(keys)), draw(st.sampled_from(keys)))
        comps.setdefault(target, []).append(comps[source].pop(i))
    return Grading(n, fp, comps)


@settings(max_examples=80, deadline=None)
@given(_partition_gradings())
def test_partition_gradings_match_the_reference_report(grading):
    report = verify_grading(grading)
    assert report.to_dict() == _reference_report(grading).to_dict()
    assert (report.verdict == VERIFIED) == _grading_law_holds(grading)


def test_mirrored_rows_check_their_own_targets():
    # in Z2*Z2, a*b != b*a: the one product of A_a and A_b lies in A_{a*b}
    # but not in A_{b*a}, so its two rows disagree
    fp = FreeProductGroup(((0, 1), (2, 3)), (Z2, Z2))
    a, b = (0, (1,)), (1, (1,))
    grading = Grading(4, fp, {(): [(1, 1, 0, 0), (0, 0, 1, 1)], (a,): [(1, -1, 0, 0)],
                              (b,): [(1, 1, 0, 0)], (a, b): [(1, -1, 0, 0)]})
    report = verify_grading(grading)
    assert report.to_dict() == _reference_report(grading).to_dict()
    rows = {r.label: r.reduced_to_zero for r in report.identities}
    assert rows["product law [b0:1][0] * [b1:1][0] in [b0:1*b1:1]"]
    assert not rows["product law [b1:1][0] * [b0:1][0] in [b1:1*b0:1]"]


def _relabel(grading, perm):
    """The same grading with point i renamed perm[i]."""
    comps = {}
    for key, vecs in grading.components.items():
        comps[key] = [tuple(v[perm.index(i)] for i in range(grading.n)) for v in vecs]
    group = grading.group
    if isinstance(group, FreeProductGroup):
        group = FreeProductGroup(
            tuple(tuple(sorted(perm[p] for p in b)) for b in group.blocks), group.groups)
    return Grading(grading.n, group, comps)


@settings(max_examples=40, deadline=None)
@given(data=st.data(), n=st.integers(1, 7))
def test_relabelled_grading_file_round_trip(data, n):
    partition = data.draw(st.sampled_from(partitions_desc(n)))
    groups = [data.draw(st.sampled_from(abelian_groups_of_order(m))) for m in partition]
    perm = data.draw(st.permutations(range(n)))
    text = format_grading(_relabel(grading_from_partition(partition, groups), perm))
    assert format_grading(parse_grading(text)) == text


def _count_exact_operations(monkeypatch):
    """Record every echelon form built (its vectors), every span query and
    every pointwise product (its factors and the indices it multiplies)
    made from here on."""
    built, queries, products = [], [], []

    class CountingSpan(linalg.Span):
        __slots__ = ()

        def __init__(self, vectors=()):
            vectors = [tuple(v) for v in vectors]
            built.append(vectors)
            super().__init__(vectors)

        def __contains__(self, v):
            queries.append(tuple(v))
            return super().__contains__(v)

    pointwise = gradings._pointwise

    def counted(a, b, common):
        products.append((a, b, tuple(common)))
        return pointwise(a, b, common)

    monkeypatch.setattr(linalg, "Span", CountingSpan)
    monkeypatch.setattr(gradings, "_pointwise", counted)
    return built, queries, products


def test_classification_makes_no_product_span_query(monkeypatch):
    _, queries, _ = _count_exact_operations(monkeypatch)
    rep = classify_gradings(6)
    assert all(e.orbit is not None for e in rep.general) and len(rep.general) == 13
    # every product equals a target basis vector: the queries left are the
    # unit row of each grading and orbit_decompose's block indicators
    assert len(queries) == sum(1 + e.orbit.k for e in rep.general)
    assert all(set(v) <= {0, 1} for v in queries)


def test_verify_grading_does_each_exact_operation_once(monkeypatch):
    built, queries, products = _count_exact_operations(monkeypatch)
    z4 = grading_from_partition((4,), (Z4,))
    for grading, literal in ((grading_from_partition((4, 3, 2), (K4, Z3, Z2)), True),
                             (z4, True),
                             (_scaled(z4, [((1,), 0, 2), ((2,), 0, F(-1, 3))]), False),
                             (trivial_grading(3), True)):
        built.clear()
        queries.clear()
        products.clear()
        assert verify_grading(grading).verdict == VERIFIED
        comps, identity = grading.components, grading.group.identity()
        vectors = [v for key in grading.support() for v in comps[key]]
        # the rank form, the identity form, then each other form at most once
        assert built[:2] == [vectors, comps[identity]]
        later = built[2:]
        assert len(later) == len({tuple(b) for b in later})
        assert all(b in comps.values() and b != comps[identity] for b in later)
        supports = [{i for i, x in enumerate(v) if x} for v in vectors]
        meeting = {frozenset((i, j)) for i, j in
                   itertools.combinations_with_replacement(range(len(vectors)), 2)
                   if supports[i] & supports[j]}
        pairs = [frozenset((vectors.index(a), vectors.index(b))) for a, b, _ in products]
        # one product per unordered pair of basis vectors whose supports meet,
        # multiplied only where they meet
        assert len(pairs) == len(set(pairs)) and meeting <= set(pairs)
        assert all(common == tuple(sorted(supports[vectors.index(a)]
                                          & supports[vectors.index(b)]))
                   for a, b, common in products)
        # no product for a pair with disjoint supports
        assert set(pairs) <= meeting
        # the unit row queries the identity form; a product queries a form
        # only when it equals none of its target's basis vectors
        assert (len(queries) == 1) == literal


def test_partly_overlapping_supports_give_the_plain_witness(monkeypatch):
    # (1,1,0) * (0,z3,2) meet only at index 1: the product is taken there
    # alone, and its witness reads as the entrywise product over all indices
    _, _, products = _count_exact_operations(monkeypatch)
    a, b = (F(1), F(1), F(0)), (F(0), zeta(3), F(2))
    grading = Grading(3, Z2, {(0,): [a, (F(0), F(0), F(1))], (1,): [b]})
    report = verify_grading(grading)
    assert report.verdict == REFUTED
    assert (a, b, (1,)) in products
    plain = [format_scalar(x * y) for x, y in zip(a, b)]
    assert report.details["witness"] == {"g": "e", "h": "1", "product": plain}
    assert plain == ["0", "z3", "0"]
    assert report.to_dict() == _reference_report(grading).to_dict()
