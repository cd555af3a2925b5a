import dataclasses
import hashlib
import itertools
import json
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from qpalg import qperm
from qpalg.cli import EXIT_INCONCLUSIVE, main
from qpalg.groups import Perm
from qpalg.ncalg import Alphabet, NCPoly, TensorAlgebra, substitute
from qpalg.qperm import (ALL_FAMILIES, COL_ORTH, COL_SUM, ROW_ORTH, ROW_SUM, SEMI_FAMILIES,
                         HopfPresentation, MatrixOverAlgebra, check_multiplicative,
                         block_quotient, coaction_algebra_map_check, family_relations,
                         gram_diagonal_check, group_algebra_presentation,
                         magic_presentation, matrix_inverse_from_families,
                         semi_magic_presentation, sn_isomorphism_check,
                         sn_relations_check, to_sn_function, u_alphabet,
                         verify_hopf_axioms, wang_witness)
from qpalg.reports import INCONCLUSIVE, REFUTED, VERIFIED
from qpalg.rewrite import (CONFLUENT, TRUNCATED, RewriteSystem, complete,
                           filtration_dimension, normal_form, quotient_basis)
from wang_reference import block_matrix, image_under_w, two_idempotents

F = Fraction


def base_field() -> HopfPresentation:
    """The base field as a presentation: no generators, no relations."""
    alphabet = Alphabet(())
    system = RewriteSystem(alphabet, [], status=CONFLUENT)
    return HopfPresentation(0, system, [], TensorAlgebra(alphabet, 2), {}, {}, {})


def scalar_matrix(scalars, ambient: RewriteSystem) -> MatrixOverAlgebra:
    n = len(scalars)
    return MatrixOverAlgebra(n, tuple(tuple(NCPoly.scalar(ambient.alphabet, c) for c in row)
                                      for row in scalars), ambient)


def families_verdict(x: MatrixOverAlgebra, families) -> tuple[str, list[str]]:
    """Verdict of the relation families over x's entries, and the labels of
    the instances left nonzero: each instance is reduced in x's ambient, and
    a nonzero one refutes only when that ambient is confluent."""
    failing = [label for label, poly in qperm._family_relations(x.entry, x.n, families)
               if normal_form(poly, x.ambient)]
    if not failing:
        return VERIFIED, failing
    return (REFUTED if x.ambient.status == CONFLUENT else INCONCLUSIVE), failing


# -- presentations --

def test_presentation_relation_counts(magic):
    pres = magic[4]
    by_family = {}
    for label, _ in pres.relations:
        fam = label.split("[")[0]
        by_family[fam] = by_family.get(fam, 0) + 1
    # each orthogonality family has n^3 instances, each sum family n
    assert by_family[ROW_ORTH] == 64
    assert by_family[COL_ORTH] == 64
    assert by_family[ROW_SUM] == 4
    assert by_family[COL_SUM] == 4
    assert len(pres.alphabet) == 16


def test_presentation_n1_collapses(completed_magic):
    basis = quotient_basis(completed_magic[1].system)
    assert basis == [()]
    pres = magic_presentation(1)
    assert normal_form(pres.gen(1, 1), pres.system) == 1


def test_semi_magic_has_no_column_relations(semi_magic):
    pres = semi_magic[2]
    prod = pres.gen(1, 1) * pres.gen(2, 1)
    nf = normal_form(prod, pres.system)
    assert nf == prod   # u11.u21 is irreducible without column families
    assert pres.antipode is None


def test_semi_magic_structure_maps_well_defined(semi_magic):
    rep = verify_hopf_axioms(semi_magic[3], cap=6)
    assert rep.verdict == VERIFIED


# -- family checkers --

def test_generating_matrix_is_magic(magic):
    for n in (2, 3, 4):
        assert families_verdict(magic[n].generating_matrix(), ALL_FAMILIES) == (VERIFIED, [])


def test_family_relations_agree_on_generating_matrix(magic):
    pres = magic[3]
    families = (COL_SUM, ROW_ORTH, ROW_SUM, COL_ORTH)
    x = pres.generating_matrix()
    assert qperm._family_relations(x.entry, 3, families) == \
        family_relations(pres.alphabet, 3, families)
    assert family_relations(pres.alphabet, 3, ALL_FAMILIES) == pres.relations
    with pytest.raises(ValueError, match="unknown relation family"):
        family_relations(pres.alphabet, 3, (ROW_SUM, "bogus"))


def test_diag_gg_semi_magic_refuted():
    hopf = group_algebra_presentation(2)
    ambient = complete(hopf.system, 4).system
    g = NCPoly.gen(ambient.alphabet, 0)
    zero = NCPoly.zero(ambient.alphabet)
    x = MatrixOverAlgebra(2, ((g, zero), (zero, g)), ambient)
    verdict, failing = families_verdict(x, SEMI_FAMILIES)
    assert verdict == REFUTED
    assert any("row-sum" in label for label in failing)


def test_wang_block_matrix_is_magic():
    # the reference map u_ij -> W_ij kills every defining relation
    target = two_idempotents()
    for n in (4, 5):
        w = MatrixOverAlgebra(n, tuple(map(tuple, block_matrix(n, target))), target)
        assert families_verdict(w, ALL_FAMILIES) == (VERIFIED, [])


# -- multiplicativity and the coaction equivalence --

def test_generating_matrix_multiplicative(magic):
    for n in (2, 3, 4):
        rep = check_multiplicative(magic[n].generating_matrix(), magic[n])
        assert rep.verdict == VERIFIED


def test_identity_matrix_multiplicative(magic):
    pres = magic[3]
    eye = scalar_matrix([[1 if i == j else 0 for j in range(3)] for i in range(3)], pres.system)
    assert check_multiplicative(eye, pres).verdict == VERIFIED


def test_diag_gg_multiplicative_but_not_coaction():
    hopf = group_algebra_presentation(2)
    ambient = complete(hopf.system, 4).system
    g = NCPoly.gen(ambient.alphabet, 0)
    zero = NCPoly.zero(ambient.alphabet)
    x = MatrixOverAlgebra(2, ((g, zero), (zero, g)), ambient)
    assert check_multiplicative(x, hopf).verdict == VERIFIED
    rep = coaction_algebra_map_check(x, hopf)
    assert rep.verdict == REFUTED
    # both legs fail consistently: unit preservation and semi-magic
    unit_rows = [c for c in rep.identities if c.label.startswith("beta(1)")]
    assert unit_rows and all(not c.reduced_to_zero for c in unit_rows)
    assert all(not c.inconclusive for c in unit_rows)   # refuted, definitely
    assert rep.details["semi_magic"] == REFUTED
    assert rep.details["algebra_map_legs"] == "fail"
    assert not any(c.label.startswith("equivalence") for c in rep.identities)


def test_generating_matrix_coaction(magic, completed_magic):
    for n in (2, 3):
        pres = magic[n]
        x = pres.generating_matrix(completed_magic[n].system)
        rep = coaction_algebra_map_check(x, pres)
        assert rep.verdict == VERIFIED
        assert rep.details["multiplicative_precondition"] == VERIFIED


def test_coaction_check_reduces_each_leg_once(magic, completed_magic, monkeypatch):
    labels = []
    reduce_row = qperm._reduce_row

    def counting(label, poly, system):
        labels.append(label)
        return reduce_row(label, poly, system)

    monkeypatch.setattr(qperm, "_reduce_row", counting)
    pres = magic[3]
    rep = coaction_algebra_map_check(pres.generating_matrix(completed_magic[3].system), pres)
    assert rep.verdict == VERIFIED and rep.details["semi_magic"] == VERIFIED
    # 9 comultiplication rows, then 27 orthogonality and 3 unit legs
    assert len(labels) == 39


def test_coaction_semi_magic_verdict_matches_check_semi_magic(magic, completed_magic):
    hopf = group_algebra_presentation(2)
    ambient = complete(hopf.system, 4).system
    g = NCPoly.gen(ambient.alphabet, 0)
    zero = NCPoly.zero(ambient.alphabet)
    triv = base_field()
    sigma = Perm((1, 2, 0))
    cases = [
        (MatrixOverAlgebra(2, ((g, zero), (zero, g)), ambient), hopf),
        (scalar_matrix([[1 if sigma(j) == i else 0 for j in range(3)] for i in range(3)],
                       triv.system), triv),
        (scalar_matrix([[1, 1], [0, 1]], triv.system), triv),
        (scalar_matrix([[1, 1], [0, 1]], magic[2].system), magic[2]),
        (magic[3].generating_matrix(), magic[3]),
        (magic[3].generating_matrix(completed_magic[3].system), magic[3]),
    ]
    verdicts = set()
    for x, h in cases:
        semi, _ = families_verdict(x, SEMI_FAMILIES)
        assert coaction_algebra_map_check(x, h).details["semi_magic"] == semi
        verdicts.add(semi)
    assert verdicts == {VERIFIED, REFUTED, INCONCLUSIVE}


def test_permutation_matrix_coaction():
    triv = base_field()
    sigma = Perm((1, 2, 0))
    x = scalar_matrix([[1 if sigma(j) == i else 0 for j in range(3)] for i in range(3)],
                      triv.system)
    rep = coaction_algebra_map_check(x, triv)
    assert rep.verdict == VERIFIED
    assert families_verdict(x, ALL_FAMILIES) == (VERIFIED, [])


# -- Hopf axioms --

def test_hopf_axioms_small(magic):
    for n in (1, 2, 3):
        rep = verify_hopf_axioms(magic[n], cap=8)
        assert rep.verdict == VERIFIED


def test_base_field_hopf_axioms_are_inconclusive():
    # no relation and no generator carries a law, so nothing is claimed
    rep = verify_hopf_axioms(base_field())
    assert rep.identities == [] and rep.verdict == INCONCLUSIVE


def test_coassociativity_rows_present(magic):
    rep = verify_hopf_axioms(magic[3], cap=8)
    co = [c for c in rep.identities if c.label.startswith("coassociativity")]
    assert len(co) == 9 and all(c.reduced_to_zero for c in co)
    s2 = [c for c in rep.identities if c.label.startswith("S^2")]
    assert len(s2) == 9 and all(c.reduced_to_zero for c in s2)


def test_group_algebra_hopf_axioms():
    for m in (2, 3):
        rep = verify_hopf_axioms(group_algebra_presentation(m), cap=8)
        assert rep.verdict == VERIFIED


def test_wrong_delta_refutes_on_definite_tensor_rows():
    # Delta(u_ij) = u_ij (x) u_ij breaks the row and column sums
    pres = magic_presentation(2)
    t2 = pres.tensor2
    gens = [NCPoly.gen(pres.alphabet, g) for g in range(4)]
    delta = {g: t2.inject(x, 0) * t2.inject(x, 1) for g, x in enumerate(gens)}
    rep = verify_hopf_axioms(dataclasses.replace(pres, delta=delta), cap=8)
    assert rep.verdict == REFUTED
    failing = [c for c in rep.identities
               if c.label.startswith("delta well-defined") and not c.reduced_to_zero]
    assert len(failing) == 4
    assert all(not c.inconclusive for c in failing)
    assert {c.label.split("[")[1] for c in failing} == {"row-sum", "col-sum"}


def sum_delta(pres: HopfPresentation) -> HopfPresentation:
    """Delta(u_ij) = sum_k u_ik (x) u_jk: well defined, not coassociative."""
    n, t2 = pres.n, pres.tensor2
    delta = {}
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            delta[(i - 1) * n + (j - 1)] = sum(
                (t2.inject(pres.gen(i, k), 0) * t2.inject(pres.gen(j, k), 1)
                 for k in range(1, n + 1)),
                NCPoly.zero(t2.alphabet))
    return dataclasses.replace(pres, delta=delta)


def identity_antipode(pres: HopfPresentation) -> HopfPresentation:
    """S(u_ij) = u_ij, which breaks the antipode law."""
    n = pres.n
    return dataclasses.replace(pres, antipode={
        (i - 1) * n + (j - 1): pres.gen(i, j)
        for i in range(1, n + 1) for j in range(1, n + 1)})


def test_wrong_delta_coassociativity_rows_are_definite():
    # Delta(u_ij) = sum_k u_ik (x) u_jk is not coassociative
    rep = verify_hopf_axioms(sum_delta(magic_presentation(3)), cap=8)
    assert rep.verdict == REFUTED
    failing = [c for c in rep.identities
               if c.label.startswith("coassociativity") and not c.reduced_to_zero]
    assert failing
    assert all(not c.inconclusive for c in failing)


def _report_sha(payload: dict) -> str:
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


# verify_hopf_axioms at cap 8, recorded when every presentation was completed
# to the cap before any row was reduced: sha256 of to_dict() without its
# details, and of the whole to_dict() for the refuted ones.
_HOPF_ROWS_SHA256 = {
    "magic1": "0b7ef75724a42092721cfb51f243d97b8fbda3f8a6598c1a6293fd877597fdb2",
    "magic2": "0ed5235498decf2313a7e9bdd6a54a45f6e6b3b220a47b91c5e4fb941b313931",
    "magic3": "045c47a0fac832cd7552663883ebd9b829c0b085add59b2fadf8a7acdcb33c08",
    "magic4": "6d2818e729ddccc87f8ac149ea647d16c3064fff7d1536487883bfd3f7ca0038",
    "magic5": "043e3e7f52b707ff069e0d649c97aaaffa7b37c9b038bace855277656d02f208",
    "semi2": "36a4ff765228567dcb64380d858f8143924a319cb9c6508bd71f7015f37f1732",
    "semi3": "a9153cbdf4088f047404ca7890f566e01b601b59fa88bc4b8ad272e9f3895f05",
    "semi4": "9b9a395b9e269af281916c611bc96aca6fe483722c2b5a1915d77cdcbd1238b8",
    "kz2": "b2d898c811ed7b3f749d7b8f394c834356f099644217cd502bbb8e69c581f6b4",
    "kz3": "74d97c312df45baed03750b3abf9f3a574a367c4353ae8701988e846268cac0b",
    "kz4": "e0295f8c36da2a0636baca6e2bd3fc379a83ee5e59644c7b7a3c4579ad868ca5",
    "wrong-delta3": "3eec88f8065c0513d764d6e236cdac0948e118053ad025c47c4bd0c1be748c8e",
    "wrong-s3": "0624ef047c9d2154ebe1ebe3f9d2386cc247b50c063e973a795b408db61f8683",
}
_HOPF_REFUTED_SHA256 = {
    "wrong-delta3": "2f652a90f1f177d3783a7f5625cf1e17bd6ed43ebf690b0d85219db663f9cd9e",
    "wrong-s3": "95a5fedcf13115e8a20603cc9261dc6f71c9fc01131506fb2074732ab93d37f3",
}
_HOPF_CASES = {
    **{f"magic{n}": lambda n=n: magic_presentation(n) for n in range(1, 6)},
    **{f"semi{n}": lambda n=n: semi_magic_presentation(n) for n in range(2, 5)},
    **{f"kz{m}": lambda m=m: group_algebra_presentation(m) for m in range(2, 5)},
    "wrong-delta3": lambda: sum_delta(magic_presentation(3)),
    "wrong-s3": lambda: identity_antipode(magic_presentation(3)),
}


@pytest.mark.parametrize("name", sorted(_HOPF_CASES))
def test_rungs_keep_every_row_of_the_cap_completion(name):
    """A row that reduces to zero against the lower rung is the row the
    cap-8 completion gives, and a refuted report is the cap-8 one whole."""
    payload = verify_hopf_axioms(_HOPF_CASES[name](), cap=8).to_dict()
    if name in _HOPF_REFUTED_SHA256:
        assert payload["verdict"] == REFUTED
        assert _report_sha(payload) == _HOPF_REFUTED_SHA256[name]
    else:
        assert payload["verdict"] == VERIFIED
    del payload["details"]
    assert _report_sha(payload) == _HOPF_ROWS_SHA256[name]


def test_completion_rungs_run_the_cap_only_for_nonzero_rows(magic, monkeypatch):
    caps = []

    def recording_complete(system, cap):
        caps.append(cap)
        return complete(system, cap)

    monkeypatch.setattr(qperm, "complete", recording_complete)
    rep = verify_hopf_axioms(magic[4])
    assert (rep.verdict, caps) == (VERIFIED, [2])
    assert rep.details == {"cap": 8, "completion_status": "complete_up_to(2)",
                           "rule_count": 63}
    wrong = sum_delta(magic[3])
    # at cap 2 the lower rung is the cap, so its nonzero rows stay inconclusive
    for cap, verdict, expected in ((8, REFUTED, [2, 8]), (2, INCONCLUSIVE, [2])):
        caps.clear()
        assert verify_hopf_axioms(wrong, cap=cap).verdict == verdict
        assert caps == expected
    caps.clear()
    assert main(["coaction-check", "--n", "4"]) == 0
    assert caps == [2]


# -- transpose-product identities --

@pytest.mark.parametrize("families,expect", [
    ((ROW_ORTH, ROW_SUM, COL_ORTH), "x*xt"),
    ((ROW_ORTH, ROW_SUM, COL_SUM), "xt*x"),
    ((ROW_ORTH, COL_ORTH, COL_SUM), "xt*x"),
    ((ROW_SUM, COL_ORTH, COL_SUM), "x*xt"),
])
def test_three_families_force_transpose_inverse(families, expect):
    for n in (2, 3):
        rep = matrix_inverse_from_families(n, families)
        assert rep.verdict == VERIFIED
        assert rep.details["identity"] == expect


def test_transpose_inverse_larger_size():
    rep = matrix_inverse_from_families(5, (ROW_ORTH, ROW_SUM, COL_ORTH))
    assert rep.verdict == VERIFIED


def test_transpose_inverse_validates_input():
    with pytest.raises(ValueError):
        matrix_inverse_from_families(3, (ROW_ORTH, ROW_SUM))
    with pytest.raises(ValueError):
        matrix_inverse_from_families(3, (ROW_ORTH, ROW_ORTH, COL_SUM))


def test_gram_diagonal_examples():
    for n in (1, 2, 4):
        assert gram_diagonal_check(n).verdict == VERIFIED
    # the off-diagonal entry at n=2 visibly reduces via row orthogonality
    pres = semi_magic_presentation(2)
    off = pres.gen(1, 1) * pres.gen(1, 2) + pres.gen(2, 1) * pres.gen(2, 2)
    assert normal_form(off, pres.system) == 0


# -- the S_n quotient --

def test_pi_on_generators():
    pres = magic_presentation(2)
    f = to_sn_function(pres.gen(1, 1), 2)
    ident = Perm((0, 1))
    swap = Perm((1, 0))
    assert f(ident) == 1 and f(swap) == 0
    assert to_sn_function(pres.gen(1, 1) * pres.gen(1, 2), 2) == {}


def test_render_truncates_after_its_limit():
    # 1 maps to the constant function: the 8 least image tuples of S_4, then the count
    assert to_sn_function(NCPoly.one(u_alphabet(4)), 4).render() == (
        "1*e[id] + 1*e[(3 4)] + 1*e[(2 3)] + 1*e[(2 3 4)] + 1*e[(2 4 3)] + 1*e[(2 4)] + "
        "1*e[(1 2)] + 1*e[(1 2)(3 4)] + ... (24 supported permutations)")


def test_pi_kills_relations():
    for n in (1, 2, 3, 4):
        assert sn_relations_check(n).verdict == VERIFIED


def test_pi_commutator_zero():
    pres = magic_presentation(4)
    comm = pres.gen(1, 1) * pres.gen(3, 3) - pres.gen(3, 3) * pres.gen(1, 1)
    assert not to_sn_function(comm, 4)


@settings(max_examples=100, deadline=None)
@given(data=st.data(), n=st.integers(1, 4))
def test_to_sn_function_agrees_with_scanning_s_n(data, n):
    words = st.lists(st.integers(0, n * n - 1), max_size=5).map(tuple)
    poly = NCPoly(u_alphabet(n), data.draw(
        st.dictionaries(words, st.sampled_from([1, -1, 2, F(1, 3)]), max_size=6)))
    # oracle: every word at every permutation, letter u_ij read as [sigma(j) = i]
    expected = {}
    for images in itertools.permutations(range(n)):
        total = sum(c for w, c in poly.terms.items()
                    if all(images[letter % n] == letter // n for letter in w))
        if total:
            expected[images] = total
    assert to_sn_function(poly, n) == expected


def test_evaluation_on_s_n_is_capped():
    n = qperm.SN_MAX_N + 1
    with pytest.raises(ValueError, match="capped"):
        to_sn_function(NCPoly.gen(u_alphabet(n), 0), n)
    with pytest.raises(ValueError, match="capped"):
        sn_isomorphism_check(n)


def test_iso_check_small():
    for n, dim in ((1, 1), (2, 2), (3, 6)):
        rep = sn_isomorphism_check(n)
        assert rep.verdict == VERIFIED
        assert rep.details["basis_count"] == dim
        assert rep.details["evaluation_rank"] == dim
        assert rep.details["conclusion"] == "isomorphism"


def test_iso_check_n4_kernel_witness():
    rep = sn_isomorphism_check(4)
    assert rep.verdict == VERIFIED
    assert "kernel witness" in rep.details["conclusion"] or \
        rep.details["conclusion"].startswith("not injective")
    labels = [c.label for c in rep.identities]
    assert "kernel witness maps to zero" in labels
    assert "kernel witness is nonzero upstream" in labels


# -- the free-product certificate --

def test_wang_witness_main():
    rep = wang_witness(4, depth=10)
    assert rep.verdict == VERIFIED
    assert rep.details["filtration"] == [2 * d + 1 for d in range(11)]


def test_sn_certificates_build_no_presentation(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a presentation was built")

    monkeypatch.setattr(qperm, "presentation", refuse)
    assert sn_relations_check(4).verdict == VERIFIED
    assert wang_witness(4).verdict == VERIFIED
    for n in (3, 4):
        assert sn_isomorphism_check(n).verdict == VERIFIED


def test_wang_witness_n5():
    assert wang_witness(5, depth=6).verdict == VERIFIED


def test_wang_rejects_small_n():
    with pytest.raises(ValueError):
        wang_witness(3)


def test_wang_image_examples():
    # in the (2, 2) block quotient u12 is 1 - u11, an idempotent again
    quotient = block_quotient(4, (2, 2))
    pres = magic_presentation(4)
    u11, u33 = pres.gen(1, 1), pres.gen(3, 3)
    img = normal_form(pres.gen(1, 2), quotient)
    assert img == 1 - u11
    assert normal_form(img * img - img, quotient) == 0
    comm = u11 * u33 - u33 * u11
    assert normal_form(comm, quotient) == comm


@pytest.mark.parametrize("n", [6, 7, 8])
def test_wang_witness_larger_sizes(n):
    rep = wang_witness(n, depth=6)
    assert rep.verdict == VERIFIED
    assert rep.details["blocks"] == [2, 2] + [1] * (n - 4)
    assert rep.details["target_status"] == "confluent"
    assert [c.label for c in rep.identities] == ["noncommutativity witness",
                                                 "infinite dimension"]


def _truncated(system, cap):
    """`complete` with its result relabelled as truncated at the cap."""
    res = complete(system, cap)
    return dataclasses.replace(res, system=RewriteSystem(
        system.alphabet, res.system.rules, status=TRUNCATED, status_degree=cap))


def test_wang_witness_needs_a_confluent_quotient(monkeypatch):
    monkeypatch.setattr(qperm, "complete", _truncated)
    rep = wang_witness(4, depth=2)
    witness = rep.identities[0]
    assert witness.reduced_to_zero and witness.inconclusive
    assert rep.verdict == INCONCLUSIVE
    upstream = [c for c in sn_isomorphism_check(4).identities
                if c.label == "kernel witness is nonzero upstream"]
    assert upstream[0].inconclusive


def test_sn_isomorphism_needs_a_confluent_quotient(monkeypatch, capsys):
    monkeypatch.setattr(qperm, "complete", _truncated)
    rep = sn_isomorphism_check(3)
    rows = {c.label: c for c in rep.identities}
    for label in ("quotient dimension", "evaluation matrix rank"):
        assert rows[label].inconclusive and not rows[label].reduced_to_zero
    assert rep.verdict == INCONCLUSIVE
    assert rep.details["completion_status"] == "complete_up_to(4)"
    assert rep.details["conclusion"] == "not verified"
    assert main(["iso-check", "--n", "3"]) == EXIT_INCONCLUSIVE
    assert "[inconclusive] quotient dimension" in capsys.readouterr().out


def _renamed_block_rules(n: int, sizes) -> tuple[set, str]:
    """Rules of the free product of the A_s(size) on consecutive blocks,
    each block's rules renamed into the size-n alphabet, plus u_ij -> 0
    across blocks; and the status label the product should carry."""
    rules, labels, start = set(), set(), 0
    block_of = [b for b, size in enumerate(sizes) for _ in range(size)]
    for m in sizes:
        system = block_quotient(m, (m,))
        labels.add(system.status_label())

        def rename(word, m=m, s=start):
            return tuple((s + x // m) * n + s + x % m for x in word)

        rules |= {(rename(r.lhs), frozenset((rename(w), c) for w, c in r.rhs.terms.items()))
                  for r in system.rules}
        start += m
    rules |= {((i * n + j,), frozenset()) for i in range(n) for j in range(n)
              if block_of[i] != block_of[j]}
    truncated = labels - {CONFLUENT}
    return rules, truncated.pop() if truncated else CONFLUENT


@pytest.mark.parametrize("sizes", [(2, 2), (3, 1), (3, 2), (2, 2, 1), (3, 3), (4, 1),
                                   (2, 1, 1), (1, 1, 1)])
def test_block_quotient_is_the_renamed_union(sizes):
    n = sum(sizes)
    quotient = block_quotient(n, sizes)
    expected, label = _renamed_block_rules(n, sizes)
    assert {(r.lhs, frozenset(r.rhs.terms.items())) for r in quotient.rules} == expected
    assert quotient.status_label() == label


def test_block_quotient_rejects_bad_sizes():
    for n, sizes in ((4, (2, 1)), (4, (2, 2, 1)), (3, (3, 0)), (2, ())):
        with pytest.raises(ValueError, match="partition"):
            block_quotient(n, sizes)


def _rename_p_q(poly: NCPoly, n: int, target: RewriteSystem) -> NCPoly:
    """u11 -> p and u33 -> q, for a normal form in the (2, 2, 1, ...) quotient."""
    return substitute(poly, {0: NCPoly.gen(target.alphabet, 0),
                             2 * n + 2: NCPoly.gen(target.alphabet, 1)})


@pytest.fixture(scope="module")
def wang_quotients():
    return {n: block_quotient(n, (2, 2) + (1,) * (n - 4)) for n in (4, 5)}


@settings(max_examples=60, deadline=None)
@given(data=st.data(), n=st.sampled_from([4, 5]))
def test_block_quotient_matches_wang_map(wang_quotients, data, n):
    """The quotient's normal form is the normal form of Wang's image."""
    quotient, target = wang_quotients[n], two_idempotents()
    letters = st.integers(0, n * n - 1)
    terms = data.draw(st.dictionaries(st.lists(letters, max_size=5).map(tuple),
                                      st.integers(-3, 3), max_size=4))
    p = NCPoly(quotient.alphabet, terms)
    assert quotient.status == CONFLUENT
    assert _rename_p_q(normal_form(p, quotient), n, target) == image_under_w(p, n, target)


def _hilbert_coefficients(sizes, d: int) -> list[int]:
    """Degree 0..d coefficients of H with 1/H = sum_i 1/H_i - (k - 1).

    Each H_i is the polynomial of word lengths in the finite basis of
    completed A_s(n_i); series are truncated power series with H(0) = 1.
    """
    def inverse(h):
        out = [1] + [0] * d
        for e in range(1, d + 1):
            out[e] = -sum(h[i] * out[e - i] for i in range(1, min(e, len(h) - 1) + 1))
        return out

    total = [1 - len(sizes)] + [0] * d
    for size in sizes:
        basis = quotient_basis(complete(magic_presentation(size).system, 8).system)
        h = [sum(1 for w in basis if len(w) == e) for e in range(d + 1)]
        total = [a + b for a, b in zip(total, inverse(h))]
    return inverse(total)


@pytest.mark.parametrize("sizes", [(3, 2), (2, 2, 1), (3, 3)])
def test_block_quotient_is_the_free_product(sizes):
    depth = 5
    quotient = block_quotient(sum(sizes), sizes)
    assert quotient.status == CONFLUENT
    dims = filtration_dimension(quotient, depth)
    coefficients = _hilbert_coefficients(sizes, depth)
    assert dims == [sum(coefficients[:e + 1]) for e in range(depth + 1)]
    if sizes == (3, 2):
        assert dims == [1, 6, 15, 37, 78, 175]
