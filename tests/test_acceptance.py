"""Acceptance suite: one test per criterion, exact tolerances, oracle-backed.

Each test prints a single PASS line on success (pytest -s shows them); any
failure shows up as a normal assertion with context.
"""

import itertools
import re
from fractions import Fraction

from qpalg import linalg
from qpalg.cli import main as cli_main
from qpalg.gradings import (classify_gradings, grading_from_partition,
                            orbit_decompose, partitions_desc, verify_grading)
from qpalg.groups import (abelian_groups_of_order, all_perms, characters,
                          transitive_abelian_subgroups)
from qpalg.ncalg import NCPoly
from qpalg.qperm import (ALL_FAMILIES,
                         MatrixOverAlgebra, check_magic,
                         coaction_algebra_map_check, e_sigma_product_check,
                         gram_diagonal_check,
                         group_algebra_presentation, magic_presentation,
                         matrix_inverse_from_families, sn_isomorphism_check,
                         sn_relations_check, to_sn_function, verify_hopf_axioms,
                         wang_block_matrix, wang_image, wang_target, wang_witness)
from qpalg.reports import REFUTED, VERIFIED
from qpalg.rewrite import complete, filtration_dimension, quotient_basis
from groups_reference import canonical_conjugate

F = Fraction


def _ok(name):
    print(f"ACCEPTANCE {name}: PASS")


def test_criterion_01_dimension_counts(completed_magic):
    factorials = {1: 1, 2: 2, 3: 6}
    for n, expected in factorials.items():
        basis = quotient_basis(completed_magic[n].system)
        assert len(basis) == expected, f"basis size at n={n}"
        rows = []
        for w in basis:
            poly = NCPoly(completed_magic[n].system.alphabet, {w: 1})
            f = to_sn_function(poly, n)
            rows.append([f(sigma) for sigma in all_perms(n)])
        assert linalg.rank(rows) == expected, f"evaluation rank at n={n}"
    _ok("01 dimension counts 1, 2, 6 and full evaluation rank for n <= 3")


def test_criterion_02_noncommutative_infinite_at_4():
    target = wang_target()
    w = wang_block_matrix(4, target)
    assert check_magic(w).verdict == VERIFIED
    pres = magic_presentation(4)
    comm = pres.gen(1, 1) * pres.gen(3, 3) - pres.gen(3, 3) * pres.gen(1, 1)
    image = wang_image(comm, 4, target)
    p = NCPoly.gen(target.alphabet, 0)
    q = NCPoly.gen(target.alphabet, 1)
    assert image == p * q - q * p and image
    dims = filtration_dimension(target, 10)
    # oracle: direct enumeration of words with no repeated adjacent letter
    oracle = []
    total = 0
    for length in range(11):
        total += sum(1 for word in itertools.product(range(2), repeat=length)
                     if all(word[i] != word[i + 1] for i in range(length - 1)))
        oracle.append(total)
    assert dims == oracle == [2 * d + 1 for d in range(11)]
    assert wang_witness(4, depth=10).verdict == VERIFIED
    _ok("02 size-4 noncommutativity witness and 2d+1 filtration growth")


def test_criterion_03_gram_diagonal_identity():
    for n in range(1, 6):
        rep = gram_diagonal_check(n)
        assert rep.verdict == VERIFIED, f"n={n}"
    _ok("03 xt*x = diag(column sums) over semi-magic, n = 1..5")


def test_criterion_04_three_families_imply_fourth_core():
    subsets = list(itertools.combinations(ALL_FAMILIES, 3))
    assert len(subsets) == 4
    for n in (2, 3, 4):
        for families in subsets:
            rep = matrix_inverse_from_families(n, families)
            assert rep.verdict == VERIFIED, (n, families)
    _ok("04 transpose-product identity from every 3-family subset, n = 2..4")


def test_criterion_05_hopf_axiom_suite(magic):
    for n in range(1, 5):
        rep = verify_hopf_axioms(magic[n], cap=8)
        assert rep.verdict == VERIFIED, f"n={n}"
        s2 = [c for c in rep.identities if c.label.startswith("S^2")]
        assert len(s2) == n * n and all(c.reduced_to_zero for c in s2)
    _ok("05 Hopf axioms (well-definedness, coassociativity, counit, antipode, S^2) n = 1..4 at cap 8")


def test_criterion_06_coaction_equivalence_both_directions(magic, completed_magic):
    for n in range(1, 5):
        pres = magic[n]
        x = pres.generating_matrix(completed_magic[n].system)
        rep = coaction_algebra_map_check(x, pres)
        assert rep.verdict == VERIFIED, f"n={n}"
    hopf = group_algebra_presentation(2)
    ambient = complete(hopf.system, 4).system
    g = NCPoly.gen(ambient.alphabet, 0)
    zero = NCPoly.zero(ambient.alphabet)
    counter = MatrixOverAlgebra(2, ((g, zero), (zero, g)), ambient)
    rep = coaction_algebra_map_check(counter, hopf)
    assert rep.verdict == REFUTED
    unit_rows = [c for c in rep.identities if c.label.startswith("beta(1)")]
    assert unit_rows and all(not c.reduced_to_zero for c in unit_rows)
    assert rep.details["semi_magic"] == REFUTED
    assert rep.identities[-1].label.startswith("equivalence")
    assert rep.identities[-1].reduced_to_zero
    _ok("06 coaction/semi-magic equivalence on instances incl. diag(g,g) counterexample")


def test_criterion_07_sn_quotient_suite():
    for n in range(1, 6):
        assert sn_relations_check(n).verdict == VERIFIED, f"relations at n={n}"
        assert e_sigma_product_check(n).verdict == VERIFIED, f"e_sigma at n={n}"
    pres = magic_presentation(4)
    witness = pres.gen(1, 1) * pres.gen(3, 3) - pres.gen(3, 3) * pres.gen(1, 1)
    assert not to_sn_function(witness, 4)
    assert wang_image(witness, 4)
    rep = sn_isomorphism_check(4)
    assert rep.verdict == VERIFIED
    _ok("07 S_n quotient: relations die, indicator products hold (n <= 5), size-4 kernel witness")


def test_criterion_08_grading_law_exact():
    for n in range(1, 9):
        for G in abelian_groups_of_order(n):
            chars = characters(G)
            elems = G.elements()
            vec = {chi.exponents: tuple(chi(g) for g in elems) for chi in chars}
            for chi in chars:
                for psi in chars:
                    prod = tuple(x * y for x, y in
                                 zip(vec[chi.exponents], vec[psi.exponents]))
                    assert prod == vec[chi.mul(psi).exponents], \
                        (G.descriptor(), chi.exponents, psi.exponents)
    _ok("08 f_chi * f_psi = f_{chi psi} exactly, all |G| = n <= 8")


def test_criterion_09_classification_counts():
    expected = {4: 2, 5: 1, 6: 1, 8: 3}
    for n, count in expected.items():
        rep = classify_gradings(n, ergodic_only=True)
        assert len(rep.ergodic) == count, f"n={n}"
        assert rep.verdict == VERIFIED
    for n in range(1, 7):
        classified = transitive_abelian_subgroups(n, "classified")
        brute = transitive_abelian_subgroups(n, "brute_force")
        canon_c = sorted(canonical_conjugate(e, n) for _, e in classified)
        canon_b = sorted(canonical_conjugate(e, n) for _, e in brute)
        assert canon_c == canon_b, f"n={n}"
    _ok("09 ergodic grading counts 2,1,1,3 at n=4,5,6,8; brute-force agreement n <= 6")


def test_criterion_10_orbit_roundtrip():
    for n in range(1, 7):
        for partition in partitions_desc(n):
            pools = [abelian_groups_of_order(m) for m in partition]
            for choice in itertools.product(*pools):
                grading = grading_from_partition(partition, choice)
                assert verify_grading(grading).verdict == VERIFIED
                orb = orbit_decompose(grading)
                assert orb.partition == partition, (partition, choice)
                assert orb.k == len(partition)
    _ok("10 orbit decomposition round-trip over all partitions and group choices, n <= 6")


_CLI_SUITE = [
    ["present", "--n", "2"],
    ["complete", "--n", "2", "--cap", "6", "--basis-degree", "2"],
    ["verify-hopf", "--n", "3", "--cap", "8"],
    ["transpose-inverse", "--n", "2", "--families", "row-orth,row-sum,col-orth"],
    ["gram-diagonal", "--n", "3"],
    ["sn-image", "--n", "3"],
    ["iso-check", "--n", "3"],
    ["wang", "--n", "4", "--depth", "10"],
    ["coaction-check", "--counterexample"],
    ["classify", "--n", "5"],
    ["grade", "--blocks", "2,2", "--groups", "Z2,Z2"],
]

_EXPECTED_EXITS = [0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0]


def test_criterion_11_cli_determinism(tmp_path, capsys, monkeypatch):
    raw = {}
    for run_id in ("a", "b"):
        outdir = tmp_path / run_id
        outdir.mkdir()
        monkeypatch.setenv("QPALG_REPORT_DIR", str(outdir))
        for idx, argv in enumerate(_CLI_SUITE):
            code = cli_main(argv + ["--json", f"report{idx}.json"])
            capsys.readouterr()
            assert code == _EXPECTED_EXITS[idx], (argv, code)
            raw.setdefault(run_id, []).append(
                (outdir / f"report{idx}.json").read_bytes())
    for idx, (a, b) in enumerate(zip(raw["a"], raw["b"])):
        scrub = re.compile(rb'"wall_time_s": [-0-9.e]+')
        assert scrub.sub(b"T", a) == scrub.sub(b"T", b), \
            f"report {idx} differs between runs"
    _ok("11 byte-identical structured reports across consecutive runs (modulo wall time)")
