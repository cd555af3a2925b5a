import json

import pytest

from qpalg.cli import (EXIT_INCONCLUSIVE, EXIT_REFUTED, EXIT_USAGE,
                       EXIT_VERIFIED, main)
from qpalg.gradings import Grading, format_grading, grading_from_regular_abelian
from qpalg.groups import FiniteAbelianGroup
from qpalg.reports import (CertificateReport, IdentityCheck, INCONCLUSIVE,
                           REFUTED, VERIFIED)


def run(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_verdict_logic():
    ok = IdentityCheck("a", "p", True)
    fail = IdentityCheck("b", "p", False)
    soft = IdentityCheck("c", "p", False, inconclusive=True)
    assert CertificateReport.from_identities("x", [ok, ok]).verdict == VERIFIED
    assert CertificateReport.from_identities("x", [ok, fail]).verdict == REFUTED
    assert CertificateReport.from_identities("x", [ok, soft]).verdict == INCONCLUSIVE
    assert CertificateReport.from_identities("x", [fail, soft]).verdict == REFUTED
    assert CertificateReport.from_identities("x", []).verdict == INCONCLUSIVE


def test_verify_hopf_exit_zero(capsys):
    code, out, _ = run(["verify-hopf", "--n", "2", "--cap", "8"], capsys)
    assert code == EXIT_VERIFIED
    assert "overall: verified" in out


def test_wang_json_report(tmp_path, capsys):
    path = tmp_path / "wang.json"
    code, _, _ = run(["wang", "--n", "4", "--depth", "10", "--json", str(path)],
                     capsys)
    assert code == EXIT_VERIFIED
    payload = json.loads(path.read_text())
    assert payload["verdict"] == "verified"
    assert payload["reports"][0]["details"]["filtration"] == \
        [2 * d + 1 for d in range(11)]
    assert payload["command"][0] == "wang"


def test_report_dir_env(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("QPALG_REPORT_DIR", str(tmp_path))
    code, _, _ = run(["iso-check", "--n", "2", "--json", "iso.json"], capsys)
    assert code == EXIT_VERIFIED
    assert (tmp_path / "iso.json").exists()


def test_counterexample_exit_one(capsys):
    code, out, _ = run(["coaction-check", "--counterexample"], capsys)
    assert code == EXIT_REFUTED
    assert "overall: refuted_with_witness" in out


def test_broken_grading_exits_one(tmp_path, capsys):
    g = grading_from_regular_abelian(FiniteAbelianGroup((4,)))
    comps = dict(g.components)
    comps[(1,)], comps[(2,)] = comps[(2,)], comps[(1,)]
    broken = Grading(4, g.group, comps)
    path = tmp_path / "broken.grading"
    path.write_text(format_grading(broken))
    code, out, _ = run(["verify-grading", "--input", str(path)], capsys)
    assert code == EXIT_REFUTED
    assert "witness" in out


def test_truncated_completion_exits_two(capsys):
    code, out, _ = run(["complete", "--n", "4", "--cap", "4"], capsys)
    assert code == EXIT_INCONCLUSIVE
    assert "complete_up_to(4)" in out


def test_confluent_completion_exits_zero(capsys):
    code, out, _ = run(["complete", "--n", "2", "--cap", "6",
                        "--basis-degree", "2"], capsys)
    assert code == EXIT_VERIFIED
    assert "'1', 'u11'" in out


def test_usage_errors(capsys):
    assert run(["no-such-command"], capsys)[0] == EXIT_USAGE
    assert run([], capsys)[0] == EXIT_USAGE
    assert run(["verify-hopf"], capsys)[0] == EXIT_USAGE
    assert run(["classify", "--n", "40"], capsys)[0] == EXIT_USAGE
    assert run(["transpose-inverse", "--n", "3", "--families", "row-orth"],
               capsys)[0] == EXIT_USAGE
    assert run(["wang", "--n", "3"], capsys)[0] == EXIT_USAGE


@pytest.mark.parametrize("argv", [
    ["wang", "--n", "4", "--depth", "-1"],
    ["complete", "--n", "3", "--basis-degree", "-1"],
])
def test_negative_word_length_is_a_usage_error(argv, capsys):
    code, out, err = run(argv, capsys)
    assert code == EXIT_USAGE
    assert "non-negative" in err
    assert "overall:" not in out


def test_negative_basis_degree_fails_before_completion(capsys, monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("complete ran")
    monkeypatch.setattr("qpalg.cli.complete", never)
    code, out, err = run(["complete", "--n", "5", "--basis-degree", "-1"], capsys)
    assert code == EXIT_USAGE
    assert "non-negative" in err and "overall:" not in out


def test_unwritable_report_prints_no_verdict(tmp_path, capsys):
    blocker = tmp_path / "F"
    blocker.write_text("a regular file\n")
    code, out, err = run(["present", "--n", "1", "--json", str(blocker / "r.json")],
                         capsys)
    assert code == EXIT_USAGE
    assert "overall:" not in out and err.startswith("error:")
    assert blocker.read_text() == "a regular file\n"


@pytest.mark.parametrize("argv", [
    ["complete", "--input", "{missing}"],
    ["verify-grading", "--input", "{missing}"],
    ["grade", "--blocks", "2", "--groups", "Z2", "--save", "{missing}/g.grading"],
])
def test_unreadable_file_is_a_usage_error(argv, tmp_path, capsys):
    missing = str(tmp_path / "missing")
    code, _, err = run([a.format(missing=missing) for a in argv], capsys)
    assert code == EXIT_USAGE
    assert err.startswith("error:") and missing in err


def test_present_prints_presentation(capsys):
    code, out, _ = run(["present", "--n", "2"], capsys)
    assert code == EXIT_VERIFIED
    assert "alphabet: u11 u12 u21 u22" in out
    code, out, _ = run(["present", "--n", "2", "--semi"], capsys)
    assert code == EXIT_VERIFIED


def test_complete_from_presentation_file(tmp_path, capsys):
    path = tmp_path / "idem.pres"
    path.write_text("alphabet: p q\norder: deglex\n1*p.p - 1*p\n1*q.q - 1*q\n")
    code, out, _ = run(["complete", "--input", str(path), "--cap", "10"], capsys)
    assert code == EXIT_VERIFIED
    assert "confluent" in out


def test_sn_image_poly_file(tmp_path, capsys):
    path = tmp_path / "poly.txt"
    path.write_text("1*u11.u33 - 1*u33.u11\n")
    code, out, _ = run(["sn-image", "--n", "4", "--poly", str(path)], capsys)
    assert code == EXIT_VERIFIED
    assert "zero: True" in out


def test_grade_save_and_orbit(tmp_path, capsys):
    path = tmp_path / "g.grading"
    code, _, _ = run(["grade", "--blocks", "3,2", "--groups", "Z3,Z2",
                      "--save", str(path)], capsys)
    assert code == EXIT_VERIFIED
    code, out, _ = run(["orbit-decompose", "--input", str(path)], capsys)
    assert code == EXIT_VERIFIED
    assert "partition (3, 2)" in out


def test_classify_text_output(capsys):
    code, out, _ = run(["classify", "--n", "4", "--ergodic-only"], capsys)
    assert code == EXIT_VERIFIED
    assert "Z2xZ2" in out and "Z4" in out


def test_transpose_inverse_cli(capsys):
    code, out, _ = run(["transpose-inverse", "--n", "3", "--families",
                        "row-orth,row-sum,col-orth"], capsys)
    assert code == EXIT_VERIFIED
    assert "x*xt" in out


def test_gram_diagonal_cli(capsys):
    assert run(["gram-diagonal", "--n", "3"], capsys)[0] == EXIT_VERIFIED


def test_coaction_check_generating_matrix(capsys):
    assert run(["coaction-check", "--n", "2"], capsys)[0] == EXIT_VERIFIED
