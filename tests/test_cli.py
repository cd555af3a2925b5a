import contextlib
import hashlib
import io
import json

import pytest
from hypothesis import given, settings, strategies as st

from qpalg import cli
from qpalg.cli import (EXIT_INCONCLUSIVE, EXIT_REFUTED, EXIT_USAGE,
                       EXIT_VERIFIED, main)
from qpalg.gradings import Grading, format_grading, grading_from_partition
from qpalg.groups import FiniteAbelianGroup
from qpalg.qperm import SN_MAX_N
from qpalg.reports import (CertificateReport, IdentityCheck, INCONCLUSIVE,
                           REFUTED, VERIFIED, merge_verdicts)
from qpalg.rewrite import WORD_ENUMERATION_MAX_LETTERS


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


def test_merged_verdicts_follow_the_row_rule():
    """A merge of reports reads as a certificate of rows does: nothing
    merged is inconclusive, never a vacuous "verified"."""
    assert merge_verdicts([]) == INCONCLUSIVE
    assert merge_verdicts(iter([])) == INCONCLUSIVE
    assert merge_verdicts([VERIFIED, VERIFIED]) == VERIFIED
    assert merge_verdicts([VERIFIED, INCONCLUSIVE]) == INCONCLUSIVE
    assert merge_verdicts([INCONCLUSIVE, REFUTED, VERIFIED]) == REFUTED


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
    g = grading_from_partition((4,), (FiniteAbelianGroup((4,)),))
    comps = dict(g.components)
    comps[(1,)], comps[(2,)] = comps[(2,)], comps[(1,)]
    broken = Grading(4, g.group, comps)
    path = tmp_path / "broken.grading"
    path.write_text(format_grading(broken))
    code, out, _ = run(["verify-grading", "--input", str(path)], capsys)
    assert code == EXIT_REFUTED
    assert "witness" in out


def test_any_spelling_of_the_identity_reads_as_e(tmp_path, capsys, monkeypatch):
    # a free-product identity written b0:0 names the element e, so the file
    # verifies and reports as the one that writes e
    monkeypatch.chdir(tmp_path)
    assert run(["grade", "--blocks", "2,1", "--groups", "Z2,Z1", "--save", "e.grading"],
               capsys)[0] == EXIT_VERIFIED
    text = (tmp_path / "e.grading").read_text()
    assert "component e: (1,1,0)\n" in text
    (tmp_path / "b0.grading").write_text(text.replace("component e:", "component b0:0:", 1))
    reports = []
    for name in ("e", "b0"):
        code, out, _ = run(["verify-grading", "--input", f"{name}.grading",
                            "--json", f"{name}.json"], capsys)
        assert code == EXIT_VERIFIED and "ergodic: False" in out
        report = json.loads((tmp_path / f"{name}.json").read_text())
        for key in ("command", "config", "wall_time_s"):
            del report[key]
        reports.append(report)
    assert reports[0] == reports[1]


def test_truncated_completion_exits_two(capsys):
    code, out, _ = run(["complete", "--n", "4", "--cap", "4"], capsys)
    assert code == EXIT_INCONCLUSIVE
    assert "complete_up_to(4)" in out


def test_confluent_completion_exits_zero(capsys):
    code, out, _ = run(["complete", "--n", "2", "--cap", "6",
                        "--basis-degree", "2"], capsys)
    assert code == EXIT_VERIFIED
    assert "'1', 'u11'" in out


def test_complete_report_has_one_row(tmp_path, capsys):
    """A confluent run pops every pair it pushed; a truncated one stops early."""
    for cap, code, verdict, row in ((8, EXIT_VERIFIED, "verified", (True, False)),
                                    (4, EXIT_INCONCLUSIVE, "inconclusive", (False, True))):
        path = tmp_path / f"c{cap}.json"
        assert run(["complete", "--n", "4", "--cap", str(cap), "--json", str(path)],
                   capsys)[0] == code
        report = json.loads(path.read_text())["reports"][0]
        assert report["verdict"] == verdict
        [identity] = report["identities"]
        assert identity["label"] == f"critical pairs resolve up to degree {cap}"
        assert (identity["reduced_to_zero"], identity["inconclusive"]) == row
        pairs = report["details"]["critical_pairs"]
        popped = pairs["stale"] + pairs["reduced"]
        assert pairs["pushed"] == popped if cap == 8 else pairs["pushed"] > popped
        assert 0 < pairs["reduced_to_zero"] <= pairs["reduced"]


def test_cap_below_the_rule_degree_is_a_usage_error(capsys):
    # the lower rung never raises the cap past what was asked for
    code, out, err = run(["verify-hopf", "--n", "3", "--cap", "1"], capsys)
    assert code == EXIT_USAGE and out == ""
    assert "degree cap 1 is below the maximal rule degree 2" in err


def test_usage_errors(capsys):
    assert run(["no-such-command"], capsys)[0] == EXIT_USAGE
    assert run([], capsys)[0] == EXIT_USAGE
    assert run(["verify-hopf"], capsys)[0] == EXIT_USAGE
    assert run(["classify", "--n", "40"], capsys)[0] == EXIT_USAGE
    assert run(["transpose-inverse", "--n", "3", "--families", "row-orth"],
               capsys)[0] == EXIT_USAGE
    assert run(["wang", "--n", "3"], capsys)[0] == EXIT_USAGE
    assert run(["iso-check", "--n", "3", "--cap", "8"], capsys)[0] == EXIT_USAGE


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


_FREE_PRODUCT_HEAD = "n: 3\nblocks: 1,2 | 3\ngroups: Z2 | Z1\ncomponent e: (1,1,0)\n"


@pytest.mark.parametrize("command, text", [
    ("verify-grading", _FREE_PRODUCT_HEAD + "component b7:1: (1,-1,0)\n"),
    ("verify-grading", "n: 3\nblocks: 1,2 | 3\ngroups: Z2\n"
                       "component e: (1,1,1)\ncomponent b0:1: (1,-1,0)\n"),
    ("verify-grading", "n: 4\nblocks: 1,2 | 3\ngroups: Z2 | Z1\n"
                       "component e: (1,1,0,0)\ncomponent e: (0,0,1,0)\n"
                       "component b0:1: (1,-1,0,0)\n"),
    ("verify-grading", _FREE_PRODUCT_HEAD + "component b0:1: (1/0,-1,0)\n"),
    ("orbit-decompose", _FREE_PRODUCT_HEAD + "component b0:1: (1,-1,1/0)\n"),
    ("verify-grading", "n: 2\ngroup: Z2\ncomponent e: (1,1)\ncomponent 1: (z0,-1)\n"),
    ("verify-grading", "n: 2\ngroup: Z7\nblocks: 1 | 2\ngroups: Z1 | Z1\n"
                       "component e: (1,0)\ncomponent e: (0,1)\n"),
    ("verify-grading", "n: 2\ngroup: Z2\ncomponent e: (1,1)\ncomponent 1: (z25601,-1)\n"),
    ("verify-grading", "n: 2\ngroup: Z2\ncomponent e: (1,1)\ncomponent 1: (z97,z89)\n"),
    ("orbit-decompose", _FREE_PRODUCT_HEAD + "component b0:1: (z97+z89,-1,0)\n"),
    ("complete", "alphabet: p q\norder: deglex\n1/0*p.p - 1*p\n"),
    ("complete", "1*p.p - 1*p\nalphabet: p q\n"),
    ("complete", "alphabet: p q\norder: lex\n1*p.p - 1*p\n"),
    ("complete", "alphabet: p q\norder: deglex\n1*p.r - 1*p\n"),
    ("sn-image", "1/0*u11.u22\n"),
    ("sn-image", "1*u11.u99\n"),
])
def test_malformed_input_is_a_usage_error(command, text, tmp_path, capsys):
    path = tmp_path / "input.txt"
    path.write_text(text)
    option = ["--n", "2", "--poly"] if command == "sn-image" else ["--input"]
    code, out, err = run([command] + option + [str(path)], capsys)
    assert code == EXIT_USAGE
    assert err.startswith("error:") and "overall:" not in out


# well-formed inputs for the byte-level mutations below; each is small, so
# no mutation of two bytes makes a run costly
_GARBAGE_SEEDS = {
    "grading": "n: 5\nblocks: 1,2,3 | 4,5\ngroups: Z3 | Z2\n"
               "component e: (1,1,1,0,0)\ncomponent e: (0,0,0,1,1)\n"
               "component b0:1: (1,z3,-1-z3,0,0)\ncomponent b0:2: (1,-1-z3,z3,0,0)\n"
               "component b1:1: (0,0,0,1,-1)\n",
    "presentation": "alphabet: p q\norder: deglex\n1*p.p - 1*p\n1*q.q - 1*q\n"
                    "1*p.q.p - 1/2*p\n",
    "polynomial": "1*u11.u22 - 1/2*u22.u11 + 3\n",
}
_MUTATIONS = st.lists(st.tuples(st.sampled_from(["delete", "insert", "replace"]),
                                st.integers(0, 200), st.integers(0, 255)),
                      min_size=1, max_size=2)


def _mutate(data: bytes, mutations) -> bytes:
    for op, pos, byte in mutations:
        if op == "insert":
            at = pos % (len(data) + 1)
            data = data[:at] + bytes([byte]) + data[at:]
        elif data:
            at = pos % len(data)
            data = data[:at] + (bytes([byte]) if op == "replace" else b"") + data[at + 1:]
    return data


@pytest.mark.parametrize("seed, argv", [
    ("grading", ["verify-grading", "--input"]),
    ("grading", ["orbit-decompose", "--input"]),
    ("presentation", ["complete", "--cap", "4", "--input"]),
    ("polynomial", ["sn-image", "--n", "2", "--poly"]),
])
@settings(max_examples=25, deadline=None)
@given(mutations=_MUTATIONS, printable=st.booleans())
def test_garbage_input_never_tracebacks(tmp_path_factory, seed, argv, mutations, printable):
    data = _GARBAGE_SEEDS[seed].encode()
    if printable:               # keep the bytes to the file's own, so the text still decodes
        alphabet = sorted(set(data))
        mutations = [(op, pos, alphabet[byte % len(alphabet)]) for op, pos, byte in mutations]
    path = tmp_path_factory.getbasetemp() / f"garbage-{seed}.txt"
    path.write_bytes(_mutate(data, mutations))
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv + [str(path)])
    assert code in (EXIT_VERIFIED, EXIT_REFUTED, EXIT_INCONCLUSIVE, EXIT_USAGE)


@pytest.mark.parametrize("command", ["verify-grading", "orbit-decompose"])
@pytest.mark.parametrize("n", [-2, 0])
def test_non_positive_grading_size_is_a_usage_error(command, n, tmp_path, capsys):
    path = tmp_path / "empty.grading"
    path.write_text(f"n: {n}\ngroup: Z1\n")
    code, out, err = run([command, "--input", str(path)], capsys)
    assert code == EXIT_USAGE
    assert err.startswith("error:") and "n must be positive" in err
    assert "overall:" not in out


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


def test_sn_image_renders_64_of_120_values(tmp_path, capsys):
    path, report = tmp_path / "one.txt", tmp_path / "one.json"
    path.write_text("1\n")
    code, _, _ = run(["sn-image", "--n", "5", "--poly", str(path), "--json", str(report)], capsys)
    image = json.loads(report.read_text())["reports"][0]["details"]["image"]
    assert code == EXIT_VERIFIED and image.count("*e[") == 64
    assert image.startswith("1*e[id] + 1*e[(4 5)] + 1*e[(3 4)] + ")
    assert image.endswith(" + 1*e[(1 3 2 4 5)] + ... (120 supported permutations)")
    assert hashlib.sha256(image.encode()).hexdigest() == \
        "116bde0b146710f5dffec34f0dd1148b173d9eb48b1aa75c8bf0b69fd736c2a5"


def test_sn_image_poly_builds_no_presentation(tmp_path, capsys, monkeypatch):
    def no_presentation(n):
        raise AssertionError("sn-image --poly only needs the alphabet")

    monkeypatch.setattr(cli, "magic_presentation", no_presentation)
    path = tmp_path / "poly.txt"
    path.write_text("1*u11.u22 - 1*u22.u11\n")
    code, out, _ = run(["sn-image", "--n", "2", "--poly", str(path)], capsys)
    assert code == EXIT_VERIFIED and "zero: True" in out
    code, _, err = run(["sn-image", "--n", "0", "--poly", str(path)], capsys)
    assert code == EXIT_USAGE and "matrix size must be positive" in err


@pytest.mark.parametrize("command", ["sn-image", "iso-check", "sn-image --poly"])
def test_evaluation_on_s_n_is_a_usage_error_above_its_cap(command, tmp_path, capsys):
    path = tmp_path / "poly.txt"
    path.write_text("1*u11\n")
    argv = command.split() + ["--n", str(SN_MAX_N + 1)]
    if "--poly" in argv:
        argv.insert(argv.index("--poly") + 1, str(path))
    code, out, err = run(argv, capsys)
    assert code == EXIT_USAGE
    assert err.startswith("error:") and f"capped at n = {SN_MAX_N}" in err
    assert "overall:" not in out


def test_word_enumeration_stays_below_its_cap(capsys):
    # `wang --n 4` stores two words of each length 1..depth: depth * (depth + 1) letters
    assert 999 * 1000 <= WORD_ENUMERATION_MAX_LETTERS
    code, out, _ = run(["wang", "--n", "4", "--depth", "999"], capsys)
    assert code == EXIT_VERIFIED and "overall: verified" in out


@pytest.mark.parametrize("argv", [
    "wang --n 4 --depth 1000",             # 1000 * 1001 letters
    "complete --n 4 --basis-degree 31",    # degree 30 stores 903 185 letters
])
def test_word_enumeration_is_a_usage_error_above_its_cap(argv, capsys):
    code, out, err = run(argv.split(), capsys)
    assert code == EXIT_USAGE
    assert err.startswith("error:")
    assert f"capped at {WORD_ENUMERATION_MAX_LETTERS} stored letters" in err
    assert "overall:" not in out


# block [3,4] is graded by the conjugate b0:1*b1:1*b0:1 of the letter b1:1
CONJUGATE_GRADING = ("n: 4\nblocks: 1,2 | 3,4\ngroups: Z2 | Z2\n"
                     "component e: (1,1,0,0) (0,0,1,1)\n"
                     "component b0:1: (1,-1,0,0)\n"
                     "component b0:1*b1:1*b0:1: (0,0,1,-1)\n")


def test_conjugate_of_a_letter_has_finite_order(tmp_path, capsys):
    path = tmp_path / "conjugate.grading"
    path.write_text(CONJUGATE_GRADING)
    code, out, _ = run(["verify-grading", "--input", str(path)], capsys)
    assert code == EXIT_VERIFIED
    assert "identities: 21/21 reduced to zero" in out and "verdict: verified" in out


def test_conjugate_block_is_graded_by_the_letter_group(tmp_path, capsys):
    path = tmp_path / "conjugate.grading"
    path.write_text(CONJUGATE_GRADING)
    report = tmp_path / "orbit.json"
    code, out, _ = run(["orbit-decompose", "--input", str(path), "--json", str(report)],
                       capsys)
    assert code == EXIT_VERIFIED
    assert "block [1,2]: Z2\n" in out and "block [3,4]: Z2\n" in out
    restriction = json.loads(report.read_text())["reports"][-1]
    assert restriction["claim"] == "grading of K^2 by Z2"
    assert restriction["verdict"] == VERIFIED
    assert restriction["details"]["faithful"] is True
    assert restriction["details"]["ergodic"] is True


def test_grade_save_and_orbit(tmp_path, capsys):
    path = tmp_path / "g.grading"
    code, _, _ = run(["grade", "--blocks", "3,2", "--groups", "Z3,Z2",
                      "--save", str(path)], capsys)
    assert code == EXIT_VERIFIED
    code, out, _ = run(["orbit-decompose", "--input", str(path)], capsys)
    assert code == EXIT_VERIFIED
    assert "partition (3, 2)" in out
    assert "block [1,2,3]: Z3\n" in out and "block [4,5]: Z2\n" in out
    # the restriction reports follow the orbit report, in block order
    assert out.index("block [4,5]") < out.index("grading of K^3 by Z3") < \
        out.index("grading of K^2 by Z2")


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


# The CLI suite pinned by test_golden_cli_reports, run in this order in one
# directory (orbit-decompose and verify-grading read the file that the
# grade command before them saves).
_GOLDEN_SUITE = [
    ["present", "--n", "2"],
    ["complete", "--n", "3"],
    ["complete", "--n", "4"],
    ["verify-hopf", "--n", "1"],
    ["verify-hopf", "--n", "2"],
    ["verify-hopf", "--n", "3"],
    ["verify-hopf", "--n", "4"],
    ["verify-hopf", "--semi", "--n", "3"],
    ["verify-hopf", "--semi", "--n", "4"],
    ["verify-hopf", "--n", "5"],
    ["verify-hopf", "--n", "6"],
    ["transpose-inverse", "--n", "3", "--families", "row-orth,row-sum,col-orth"],
    ["gram-diagonal", "--n", "3"],
    ["sn-image", "--n", "3"],
    ["iso-check", "--n", "3"],
    ["iso-check", "--n", "4"],
    ["wang", "--n", "4", "--depth", "10"],
    ["coaction-check", "--n", "2"],
    ["coaction-check", "--n", "3"],
    ["coaction-check", "--n", "4"],
    ["coaction-check", "--n", "5"],
    ["coaction-check", "--counterexample"],
    ["classify", "--n", "6"],
    ["grade", "--blocks", "3,2", "--groups", "Z3,Z2", "--save", "g.grading"],
    ["orbit-decompose", "--input", "g.grading"],
    ["verify-grading", "--input", "g.grading"],
    ["classify", "--n", "8"],
    ["grade", "--blocks", "4,2,2", "--groups", "Z2xZ2,Z2,Z2"],
    ["classify", "--n", "4", "--ergodic-only"],
    ["grade", "--blocks", "6", "--groups", "Z6", "--save", "one.grading"],
    ["verify-grading", "--input", "one.grading"],
    ["orbit-decompose", "--input", "one.grading"],
    ["grade", "--blocks", "4", "--groups", "Z2xZ2"],
]

# sha256 over the exit code, the stdout and the --json report without
# wall_time_s, one per command of _GOLDEN_SUITE.
_GOLDEN_SHA256 = {
    "present --n 2":
        "bca9f6516ea77e309b43039360eed98214ec6ceb322e54ebd47ea7fe14e1aa42",
    "complete --n 3":
        "3ca810b9256e870213ed1ec91567a1bc467421ccadd3288fc75932caa5761e65",
    "complete --n 4":
        "0b31e9f8c3f2d2cb8e061e1a02b456e6857b6797f5c42ce4ca186ce7da3ce99e",
    "verify-hopf --n 1":
        "e62ef64739aab0d512b878bd2f66da4e9aaf94192653e0e418a23864829fbcd9",
    "verify-hopf --n 2":
        "f33032403a2343c4945b96ccbdae8c942807599c82abf6458115d535661a27b5",
    "verify-hopf --n 3":
        "d155a4c78cdaf000fe279f662b108b7e10a54ba247ca0b1ddcc6948dfa47e951",
    "verify-hopf --n 4":
        "da4d8e0420c656b3453d44746dbc7c0bf2308477f496d7851a53b8acd599fb10",
    "verify-hopf --semi --n 3":
        "118696bba2e985584816d240a5996a480f5685b9f53eb62d05a6236b8ddb7aa1",
    "verify-hopf --semi --n 4":
        "c6376051531c84423bfa11ef08c3c720f4e4f03b8a224feee9a4ec8cac4b6c4b",
    "verify-hopf --n 5":
        "a5f624832c182d3846f05a83e05f0c88fb22b698a1ff4489682bf3a26493ae36",
    "verify-hopf --n 6":
        "24916bc9d61d51115d08cc361eba0c7da88232c1241ce78bb97b877f79096cd2",
    "transpose-inverse --n 3 --families row-orth,row-sum,col-orth":
        "0fd422a137a4c91deb8c7747b3c071697c9e85b37c0d70d42e27ec37519c843c",
    "gram-diagonal --n 3":
        "cb5f3defbc3dc4fe8010656d6f4a887950dda770b492ef2e1a764aa25ec8ba72",
    "sn-image --n 3":
        "e1bdce169c91db90c43db7946eff8638d70bbfa97293d05482fd20230cecda7a",
    "iso-check --n 3":
        "1e7fa53b30e7da821c846780ba9ce358f3e7d3efbcd834369d5a23fcee4b8c23",
    "iso-check --n 4":
        "0708184908243fdd6288caac16895fa966f2f06e2481c65d39bbe93a1cc17774",
    "wang --n 4 --depth 10":
        "b3cf864f2bab58b388e511f21055c4b558fe619f7248dde6642532a09a29e32f",
    "coaction-check --n 2":
        "5729dde6620086fb56ae49d9062ce9dcb2a2eea40f7935669d993818d9cffc21",
    "coaction-check --n 3":
        "fdbb8c349680040258357127792fb28f85fa6fbee95573b2202c56f692d52090",
    "coaction-check --n 4":
        "52d337fa239cfd915db85bd08121af464ba7f7103ba8431c18797e3130addb96",
    "coaction-check --n 5":
        "5c5585d741358362f0178a6555e4184dec592e0e2def03a21e3e359b481a3ce0",
    "coaction-check --counterexample":
        "4bb7f98d0bd278916116bc76950e7d2aefe1852e9c91c51725ff4fef7b03d6fc",
    "classify --n 6":
        "4e4f4da9223dbdced100029b3fcbd33e6de6ec7ed4d5b231ea69cdf3c3ca9fb1",
    "grade --blocks 3,2 --groups Z3,Z2 --save g.grading":
        "6e1daacc1713dc2b977d6d7df47a8c7e4376c070e849e3b2af42e0e95d9afdd9",
    "orbit-decompose --input g.grading":
        "e7dfd8fc68e569bad7217d5ed618e9aac2d203c7334dced388994b63d1f5c4bb",
    "verify-grading --input g.grading":
        "770abe60a39e79b2c62754a19068350124666d3e10d220aea64e987a41355b71",
    "classify --n 8":
        "c4135fcb66fdc3705c58eb8db846acfca1af75d75689daf5aa44f2eaae5ed923",
    "grade --blocks 4,2,2 --groups Z2xZ2,Z2,Z2":
        "492a1a29c9f61947e006a7abcec5fb12ef54790338717d930c5aedea16c49dfb",
    "classify --n 4 --ergodic-only":
        "cf80ab7f306c981524a91dec4006bf4a288df62849476f9b184b9ae2e476af76",
    "grade --blocks 6 --groups Z6 --save one.grading":
        "45cdaa3fbed4c7e56cd192903c301d61d9f4368d2c1b6774c73e3c6901ef6169",
    "verify-grading --input one.grading":
        "afa7e791d6969df9216ab7d3b6c1b14842d8bffa43d57571216c5f277b67ba18",
    "orbit-decompose --input one.grading":
        "1caee3939a190b1afd73f7613fb03f0c70f0324ed8eeba2f2e2ea9879bfa5024",
    "grade --blocks 4 --groups Z2xZ2":
        "b67202103d61e39b45b189e3e6536d4439e8090d95839de2ddca8a246cbf4ffb",
}


def _golden_digests(capsys) -> dict:
    digests = {}
    for argv in _GOLDEN_SUITE:
        code, out, _ = run(argv + ["--json", "r.json"], capsys)
        with open("r.json") as fh:
            report = json.load(fh)
        del report["wall_time_s"]
        blob = f"{code}\n{out}\n{json.dumps(report, sort_keys=True)}"
        digests[" ".join(argv)] = hashlib.sha256(blob.encode()).hexdigest()
    return digests


def test_golden_cli_reports(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("QPALG_REPORT_DIR", raising=False)
    assert _golden_digests(capsys) == _GOLDEN_SHA256
