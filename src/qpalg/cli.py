"""Command-line frontend for the verifiers, constructions and classifications.

Exit codes: 0 = verified, 1 = refuted (witness in the report),
2 = inconclusive (degree truncation), 64 = usage or cost-guard error,
malformed input or a file that cannot be read or written.
--json writes the structured run report to a file (relative paths resolve
against $QPALG_REPORT_DIR when set); a human-readable summary then goes to
standard output, so a report that cannot be written prints no verdict.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from .gradings import (classify_gradings, format_grading, grading_from_partition,
                       orbit_decompose, parse_grading, verify_grading)
from .groups import parse_group_descriptor
from .ncalg import NCPoly, parse_poly
from .qperm import (ALL_FAMILIES, MatrixOverAlgebra, coaction_algebra_map_check,
                    completion_rungs, gram_diagonal_check, group_algebra_presentation,
                    magic_presentation, matrix_inverse_from_families,
                    render_on_sn, semi_magic_presentation, sn_isomorphism_check,
                    sn_relations_check, to_sn_function, u_alphabet,
                    verify_hopf_axioms, wang_witness)
from .reports import (INCONCLUSIVE, REFUTED, VERIFIED, CertificateReport,
                      IdentityCheck, RunReport, merge_verdicts)
from .rewrite import (CONFLUENT, RewriteSystem, complete, format_presentation,
                      irreducible_words_by_length, parse_presentation)

EXIT_VERIFIED = 0
EXIT_REFUTED = 1
EXIT_INCONCLUSIVE = 2
EXIT_USAGE = 64

_EXIT_BY_VERDICT = {VERIFIED: EXIT_VERIFIED, REFUTED: EXIT_REFUTED,
                    INCONCLUSIVE: EXIT_INCONCLUSIVE}


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="qpalg", description=__doc__)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", metavar="FILE",
                        help="write the structured run report to FILE")
    sub = parser.add_subparsers(dest="command", metavar="COMMAND",
                                parser_class=_Parser)

    def add_parser(name, **kwargs):
        return sub.add_parser(name, parents=[common], **kwargs)

    p = add_parser("present", help="print a magic/semi-magic presentation")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--semi", action="store_true", help="row families only")

    p = add_parser("complete", help="run critical-pair completion")
    p.add_argument("--n", type=int, help="magic presentation of this size")
    p.add_argument("--semi", action="store_true")
    p.add_argument("--input", metavar="FILE", help="presentation file instead of --n")
    p.add_argument("--cap", type=int, default=8)
    p.add_argument("--basis-degree", type=int, default=None,
                   help="also list irreducible words up to this length")

    p = add_parser("verify-hopf", help="verify bialgebra/Hopf axioms")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--semi", action="store_true")
    p.add_argument("--cap", type=int, default=8)

    p = add_parser("transpose-inverse",
                       help="three relation families force x*xt = I or xt*x = I")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--families", required=True,
                   help=f"three of: {','.join(ALL_FAMILIES)}")

    p = add_parser("gram-diagonal",
                       help="xt*x = diag(column sums) over the semi-magic presentation")
    p.add_argument("--n", type=int, required=True)

    p = add_parser("sn-image",
                       help="evaluate u-polynomials on S_n (default: all relations)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--poly", metavar="FILE", help="polynomial file to evaluate")

    p = add_parser("iso-check",
                       help="S_n quotient: dimension/rank for n<=3, kernel witness for n>=4")
    p.add_argument("--n", type=int, required=True)

    p = add_parser("wang", help="noncommutativity/infinite-dimension certificate")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--depth", type=int, default=10)

    p = add_parser("coaction-check",
                       help="coaction/semi-magic equivalence on an instance")
    p.add_argument("--n", type=int)
    p.add_argument("--counterexample", action="store_true",
                   help="run the diag(g,g) counterexample over K[Z2]")

    p = add_parser("classify", help="classify gradings of K^n")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--ergodic-only", action="store_true")

    p = add_parser("grade", help="construct and verify a partition grading")
    p.add_argument("--blocks", required=True, help="comma-separated block sizes, e.g. 3,2")
    p.add_argument("--groups", required=True, help="comma-separated descriptors, e.g. Z3,Z2")
    p.add_argument("--save", metavar="FILE", help="write the grading file")

    p = add_parser("orbit-decompose", help="orbit decomposition of a grading file")
    p.add_argument("--input", metavar="FILE", required=True)

    p = add_parser("verify-grading", help="verify a grading file")
    p.add_argument("--input", metavar="FILE", required=True)

    return parser


def _resolve_report_path(path: str) -> str:
    base = os.environ.get("QPALG_REPORT_DIR")
    if base and not os.path.isabs(path):
        return os.path.join(base, path)
    return path


def _emit(args, argv, config, reports, verdict, started, extra_text=None) -> int:
    out = []
    if extra_text:
        out.append(extra_text.rstrip("\n"))
    for rep in reports:
        out.extend(rep.summary_lines())
        out.append("")
    out.append(f"overall: {verdict}")
    if args.json:   # written first, so a failed write prints no verdict
        run = RunReport(command=list(argv), config=config, reports=reports,
                        verdict=verdict, wall_time_s=round(time.time() - started, 6))
        path = _resolve_report_path(args.json)
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(path, "w") as fh:
            json.dump(run.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")
    print("\n".join(out))
    return _EXIT_BY_VERDICT[verdict]


def _presentation(args):
    if args.n is None:
        raise UsageError("--n is required")
    return semi_magic_presentation(args.n) if args.semi else magic_presentation(args.n)


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = _build_parser()
    started = time.time()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            raise UsageError("a subcommand is required (see --help)")
        return _dispatch(args, argv, started)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def _dispatch(args, argv, started) -> int:
    cmd = args.command

    if cmd == "present":
        pres = _presentation(args)
        text = format_presentation(pres.alphabet, [p for _, p in pres.relations])
        config = {"n": args.n, "semi": args.semi,
                  "relations": len(pres.relations),
                  "interreduced_rules": len(pres.system.rules)}
        return _emit(args, argv, config, [], VERIFIED, started, extra_text=text)

    if cmd == "complete":
        if args.basis_degree is not None and args.basis_degree < 0:
            raise UsageError("--basis-degree must be non-negative")
        if args.input:
            with open(args.input) as fh:
                alphabet, relations = parse_presentation(fh.read())
            system = RewriteSystem.from_relations(alphabet, relations)
            source = args.input
        else:
            pres = _presentation(args)
            system = pres.system
            source = f"{'semi-magic' if args.semi else 'magic'} n={args.n}"
        result = complete(system, args.cap)
        payload = result.to_dict()
        payload["source"] = source
        payload["critical_pairs"] = dict(result.critical_pairs)
        payload["memo_words"] = dict(result.memo_words)
        if args.basis_degree is not None:
            levels = irreducible_words_by_length(result.system, args.basis_degree)
            payload["irreducible_words"] = [
                ".".join(result.system.alphabet.names[i] for i in w) or "1"
                for level in levels for w in level]
        row = IdentityCheck(f"critical pairs resolve up to degree {args.cap}",
                            f"{len(result.system.rules)} rules, {result.system.status_label()}",
                            result.status == CONFLUENT, inconclusive=result.status != CONFLUENT)
        report = CertificateReport.from_identities(
            f"completion of {source} at cap {args.cap}", [row], details=payload)
        config = {"cap": args.cap, "source": source}
        return _emit(args, argv, config, [report], report.verdict, started)

    if cmd == "verify-hopf":
        pres = _presentation(args)
        report = verify_hopf_axioms(pres, cap=args.cap)
        config = {"n": args.n, "semi": args.semi, "cap": args.cap}
        return _emit(args, argv, config, [report], report.verdict, started)

    if cmd == "transpose-inverse":
        families = tuple(f.strip() for f in args.families.split(","))
        report = matrix_inverse_from_families(args.n, families)
        config = {"n": args.n, "families": list(families)}
        return _emit(args, argv, config, [report], report.verdict, started)

    if cmd == "gram-diagonal":
        report = gram_diagonal_check(args.n)
        return _emit(args, argv, {"n": args.n}, [report], report.verdict, started)

    if cmd == "sn-image":
        n = args.n
        if args.poly:
            alphabet = u_alphabet(n)
            with open(args.poly) as fh:
                poly = parse_poly(fh.read().strip(), alphabet)
            image = to_sn_function(poly, n)
            report = CertificateReport(
                claim=f"S_{n} image of {poly.render()}",
                identities=[], verdict=VERIFIED,
                details={"image": render_on_sn(image, limit=64), "zero": not image})
            return _emit(args, argv, {"n": n, "poly": args.poly}, [report],
                         VERIFIED, started)
        report = sn_relations_check(n)
        return _emit(args, argv, {"n": n}, [report], report.verdict, started)

    if cmd == "iso-check":
        report = sn_isomorphism_check(args.n)
        return _emit(args, argv, {"n": args.n}, [report], report.verdict, started)

    if cmd == "wang":
        report = wang_witness(args.n, depth=args.depth)
        config = {"n": args.n, "depth": args.depth}
        return _emit(args, argv, config, [report], report.verdict, started)

    if cmd == "coaction-check":
        if args.counterexample:
            hopf = group_algebra_presentation(2)
            ambient = complete(hopf.system, 4).system
            g = NCPoly.gen(ambient.alphabet, 0)
            zero = NCPoly.zero(ambient.alphabet)
            x = MatrixOverAlgebra(2, ((g, zero), (zero, g)), ambient)
            report = coaction_algebra_map_check(x, hopf)
            config = {"instance": "diag(g,g) over K[Z2]"}
        else:
            if args.n is None:
                raise UsageError("--n is required without --counterexample")
            pres = magic_presentation(args.n)
            for ambient in completion_rungs(pres.system, 8):
                report = coaction_algebra_map_check(pres.generating_matrix(ambient), pres)
                if report.verdict == VERIFIED:
                    break
            config = {"n": args.n, "instance": "generating matrix"}
        return _emit(args, argv, config, [report], report.verdict, started)

    if cmd == "classify":
        report = classify_gradings(args.n, ergodic_only=args.ergodic_only)
        config = {"n": args.n, "ergodic_only": args.ergodic_only}
        return _emit(args, argv, config, [report], report.verdict, started)

    if cmd == "grade":
        sizes = [int(s) for s in args.blocks.split(",")]
        groups = [parse_group_descriptor(s) for s in args.groups.split(",")]
        grading = grading_from_partition(sizes, groups)
        report = verify_grading(grading)
        text = format_grading(grading)
        if args.save:
            with open(args.save, "w") as fh:
                fh.write(text)
        config = {"blocks": sizes, "groups": [g.descriptor() for g in groups],
                  "saved": args.save}
        return _emit(args, argv, config, [report], report.verdict, started,
                     extra_text=text)

    if cmd == "orbit-decompose":
        with open(args.input) as fh:
            grading = parse_grading(fh.read())
        check = verify_grading(grading)
        reports = [check]
        verdict = check.verdict
        if check.verdict == VERIFIED:
            orbit = orbit_decompose(grading)
            restricted = [verify_grading(r) for r in orbit.restrictions]
            reports += [orbit] + restricted
            verdict = merge_verdicts(r.verdict for r in [check] + restricted)
        return _emit(args, argv, {"input": args.input}, reports, verdict, started)

    if cmd == "verify-grading":
        with open(args.input) as fh:
            grading = parse_grading(fh.read())
        report = verify_grading(grading)
        return _emit(args, argv, {"input": args.input}, [report],
                     report.verdict, started)

    raise UsageError(f"unknown command {cmd!r}")


if __name__ == "__main__":
    sys.exit(main())
