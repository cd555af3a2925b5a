"""The four workloads: their inputs, operations, known answers and checks.

A workload builds its inputs from the seed (`build`, timed as set-up),
then lists the operations of one pass (`operations`).  Each operation is
one certificate or search call into qpalg; `succeeded` compares its
verdict with the known answer, and an operation whose verdict differs
counts as failed.  `check` runs the independent computations of
`oracles` on one pass's outputs, outside every timed section, and
`digest` fingerprints the outputs so that every later pass and every
worker process can be compared with the checked one.
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import json
import random
from fractions import Fraction

import oracles

VERIFIED = "verified"
REFUTED = "refuted_with_witness"


@dataclasses.dataclass
class Operation:
    name: str
    run: object                      # zero-argument callable into qpalg
    succeeded: object                # output -> bool, against the known answer


def _sha(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True, default=str).encode()).hexdigest()


def _rules_as_dict(system) -> dict:
    return {r.lhs: dict(r.rhs.terms) for r in system.rules}


def _definite_failure(report) -> bool:
    return any(not c.reduced_to_zero and not c.inconclusive for c in report.identities)


def _report_errors(name, report, expected) -> list[str]:
    """A verdict must not be vacuous and must carry the rows behind it."""
    if not report.identities:
        return [f"{name}: {report.verdict} with no identity rows"]
    if expected == VERIFIED and not all(c.reduced_to_zero and not c.inconclusive
                                        for c in report.identities):
        return [f"{name}: verified with a failing or inconclusive row"]
    if expected == REFUTED and not _definite_failure(report):
        return [f"{name}: refuted without a definite witness row"]
    return []


# -- completion ---------------------------------------------------------

COMPLETION_CASES = ((4, 8, "confluent", 78), (5, 3, "truncated", 203))


class Completion:
    name = "completion"
    procs = 4

    def build(self, seed: int):
        from qpalg.ncalg import Alphabet
        from qpalg.qperm import ALL_FAMILIES, family_relations, u_names
        from qpalg.rewrite import RewriteSystem
        rng = random.Random(seed)
        systems = {}
        for n, _, _, _ in COMPLETION_CASES:
            alphabet = Alphabet(u_names(n))
            relations = [p for _, p in family_relations(alphabet, n, ALL_FAMILIES)]
            rng.shuffle(relations)          # interreduce sees a seeded order
            systems[n] = RewriteSystem.from_relations(alphabet, relations)
        return systems

    def operations(self, systems):
        from qpalg.rewrite import complete
        ops = []
        for n, cap, status, count in COMPLETION_CASES:
            ops.append(Operation(
                f"complete n={n} cap={cap}",
                lambda n=n, cap=cap: complete(systems[n], cap),
                lambda out, status=status, count=count:
                    out.status == status and len(out.system.rules) == count))
        return ops

    def digest(self, outputs) -> str:
        return _sha([[out.system.status_label(), [r.render() for r in out.system.rules]]
                     for out in outputs])

    def check(self, systems, outputs) -> list[str]:
        errors = []
        for (n, cap, status, _), out in zip(COMPLETION_CASES, outputs):
            names = out.system.alphabet.names
            if any(names[oracles.letter(n, i, j)] != f"u{i}{j}"
                   for i in range(1, n + 1) for j in range(1, n + 1)):
                errors.append(f"n={n}: unexpected generator order {names}")
                continue
            perms = list(itertools.permutations(range(n)))
            errors += [f"complete n={n}: {e}" for e in oracles.check_rule_system(
                _rules_as_dict(out.system), n, None if status == "confluent" else cap, perms)]
        return errors


# -- hopf ---------------------------------------------------------------

def _shuffled(pres, rng):
    relations = list(pres.relations)
    rng.shuffle(relations)             # order of the well-definedness rows
    return dataclasses.replace(pres, relations=relations)


def _hopf_rows(pres) -> int:
    """Rows verify_hopf_axioms owes: every relation and every axiom per generator."""
    n2 = pres.n * pres.n
    if pres.antipode is None:
        return 2 * len(pres.relations) + 3 * n2
    return 3 * len(pres.relations) + 6 * n2


class Hopf:
    name = "hopf"
    procs = 3

    def build(self, seed: int):
        from qpalg.ncalg import NCPoly
        from qpalg.qperm import (MatrixOverAlgebra, group_algebra_presentation,
                                 magic_presentation, semi_magic_presentation)
        from qpalg.rewrite import complete
        rng = random.Random(seed)
        p3, p4 = magic_presentation(3), magic_presentation(4)
        s4 = semi_magic_presentation(4)
        n, t2, alphabet = 3, p3.tensor2, p3.alphabet

        def u(i, j):
            return NCPoly.gen(alphabet, oracles.letter(n, i, j))

        # wrong Delta(u_ij) = sum_k u_ik (x) u_jk breaks the counit law
        wrong_delta = {}
        for i, j in itertools.product(range(1, n + 1), repeat=2):
            total = NCPoly.zero(t2.alphabet)
            for k in range(1, n + 1):
                total = total + t2.inject(u(i, k), 0) * t2.inject(u(j, k), 1)
            wrong_delta[oracles.letter(n, i, j)] = total
        # wrong S(u_ij) = u_ij breaks the antipode law
        wrong_s = {oracles.letter(n, i, j): u(i, j)
                   for i, j in itertools.product(range(1, n + 1), repeat=2)}
        kz2 = group_algebra_presentation(2)
        ambient = complete(kz2.system, 4).system
        g, zero = NCPoly.gen(ambient.alphabet, 0), NCPoly.zero(ambient.alphabet)
        return {
            "p3": _shuffled(p3, rng), "p4": _shuffled(p4, rng), "s4": _shuffled(s4, rng),
            "wrong_delta": dataclasses.replace(p3, delta=wrong_delta),
            "wrong_s": dataclasses.replace(p3, antipode=wrong_s),
            "kz2": kz2,
            "diag_gg": MatrixOverAlgebra(2, ((g, zero), (zero, g)), ambient),
        }

    def operations(self, inp):
        from qpalg import qperm
        from qpalg.rewrite import complete

        def coaction_n4():
            pres = inp["p4"]
            return qperm.coaction_algebra_map_check(
                pres.generating_matrix(complete(pres.system, 8).system), pres)

        def verdict(expected):
            return lambda out: out.verdict == expected

        return [
            Operation("verify_hopf magic n=3", lambda: qperm.verify_hopf_axioms(inp["p3"]),
                      verdict(VERIFIED)),
            Operation("verify_hopf magic n=4", lambda: qperm.verify_hopf_axioms(inp["p4"]),
                      verdict(VERIFIED)),
            Operation("verify_hopf semi-magic n=4",
                      lambda: qperm.verify_hopf_axioms(inp["s4"]), verdict(VERIFIED)),
            Operation("coaction generating matrix n=4", coaction_n4, verdict(VERIFIED)),
            Operation("sn_isomorphism n=4", lambda: qperm.sn_isomorphism_check(4),
                      verdict(VERIFIED)),
            Operation("wang_witness n=4 depth=10", lambda: qperm.wang_witness(4, 10),
                      verdict(VERIFIED)),
            Operation("verify_hopf wrong Delta n=3",
                      lambda: qperm.verify_hopf_axioms(inp["wrong_delta"]), verdict(REFUTED)),
            Operation("verify_hopf wrong S n=3",
                      lambda: qperm.verify_hopf_axioms(inp["wrong_s"]), verdict(REFUTED)),
            Operation("coaction diag(g,g) over K[Z2]",
                      lambda: qperm.coaction_algebra_map_check(inp["diag_gg"], inp["kz2"]),
                      verdict(REFUTED)),
        ]

    def digest(self, outputs) -> str:
        return _sha([out.to_dict() for out in outputs])

    def check(self, inp, outputs) -> list[str]:
        names = [op.name for op in self.operations(inp)]
        expected = [VERIFIED] * 6 + [REFUTED] * 3
        errors = []
        for name, out, exp in zip(names, outputs, expected):
            errors += _report_errors(name, out, exp)
        for key, out in zip(("p3", "p4", "s4"), outputs):
            if len(out.identities) != _hopf_rows(inp[key]):
                errors.append(f"verify_hopf {key}: {len(out.identities)} rows, "
                              f"expected {_hopf_rows(inp[key])}")
        sn_iso, wang = outputs[4], outputs[5]
        witness = oracles.parse_u_poly(sn_iso.details["kernel_witness"], 4)
        if not any(witness.values()) or \
                not oracles.vanishes_on_sn(witness, 4, itertools.permutations(range(4))):
            errors.append("sn_isomorphism n=4: kernel witness is zero or does not vanish on S_4")
        if wang.details.get("filtration") != [2 * d + 1 for d in range(11)]:
            errors.append("wang_witness: filtration is not 2d+1")
        return errors


# -- gradings -----------------------------------------------------------

# Partition gradings saved as text; the seed relabels their points.
SAVED_GRADINGS = (((4, 3, 2), ("Z2xZ2", "Z3", "Z2")),
                  ((5, 3), ("Z5", "Z3")),
                  ((4, 4), ("Z4", "Z2xZ2")),
                  ((6, 2), ("Z6", "Z2")))
CLASSIFY_N = (9, 10)


def _relabel(grading, perm):
    """The same grading with point i renamed perm[i]."""
    from qpalg.gradings import FreeProductGroup, Grading
    n = grading.n
    blocks = tuple(tuple(sorted(perm[p] for p in b)) for b in grading.group.blocks)
    comps = {}
    for key, vecs in grading.components.items():
        moved = []
        for v in vecs:
            w = [None] * n
            for i, x in enumerate(v):
                w[perm[i]] = x
            moved.append(tuple(w))
        comps[key] = moved
    return Grading(n, FreeProductGroup(blocks, grading.group.groups), comps)


class Gradings:
    name = "gradings"
    procs = 3

    def build(self, seed: int):
        from qpalg.gradings import Grading, format_grading, grading_from_partition
        from qpalg.groups import FiniteAbelianGroup, parse_group_descriptor
        rng = random.Random(seed)
        saved = []
        for sizes, groups in SAVED_GRADINGS:
            g = grading_from_partition(sizes, [parse_group_descriptor(d) for d in groups])
            perm = list(range(g.n))
            rng.shuffle(perm)
            g = _relabel(g, perm)
            saved.append((format_grading(g), {frozenset(b) for b in g.group.blocks},
                          tuple(sorted(sizes, reverse=True))))
        # one seeded vector of a non-identity component gets one coordinate moved
        sizes, groups = SAVED_GRADINGS[0]
        base = grading_from_partition(sizes, [parse_group_descriptor(d) for d in groups])
        key = rng.choice([k for k in sorted(base.components) if k])
        coord = rng.randrange(base.n)
        comps = dict(base.components)
        v = list(comps[key][0])
        v[coord] = v[coord] + Fraction(1, rng.randint(2, 9))
        comps[key] = [tuple(v)]
        perturbed = Grading(base.n, base.group, comps)
        z2 = FiniteAbelianGroup((2,))
        # K^1 with A_e = A_1 = K: the sum is not direct, so this is no grading
        non_direct = Grading(1, z2, {(0,): [(Fraction(1),)], (1,): [(Fraction(1),)]})
        return {"saved": saved, "perturbed": perturbed, "non_direct": non_direct}

    def operations(self, inp):
        from qpalg import gradings

        def roundtrip(text):
            g = gradings.parse_grading(text)
            return gradings.format_grading(g), gradings.verify_grading(g), \
                gradings.orbit_decompose(g)

        def refuted_with_witness(out):
            return out.verdict == REFUTED and "witness" in out.details

        ops = [Operation(f"classify_gradings n={n}",
                         lambda n=n: gradings.classify_gradings(n),
                         lambda out: out.verdict == VERIFIED) for n in CLASSIFY_N]
        for (text, _, sizes) in inp["saved"]:
            ops.append(Operation(f"roundtrip partition {sizes}",
                                 lambda text=text: roundtrip(text),
                                 lambda out: out[1].verdict == VERIFIED))
        ops.append(Operation("verify_grading perturbed vector",
                             lambda: gradings.verify_grading(inp["perturbed"]),
                             refuted_with_witness))
        ops.append(Operation("verify_grading K^1 non-direct sum over Z2",
                             lambda: gradings.verify_grading(inp["non_direct"]),
                             lambda out: out.verdict == REFUTED))
        return ops

    def digest(self, outputs) -> str:
        parts = []
        for out in outputs:
            if isinstance(out, tuple):
                parts.append([out[0], out[1].to_dict(), out[2].to_dict()])
            else:
                parts.append(out.to_dict())
        return _sha(parts)

    def check(self, inp, outputs) -> list[str]:
        errors = []
        for n, rep in zip(CLASSIFY_N, outputs):
            if len(rep.ergodic) != oracles.abelian_group_count(n):
                errors.append(f"n={n}: {len(rep.ergodic)} ergodic gradings, expected "
                              f"{oracles.abelian_group_count(n)}")
            if len(rep.general) != oracles.partition_grading_count(n):
                errors.append(f"n={n}: {len(rep.general)} partition gradings, expected "
                              f"{oracles.partition_grading_count(n)}")
            for e in rep.ergodic + rep.general:
                part = e.partition
                if e.report.verdict != VERIFIED or e.orbit is None:
                    errors.append(f"n={n} {part}: {e.report.verdict}")
                elif e.orbit.partition != part or e.orbit.k != len(part):
                    errors.append(f"n={n} {part}: orbit partition {e.orbit.partition}, "
                                  f"k={e.orbit.k}")
        saved_outputs = outputs[len(CLASSIFY_N):len(CLASSIFY_N) + len(inp["saved"])]
        for (text, blocks, sizes), (again, rep, orbit) in zip(inp["saved"], saved_outputs):
            if again != text:
                errors.append(f"roundtrip {sizes}: text changed")
            errors += _report_errors(f"roundtrip {sizes}", rep, VERIFIED)
            if orbit.partition != sizes or orbit.k != len(sizes) or \
                    {frozenset(b) for b in orbit.blocks} != blocks:
                errors.append(f"roundtrip {sizes}: orbit blocks {orbit.blocks}")
        errors += _report_errors("perturbed grading", outputs[-2], REFUTED)
        return errors


# -- subgroups ----------------------------------------------------------

SUBGROUP_CASES = ((5, "brute_force"), (6, "brute_force"), (5, "classified"), (6, "classified"))


class Subgroups:
    name = "subgroups"
    procs = 1

    def build(self, seed: int):
        # transitive_abelian_subgroups takes only n: the seed changes nothing
        return None

    def operations(self, inp):
        from qpalg.groups import transitive_abelian_subgroups
        return [Operation(f"transitive_abelian_subgroups n={n} {mode}",
                          lambda n=n, mode=mode: transitive_abelian_subgroups(n, mode),
                          lambda out, n=n: len(out) == oracles.abelian_group_count(n))
                for n, mode in SUBGROUP_CASES]

    def digest(self, outputs) -> str:
        return _sha([[[G.descriptor(), sorted(p.images for p in elems)] for G, elems in out]
                     for out in outputs])

    def check(self, inp, outputs) -> list[str]:
        errors = []
        for (n, mode), out in zip(SUBGROUP_CASES, outputs):
            for G, elems in out:
                images = [p.images for p in elems]
                errors += [f"n={n} {mode}: {e}" for e in oracles.check_regular_abelian(images, n)]
                if sorted(oracles.perm_order(a) for a in images) != \
                        oracles.element_orders(G.invariant_factors):
                    errors.append(f"n={n} {mode}: element orders do not match {G.descriptor()}")
        return errors


WORKLOADS = {w.name: w for w in (Completion(), Hopf(), Gradings(), Subgroups())}
