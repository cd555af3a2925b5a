"""Group gradings on the diagonal algebra K^n.

A grading is stored by explicit component bases: a map from group elements
to lists of coordinate vectors over cyclotomic scalars, so the grading law
A_g * A_h inside A_gh becomes exact linear algebra.  Supported grading
groups are the two classes of `groups`: a finite abelian group (the
ergodic case, the character grading of one block) and a free product of
block groups attached to a partition of the point set (the general case).
`grading_from_partition` is the one constructor of both: one character
loop over the blocks, keyed by the grading group's `block_element`.

Element keys are whatever the grading group uses for its elements:
exponent tuples for a finite abelian group, and for a free product reduced
words, i.e. tuples of (block index, exponent tuple) letters with no
identity letters and no adjacent letters in the same block.  Both group
classes share one interface (see `groups`), so the group owns its element
syntax and header in grading files, the test of whether a support
generates it, and the restriction of a grading to an orbit block.

A grading splits along the 0/1 indicators 1_b spanning its identity
component (`orbit_decompose`).  The restriction of a verified grading to
a block b is a grading with no further check, since 1_b in A_identity
gives A_g * 1_b inside A_g; `orbit-decompose` verifies it as a cross-check.
"""

from __future__ import annotations

import itertools
import re
import sys
from dataclasses import dataclass
from functools import cache
from operator import mul

from . import linalg
from .exactnum import capped_field, field_order, format_scalar, parse_scalar
from .groups import (FreeProductGroup, abelian_groups_of_order, characters,
                     parse_group_descriptor, partitions_desc)
from .reports import CertificateReport, IdentityCheck, VERIFIED, merge_verdicts


class Grading:
    """Decomposition of K^n indexed by group elements, with explicit bases."""

    def __init__(self, n: int, group, components: dict):
        self.n = n
        self.group = group
        comps = {}
        for key, vectors in components.items():
            vecs = []
            for v in vectors:
                v = tuple(v)
                if len(v) != n:
                    raise ValueError(f"component vector of length {len(v)} in K^{n}")
                if any(v):
                    vecs.append(v)
            if vecs:
                comps[key] = vecs
        self.components = comps

    def support(self) -> list:
        return sorted(self.components)

    def identity_basis(self) -> list:
        return self.components.get(self.group.identity(), [])


GRADE_MAX_N = 256


def grading_from_partition(sizes, groups) -> Grading:
    """Blockwise character grading of K^n for a partition with block groups.

    Blocks are laid out on consecutive points in (size-descending) order,
    block i labelled by the elements of its group G_i in lexicographic
    order.  The component of block i's element chi (a character of G_i,
    named by its exponents) is spanned by f_chi = sum over g of chi(g) e_g,
    zero outside the block.  One block is graded by its own group: every
    component is one-dimensional, so the grading is ergodic, and it is
    faithful.  Several blocks are graded by the free product of their
    groups, and the block indicators span the identity component.
    More than GRADE_MAX_N points are refused before any vector is built.
    """
    sizes = list(sizes)
    groups = list(groups)
    # block i's characters live in Q(zeta_exponent), and are rational at exponent <= 2
    capped_field((G.exponent for G in groups if G.exponent > 2), "the grading's characters live")
    if len(sizes) != len(groups):
        raise ValueError("one group per block is required")
    for m, g in zip(sizes, groups):
        if g.order != m:
            raise ValueError(f"block of size {m} cannot carry {g.descriptor()}")
    n = sum(sizes)
    if n > GRADE_MAX_N:
        raise ValueError(f"K^{n}; gradings are built on at most {GRADE_MAX_N} points "
                         "(GRADE_MAX_N, exact character vectors and products)")
    order = sorted(range(len(sizes)),
                   key=lambda i: (-sizes[i], groups[i].invariant_factors))
    sizes = [sizes[i] for i in order]
    groups = [groups[i] for i in order]
    blocks = []
    start = 0
    for m in sizes:
        blocks.append(tuple(range(start, start + m)))
        start += m
    group = groups[0] if len(groups) == 1 else FreeProductGroup(tuple(blocks), tuple(groups))
    components: dict = {}
    for i, (block, G) in enumerate(zip(blocks, groups)):
        elems = G.elements()
        for chi in characters(G):
            vec = [0] * n
            for pos, g in zip(block, elems):
                vec[pos] = chi(g)
            components.setdefault(group.block_element(i, chi.exponents), []).append(tuple(vec))
    return Grading(n, group, components)


PRODUCT_ROW_TEXT = "pointwise product against target component basis"


def _pointwise(a, b, common):
    """Entrywise product of a and b, whose supports meet in the indices common."""
    if len(common) == len(a):
        return tuple(map(mul, a, b))
    out = [0] * len(a)
    for i in common:
        out[i] = a[i] * b[i]
    return tuple(out)


def verify_grading(grading: Grading) -> CertificateReport:
    """Exact verification of the grading axioms plus structural instance checks.

    Checks: the component bases together hold n vectors of rank n, so
    each is independent and their sum is K^n; the all-ones unit lies in the
    identity component; every pointwise product of basis vectors lands in
    the span of its target component (witness recorded on failure); every
    supported element has finite order; when the grading is both ergodic
    and faithful the group is abelian.  Ergodicity and faithfulness are
    reported as flags in the details.

    Each exact operation is done once, and none whose result is known.
    The rank comes from `linalg.rank`: n vectors independent modulo a split
    prime are independent, so a grading builds the echelon form of all its
    vectors only when their modular rank falls short (a refuted direct sum
    prints its exact rank).  Each basis vector's support is read once, as
    a bitmask: two vectors with disjoint supports (any two from different
    blocks of a partition grading) have product zero, so their rows hold
    with no multiply, and other pairs multiply only where their supports
    meet; when one support holds the other, the smaller one's index list
    is that meet, with no scan of bits.  K^n is commutative, so one
    product is computed per unordered pair and target: a row keeps its
    verdict, keyed by the pair and its target, until the mirrored row
    reads it.  Only a mirrored row whose target differs (non-commuting
    keys whose vectors' supports meet, which no partition grading has)
    computes the product again, and the witness comes from the first
    failing row.  A product equal, entry for entry, to one of its target's
    basis vectors lies in the target (every product of a character grading
    does); only a product matching none is reduced against the target's
    echelon form (`linalg.Span`), built the first time it is needed.

    A product row pays for itself only.  Each key's text, and each basis
    vector's position, support mask and label parts (`[<key>][<i>]` as the
    right factor, `product law [<key>][<i>] * ` as the left), are built once
    per grading, and a label's tail ` in [<target>]` once per pair of keys;
    a row joins three strings and interns the label.
    """
    group = grading.group
    comps = grading.components
    support = grading.support()
    rows = []
    details: dict = {"n": grading.n}
    all_vectors = [v for key in support for v in comps[key]]
    rk = linalg.rank(all_vectors)
    rows.append(IdentityCheck(
        "direct sum spans K^n",
        f"rank {rk} of {len(all_vectors)} component basis vectors (need {grading.n})",
        rk == grading.n == len(all_vectors)))
    span_of = cache(lambda key: linalg.Span(comps.get(key, ())))
    text_of = cache(group.key_text)
    ones = (1,) * grading.n
    id_span = span_of(group.identity())
    rows.append(IdentityCheck(
        "unit lies in the identity component",
        "all-ones vector against the identity component basis",
        id_span.rank > 0 and ones in id_span))
    starts = itertools.accumulate((len(comps[key]) for key in support), initial=0)
    # key -> positions of its vectors in all_vectors
    positions = {key: range(s, s + len(comps[key])) for key, s in zip(support, starts)}
    supports = [[i for i, x in enumerate(v) if x] for v in all_vectors]
    masks = [sum(1 << i for i in s) for s in supports]
    # vector ai of A_key, as the left and as the right factor of a product row
    operands = [f"[{text_of(key)}][{ai}]" for key in support for ai in range(len(comps[key]))]
    heads = [f"product law {operand} * " for operand in operands]
    verdicts: dict = {}         # (p, q, target) with p < q -> ok, until the mirrored row
    witness = None
    intern = sys.intern
    for g in support:
        for h in support:
            h_positions = positions[h]
            target = group.mul(g, h)
            tail = f" in [{text_of(target)}]"
            target_basis = comps.get(target)
            for p in positions[g]:
                head = heads[p]
                mask_p = masks[p]
                for q in h_positions:
                    common = mask_p & masks[q]
                    if not common:                       # the product is zero
                        ok = True
                    else:
                        pair = (p, q, target) if p <= q else (q, p, target)
                        ok = verdicts.pop(pair, None)    # the mirrored row, if done
                        if ok is None:
                            if common == mask_p:
                                meet = supports[p]
                            elif common == masks[q]:
                                meet = supports[q]
                            else:
                                meet = [i for i in supports[p] if common >> i & 1]
                            prod = _pointwise(all_vectors[p], all_vectors[q], meet)
                            ok = target_basis is not None and (
                                prod in target_basis or prod in span_of(target))
                            if p != q:
                                verdicts[pair] = ok
                    # a classification repeats these labels across its gradings;
                    # interned, each is stored once however many reports keep it
                    label = intern(f"{head}{operands[q]}{tail}")
                    rows.append(IdentityCheck(label, PRODUCT_ROW_TEXT, ok))
                    if not ok and witness is None:
                        witness = {
                            "g": text_of(g),
                            "h": text_of(h),
                            "product": [format_scalar(x) for x in prod],
                        }
    if witness:
        details["witness"] = witness
    for key in support:
        order = group.element_order(key)
        rows.append(IdentityCheck(
            sys.intern(f"finite order [{text_of(key)}]"),
            sys.intern(f"element order {order if order else 'infinite'}"),
            order is not None))
    faithful = group.generates(support)
    dim_identity = id_span.rank
    ergodic = dim_identity == 1
    details["faithful"] = faithful
    details["ergodic"] = ergodic
    details["dim_identity_component"] = dim_identity
    if ergodic and faithful:
        rows.append(IdentityCheck(
            "ergodic faithful grading has abelian group",
            f"group {group.descriptor()} commutativity",
            group.is_abelian()))
    details["group"] = group.descriptor()
    return CertificateReport.from_identities(
        f"grading of K^{grading.n} by {group.descriptor()}", rows,
        details=details)


@dataclass
class OrbitReport:
    """Orbit split of a grading: partition, coinvariants, restrictions.

    It carries no verdict: a restriction of a verified grading is a grading
    (1_b in A_identity); `orbit-decompose` verifies it as a cross-check."""

    partition: tuple
    k: int
    blocks: tuple                   # tuple of tuples of 0-based points
    fixed_basis: tuple              # 0/1 indicator vectors, one per block
    restrictions: list              # Grading per block

    def to_dict(self) -> dict:
        return {
            "partition": list(self.partition),
            "k": self.k,
            "blocks": [[p + 1 for p in b] for b in self.blocks],
            "fixed_basis": [[str(x) for x in v] for v in self.fixed_basis],
        }

    def summary_lines(self) -> list[str]:
        lines = [f"orbit decomposition: partition {self.partition}, "
                 f"k = {self.k} coinvariant idempotents"]
        for b, r in zip(self.blocks, self.restrictions):
            pts = ",".join(str(p + 1) for p in b)
            lines.append(f"  block [{pts}]: {r.group.descriptor()}")
        return lines


def orbit_decompose(grading: Grading) -> OrbitReport:
    """Split a verified grading along the minimal idempotents of A_identity.

    The identity component of a grading of K^n is a diagonal subalgebra,
    hence spanned by 0/1 indicators of a partition of the point set; the
    grading restricts to an ergodic grading on each block, unverified as
    none is needed: 1_b in A_identity gives A_g * 1_b inside A_g.  The
    `orbit-decompose` command verifies the restrictions as a cross-check.
    Points are classed by their column of identity basis values.  Each
    identity vector is constant on every class, so with as many classes as
    the identity dimension k the class indicators span the identity
    component, and the blocks need no span query.  A component keeps the
    independent ones of its nonzero restrictions to a block; only one with
    two or more builds an echelon form.  Each vector is read once: its
    nonzero entries name, through a point-to-block list, the blocks it
    meets, and it is restricted to those alone, in support order; the
    block indicators are read off the same list.
    """
    id_basis = grading.identity_basis()
    k = linalg.rank(id_basis)
    n = grading.n
    classes: dict = {}
    for i in range(n):
        classes.setdefault(tuple(v[i] for v in id_basis), []).append(i)
    blocks = sorted((tuple(c) for c in classes.values()), key=lambda b: (-len(b), b))
    if len(blocks) != k:
        raise ValueError(
            f"identity component of dimension {k} does not split into 0/1 "
            f"idempotents ({len(blocks)} coordinate classes); the grading is "
            "not a verified grading of a diagonal algebra")
    block_of = [0] * n                  # point -> index of its block
    for j, b in enumerate(blocks):
        for i in b:
            block_of[i] = j
    parts: list = [{} for _ in blocks]  # per block: key -> nonzero restrictions
    for key in grading.support():
        for v in grading.components[key]:
            for j in {block_of[i] for i, x in enumerate(v) if x}:
                parts[j].setdefault(key, []).append(tuple(map(v.__getitem__, blocks[j])))
    restrictions = []
    for b, comps in zip(blocks, parts):
        for key, vecs in comps.items():
            if len(vecs) > 1:
                span = linalg.Span()
                comps[key] = [rv for rv in vecs if span.add(rv)]
        restrictions.append(Grading(len(b), *grading.group.restriction(comps)))
    return OrbitReport(
        partition=tuple(len(b) for b in blocks),
        k=k,
        blocks=tuple(blocks),
        fixed_basis=tuple(tuple(1 if c == j else 0 for c in block_of)
                          for j in range(len(blocks))),
        restrictions=restrictions)


@dataclass
class ClassificationEntry:
    partition: tuple
    groups: tuple
    grading: Grading
    report: CertificateReport
    orbit: OrbitReport | None

    def to_dict(self) -> dict:
        out = {
            "partition": list(self.partition),
            "groups": [g.descriptor() for g in self.groups],
            "group": (self.grading.group.descriptor()),
            "verdict": self.report.verdict,
            "ergodic": self.report.details.get("ergodic"),
            "faithful": self.report.details.get("faithful"),
        }
        if self.orbit is not None:
            out["orbit_partition"] = list(self.orbit.partition)
            out["k"] = self.orbit.k
        return out


@dataclass
class ClassificationReport:
    """All gradings of K^n from partitions with transitive abelian block groups."""

    n: int
    ergodic_only: bool
    ergodic: list
    general: list
    verdict: str
    conclusion: str

    def to_dict(self) -> dict:
        out = {
            "n": self.n,
            "ergodic_only": self.ergodic_only,
            "ergodic_count": len(self.ergodic),
            "ergodic": [e.to_dict() for e in self.ergodic],
            "verdict": self.verdict,
            "conclusion": self.conclusion,
        }
        if not self.ergodic_only:
            out["general_count"] = len(self.general)
            out["general"] = [e.to_dict() for e in self.general]
        return out

    def summary_lines(self) -> list[str]:
        lines = [f"gradings of K^{self.n}:"]
        lines.append(f"  ergodic gradings ({len(self.ergodic)}):")
        for e in self.ergodic:
            lines.append(f"    {e.grading.group.descriptor()}: {e.report.verdict}")
        if not self.ergodic_only:
            lines.append(f"  partition gradings ({len(self.general)}):")
            for e in self.general:
                lines.append(
                    f"    partition {e.partition} with "
                    f"{'*'.join(g.descriptor() for g in e.groups)}: "
                    f"{e.report.verdict}, k={e.orbit.k if e.orbit else '?'}")
        lines.append(f"verdict: {self.verdict}")
        return lines


CLASSIFY_MAX_N = 14


def classify_gradings(n: int, ergodic_only: bool = False) -> ClassificationReport:
    """Enumerate and verify the gradings of K^n.

    General case: one grading per (partition of n, per-block group
    choice), graded by the free product of the block groups; quotients of
    the free product are not enumerated.  The ergodic gradings are the
    one-block entries, one per abelian group of order n (equivalently, per
    transitive abelian subgroup of S_n up to conjugacy).
    """
    if n < 1:
        raise ValueError("n must be positive")
    if n > CLASSIFY_MAX_N:
        raise ValueError(f"classification is capped at n = {CLASSIFY_MAX_N} "
                         "(exact cyclotomic linear algebra cost)")
    entries = []
    for partition in [(n,)] if ergodic_only else partitions_desc(n):
        pools = [abelian_groups_of_order(m) for m in partition]
        for choice in itertools.product(*pools):
            grading = grading_from_partition(partition, choice)
            report = verify_grading(grading)
            orbit = orbit_decompose(grading) if report.verdict == VERIFIED else None
            entries.append(ClassificationEntry(partition, choice, grading, report, orbit))
    ergodic_entries = [e for e in entries if e.partition == (n,)]
    general_entries = [] if ergodic_only else entries
    verdict = merge_verdicts(e.report.verdict for e in entries)
    conclusion = (
        f"every faithful grading group of K^{n} is a quotient of one of the "
        "free products exhibited here (a free product of transitive abelian "
        "groups attached to a partition of the point set); the ergodic "
        "gradings are exactly those of the transitive abelian subgroups of "
        f"S_{n}, i.e. the abelian groups of order {n} acting regularly")
    return ClassificationReport(n, ergodic_only, ergodic_entries, general_entries,
                                verdict, conclusion)


# -- grading file format --

def format_grading(grading: Grading) -> str:
    lines = [f"n: {grading.n}", *grading.group.header_lines()]
    for key in grading.support():
        for vec in grading.components[key]:
            coords = ",".join(format_scalar(x) for x in vec)
            lines.append(f"component {grading.group.key_text(key)}: ({coords})")
    return "\n".join(lines) + "\n"


# a component line: its element, then one or more (...) vectors separated by blanks
_COMPONENT_LINE = re.compile(r"component\s+(\S+)\s*:\s*(\([^()]+\)(?:\s+\([^()]+\))*)")


def parse_grading(text: str) -> Grading:
    """Read the grading file format.

    A component line is `component <element>:` and then one or more
    `(<scalars>)` vectors separated by blanks; any other line, and a second
    `n:`, `group:`, `blocks:` or `groups:` line, is refused, quoted.
    `parse_scalar` caps each scalar's field; elimination mixes coordinates,
    so the cap also holds for the field of all scalars together."""
    n = None
    group = None
    blocks = None
    block_groups = None
    components: dict = {}
    declared: set = set()
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        head = line.partition(":")[0]
        if head in ("n", "group", "blocks", "groups"):
            if head in declared:
                raise ValueError(f"grading file declares {head} twice: {line!r}")
            declared.add(head)
        if line.startswith("n:"):
            n = int(line.split(":", 1)[1])
            if n < 1:
                raise ValueError("n must be positive")
        elif line.startswith("group:"):
            group = parse_group_descriptor(line.split(":", 1)[1].strip())
        elif line.startswith("blocks:"):
            blocks = tuple(
                tuple(int(p) - 1 for p in part.split(","))
                for part in line.split(":", 1)[1].split("|"))
        elif line.startswith("groups:"):
            block_groups = tuple(parse_group_descriptor(part.strip())
                                 for part in line.split(":", 1)[1].split("|"))
        elif line.startswith("component"):
            m = _COMPONENT_LINE.fullmatch(line)
            if not m:
                raise ValueError(f"cannot parse component line {line!r}: expected "
                                 "'component <element>: (<scalars>)', one or more "
                                 "vectors separated by blanks")
            vectors = [tuple(parse_scalar(c) for c in chunk.split(","))
                       for chunk in re.findall(r"\(([^()]+)\)", m.group(2))]
            components.setdefault(m.group(1), []).extend(vectors)
        else:
            raise ValueError(f"cannot parse grading line {line!r}")
    if n is None:
        raise ValueError("grading file must declare n")
    capped_field((field_order(x) for vectors in components.values() for vec in vectors
                  for x in vec), "the grading's scalars live")
    if group is not None and (blocks is not None or block_groups is not None):
        raise ValueError("grading file declares both group and blocks/groups")
    if blocks is not None:
        if block_groups is None:
            raise ValueError("blocks given without groups")
        group = FreeProductGroup(blocks, block_groups)
        if group.n != n:
            raise ValueError(f"blocks cover {group.n} points, not n = {n}")
    elif group is None:
        raise ValueError("grading file must declare a group or blocks")
    keyed: dict = {}
    for text, vectors in components.items():     # "e" and "0" may name one element
        keyed.setdefault(group.parse_key(text), []).extend(vectors)
    return Grading(n, group, keyed)
