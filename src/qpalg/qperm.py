"""Magic and semi-magic matrix presentations and their verifiers.

Builds the universal algebra generated by an n x n magic (or semi-magic)
matrix, equips it with comultiplication, counit and antipode images, and
mechanically certifies: coaction/algebra-map equivalence on instances,
the Hopf axioms, the transpose-product identities that let three
relation families imply the fourth, the quotient onto functions on S_n
(maps from image tuples to values), and Wang's noncommutativity and
infinite-dimension certificate from size 4 on, read in the block
quotient of A_s(n), the free product of the A_s of the blocks.  A
presentation derives its rewriting system from its relations, and every
Hopf quotient is built by `HopfPresentation.quotient`.

Every positive verdict is a reduction-to-zero certificate.  A nonzero
normal form only refutes when the ambient system is confluent; otherwise
the row is flagged inconclusive.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from functools import cached_property

from . import linalg
from .ncalg import Alphabet, NCPoly, TensorAlgebra, substitute
from .reports import CertificateReport, IdentityCheck, VERIFIED, rows_verdict
from .rewrite import (CONFLUENT, RewriteSystem, TensorPowerSystem, complete,
                      filtration_dimension, normal_form, quotient_basis)

ROW_ORTH = "row-orth"      # x_ki x_kj = delta_ij x_ki  (within a row)
ROW_SUM = "row-sum"        # sum_k x_ik = 1
COL_ORTH = "col-orth"      # x_ik x_jk = delta_ij x_ik  (within a column)
COL_SUM = "col-sum"        # sum_k x_ki = 1
ALL_FAMILIES = (ROW_ORTH, ROW_SUM, COL_ORTH, COL_SUM)
SEMI_FAMILIES = (ROW_ORTH, ROW_SUM)


def u_names(n: int) -> list[str]:
    sep = "_" if n > 9 else ""
    return [f"u{i}{sep}{j}" for i in range(1, n + 1) for j in range(1, n + 1)]


MATRIX_MAX_N = 12


def u_alphabet(n: int) -> Alphabet:
    """The n^2 generators u_ij of a size-n matrix presentation.

    Every matrix presentation starts here, so a size above MATRIX_MAX_N is
    refused before anything is built."""
    if n < 1:
        raise ValueError("matrix size must be positive")
    if n > MATRIX_MAX_N:
        raise ValueError(f"matrix presentations are capped at n = {MATRIX_MAX_N} "
                         "(n^2 generators, n^3 relations)")
    return Alphabet(u_names(n))


def _family_relations(entry, n: int, families) -> list[tuple[str, NCPoly]]:
    """Labeled relation instances of the chosen families over entry(i, j)."""
    rels = []
    for fam in families:
        if fam in (ROW_ORTH, COL_ORTH):
            for k in range(1, n + 1):
                for i in range(1, n + 1):
                    for j in range(1, n + 1):
                        d = 1 if i == j else 0
                        if fam == ROW_ORTH:
                            poly = entry(k, i) * entry(k, j) - d * entry(k, i)
                        else:
                            poly = entry(i, k) * entry(j, k) - d * entry(i, k)
                        rels.append((f"{fam}[k={k},i={i},j={j}]", poly))
        elif fam in (ROW_SUM, COL_SUM):
            for i in range(1, n + 1):
                if fam == ROW_SUM:
                    total = sum(entry(i, k) for k in range(1, n + 1))
                else:
                    total = sum(entry(k, i) for k in range(1, n + 1))
                rels.append((f"{fam}[i={i}]", total - 1))
        else:
            raise ValueError(f"unknown relation family {fam!r}")
    return rels


def _coproduct(entry, tensor: TensorAlgebra, n: int, i: int, j: int) -> NCPoly:
    """sum_k entry(i, k) (x) entry(k, j) in the tensor square."""
    return sum(tensor.inject(entry(i, k), 0) * tensor.inject(entry(k, j), 1)
               for k in range(1, n + 1))


def _gram(entry, n: int, i: int, j: int) -> NCPoly:
    """sum_k entry(k, i) entry(k, j), the (i, j) entry of x^t x."""
    return sum(entry(k, i) * entry(k, j) for k in range(1, n + 1))


def _generators(alphabet: Alphabet, n: int):
    """The entry callback (i, j) -> u_ij over a size-n generator alphabet."""
    return lambda i, j: NCPoly.gen(alphabet, (i - 1) * n + (j - 1))


def family_relations(alphabet: Alphabet, n: int, families) -> list[tuple[str, NCPoly]]:
    """Labeled defining relation instances for the chosen families."""
    return _family_relations(_generators(alphabet, n), n, families)


@dataclass
class HopfPresentation:
    """A presented bialgebra/Hopf algebra: labelled relations and structure-map
    images of generators; `system` is the relations interreduced on first read."""

    n: int
    relations: list[tuple[str, NCPoly]]
    tensor2: TensorAlgebra
    delta: dict[int, NCPoly]
    counit: dict[int, NCPoly]
    antipode: dict[int, NCPoly] | None

    @property
    def alphabet(self) -> Alphabet:
        return self.tensor2.base

    @cached_property
    def system(self) -> RewriteSystem:
        return RewriteSystem.from_relations(self.alphabet, [p for _, p in self.relations])

    def quotient(self, labelled_relations) -> "HopfPresentation":
        """This presentation with the relations appended.  Delta, eps and S carry
        over, so the new relations' well-defined rows are the Hopf-ideal rows."""
        return replace(self, relations=self.relations + list(labelled_relations))

    def gen(self, i: int, j: int) -> NCPoly:
        return _generators(self.alphabet, self.n)(i, j)

    def generating_matrix(self, system: RewriteSystem | None = None) -> "MatrixOverAlgebra":
        entries = tuple(tuple(self.gen(i, j) for j in range(1, self.n + 1))
                        for i in range(1, self.n + 1))
        return MatrixOverAlgebra(self.n, entries, system or self.system)


def presentation(n: int, families=ALL_FAMILIES) -> HopfPresentation:
    """Universal algebra on an n x n matrix subject to the chosen families.

    With all four families this is the magic-matrix algebra and carries
    antipode images u_ij -> u_ji; with the two row families it is the
    semi-magic bialgebra (no antipode).
    """
    alphabet = u_alphabet(n)
    u = _generators(alphabet, n)
    labeled = _family_relations(u, n, families)
    tensor2 = TensorAlgebra(alphabet, 2)
    delta = {}
    counit = {}
    antipode = {} if set(ALL_FAMILIES) <= set(families) else None
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            g = (i - 1) * n + (j - 1)
            delta[g] = _coproduct(u, tensor2, n, i, j)
            counit[g] = NCPoly.scalar(alphabet, 1 if i == j else 0)
            if antipode is not None:
                antipode[g] = u(j, i)
    return HopfPresentation(n, labeled, tensor2, delta, counit, antipode)


def magic_presentation(n: int) -> HopfPresentation:
    return presentation(n, ALL_FAMILIES)


def semi_magic_presentation(n: int) -> HopfPresentation:
    return presentation(n, SEMI_FAMILIES)


def group_algebra_presentation(m: int) -> HopfPresentation:
    """K[Z_m] on one group-like generator g with g^m = 1."""
    if m < 2:
        raise ValueError("cyclic order must be >= 2")
    alphabet = Alphabet(["g"])
    g = NCPoly.gen(alphabet, 0)
    relations = [("group-like[g^m=1]", NCPoly(alphabet, {(0,) * m: 1, (): -1}))]
    tensor2 = TensorAlgebra(alphabet, 2)
    delta = {0: tensor2.inject(g, 0) * tensor2.inject(g, 1)}
    counit = {0: NCPoly.one(alphabet)}
    antipode = {0: NCPoly(alphabet, {(0,) * (m - 1): 1})}
    return HopfPresentation(1, relations, tensor2, delta, counit, antipode)


@dataclass
class MatrixOverAlgebra:
    """Square matrix with entries in a presented algebra."""

    n: int
    entries: tuple
    ambient: RewriteSystem

    def __post_init__(self):
        for row in self.entries:
            for e in row:
                if e.alphabet != self.ambient.alphabet:
                    raise ValueError("matrix entries must live in the ambient algebra")

    def entry(self, i: int, j: int) -> NCPoly:
        return self.entries[i - 1][j - 1]


def _reduce_row(label: str, poly: NCPoly,
                system: RewriteSystem | TensorPowerSystem) -> IdentityCheck:
    nf = normal_form(poly, system)
    ok = not nf
    definite = system.status == CONFLUENT
    text = poly.render()
    if not ok:
        text += f"  ~>  {nf.render()}"
    return IdentityCheck(label, text, ok, inconclusive=(not ok and not definite))


def check_multiplicative(x: MatrixOverAlgebra, hopf: HopfPresentation) -> CertificateReport:
    """Delta(x_ij) = sum_k x_ik (x) x_kj and eps(x_ij) = delta_ij, entry-wise."""
    tensor = hopf.tensor2
    tensor_system = TensorPowerSystem(x.ambient, tensor)
    rows = []
    n = x.n
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            image = substitute(x.entry(i, j), hopf.delta)
            expected = _coproduct(x.entry, tensor, n, i, j)
            rows.append(_reduce_row(f"comultiplication[i={i},j={j}]",
                                    image - expected, tensor_system))
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            val = substitute(x.entry(i, j), hopf.counit).terms.get((), 0)
            d = 1 if i == j else 0
            rows.append(IdentityCheck(
                f"counit[i={i},j={j}]",
                f"eps(x[{i},{j}]) = {val} (expected {d})",
                val == d))
    return CertificateReport.from_identities(
        f"{n}x{n} matrix is multiplicative", rows,
        details={"tensor_status": tensor_system.status_label()})


def coaction_algebra_map_check(x: MatrixOverAlgebra, hopf: HopfPresentation) -> CertificateReport:
    """Both directions of the coaction/semi-magic equivalence on an instance.

    beta(e_i) = sum_k e_k (x) x_ki is an algebra map iff x is semi-magic;
    the report carries the multiplicativity precondition and the two
    algebra map legs (computed componentwise in the ambient algebra).  The
    leg rows are exactly the row-orth and row-sum instances, so the
    semi-magic verdict is read off them rather than reduced a second time.
    """
    mult = check_multiplicative(x, hopf)   # recorded precondition, see details
    n = x.n
    rows = []
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            for k in range(1, n + 1):
                d = 1 if i == j else 0
                poly = x.entry(k, i) * x.entry(k, j) - d * x.entry(k, i)
                rows.append(_reduce_row(
                    f"beta(e{i})beta(e{j})=delta*beta(e{i}) [component e{k}]",
                    poly, x.ambient))
    for k in range(1, n + 1):
        total = sum(x.entry(k, i) for i in range(1, n + 1))
        rows.append(_reduce_row(f"beta(1)=1(x)1 [component e{k}]", total - 1, x.ambient))
    algebra_ok = all(row.reduced_to_zero for row in rows)
    return CertificateReport.from_identities(
        f"coaction on K^{n} is an algebra map iff the matrix is semi-magic", rows,
        details={
            "multiplicative_precondition": mult.verdict,
            "semi_magic": rows_verdict(rows),
            "algebra_map_legs": "pass" if algebra_ok else "fail",
        })


def _legs(tensor2: TensorAlgebra, left, right) -> dict:
    """Images of the tensor-square letters: g@0 -> left[g], g@1 -> right[g]."""
    return {tensor2.letter(g, factor): image
            for factor, images in enumerate((left, right)) for g, image in enumerate(images)}


def completion_rungs(system: RewriteSystem, cap: int):
    """Completions of `system` for a certificate, lowest cap first.

    Yields the system completed to its maximal rule degree, then, if the
    caller asks for another and that one is neither confluent nor already
    at `cap`, the system completed to `cap`.  A `cap` below the rule
    degree is not raised: `complete` rejects it.  Every rule of either
    lies in the ideal, so a row that reduces to zero against the first is
    certified; only a nonzero row needs the second before it can refute.
    """
    low = min(system.max_rule_degree, cap)
    first = complete(system, low).system
    yield first
    if first.status != CONFLUENT and low < cap:
        yield complete(system, cap).system


def verify_hopf_axioms(hopf: HopfPresentation, cap: int = 8) -> CertificateReport:
    """Well-definedness of the structure maps plus the axioms on generators.

    Reduction-to-zero rows against the completed system (and its tensor
    squares/cubes) certify: each defining relation is killed by Delta, eps
    and S, coassociativity and the counit laws hold on generators, the
    antipode laws hold on generators, and S^2 fixes every generator.  Every
    row is a law on a relation or a generator, so the base field (no
    generators, no relations) gets no rows, and a certificate without rows
    is inconclusive, never verified.

    The rows are reduced against the rungs of `completion_rungs`: first the
    presentation completed to its maximal rule degree, then, only if some
    row failed there, completed to `cap`, against which only the rows that
    stayed nonzero are reduced again.  Every rule of a truncated completion
    lies in the ideal (Bergman's diamond lemma), so a row that reduces to
    zero against it is a certificate; a nonzero row refutes only against a
    confluent system.  A failing report therefore comes from the cap-`cap`
    completion, and `details` name the rung the rows were last reduced on.
    """
    tensor2, tensor3 = hopf.tensor2, TensorAlgebra(hopf.alphabet, 3)
    eps = hopf.counit
    # a row is an IdentityCheck, or (label, poly, k) to reduce in A^(x)k
    rows: list = []
    for label, rel in hopf.relations:
        rows.append((f"delta well-defined[{label}]", substitute(rel, hopf.delta), 2))
    for label, rel in hopf.relations:
        val = substitute(rel, eps).terms.get((), 0)
        rows.append(IdentityCheck(f"counit well-defined[{label}]",
                                  f"eps({label}) = {val}", val == 0))
    if hopf.antipode is not None:
        for label, rel in hopf.relations:
            rows.append((f"antipode well-defined[{label}]",
                         substitute(rel, hopf.antipode, antihom=True), 1))
    alphabet = hopf.alphabet
    nb = len(alphabet)
    gens = [NCPoly.gen(alphabet, g) for g in range(nb)]
    # (Delta (x) id) Delta = (id (x) Delta) Delta, checked per generator in A^(x)3;
    # Delta(g) spread into the tensor factors (0, 1) and (1, 2) of A^(x)3
    inj = [[tensor3.inject(x, f) for x in gens] for f in range(3)]
    spread01, spread12 = ([substitute(hopf.delta[g], legs) for g in range(nb)]
                          for legs in (_legs(tensor2, *inj[0:2]), _legs(tensor2, *inj[1:3])))
    left_images = _legs(tensor2, spread01, inj[2])
    right_images = _legs(tensor2, inj[0], spread12)
    for g in range(nb):
        lhs = substitute(hopf.delta[g], left_images)
        rhs = substitute(hopf.delta[g], right_images)
        rows.append((f"coassociativity[{alphabet.names[g]}]", lhs - rhs, 3))
    # counit laws (eps (x) id) Delta = id = (id (x) eps) Delta on generators
    eps_left = _legs(tensor2, eps.values(), gens)
    eps_right = _legs(tensor2, gens, eps.values())
    for g in range(nb):
        rows.append((f"counit law left[{alphabet.names[g]}]",
                     substitute(hopf.delta[g], eps_left) - gens[g], 1))
        rows.append((f"counit law right[{alphabet.names[g]}]",
                     substitute(hopf.delta[g], eps_right) - gens[g], 1))
    if hopf.antipode is not None:
        antipode = [hopf.antipode[g] for g in range(nb)]
        s_left = _legs(tensor2, antipode, gens)
        s_right = _legs(tensor2, gens, antipode)
        for g in range(nb):
            rows.append((f"antipode law left[{alphabet.names[g]}]",
                         substitute(hopf.delta[g], s_left) - eps[g], 1))
            rows.append((f"antipode law right[{alphabet.names[g]}]",
                         substitute(hopf.delta[g], s_right) - eps[g], 1))
        for g in range(nb):
            twice = substitute(antipode[g], hopf.antipode, antihom=True)
            if twice == gens[g]:   # literal fixed point, no reduction needed
                rows.append(IdentityCheck(
                    f"S^2[{alphabet.names[g]}]",
                    f"S(S({alphabet.names[g]})) = {twice.render()}", True))
            else:
                rows.append((f"S^2[{alphabet.names[g]}]", twice - gens[g], 1))
    pending = [r for r, row in enumerate(rows) if not isinstance(row, IdentityCheck)]
    checks = rows[:]
    for base in completion_rungs(hopf.system, cap):
        systems = {1: base, 2: TensorPowerSystem(base, tensor2),
                   3: TensorPowerSystem(base, tensor3)}
        for r in pending:
            label, poly, power = rows[r]
            checks[r] = _reduce_row(label, poly, systems[power])
        if all(row.reduced_to_zero for row in checks):
            break
        pending = [r for r in pending if not checks[r].reduced_to_zero]
    kind = "Hopf algebra" if hopf.antipode is not None else "bialgebra"
    return CertificateReport.from_identities(
        f"{kind} axioms for the {hopf.n}x{hopf.n} presentation", checks,
        details={"cap": cap, "completion_status": base.status_label(),
                 "rule_count": len(base.rules)})


# -- transpose-product identities deriving a fourth family from three --

def _missing_family(families) -> str:
    missing = [f for f in ALL_FAMILIES if f not in families]
    if len(missing) != 1 or len(set(families)) != 3:
        raise ValueError("exactly three distinct relation families are required")
    return missing[0]


def matrix_inverse_from_families(n: int, families) -> CertificateReport:
    """From three families, verify x x^t = I or x^t x = I entry-wise.

    This is the computational core of the argument that three of the four
    relation families force the fourth: the stated transpose product
    collapses to the identity matrix inside the three-family algebra.  The
    remaining step of that argument (the matrix is then invertible with
    inverse given by the antipode, which converts the product identity
    into the missing family) is structural Hopf algebra reasoning and is
    recorded as not machine-checked here.
    """
    missing = _missing_family(families)
    pres = presentation(n, tuple(families))
    system = pres.system
    use_xxt = missing in (ROW_ORTH, COL_SUM)
    label = "x*xt" if use_xxt else "xt*x"
    # x x^t is the x^t x of the transpose
    entry = (lambda i, j: pres.gen(j, i)) if use_xxt else pres.gen
    rows = []
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            d = 1 if i == j else 0
            total = _gram(entry, n, i, j)
            rows.append(_reduce_row(f"({label})[i={i},j={j}] = delta", total - d, system))
    return CertificateReport.from_identities(
        f"families {sorted(families)} give {label} = I at n={n}", rows,
        details={
            "missing_family": missing,
            "identity": label,
            "machine_checked": f"entries of {label} - I reduce to zero",
            "not_machine_checked": "invertibility/antipode step converting the "
                                   "product identity into the missing family",
        })


def gram_diagonal_check(n: int) -> CertificateReport:
    """Over the semi-magic presentation: x^t x = diag(u_1, ..., u_n).

    Here u_i is the i-th column sum; off-diagonal entries vanish by row
    orthogonality and diagonal entries collapse to the column sums.
    """
    pres = semi_magic_presentation(n)
    rows = []
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            total = _gram(pres.gen, n, i, j)
            if i == j:
                for k in range(1, n + 1):
                    total = total - pres.gen(k, i)
            rows.append(_reduce_row(f"(xt*x)[i={i},j={j}] = delta*u_{i}", total,
                                    pres.system))
    return CertificateReport.from_identities(
        f"xt*x is diagonal with column-sum entries at n={n}", rows,
        details={"presentation": "semi-magic"})


# -- quotient onto functions on S_n --

SN_MAX_N = 8


def _require_sn_degree(n: int) -> None:
    if n > SN_MAX_N:
        raise ValueError(f"evaluation on S_n is capped at n = {SN_MAX_N} "
                         "(its cost grows with n!)")


def to_sn_function(p: NCPoly, n: int) -> dict:
    """Image of a u-polynomial under u_ij -> [sigma(j) = i], pointwise on S_n.

    The image is a plain dict from each image tuple (sigma(0), ...,
    sigma(n-1)) to its nonzero value.  The letters u_ij of a word fix
    sigma(j) = i.  When two of them clash the word maps to zero; otherwise
    to the indicator of the extensions of that partial permutation, which
    are enumerated directly rather than found by scanning S_n.
    """
    if len(p.alphabet) != n * n:
        raise ValueError(f"polynomial is not over the {n}x{n} generator alphabet")
    _require_sn_degree(n)
    values: dict = {}
    for w, c in p.terms.items():
        fixed = {}                      # column j -> sigma(j)
        for letter in w:
            i, j = divmod(letter, n)
            if fixed.setdefault(j, i) != i:
                break
        else:
            if len(set(fixed.values())) < len(fixed):
                continue                # two columns sent to one row
            free_cols = [j for j in range(n) if j not in fixed]
            free_rows = [i for i in range(n) if i not in fixed.values()]
            images = [fixed.get(j) for j in range(n)]
            for rows in itertools.permutations(free_rows):
                for j, i in zip(free_cols, rows):
                    images[j] = i
                sigma = tuple(images)
                values[sigma] = values.get(sigma, 0) + c
    return {sigma: c for sigma, c in values.items() if c}


def cycle_string(images: tuple) -> str:
    """1-based cycle notation of the permutation j -> images[j], or "id"."""
    n = len(images)
    seen = [False] * n
    cycles = []
    for start in range(n):
        if seen[start] or images[start] == start:
            seen[start] = True
            continue
        cyc = [start]
        seen[start] = True
        nxt = images[start]
        while nxt != start:
            cyc.append(nxt)
            seen[nxt] = True
            nxt = images[nxt]
        cycles.append("(" + " ".join(str(i + 1) for i in cyc) + ")")
    return "".join(cycles) if cycles else "id"


def render_on_sn(f: dict, limit: int = 8) -> str:
    """A function on S_n as a sum of indicators e[sigma], at most limit of them."""
    if not f:
        return "0"
    support = sorted(f)
    parts = [f"{f[s]}*e[{cycle_string(s)}]" for s in support[:limit]]
    if len(support) > limit:
        parts.append(f"... ({len(support)} supported permutations)")
    return " + ".join(parts)


def e_sigma_product_check(n: int) -> CertificateReport:
    """Each monomial u_{sigma(1)1} ... u_{sigma(n)n} maps to the indicator of sigma."""
    _require_sn_degree(n)
    alphabet = u_alphabet(n)
    perms = list(itertools.permutations(range(n)))
    rows = []
    for sigma in perms:
        word = tuple(sigma[j] * n + j for j in range(n))     # letters u_{sigma(j), j}
        image = to_sn_function(NCPoly(alphabet, {word: 1}), n)
        rows.append(IdentityCheck(
            label=f"indicator[{cycle_string(sigma)}]",
            polynomial="product of p[sigma(j),j] over columns j",
            reduced_to_zero=image == {sigma: 1}))
    return CertificateReport.from_identities(
        f"indicator functions on S_{n} factor through coordinate functions", rows,
        details={"n": n, "permutations": len(perms)})


def sn_relations_check(n: int) -> CertificateReport:
    """Every defining relation of the magic presentation maps to the zero function."""
    relations = family_relations(u_alphabet(n), n, ALL_FAMILIES)
    rows = []
    for label, rel in relations:
        image = to_sn_function(rel, n)
        rows.append(IdentityCheck(f"pi[{label}]", rel.render(), not image))
    return CertificateReport.from_identities(
        f"the S_{n} evaluation kills every defining relation", rows,
        details={"n": n, "relations": len(relations)})


def sn_isomorphism_check(n: int) -> CertificateReport:
    """Surjectivity always; basis count and evaluation rank for n <= 3;
    an explicit kernel element for n >= 4.  Both read `block_quotient`: on
    the one block (n,) it is A_s(n) itself, confluent at cap 4 for n <= 3."""
    rows = []
    details: dict = {"n": n}
    surj = e_sigma_product_check(n)
    rows.append(IdentityCheck(
        "surjectivity[e_sigma product formula]",
        f"all {math.factorial(n)} indicator functions factor as products",
        surj.verdict == VERIFIED))
    rel = sn_relations_check(n)
    rows.append(IdentityCheck(
        "relations map to zero",
        f"{len(rel.identities)} defining relations",
        rel.verdict == VERIFIED))
    if n <= 3:
        quotient = block_quotient(n, (n,))
        target = math.factorial(n)
        details["completion_status"] = quotient.status_label()
        if quotient.status == CONFLUENT:
            basis = quotient_basis(quotient)
            details["basis_count"] = len(basis)
            rows.append(IdentityCheck(
                "quotient dimension",
                f"basis size {len(basis)} (expected {target})",
                len(basis) == target))
            perms = list(itertools.permutations(range(n)))
            matrix = []
            for w in basis:
                f = to_sn_function(NCPoly(quotient.alphabet, {w: 1}), n)
                matrix.append([f.get(sigma, 0) for sigma in perms])
            rnk = linalg.rank(matrix)
            details["evaluation_rank"] = rnk
            rows.append(IdentityCheck(
                "evaluation matrix rank",
                f"rank {rnk} of the {len(basis)}x{target} evaluation matrix",
                rnk == target))
        else:                           # no basis to count or evaluate
            unknown = f"no basis: the quotient is {quotient.status_label()}"
            rows += [IdentityCheck("quotient dimension", unknown, False, inconclusive=True),
                     IdentityCheck("evaluation matrix rank", unknown, False, inconclusive=True)]
        details["conclusion"] = "isomorphism" if all(
            r.reduced_to_zero for r in rows) else "not verified"
    if n >= 4:
        witness, quotient, upstream = _wang_witness(n)
        image = to_sn_function(witness, n)
        rows.append(IdentityCheck(
            "kernel witness maps to zero",
            f"pi({witness.render()}) = {render_on_sn(image)}",
            not image))
        rows.append(IdentityCheck(
            "kernel witness is nonzero upstream",
            f"block quotient normal form: {upstream.render()}",
            bool(upstream), inconclusive=bool(upstream) and quotient.status != CONFLUENT))
        details["conclusion"] = "not injective (kernel witness exhibited)"
        details["kernel_witness"] = witness.render()
    return CertificateReport.from_identities(
        f"S_{n} quotient: surjectivity and (non-)isomorphism evidence", rows,
        details=details)


# -- the free-product certificate --

def off_block_relations(n: int, sizes) -> list[tuple[str, NCPoly]]:
    """Labelled u_ij, row-major, for i and j in different blocks: runs of
    consecutive points of the given sizes."""
    sizes = tuple(sizes)
    if any(size < 1 for size in sizes) or sum(sizes) != n:
        raise ValueError(f"block sizes {sizes} do not partition {n} points")
    u = _generators(u_alphabet(n), n)
    block = [b for b, size in enumerate(sizes) for _ in range(size)]
    return [(f"off-block[i={i + 1},j={j + 1}]", u(i + 1, j + 1))
            for i in range(n) for j in range(n) if block[i] != block[j]]


def block_quotient(n: int, sizes) -> RewriteSystem:
    """The Hopf quotient of A_s(n) by `off_block_relations`, completed at cap 4.

    It is the free product of the A_s(size) on the blocks: the algebra
    through which every coaction with those orbits factors."""
    quotient = magic_presentation(n).quotient(off_block_relations(n, sizes))
    return complete(quotient.system, 4).system


def _wang_blocks(n: int) -> tuple[int, ...]:
    """Blocks (2, 2, 1, ..., 1): their quotient is <p, q | p^2 = p, q^2 = q>."""
    return (2, 2) + (1,) * (n - 4)


def _wang_witness(n: int) -> tuple[NCPoly, RewriteSystem, NCPoly]:
    """[u11, u33], the block quotient on `_wang_blocks(n)` and its normal form there."""
    alphabet = u_alphabet(n)
    u11, u33 = NCPoly.gen(alphabet, 0), NCPoly.gen(alphabet, 2 * n + 2)
    commutator = u11 * u33 - u33 * u11
    quotient = block_quotient(n, _wang_blocks(n))
    return commutator, quotient, normal_form(commutator, quotient)


def wang_witness(n: int, depth: int = 10) -> CertificateReport:
    """Noncommutativity and infinite dimension of the size-n magic algebra.

    The block quotient of A_s(n) on blocks (2, 2, 1, ..., 1) completes to
    two idempotents p = u11 and q = u33 with u12, u21 -> 1 - u11,
    u22 -> u11 (likewise on the second block) and every other letter
    constant.  There [u11, u33] is its own nonzero normal form and the
    filtration dimensions grow as 2d + 1, so the magic algebra at size n,
    which maps onto the quotient, is noncommutative and infinite-dimensional.
    Both rows need the quotient confluent and are inconclusive otherwise.
    """
    if n < 4:
        raise ValueError("the certificate requires n >= 4")
    commutator, quotient, image = _wang_witness(n)
    witnessed = bool(image) and image == commutator
    rows = [IdentityCheck(
        "noncommutativity witness",
        f"[u11, u33] has normal form {image.render()} in the block quotient",
        witnessed, inconclusive=witnessed and quotient.status != CONFLUENT)]
    if quotient.status == CONFLUENT:
        dims = filtration_dimension(quotient, depth)
        rows.append(IdentityCheck(
            "infinite dimension",
            f"quotient filtration dimensions {dims} strictly increase (2d+1)",
            dims == [2 * d + 1 for d in range(depth + 1)]))
    else:                               # no basis to count
        dims = None
        rows.append(IdentityCheck(
            "infinite dimension", f"no basis: the quotient is {quotient.status_label()}",
            False, inconclusive=True))
    return CertificateReport.from_identities(
        f"size-{n} magic algebra is noncommutative and infinite-dimensional", rows,
        details={
            "blocks": list(_wang_blocks(n)),
            "depth": depth,
            "filtration": dims,
            "target_status": quotient.status_label(),
        })
