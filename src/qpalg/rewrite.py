"""Rewriting modulo a two-sided ideal of a free algebra.

Relations are oriented into rules lhs -> rhs with every rhs term strictly
below the lhs in deglex, so each rewrite strictly decreases the leading
word and normal forms terminate.  Completion resolves critical pairs in
increasing overlap degree up to a cap; a system that exhausts all pairs is
confluent and its normal forms are canonical coset representatives.  A
truncated system still certifies "reduces to zero", but a nonzero normal
form from it is inconclusive as an ideal non-membership claim.  Tensor
powers of a presented algebra are reduced factor by factor against its
own rules and carry its status.

Every rule set, whether interreduced, mid-completion or frozen, lives in
one `_RuleTable`: insertion-ordered rules whose ids count insertions,
indexed by one dict from lhs to rhs terms; a frozen `RewriteSystem` owns
one.  A word is rewritten at its leftmost reducible position by the
shortest lhs matching there.  Every lhs that matches at one position is
a prefix of the same suffix, so the shortest one is also the deglex
smallest, and the table keeps no order among its lhs.  On a confluent
system the strategy cannot change a normal form; on a truncated or
mid-cascade table it can, so it is fixed.  Fixed, the one-step rewrite
is a function of the word alone, so on an unchanged table the normal form
is linear, nf(sum c_w w) = sum c_w nf(w), and the table memoises nf per
word.  A normal form, of a word from its one-step rewrite or of a term
map from its words, is one merge of its memoised parts.  Inserting or
retiring a rule with lhs L drops only the memo words whose rewrites
reach a word containing L: a word avoiding L keeps its one-step rewrite,
so it keeps its normal form unless a word it rewrites to changes.  The
memo words that may contain L are found by adjacent letter pairs (a word
holding L holds every pair of L), and by a scan of the memo when L is
one letter.  A frozen system's memo lasts as long as the system.  Adding
a relation runs the one retirement cascade: reduce, orient, retire each
rule whose lhs contains the new lhs, then add the retired relations back,
first retired first.  `interreduce` is a loop of adds and `complete`
pairs every rule an add inserted, finding its overlaps through an index
of the active lhs by proper prefix and suffix.  Irreducible words are
enumerated level by level in `irreducible_words_by_length`, which the
filtration counts and quotient bases share, under one cap on the letters
they store.
"""

from __future__ import annotations

import heapq
from itertools import accumulate, islice
from dataclasses import dataclass, field

from .exactnum import SCALARS, inverse
from .ncalg import Alphabet, NCPoly, TensorAlgebra, Word, _combine, deglex_key, parse_poly

RAW = "raw"
TRUNCATED = "truncated"
CONFLUENT = "confluent"


@dataclass(frozen=True)
class RewriteRule:
    """Oriented relation: the word lhs rewrites to the polynomial rhs."""

    lhs: Word
    rhs: NCPoly

    def as_relation(self) -> NCPoly:
        return NCPoly(self.rhs.alphabet, {self.lhs: 1}) - self.rhs

    def render(self) -> str:
        lhs = ".".join(self.rhs.alphabet.names[i] for i in self.lhs)
        return f"{lhs} -> {self.rhs.render()}"


class RewriteSystem:
    """Frozen inter-reduced rule set with a completion status."""

    __slots__ = ("alphabet", "rules", "status", "status_degree", "_table")

    def __init__(self, alphabet: Alphabet, rules, status: str = RAW, status_degree=None):
        self.alphabet = alphabet
        self.rules = tuple(sorted(rules, key=lambda r: deglex_key(r.lhs)))
        self.status = status
        self.status_degree = status_degree
        self._table = _RuleTable(alphabet)
        for r in self.rules:
            self._table.insert(r)

    @classmethod
    def from_relations(cls, alphabet: Alphabet, relations) -> "RewriteSystem":
        return cls(alphabet, interreduce(alphabet, relations))

    @property
    def max_rule_degree(self) -> int:
        return self._table.max_len

    def status_label(self) -> str:
        if self.status == TRUNCATED:
            return f"complete_up_to({self.status_degree})"
        return self.status

    def reduce_terms(self, terms: dict) -> dict:
        return self._table.reduce_terms(terms)

    def __repr__(self):
        return (f"RewriteSystem({len(self.alphabet)} generators, "
                f"{len(self.rules)} rules, {self.status_label()})")


class InconsistentPresentation(ValueError):
    """The ideal contains a nonzero scalar, so the quotient collapses."""


def _orient(p: NCPoly) -> tuple[Word, NCPoly]:
    lhs = p.leading_word()
    if not lhs:
        raise InconsistentPresentation("relation reduces to a nonzero scalar")
    scale = -inverse(p.terms[lhs])
    return lhs, NCPoly(p.alphabet, {w: c * scale for w, c in p.terms.items() if w != lhs})


def _contains(big: Word, small: Word) -> bool:
    ls = len(small)
    return any(big[i:i + ls] == small for i in range(len(big) - ls + 1))


def _one_step(w: Word, rhs_of: dict, max_len: int) -> list | None:
    """The (word, coefficient) pairs of w's one-step rewrite, at the
    leftmost, then shortest, lhs in w; None when w is irreducible."""
    lw = len(w)
    for pos in range(lw):
        stop = pos + max_len
        for end in range(pos + 1, (stop if stop < lw else lw) + 1):
            rhs_terms = rhs_of.get(w[pos:end])
            if rhs_terms is not None:
                pre, suf = w[:pos], w[end:]
                return [(pre + rw + suf, rc) for rw, rc in rhs_terms.items()]
    return None


def _word_nf(word: Word, rhs_of: dict, max_len: int, memo: dict) -> dict:
    """Normal form of one word, memoising it and every word its rewrites reach.

    nf(w) is w when no lhs matches, else the sum of rc * nf(pre + rw + suf)
    over the rhs terms of the leftmost, then shortest, match.  An explicit
    stack stands in for the recursion, so rewrite chains of any length
    reduce.  A word enters the memo after every word it rewrites to.
    Entries may share dicts, so nothing outside the table may hold or
    mutate one.
    """
    stack: list = [(word, None)]
    while stack:
        w, step = stack.pop()
        if step is None:
            if w in memo:
                continue
            step = _one_step(w, rhs_of, max_len)
            if step is None:
                memo[w] = {w: 1}
                continue
            stack.append((w, step))     # revisited once every rewrite has its nf
            for nw, _ in step:
                if nw not in memo:
                    stack.append((nw, None))
            continue
        if len(step) == 1 and step[0][1] == 1:
            memo[w] = memo[step[0][0]]      # w -> nw with coefficient 1: same nf
            continue
        memo[w] = _combine((memo[nw], rc) for nw, rc in step)
    return memo[word]


def _reduce_terms(terms: dict, table: _RuleTable) -> dict:
    """Full normal form of a term map against a rule table, as a fresh dict.

    The one-step rewrite of a word (leftmost reducible position, shortest
    lhs matching there) depends on the word alone, so on a fixed table the
    normal form is linear: nf(sum c_w w) = sum c_w nf(w).  Each word's
    normal form is therefore memoised on the table, which drops the
    entries a rule change can alter; once every word is memoised, the
    result is one merge of their normal forms.
    """
    memo, rhs_of, max_len = table.nf_memo, table.rhs_of, table.max_len
    for w in terms:
        if w not in memo:
            _word_nf(w, rhs_of, max_len, memo)
    return _combine((memo[w], c) for w, c in terms.items())


class _RuleTable:
    """Insertion-ordered rules behind one lhs -> rhs terms index.

    Rule ids count insertions, so `active` iterates in id order.  `rhs_of`
    maps each active lhs to its rhs terms; `max_len` is the longest lhs
    ever inserted, an upper bound on the active ones.  `nf_memo` maps each
    reduced word to its normal form.  Inserting or retiring a rule drops
    the entries it can alter (`_forget`) and counts them in
    `memo_dropped`; the words reduced so far are `len(nf_memo) +
    memo_dropped`.  For `_forget`, `_parents` maps a memo word to the
    words rewriting to it in one step, and `_by_pair` maps two adjacent
    letters to the memo words of length >= 2 that hold them.
    """

    __slots__ = ("alphabet", "active", "rhs_of", "max_len", "nf_memo", "memo_dropped",
                 "_parents", "_by_pair", "_indexed", "_next_id")

    def __init__(self, alphabet: Alphabet):
        self.alphabet = alphabet
        self.active: dict[int, RewriteRule] = {}
        self.rhs_of: dict[Word, dict] = {}
        self.max_len = 0
        self.nf_memo: dict[Word, dict] = {}
        self.memo_dropped = 0
        self._parents: dict[Word, list[Word]] = {}     # memo word -> words rewriting to it
        self._by_pair: dict[tuple[int, int], set[Word]] = {}   # adjacent letters -> memo words
        self._indexed = 0           # the first _indexed memo words are in both maps
        self._next_id = 0

    def insert(self, rule: RewriteRule) -> int:
        if not rule.lhs or rule.lhs in self.rhs_of:
            raise ValueError(f"rule lhs {rule.lhs} is empty or already in the table")
        self._forget(rule.lhs)
        rid = self._next_id
        self._next_id += 1
        self.active[rid] = rule
        self.rhs_of[rule.lhs] = rule.rhs.terms
        self.max_len = max(self.max_len, len(rule.lhs))
        return rid

    def _retire(self, rid: int) -> RewriteRule:
        self._forget(self.active[rid].lhs)
        rule = self.active.pop(rid)
        del self.rhs_of[rule.lhs]
        return rule

    def _forget(self, lhs: Word) -> None:
        """Drop the memo words whose rewrites reach a word containing lhs.

        Runs before lhs is inserted or retired, so every entry was computed
        against the table as it stands.  A word avoiding lhs has the same
        one-step rewrite after the change, so its normal form survives
        unless a word it rewrites to is dropped: the dropped words are those
        containing lhs and their ancestors.  A word containing an lhs of
        length >= 2 holds each of its adjacent letter pairs, so only the
        memo words under its rarest pair are tested; a one-letter lhs has no
        pair, and the memo is scanned for its letter.  The ancestor edges
        and the pair index are extended here, for the words memoised since
        the last call only, so a table whose rules never change pays
        nothing.
        """
        memo = self.nf_memo
        if not memo:
            return
        parents, by_pair = self._parents, self._by_pair
        for w in islice(memo, self._indexed, None):
            for pair in set(zip(w, w[1:])):
                by_pair.setdefault(pair, set()).add(w)
            for child, _ in _one_step(w, self.rhs_of, self.max_len) or ():
                parents.setdefault(child, []).append(w)
        if len(lhs) == 1:
            stack = [w for w in memo if lhs[0] in w]
        else:
            holders = min((by_pair.get(pair, ()) for pair in set(zip(lhs, lhs[1:]))), key=len)
            stack = [w for w in holders if _contains(w, lhs)]
        dropped = set(stack)
        while stack:
            for p in parents.get(stack.pop(), ()):
                if p not in dropped:
                    dropped.add(p)
                    stack.append(p)
        for w in dropped:
            del memo[w]
            parents.pop(w, None)
            for pair in set(zip(w, w[1:])):
                by_pair[pair].discard(w)
            for child, _ in _one_step(w, self.rhs_of, self.max_len) or ():
                if child not in dropped:
                    siblings = parents[child]
                    siblings.remove(w)
                    if not siblings:
                        del parents[child]
        self.memo_dropped += len(dropped)
        self._indexed = len(memo)

    def reduce_terms(self, terms: dict) -> dict:
        return _reduce_terms(terms, self)

    def add(self, p: NCPoly) -> list[int]:
        """Add the relation p and run the retirement cascade.

        Each pending relation is reduced and oriented, and every rule whose
        lhs contains the new lhs is retired; the retired relations are
        added back, first retired first.  Returns the inserted rule ids in
        order (none when everything reduces to zero).
        """
        inserted = []
        pending = [p]
        for rel in pending:             # grows as rules retire
            q = NCPoly._trusted(self.alphabet, self.reduce_terms(rel.terms))
            if not q:
                continue
            lhs, rhs = _orient(q)
            n = len(lhs)        # lhs is irreducible: no active lhs of length <= n holds it
            for rid in [k for k, r in self.active.items()
                        if len(r.lhs) > n and _contains(r.lhs, lhs)]:
                pending.append(self._retire(rid).as_relation())
            inserted.append(self.insert(RewriteRule(lhs, rhs)))
        return inserted

    def final_rules(self) -> list[RewriteRule]:
        """The rules in deglex order of lhs, each rhs fully reduced."""
        out = []
        for rule in sorted(self.active.values(), key=lambda r: deglex_key(r.lhs)):
            rhs = NCPoly(self.alphabet, self.reduce_terms(rule.rhs.terms))
            out.append(RewriteRule(rule.lhs, rhs))
        return out


class TensorPowerSystem:
    """Normal forms in A^(tensor k) from a rewriting system for A.

    Letters of different factors commute, so a word straightens to its
    factor-sorted form with coefficient 1, and reducing each factor word
    in A then gives the normal form.  The commutations joined to a
    confluent system for each factor stay confluent (Bergman's diamond
    lemma), so the tensor power carries the base system's status.  A
    factor word missing from `_memo` is reduced by the base system, whose
    table memoises the untagged word's normal form; `_memo` keeps the
    re-tagged copy for the life of the instance.  Build one per
    certificate.
    """

    __slots__ = ("tensor", "base", "_memo")

    def __init__(self, base: RewriteSystem, tensor: TensorAlgebra):
        if tensor.base != base.alphabet:
            raise ValueError("tensor power and system alphabets differ")
        self.tensor = tensor
        self.base = base
        self._memo: dict[Word, dict] = {}

    @property
    def alphabet(self) -> Alphabet:
        return self.tensor.alphabet

    @property
    def status(self) -> str:
        return self.base.status

    def status_label(self) -> str:
        return self.base.status_label()

    def _factor_nf(self, part: Word, shift: int) -> dict:
        """Normal form of one factor's tagged word, as tagged terms."""
        nf = self._memo.get(part)
        if nf is None:
            word = tuple(l - shift for l in part)
            nf = {tuple(l + shift for l in w): c for w, c in
                  self.base.reduce_terms({word: 1}).items()}
            self._memo[part] = nf
        return nf

    def reduce_terms(self, terms: dict) -> dict:
        """Straighten each word by factor, then reduce every factor word in A."""
        nb = len(self.tensor.base)
        factors = self.tensor.factors
        out: dict = {}
        for w, c in terms.items():
            parts: list[list[int]] = [[] for _ in range(factors)]
            for letter in w:
                parts[letter // nb].append(letter)
            acc = {(): c}
            for f, part in enumerate(parts):
                if not part:
                    continue
                nf = self._factor_nf(tuple(part), f * nb)
                acc = {aw + fw: ac * fc for aw, ac in acc.items() for fw, fc in nf.items()}
                if not acc:
                    break
            # merged in place: through _combine it measured no faster and needed a second word memo
            for aw, ac in acc.items():
                s = out.get(aw, 0) + ac
                if s:
                    out[aw] = s
                else:
                    del out[aw]
        return out


def normal_form(p: NCPoly, system: RewriteSystem | TensorPowerSystem) -> NCPoly:
    if p.alphabet != system.alphabet:
        raise ValueError("polynomial and system alphabets differ")
    return NCPoly(system.alphabet, system.reduce_terms(p.terms))


def interreduce(alphabet: Alphabet, relations) -> list[RewriteRule]:
    """Orient relations into a rule set with pairwise non-overlapping lhs.

    No lhs contains another lhs as a factor and every rhs is fully reduced
    against the final rule set.  The relations are added smallest leading
    word first (ties in input order), each with its retirement cascade.
    """
    table = _RuleTable(alphabet)
    for p in sorted((p for p in relations if p), key=lambda p: deglex_key(p.leading_word())):
        table.add(p)
    return table.final_rules()


@dataclass
class CompletionResult:
    """Outcome of critical-pair completion up to a degree cap.

    `critical_pairs` counts the pairs pushed, the stale ones popped after a
    rule retired, the ones reduced and the S-polynomials that reduced to
    zero.  `memo_words` counts the words whose normal form the completion
    table computed and those that rule changes dropped from its memo.
    Neither is part of `to_dict`, which pins the rule set.
    """

    system: RewriteSystem
    cap: int
    rule_count_history: list[tuple[int, int]] = field(default_factory=list)
    critical_pairs: dict[str, int] = field(default_factory=dict)
    memo_words: dict[str, int] = field(default_factory=dict)

    @property
    def status(self) -> str:
        return self.system.status

    def to_dict(self) -> dict:
        return {
            "status": self.system.status_label(),
            "cap": self.cap,
            "rule_count": len(self.system.rules),
            "rule_count_history": [list(t) for t in self.rule_count_history],
        }


class _OverlapIndex:
    """One completion's rule ids, keyed by each proper prefix and each
    proper suffix of their lhs.

    Ids enter when they are paired and are never removed: a retired id is
    skipped when found, as ids are not reused.
    """

    __slots__ = ("active", "_starts", "_ends")

    def __init__(self, active: dict):
        self.active = active
        self._starts: dict[Word, list[int]] = {}      # proper prefix -> ids
        self._ends: dict[Word, list[int]] = {}        # proper suffix -> ids

    def overlaps(self, inserted: list[int]) -> list[tuple]:
        """(len(w), w, x, y, olap) for each overlap w of lhs x then lhs y by
        olap letters, where one of x, y is an inserted id still active and
        the other any active id <= it; a self-overlap comes once.

        Ids must arrive in increasing order across calls, so each inserted
        id meets exactly the ids paired before it, and itself.
        """
        active, starts, ends = self.active, self._starts, self._ends
        out = []
        for i in inserted:
            rule = active.get(i)
            if rule is None:
                continue
            a = rule.lhs
            la = len(a)
            for k in range(1, la):
                starts.setdefault(a[:k], []).append(i)
                ends.setdefault(a[k:], []).append(i)
            for olap in range(1, la):
                for j in starts.get(a[la - olap:], ()):        # a then lhs j
                    other = active.get(j)
                    if other is not None:
                        w = a + other.lhs[olap:]
                        out.append((len(w), w, i, j, olap))
                for j in ends.get(a[:olap], ()):               # lhs j then a
                    other = active.get(j)
                    if other is not None and j != i:
                        w = other.lhs + a[olap:]
                        out.append((len(w), w, j, i, olap))
        return out


def complete(system: RewriteSystem, degree_cap: int) -> CompletionResult:
    """Resolve all critical pairs of combined degree <= degree_cap.

    Returns a confluent system when every overlap at every degree resolves,
    otherwise one truncated at the cap.  Pairs are processed in increasing
    (degree, overlap word) order for determinism.  Every pushed pair is
    popped stale or reduced, unless the cap stops the run first.
    """
    if degree_cap < system.max_rule_degree:
        raise ValueError(
            f"degree cap {degree_cap} is below the maximal rule degree "
            f"{system.max_rule_degree}")
    for r in system.rules:
        for c in r.rhs.terms.values():
            if not isinstance(c, SCALARS):
                raise ValueError(
                    f"rule coefficients live in incompatible fields: "
                    f"{type(c).__name__} is not rational or cyclotomic")

    alphabet = system.alphabet
    table = _RuleTable(alphabet)
    active = table.active
    index = _OverlapIndex(active)
    heap: list = []
    counts = dict.fromkeys(("pushed", "stale", "reduced", "reduced_to_zero"), 0)

    def _push_pairs(inserted: list[int]):
        pairs = index.overlaps(inserted)
        for entry in pairs:
            heapq.heappush(heap, entry)
        counts["pushed"] += len(pairs)

    _push_pairs([table.insert(rule) for rule in system.rules])

    history: list[tuple[int, int]] = []
    last_degree = None
    skipped = False
    while heap:
        deg, w, i, j, olap = heapq.heappop(heap)
        if i not in active or j not in active:
            counts["stale"] += 1
            continue                      # stale pair; must not count as truncation
        if deg > degree_cap:
            skipped = True
            break
        if last_degree is not None and deg != last_degree:
            history.append((last_degree, len(active)))
        last_degree = deg
        a, ra = active[i].lhs, active[i].rhs
        b, rb = active[j].lhs, active[j].rhs
        suffix, prefix = b[olap:], a[:len(a) - olap]
        spoly = _combine((({rw + suffix: rc for rw, rc in ra.terms.items()}, 1),
                          ({prefix + rw: rc for rw, rc in rb.terms.items()}, -1)))
        counts["reduced"] += 1
        inserted = table.add(NCPoly._trusted(alphabet, spoly)) if spoly else []
        if not inserted:
            counts["reduced_to_zero"] += 1
        _push_pairs(inserted)
    if last_degree is not None:
        history.append((last_degree, len(active)))

    out = RewriteSystem(alphabet, table.final_rules(), status=TRUNCATED if skipped else CONFLUENT,
                        status_degree=degree_cap if skipped else None)
    memo_words = {"computed": len(table.nf_memo) + table.memo_dropped,
                  "dropped": table.memo_dropped}
    return CompletionResult(out, degree_cap, history, counts, memo_words)


def _require_counting_degree(system: RewriteSystem, d: int):
    if system.status == CONFLUENT:
        return
    need = d + system.max_rule_degree
    if system.status == TRUNCATED and (system.status_degree or 0) >= need:
        return
    raise ValueError(
        f"counting irreducible words of length <= {d} needs completion up to "
        f"degree {need}; system status is {system.status_label()}")


def irreducible_words_by_length(system: RewriteSystem, d: int) -> list[list[Word]]:
    """Words of each length 0..d containing no rule lhs as a factor.

    Each level extends the previous one by a letter: a one-letter
    extension of an irreducible word is irreducible iff no lhs is a
    suffix of it.  Raises before the stored words would hold more than
    WORD_ENUMERATION_MAX_LETTERS letters in all.
    """
    if d < 0:
        raise ValueError(f"word length bound must be non-negative, got {d}")
    rhs_of, max_rule = system._table.rhs_of, system.max_rule_degree
    levels = [[()]]
    budget = WORD_ENUMERATION_MAX_LETTERS
    for length in range(1, d + 1):
        nxt = []
        for w in levels[-1]:
            for a in range(len(system.alphabet)):
                nw = w + (a,)
                if not any(nw[-ls:] in rhs_of for ls in range(1, min(max_rule, length) + 1)):
                    budget -= length
                    if budget < 0:
                        raise ValueError(
                            f"irreducible-word enumeration is capped at "
                            f"{WORD_ENUMERATION_MAX_LETTERS} stored letters; the words "
                            f"of length <= {d} exceed it")
                    nxt.append(nw)
        levels.append(nxt)
    return levels


def filtration_dimension(system: RewriteSystem, d: int) -> list[int]:
    """Dimensions of the spans of irreducible words of length <= e, e=0..d."""
    _require_counting_degree(system, d)
    return list(accumulate(len(level) for level in irreducible_words_by_length(system, d)))


QUOTIENT_BASIS_MAX_DEGREE = 64
# `wang --n 4 --depth 999` stores 999 000 letters (26 MiB peak RSS); --depth 1000 crosses it
WORD_ENUMERATION_MAX_LETTERS = 10**6


def quotient_basis(system: RewriteSystem) -> list[Word]:
    """All irreducible words of a confluent system with a finite quotient.

    A length with no irreducible words ends the basis (no longer word can
    avoid reducible factors either).  Raises if the basis is still growing
    at QUOTIENT_BASIS_MAX_DEGREE.
    """
    if system.status != CONFLUENT:
        raise ValueError("quotient basis needs a confluent system")
    levels = irreducible_words_by_length(system, QUOTIENT_BASIS_MAX_DEGREE)
    if levels[-1]:
        raise ValueError(f"quotient basis still growing at degree {QUOTIENT_BASIS_MAX_DEGREE}")
    return sorted((w for level in levels for w in level), key=deglex_key)


# -- presentation text format --

def format_presentation(alphabet: Alphabet, relations) -> str:
    lines = ["alphabet: " + " ".join(alphabet.names), "order: deglex"]
    for rel in relations:
        lines.append(rel.render())
    return "\n".join(lines) + "\n"


def parse_presentation(text: str) -> tuple[Alphabet, list[NCPoly]]:
    alphabet = None
    relations = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("alphabet:"):
            alphabet = Alphabet(line.split(":", 1)[1].split())
            continue
        if line.startswith("order:"):
            if line.split(":", 1)[1].strip() != "deglex":
                raise ValueError("only the deglex order is supported")
            continue
        if alphabet is None:
            raise ValueError("presentation must declare an alphabet first")
        relations.append(parse_poly(line, alphabet))
    if alphabet is None:
        raise ValueError("presentation has no alphabet declaration")
    return alphabet, relations
