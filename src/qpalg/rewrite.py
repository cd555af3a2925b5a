"""Rewriting modulo a two-sided ideal of a free algebra.

Relations are oriented into rules lhs -> rhs with every rhs term strictly
below the lhs in deglex, so each rewrite strictly decreases the leading
word and normal forms terminate.  Completion resolves critical pairs in
increasing overlap degree up to a cap; a system that exhausts all pairs is
confluent and its normal forms are canonical coset representatives.  A
truncated system still certifies "reduces to zero", and nothing else: a
nonzero normal form from it is inconclusive as an ideal non-membership
claim, and its irreducible words are not counted as a basis.  Tensor
powers of a presented algebra are reduced factor by factor, each factor
word read from the algebra's normal-form memo, and carry its status.

Every rule set, whether interreduced, mid-completion or frozen, lives in
one `_RuleTable`: insertion-ordered rules whose ids count insertions,
indexed once, by a trie of the active lhs; a frozen `RewriteSystem` owns
one that no longer changes.  A word is rewritten at its leftmost
reducible position by the shortest lhs matching there, the first node
carrying rhs terms on the trie walk from that position.
Every lhs that matches at one position is a prefix of the same suffix,
so the shortest one is also the deglex smallest, and the table keeps no
order among its lhs.  On a confluent system the strategy cannot change a
normal form; on a truncated or mid-cascade table it can, so it is fixed.
Fixed, the one-step rewrite is a function of the word alone, so on an
unchanged table the normal form is linear, nf(sum c_w w) = sum c_w
nf(w), and the table memoises nf per word.  A memo entry is the word
itself when the word is irreducible (the unit's entry () is falsy, so
entries are told apart by class and identity), one shared read-only
mapping for every zero normal form, and a dict otherwise.  A normal form,
of a word from its one-step rewrite or of a term map from its words, is
one `_nf_sum` of its memoised parts.  A word enters the memo only after
every word it rewrites to, so the memo's insertion order is a
topological order of the rewrite graph.  Inserting or retiring a rule
with lhs L drops the memo suffix from the first word containing L:
every word whose rewrites reach a holder was stored after it, and a
word before it avoids L, so it keeps its one-step rewrite, and the words
it rewrites to come before it too.
The memo words that may contain L are found by adjacent letter pairs (a
word holding L holds every pair of L), and by a scan of the memo when L
is one letter.  Adding a relation runs the one retirement cascade:
reduce, orient, retire each rule whose lhs contains the new lhs, then
add the retired relations back, first retired first.  `interreduce` is a
loop of adds and `complete` pairs every rule an add inserted, finding
its overlaps through an index of the active lhs by proper prefix and
suffix.
Irreducible words are enumerated level by level in
`irreducible_words_by_length`, which the filtration counts and quotient
bases share, under one cap on the letters they store.
"""

from __future__ import annotations

import heapq
from itertools import accumulate, islice
from dataclasses import dataclass, field
from types import MappingProxyType

from .exactnum import SCALARS, inverse
from .ncalg import Alphabet, NCPoly, TensorAlgebra, Word, _combine, deglex_key, parse_poly

RAW = "raw"
TRUNCATED = "truncated"
CONFLUENT = "confluent"

_ZERO = MappingProxyType({})        # the one zero normal form every memo shares


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

    __slots__ = ("alphabet", "rules", "max_rule_degree", "status", "status_degree", "_table")

    def __init__(self, alphabet: Alphabet, rules, status: str = RAW, status_degree=None):
        self.alphabet = alphabet
        self.rules = tuple(sorted(rules, key=lambda r: deglex_key(r.lhs)))
        self.max_rule_degree = max((len(r.lhs) for r in self.rules), default=0)
        self.status = status
        self.status_degree = status_degree
        self._table = _RuleTable(alphabet)
        for r in self.rules:
            self._table.insert(r)

    @classmethod
    def from_relations(cls, alphabet: Alphabet, relations) -> "RewriteSystem":
        return cls(alphabet, interreduce(alphabet, relations))

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


def _one_step(w: Word, trie: dict) -> list | None:
    """The (word, coefficient) pairs of w's one-step rewrite, at the
    leftmost, then shortest, lhs in w; None when w is irreducible.

    The lhs trie is walked from each position in turn; the first node on
    the walk that carries rhs terms ends the shortest lhs matching there.
    """
    lw = len(w)
    for pos in range(lw):
        node = trie
        for end in range(pos, lw):
            entry = node.get(w[end])
            if entry is None:
                break
            node, rhs_terms = entry
            if rhs_terms is not None:
                pre, suf = w[:pos], w[end + 1:]
                return [(pre + rw + suf, rc) for rw, rc in rhs_terms.items()]
    return None


def _nf_sum(pairs, memo: dict) -> dict:
    """The sum of c * nf(w) over the (word, c) pairs, each c nonzero and
    each w memoised, as a fresh dict without the words whose coefficients
    cancel.

    Each word's memo entry is read once: an irreducible word adds c to
    itself, `_ZERO` adds nothing, and a dict adds its terms times c.  The
    word entry () is falsy, so entries are told apart by class and
    identity.  As in `_combine`, a word that cancels is deleted on the
    spot, so the terms come out in the order of summing the pairs.
    """
    acc: dict = {}
    get = acc.get
    for w, c in pairs:
        nf = memo[w]
        if type(nf) is tuple:
            prev = get(nf)
            if prev is None:
                acc[nf] = c
            else:
                s = prev + c
                if s:
                    acc[nf] = s
                else:
                    del acc[nf]
        elif nf is not _ZERO:
            for tw, tc in nf.items():
                prev = get(tw)
                if prev is None:
                    acc[tw] = c * tc
                else:
                    s = prev + c * tc
                    if s:
                        acc[tw] = s
                    else:
                        del acc[tw]
    return acc


def _word_nf(word: Word, trie: dict, memo: dict) -> None:
    """Memoise the normal form of one word and of every word its rewrites reach.

    nf(w) is w when no lhs matches, else the sum of rc * nf(pre + rw + suf)
    over the rhs terms of the leftmost, then shortest, match.  An explicit
    stack stands in for the recursion, so rewrite chains of any length
    reduce.  A word enters the memo after every word it rewrites to, an
    order `_RuleTable._forget` relies on.  An entry takes one of three
    forms: an irreducible word is its own entry, a word rewriting to zero
    in one step or whose normal form cancels gets the shared `_ZERO`, and
    every other normal form is a dict.  A word rewriting to one word with
    coefficient 1 shares that word's entry.  Entries may share dicts, so
    nothing outside the table may hold or mutate one.
    """
    stack: list = [(word, None)]
    while stack:
        w, step = stack.pop()
        if step is None:
            if w in memo:
                continue
            step = _one_step(w, trie)
            if step is None:
                memo[w] = w
            elif not step:
                memo[w] = _ZERO
            else:
                stack.append((w, step))     # revisited once every rewrite has its nf
                for nw, _ in step:
                    if nw not in memo:
                        stack.append((nw, None))
            continue
        if len(step) == 1 and step[0][1] == 1:
            memo[w] = memo[step[0][0]]      # w -> nw with coefficient 1: same nf
            continue
        memo[w] = _nf_sum(step, memo) or _ZERO


def _reduce_terms(terms: dict, table: _RuleTable) -> dict:
    """Full normal form of a term map against a rule table, as a fresh dict.

    The one-step rewrite of a word (leftmost reducible position, shortest
    lhs matching there) depends on the word alone, so on a fixed table the
    normal form is linear: nf(sum c_w w) = sum c_w nf(w).  Each word's
    normal form is therefore memoised on the table, which drops the
    entries a rule change can alter; once every word is memoised, the
    result is one `_nf_sum` of their entries, so a word, `_ZERO` or a
    shared dict in the memo never reaches the caller.
    """
    memo, trie = table.nf_memo, table.trie
    for w in terms:
        if w not in memo:
            _word_nf(w, trie, memo)
    return _nf_sum(terms.items(), memo)


class _RuleTable:
    """Insertion-ordered rules behind one index, a trie of their lhs.

    Rule ids count insertions, so `active` iterates in id order.  `trie`
    is nested dicts, letter -> (child node, rhs terms or None): the node
    at the end of an active lhs carries its rhs terms, and a retired lhs
    leaves its path with None there; `insert` refuses an lhs whose node
    carries rhs terms.  `nf_memo` maps each reduced word to its normal
    form, in the order `_word_nf` stored them: the word itself when it is
    irreducible (() for the unit, a falsy entry), `_ZERO` when it is zero,
    and a dict otherwise.  Inserting or retiring a rule drops the memo
    suffix it can alter (`_forget`) and counts its words in
    `memo_dropped`; the words reduced so far are `len(nf_memo) +
    memo_dropped`.  For `_forget`, `_by_pair` maps two adjacent letters to
    the memo words of length >= 2 that hold them.
    """

    __slots__ = ("alphabet", "active", "trie", "nf_memo", "memo_dropped",
                 "_by_pair", "_indexed", "_next_id")

    def __init__(self, alphabet: Alphabet):
        self.alphabet = alphabet
        self.active: dict[int, RewriteRule] = {}
        self.trie: dict = {}
        self.nf_memo: dict[Word, Word | dict] = {}
        self.memo_dropped = 0
        self._by_pair: dict[tuple[int, int], set[Word]] = {}   # adjacent letters -> memo words
        self._indexed = 0           # the first _indexed memo words are in _by_pair
        self._next_id = 0

    def _set_rhs(self, lhs: Word, rhs_terms: dict | None) -> None:
        """Put rhs_terms (None to clear) at lhs's trie node, making its
        path; an lhs whose node already carries rhs terms is refused."""
        if not lhs:
            raise ValueError("rule lhs is empty")
        node = self.trie
        for a in lhs[:-1]:
            node = node.setdefault(a, ({}, None))[0]
        child, held = node.get(lhs[-1], ({}, None))
        if held is not None and rhs_terms is not None:
            raise ValueError(f"rule lhs {lhs} is already in the table")
        node[lhs[-1]] = (child, rhs_terms)

    def insert(self, rule: RewriteRule) -> int:
        self._set_rhs(rule.lhs, rule.rhs.terms)
        self._forget(rule.lhs)
        rid = self._next_id
        self._next_id += 1
        self.active[rid] = rule
        return rid

    def _retire(self, rid: int) -> RewriteRule:
        rule = self.active.pop(rid)
        self._set_rhs(rule.lhs, None)
        self._forget(rule.lhs)
        return rule

    def _forget(self, lhs: Word) -> None:
        """Drop the memo suffix from the first word containing lhs.

        Runs as lhs is inserted or retired, before any word is reduced
        against the changed table, so every entry was computed against the
        table as it stood.  `_word_nf` stores a word after every word it
        rewrites to, so each word whose rewrites reach a holder of lhs comes
        after that holder and falls in the suffix.  A word before the first
        holder avoids lhs, so it keeps its one-step rewrite, and the words
        it rewrites to stay too: its normal form survives.  A word
        containing an lhs of length >= 2 holds each of its adjacent letter
        pairs, so only the memo words under its rarest pair are tested; a
        one-letter lhs has no pair, and the memo is scanned for its letter.
        The pair index is extended here, for the words memoised since the
        last call only.
        """
        by_pair, memo = self._by_pair, self.nf_memo
        if not memo:
            return
        for w in islice(memo, self._indexed, None):
            for pair in set(zip(w, w[1:])):
                by_pair.setdefault(pair, set()).add(w)
        if len(lhs) == 1:
            holders = {w for w in memo if lhs[0] in w}
        else:
            under = min((by_pair.get(pair, ()) for pair in set(zip(lhs, lhs[1:]))), key=len)
            holders = {w for w in under if _contains(w, lhs)}
        size = len(memo)
        while holders:
            w, _ = memo.popitem()
            holders.discard(w)
            for pair in set(zip(w, w[1:])):
                by_pair[pair].discard(w)
        self.memo_dropped += size - len(memo)
        self._indexed = len(memo)

    def reduce_terms(self, terms: dict) -> dict:
        return _reduce_terms(terms, self)

    def nf_entry(self, word: Word):
        """word's memo entry, memoised first if missing: the word it reduces
        to when that is irreducible, `_ZERO`, or a dict; read only."""
        memo = self.nf_memo
        if word not in memo:
            _word_nf(word, self.trie, memo)
        return memo[word]

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
    factor word missing from `_memo` is read from the base table's memo
    entry of the untagged word (`_RuleTable.nf_entry`), with no base
    `reduce_terms` call; `_memo` keeps the re-tagged copy for the life of
    the instance.  Build one per certificate.  A word is split one factor
    at a time, and dropped at its first zero factor before later factors
    are split: most terms of a Delta row die at factor 0 (u_ia.u_ib -> 0
    for a != b).  A word's factor normal forms are all looked up before
    any product of them is built.  Each surviving word's product of
    factor normal forms goes, with the word's coefficient, to one
    `_combine` call for the whole map.
    """

    __slots__ = ("tensor", "base", "_bounds", "_memo")

    def __init__(self, base: RewriteSystem, tensor: TensorAlgebra):
        if tensor.base != base.alphabet:
            raise ValueError("tensor power and system alphabets differ")
        self.tensor = tensor
        self.base = base
        nb = len(tensor.base)
        self._bounds = [(f * nb, (f + 1) * nb) for f in range(tensor.factors)]
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
        """Normal form of one factor's tagged word missing from `_memo`, as
        tagged terms, now kept there.

        It is the base table's memo entry of the untagged word, re-tagged:
        an irreducible entry is the word the key reduces to, which a chain
        of coefficient-1 rewrites makes a word other than the key.
        """
        entry = self.base._table.nf_entry(tuple([l - shift for l in part]))
        if type(entry) is tuple:
            entry = {entry: 1}
        nf = self._memo[part] = {tuple([l + shift for l in w]): c for w, c in entry.items()}
        return nf

    def reduce_terms(self, terms: dict) -> dict:
        """Straighten each word by factor, then reduce every factor word in A."""
        return _combine(self._products(terms))

    def _products(self, terms: dict):
        """(product of w's factor normal forms, c) per term c*w with no zero factor.

        A word is split one factor at a time, and the split stops at the
        first factor whose normal form is zero."""
        bounds, memo = self._bounds, self._memo
        for w, c in terms.items():
            nfs = []
            for lo, hi in bounds:
                part = tuple([l for l in w if lo <= l < hi])
                if part:
                    nf = memo.get(part)
                    if nf is None:
                        nf = self._factor_nf(part, lo)
                    if not nf:
                        break
                    nfs.append(nf)
            else:
                acc = nfs[0] if nfs else {(): 1}
                for nf in nfs[1:]:
                    acc = {aw + fw: ac * fc for aw, ac in acc.items() for fw, fc in nf.items()}
                yield acc, c


def normal_form(p: NCPoly, system: RewriteSystem | TensorPowerSystem) -> NCPoly:
    if p.alphabet != system.alphabet:
        raise ValueError("polynomial and system alphabets differ")
    return NCPoly(system.alphabet, system.reduce_terms(p.terms))


def interreduce(alphabet: Alphabet, relations) -> list[RewriteRule]:
    """Orient relations into a rule set with pairwise non-overlapping lhs.

    No lhs contains another lhs as a factor and every rhs is fully reduced
    against the final rule set.  The relations are added smallest leading
    word first (ties in input order), each with its retirement cascade.
    A relation over another alphabet is refused.
    """
    relations = list(relations)
    if any(p.alphabet != alphabet for p in relations):
        raise ValueError("relation and system alphabets differ")
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
        spoly = {rw + suffix: rc for rw, rc in ra.terms.items()}
        for rw, rc in rb.terms.items():       # minus prefix * rb, in place
            word = prefix + rw
            prev = spoly.get(word)
            if prev is None:
                spoly[word] = -rc
                continue
            diff = prev - rc
            if diff:
                spoly[word] = diff
            else:
                del spoly[word]
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


def irreducible_words_by_length(system: RewriteSystem, d: int) -> list[list[Word]]:
    """Words of each length 0..d containing no rule lhs as a factor.

    They are a basis of the quotient only on a confluent system (Bergman's
    diamond lemma), so any other system is refused.  Each level extends
    the previous one by a letter: a one-letter extension of an irreducible
    word is irreducible iff no lhs is a suffix of it.  Raises before the
    stored words would hold more than WORD_ENUMERATION_MAX_LETTERS letters
    in all.
    """
    if d < 0:
        raise ValueError(f"word length bound must be non-negative, got {d}")
    if system.status != CONFLUENT:
        raise ValueError(f"irreducible words need a confluent completion; "
                         f"system status is {system.status_label()}")
    lhs_set, max_rule = {r.lhs for r in system.rules}, system.max_rule_degree
    levels = [[()]]
    budget = WORD_ENUMERATION_MAX_LETTERS
    for length in range(1, d + 1):
        nxt = []
        for w in levels[-1]:
            for a in range(len(system.alphabet)):
                nw = w + (a,)
                if not any(nw[-ls:] in lhs_set for ls in range(1, min(max_rule, length) + 1)):
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
    """Dimensions of the spans of irreducible words of length <= e, e=0..d.

    The irreducible words are a basis of the quotient only on a confluent
    system (Bergman's diamond lemma); on a truncated one a pair above the
    cap can still give a rule of low degree, so nothing else is counted.
    """
    if system.status != CONFLUENT:
        raise ValueError(f"filtration dimensions need a confluent completion; "
                         f"system status is {system.status_label()}")
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
            if alphabet is not None:
                raise ValueError(f"presentation declares a second alphabet: {line!r}")
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
