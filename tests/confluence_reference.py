"""Bergman's diamond lemma, re-checked from the rules alone.

A rule set is a list of (lhs, rhs terms) pairs: lhs a tuple of letters,
the rhs a dict word -> coefficient.  A word is rewritten at its rightmost
reducible position by the shortest lhs ending there, found by a dict
lookup of each suffix, and word normal forms are kept in a plain dict.
That strategy differs from `qpalg.rewrite`'s; on a confluent system no
strategy changes a normal form.  Every ambiguity of the rule set is
listed: an overlap a = xy, b = yz of two lhs (x, y, z nonempty), and an
inclusion of one lhs in another.  It resolves when its two one-step
rewrites have the same normal form.  This module imports nothing from
`qpalg`, so it shares no code with the trie, the rule table or the memo.
"""


class Reducer:
    def __init__(self, rules):
        self.rhs = dict(rules)
        self.lengths = sorted({len(lhs) for lhs in self.rhs})
        self.memo = {}

    def word_nf(self, w: tuple) -> dict:
        if w not in self.memo:
            self.memo[w] = self._rewrite(w)
        return self.memo[w]

    def _rewrite(self, w: tuple) -> dict:
        for end in range(len(w), 0, -1):
            for length in self.lengths:
                if length > end:
                    break
                rhs = self.rhs.get(w[end - length:end])
                if rhs is not None:
                    return self.nf({w[:end - length] + rw + w[end:]: rc
                                    for rw, rc in rhs.items()})
        return {w: 1}

    def nf(self, terms: dict) -> dict:
        out = {}
        for w, c in terms.items():
            for nw, nc in self.word_nf(w).items():
                out[nw] = out.get(nw, 0) + c * nc
        return {w: c for w, c in out.items() if c}


def ambiguities(rules, max_len=None):
    """(word, one rewrite, other rewrite) per ambiguity, as term maps,
    over the ambiguity words of length <= max_len (all when None)."""
    rules = list(rules)
    for a, ra in rules:
        for b, rb in rules:
            for olap in range(1, min(len(a), len(b))):        # a = xy, b = yz
                if a[len(a) - olap:] == b[:olap]:
                    w = a + b[olap:]
                    if max_len is None or len(w) <= max_len:
                        yield (w, {rw + b[olap:]: c for rw, c in ra.items()},
                               {a[:len(a) - olap] + rw: c for rw, c in rb.items()})
            for k in range(len(a) - len(b) + 1):              # b inside a
                if a[k:k + len(b)] == b and a != b and (max_len is None or len(a) <= max_len):
                    yield a, dict(ra), {a[:k] + rw + a[k + len(b):]: c for rw, c in rb.items()}


def unresolved(rules, max_len=None) -> list:
    """The ambiguity words whose two rewrites reduce to different normal forms."""
    reducer = Reducer(rules)
    return [w for w, left, right in ambiguities(rules, max_len)
            if reducer.nf(left) != reducer.nf(right)]


def nonzero_relations(rules, relations) -> list:
    """The relations (term maps) whose normal form is not zero."""
    reducer = Reducer(rules)
    return [terms for terms in relations if reducer.nf(terms)]
