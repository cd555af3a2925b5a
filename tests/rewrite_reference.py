"""Reference normal forms and overlaps, kept to cross-check qpalg's rule
table and completion.

A word is rewritten at its leftmost reducible position by the shortest
lhs that matches there, found by a linear scan of the rule list: no
index, no heap.  The rules are grouped by lhs length, shortest first, so
the word is sliced once per length rather than once per rule.  Each
rewrite strictly lowers the word in deglex, so the normal form of a word
is the normal form of its one-step rewrite, and a polynomial's is the
linear extension over its terms.
"""


def _by_length(rules) -> list:
    """(lhs length, rules of that length in list order), shortest first."""
    return [(k, [r for r in rules if len(r.lhs) == k])
            for k in sorted({len(r.lhs) for r in rules})]


def _one_step(word, groups):
    """(prefix, rule, suffix) of the leftmost, then shortest, match, or None."""
    for pos in range(len(word)):
        for k, rules in groups:
            piece = word[pos:pos + k]
            if len(piece) < k:
                break
            for rule in rules:
                if rule.lhs == piece:
                    return word[:pos], rule, word[pos + k:]
    return None


def reference_one_step(word, rules):
    """The (word, coefficient) pairs of word's one-step rewrite against a
    list of rules, or None when no lhs matches: what `rewrite._one_step`
    must return."""
    step = _one_step(word, _by_length(rules))
    if step is None:
        return None
    pre, rule, suf = step
    return [(pre + w + suf, c) for w, c in rule.rhs.terms.items()]


def combine(pairs) -> dict:
    """The sum of coeff * terms over (terms, coeff) pairs, without the
    words whose coefficients cancel."""
    out: dict = {}
    for terms, coeff in pairs:
        for w, c in terms.items():
            out[w] = out.get(w, 0) + coeff * c
    return {w: c for w, c in out.items() if c}


def reference_normal_form(terms: dict, rules) -> dict:
    """Normal form of a term map against a list of rules."""
    memo: dict = {}
    groups = _by_length(rules)

    def word_nf(word) -> dict:
        if word not in memo:
            step = _one_step(word, groups)
            if step is None:
                memo[word] = {word: 1}
            else:
                pre, rule, suf = step
                memo[word] = combine((word_nf(pre + w + suf), c)
                                     for w, c in rule.rhs.terms.items())
        return memo[word]

    return combine((word_nf(w), c) for w, c in terms.items())


def reference_overlaps(active: dict, inserted) -> list:
    """(len(w), w, x, y, olap) for each inserted id still active against
    every active id <= it, in both orders, by trying every pair and every
    overlap length: the pairs `rewrite._OverlapIndex` must find."""
    out = []
    for i in inserted:
        if i not in active:
            continue
        for j in active:            # id order
            if j > i:
                break
            for x, y in {(i, j), (j, i)}:
                a, b = active[x].lhs, active[y].lhs
                for olap in range(1, min(len(a), len(b))):
                    if a[-olap:] == b[:olap]:
                        w = a + b[olap:]
                        out.append((len(w), w, x, y, olap))
    return out
