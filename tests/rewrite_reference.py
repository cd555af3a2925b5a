"""Reference normal forms, kept to cross-check qpalg's rule table.

A word is rewritten at its leftmost reducible position by the shortest
lhs that matches there, found by scanning the whole rule list: no index,
no heap.  Each rewrite strictly lowers the word in deglex, so the normal
form of a word is the normal form of its one-step rewrite, and a
polynomial's is the linear extension over its terms.
"""


def _one_step(word, rules):
    """(prefix, rule, suffix) of the leftmost, then shortest, match, or None."""
    for pos in range(len(word)):
        hits = [r for r in rules if word[pos:pos + len(r.lhs)] == r.lhs]
        if hits:
            rule = min(hits, key=lambda r: len(r.lhs))
            return word[:pos], rule, word[pos + len(rule.lhs):]
    return None


def reference_normal_form(terms: dict, rules) -> dict:
    """Normal form of a term map against a list of rules."""
    memo: dict = {}

    def word_nf(word) -> dict:
        if word not in memo:
            step = _one_step(word, rules)
            if step is None:
                memo[word] = {word: 1}
            else:
                pre, rule, suf = step
                memo[word] = combine((pre + w + suf, c) for w, c in rule.rhs.terms.items())
        return memo[word]

    def combine(pairs) -> dict:
        out: dict = {}
        for word, coeff in pairs:
            for w, c in word_nf(word).items():
                out[w] = out.get(w, 0) + coeff * c
        return {w: c for w, c in out.items() if c}

    return combine(terms.items())
