"""Reference rendering of a polynomial, kept to cross-check `NCPoly.render`.

The terms are sorted by one key, (length, word), descending, and every
coefficient goes through the same parenthesis test, ints included.
"""

from qpalg.ncalg import deglex_key


def reference_render(p) -> str:
    if not p.terms:
        return "0"
    parts = []
    for w in sorted(p.terms, key=deglex_key, reverse=True):
        cs = str(p.terms[w])
        if any(ch in cs for ch in "+- ") and not cs.lstrip("-").replace("/", "").isdigit():
            cs = f"({cs})"
        parts.append(cs if not w else f"{cs}*" + ".".join(p.alphabet.names[i] for i in w))
    return " + ".join(parts).replace("+ -", "- ")
