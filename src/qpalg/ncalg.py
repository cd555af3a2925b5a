"""Free associative algebra over an exact coefficient field.

Words are tuples of generator indices (the empty tuple is the unit
monomial); polynomials are sparse maps word -> nonzero coefficient.
The default monomial order is deglex: degree first, then lexicographic
on letter indices, which is total and compatible with concatenation.

Which values are scalars, and their canonical form, is `exactnum`'s
decision (`SCALARS`, `coeff_value`): an integral rational is a plain
``int``, a ``Fraction`` only when it is not, and a Cyclotomic stays as it
is, so the magic-matrix relations and their normal forms run on int
arithmetic.  The form is guaranteed where coefficients enter, in the
constructor and `parse_poly`, and where reduced terms leave `rewrite`, in
`normal_form` and every rule set.  The operators in between do not
re-canonicalise: a sum or product of Fractions may be an integral
``Fraction``, which compares and hashes equal to the ``int``.

One sparse merge, `_combine`, sums term maps for `+`, `-` and
tensor-power normal forms, and fixes the order of the terms: the parts
are summed one after another and a word that cancels is deleted on the
spot.  `_times`, the product of two term maps behind `*`, and
`rewrite._nf_sum`, the merge of memoised normal forms, keep the same
order.  `substitute` is the one extension of a generator map (scalar
images are constant polynomials).  It makes one pass over its argument's
words: each word's image is expanded letter by letter by `_times` over
the images' term maps, with no unit polynomial in front (the empty word
maps to one), and is added into one accumulator, so no polynomial, list
or generator is built per word.  `render` prints the terms in
descending deglex order, which it gets from two sorts on builtin keys:
the words descending, then stably by length, descending.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .exactnum import RATIONAL, SCALARS, coeff_value

Word = tuple


def deglex_key(word: Word):
    return (len(word), word)


class Alphabet:
    """Ordered set of distinct generator names; the order fixes deglex."""

    __slots__ = ("names", "_index")

    def __init__(self, names):
        names = tuple(names)
        if len(set(names)) != len(names):
            raise ValueError("generator names must be distinct")
        self.names = names
        self._index = {nm: i for i, nm in enumerate(names)}

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise ValueError(f"unknown generator {name!r}") from None

    def __len__(self):
        return len(self.names)

    def __eq__(self, other):
        return isinstance(other, Alphabet) and self.names == other.names

    def __hash__(self):
        return hash(self.names)

    def __repr__(self):
        return f"Alphabet({list(self.names)!r})"


def _combine(pairs) -> dict:
    """The sum of c * terms over the (terms, c) pairs, each c nonzero, as a
    fresh dict without the words whose coefficients cancel.

    A word that cancels is deleted on the spot, so the terms come out in
    the order of summing the pairs one after another.
    """
    acc: dict = {}
    get = acc.get
    for terms, c in pairs:
        for w, tc in terms.items():
            prev = get(w)
            if prev is None:
                acc[w] = c * tc
            else:
                s = prev + c * tc
                if s:
                    acc[w] = s
                else:
                    del acc[w]
    return acc


def _times(left: dict, right: dict) -> dict:
    """The product of two term maps, as a fresh dict without the words whose
    coefficients cancel, in the order of summing left's rows one after
    another, as `_combine` would."""
    acc: dict = {}
    get = acc.get
    for w1, c1 in left.items():
        for w2, c2 in right.items():
            w = w1 + w2
            prev = get(w)
            if prev is None:
                acc[w] = c1 * c2
            else:
                s = prev + c1 * c2
                if s:
                    acc[w] = s
                else:
                    del acc[w]
    return acc


class NCPoly:
    """Noncommutative polynomial: finite map from words to coefficients."""

    __slots__ = ("alphabet", "terms")

    def __init__(self, alphabet: Alphabet, terms=None):
        self.alphabet = alphabet
        clean = {}
        if terms:
            for w, c in terms.items():
                c = coeff_value(c)
                if c:
                    clean[tuple(w)] = c
        self.terms = clean

    # -- constructors --

    @classmethod
    def _trusted(cls, alphabet: Alphabet, terms: dict) -> "NCPoly":
        """Wrap a term map that is already clean (tuple words, nonzero exact
        coefficients), unchecked."""
        out = object.__new__(cls)
        out.alphabet = alphabet
        out.terms = terms
        return out

    @classmethod
    def zero(cls, alphabet: Alphabet) -> "NCPoly":
        return cls(alphabet)

    @classmethod
    def one(cls, alphabet: Alphabet) -> "NCPoly":
        return cls(alphabet, {(): 1})

    @classmethod
    def scalar(cls, alphabet: Alphabet, c) -> "NCPoly":
        return cls(alphabet, {(): c})

    @classmethod
    def gen(cls, alphabet: Alphabet, g) -> "NCPoly":
        i = alphabet.index(g) if isinstance(g, str) else g
        if not 0 <= i < len(alphabet):
            raise IndexError(f"generator index {i} out of range")
        return cls(alphabet, {(i,): 1})

    # -- inspection --

    def __bool__(self):
        return bool(self.terms)

    def leading_word(self) -> Word:
        if not self.terms:
            raise ValueError("zero polynomial has no leading word")
        return max(self.terms, key=deglex_key)

    # -- arithmetic --

    def _check(self, other: "NCPoly"):
        if self.alphabet is not other.alphabet and self.alphabet != other.alphabet:
            raise ValueError("alphabet mismatch")

    def _lift(self, other) -> "NCPoly | None":
        """other as a polynomial over self's alphabet (a scalar as a constant), else None."""
        if isinstance(other, SCALARS):
            return NCPoly.scalar(self.alphabet, other)
        return other if isinstance(other, NCPoly) else None

    def __add__(self, other):
        other = self._lift(other)
        if other is None:
            return NotImplemented
        self._check(other)
        return NCPoly._trusted(self.alphabet, _combine(((self.terms, 1), (other.terms, 1))))

    __radd__ = __add__

    def __neg__(self):
        return NCPoly._trusted(self.alphabet, {w: -c for w, c in self.terms.items()})

    def __sub__(self, other):
        other = self._lift(other)
        if other is None:
            return NotImplemented
        self._check(other)
        return NCPoly._trusted(self.alphabet, _combine(((self.terms, 1), (other.terms, -1))))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, SCALARS):
            c = coeff_value(other)
            if not c:
                return NCPoly.zero(self.alphabet)
            return NCPoly._trusted(self.alphabet, {w: v * c for w, v in self.terms.items()})
        if not isinstance(other, NCPoly):
            return NotImplemented
        self._check(other)
        return NCPoly._trusted(self.alphabet, _times(self.terms, other.terms))

    __rmul__ = __mul__        # scalars commute with polynomials

    def __eq__(self, other):
        other = self._lift(other)
        if other is None:
            return NotImplemented
        return self.alphabet == other.alphabet and self.terms == other.terms

    def __hash__(self):
        return hash((self.alphabet, frozenset(self.terms.items())))

    # -- rendering --

    def render(self) -> str:
        """Terms in descending deglex order; `parse_poly` reads the text back
        when every coefficient is rational."""
        terms = self.terms
        if not terms:
            return "0"
        names = self.alphabet.names
        words = sorted(terms, reverse=True)
        words.sort(key=len, reverse=True)
        parts = []
        for w in words:
            c = terms[w]
            cs = str(c)
            # an int prints as digits after at most a sign, never parenthesised
            if type(c) is not int and any(ch in cs for ch in "+- ") and \
                    not cs.lstrip("-").replace("/", "").isdigit():
                cs = f"({cs})"
            parts.append(f"{cs}*" + ".".join(map(names.__getitem__, w)) if w else cs)
        return " + ".join(parts).replace("+ -", "- ")

    def __str__(self):
        return self.render()

    def __repr__(self):
        return f"NCPoly({self.render()})"


def substitute(p: NCPoly, images: dict, antihom: bool = False) -> NCPoly:
    """Algebra-map (or anti-map) extension of a generator -> NCPoly table.

    Words map to the ordered product of their letters' images, reversed for
    the antihomomorphism direction; the map extends linearly and sends the
    unit to the unit.  The images fix the target algebra (p's own when
    there are none), and the images of p's letters must all live in it.
    One pass over p's words expands each word's product letter by letter
    into a plain term map (a one-letter word reads its image's terms) and
    adds it, times the word's coefficient, into one accumulator; the terms
    come out as summing the products one after another, a cancelled word
    deleted on the spot, lists them.
    """
    letters = {letter for w in p.terms for letter in w}
    missing = letters - images.keys()
    if missing:
        raise ValueError(f"no image for generator {p.alphabet.names[min(missing)]}")
    alphabet = next(iter(images.values())).alphabet if images else p.alphabet
    if any(a is not alphabet and a != alphabet
           for a in (images[letter].alphabet for letter in letters)):
        raise ValueError("alphabet mismatch")
    one = {(): 1}
    acc: dict = {}
    get = acc.get
    for w, c in p.terms.items():
        if antihom:
            w = w[::-1]
        if w:
            prod = images[w[0]].terms
            for letter in w[1:]:
                prod = _times(prod, images[letter].terms)
        else:
            prod = one
        for tw, tc in prod.items():
            prev = get(tw)
            if prev is None:
                acc[tw] = c * tc
            else:
                s = prev + c * tc
                if s:
                    acc[tw] = s
                else:
                    del acc[tw]
    return NCPoly._trusted(alphabet, acc)


class TensorAlgebra:
    """Tensor power of a free algebra encoded inside one free algebra.

    Factor i of a k-fold tensor product gets its own tagged copy of the
    base alphabet; letters of different factors commute, so every word
    straightens to factor-sorted form, which is deglex-smallest because
    factor-0 letters come first in the combined alphabet.
    """

    def __init__(self, base: Alphabet, factors: int = 2):
        if factors < 2:
            raise ValueError("need at least two tensor factors")
        self.base = base
        self.factors = factors
        names = [f"{nm}@{t}" for t in range(factors) for nm in base.names]
        self.alphabet = Alphabet(names)

    def letter(self, base_index: int, factor: int) -> int:
        return factor * len(self.base) + base_index

    def inject(self, p: NCPoly, factor: int) -> NCPoly:
        """Image of p under A -> A^(tensor k) into the given factor."""
        if p.alphabet != self.base:
            raise ValueError("polynomial is not over the base alphabet")
        if not 0 <= factor < self.factors:
            raise ValueError("factor out of range")
        shift = factor * len(self.base)
        return NCPoly._trusted(self.alphabet,
                               {tuple(i + shift for i in w): c for w, c in p.terms.items()})


# -- text syntax: terms "coeff*gen1.gen2...", e.g. "1*u11.u12 - 1*u12.u11" --

_TERM_RE = re.compile(r"\s*([+-]?)\s*([^+\s-][^+-]*)")
_COEFF_RE = re.compile(rf"^{RATIONAL}$")
_WORD_RE = re.compile(r"^[A-Za-z_][\w@]*(?:\.[A-Za-z_][\w@]*)*$")


def parse_poly(text: str, alphabet: Alphabet) -> NCPoly:
    """Parse the plain-text polynomial syntax over a known alphabet."""
    text = text.strip()
    if not text or text == "0":
        return NCPoly.zero(alphabet)
    terms: dict = {}
    pos = 0
    first = True
    while pos < len(text):
        m = _TERM_RE.match(text, pos)
        if not m or (not first and m.group(1) == ""):
            raise ValueError(f"cannot parse polynomial at {text[pos:]!r}")
        sign = -1 if m.group(1) == "-" else 1
        body = m.group(2).strip()
        if "*" in body:
            coeff_str, word_str = body.split("*", 1)
            coeff_str, word_str = coeff_str.strip(), word_str.strip()
        elif _COEFF_RE.match(body):
            coeff_str, word_str = body, ""
        else:
            coeff_str, word_str = "1", body
        if not _COEFF_RE.match(coeff_str):
            raise ValueError(f"bad coefficient {coeff_str!r} in {body!r}")
        if word_str and not _WORD_RE.match(word_str):
            raise ValueError(f"bad word {word_str!r} in {body!r}")
        letters = tuple(alphabet.index(nm) for nm in word_str.split(".")) if word_str else ()
        terms[letters] = terms.get(letters, 0) + sign * Fraction(coeff_str)
        pos = m.end()
        first = False
    return NCPoly(alphabet, terms)
