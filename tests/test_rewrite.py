import hashlib
import itertools
import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from qpalg.exactnum import zeta
from qpalg.ncalg import Alphabet, NCPoly, TensorAlgebra, _combine, deglex_key, parse_poly
from qpalg.qperm import block_quotient, magic_presentation
from qpalg.rewrite import (CONFLUENT, InconsistentPresentation, RewriteRule, RewriteSystem,
                           TensorPowerSystem, complete, filtration_dimension,
                           format_presentation, interreduce, irreducible_words_by_length,
                           normal_form, parse_presentation, quotient_basis, _OverlapIndex,
                           _RuleTable)
from rewrite_reference import combine, reference_normal_form, reference_overlaps
from tensor_reference import reference_tensor_system

F = Fraction


def idempotent_pair_system():
    A = Alphabet(["p", "q"])
    p, q = NCPoly.gen(A, 0), NCPoly.gen(A, 1)
    return RewriteSystem.from_relations(A, [p * p - p, q * q - q]), p, q


# -- normal forms --

def test_normal_form_magic_examples(magic):
    pres2 = magic[2]
    u = pres2.gen
    assert normal_form(u(1, 1) * u(1, 2), pres2.system) == 0
    for n in (2, 3, 4):
        pres = magic[n]
        nf = normal_form(pres.gen(1, 1) * pres.gen(1, 1), pres.system)
        assert nf == pres.gen(1, 1)
    assert normal_form(NCPoly.one(pres2.alphabet), pres2.system) == 1


def test_normal_form_idempotent_and_linear(magic):
    rng = random.Random(23)
    pres = magic[3]
    alpha = pres.alphabet

    def rand_poly():
        terms = {tuple(rng.randrange(9) for _ in range(rng.randrange(3))):
                 F(rng.randint(-3, 3)) for _ in range(3)}
        return NCPoly(alpha, terms)

    for _ in range(40):
        p, q = rand_poly(), rand_poly()
        a, b = F(rng.randint(-3, 3)), F(rng.randint(-3, 3))
        nfp, nfq = normal_form(p, pres.system), normal_form(q, pres.system)
        assert normal_form(nfp, pres.system) == nfp
        assert normal_form(a * p + b * q, pres.system) == a * nfp + b * nfq


@settings(max_examples=80, deadline=None)
@given(terms=st.dictionaries(st.lists(st.integers(0, 8), max_size=5).map(tuple),
                             st.integers(-4, 4).filter(bool), max_size=5),
       spelt=st.lists(st.booleans(), min_size=5, max_size=5))
def test_normal_form_same_for_int_and_fraction_spelling(completed_magic, terms, spelt):
    """Integral coefficients reduce alike whether they are int or Fraction."""
    system = completed_magic[3].system
    alpha = system.alphabet
    as_int = NCPoly(alpha, terms)
    as_fraction = NCPoly._trusted(alpha, {w: F(c) for w, c in terms.items()})
    mixed = NCPoly._trusted(alpha, {w: F(c) if f else c
                                    for (w, c), f in zip(terms.items(), spelt)})
    nf = normal_form(as_int, system)
    assert all(type(c) is int for c in nf.terms.values())
    for p in (as_fraction, mixed):
        nfp = normal_form(p, system)
        assert nfp == nf
        assert normal_form(nfp, system) == nfp
    assert normal_form(nf, system) == nf


TENSOR_CASES = ((2, 2), (3, 2), (2, 3))   # (matrix size n, tensor factors k)


@pytest.fixture(scope="module")
def tensor_systems(completed_magic):
    """Factor-wise and reference systems for A^(tensor k), A the magic algebra."""
    out = {}
    for n, k in TENSOR_CASES:
        base = completed_magic[n].system
        tensor = TensorAlgebra(base.alphabet, k)
        out[n, k] = TensorPowerSystem(base, tensor), reference_tensor_system(base, tensor)
    return out


@pytest.mark.parametrize("n,k", TENSOR_CASES)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_tensor_normal_form_matches_reference(tensor_systems, n, k, data):
    factorwise, reference = tensor_systems[n, k]
    letters = st.integers(0, k * n * n - 1)
    terms = data.draw(st.dictionaries(st.lists(letters, max_size=5).map(tuple),
                                      st.integers(-3, 3), max_size=4))
    p = NCPoly(factorwise.alphabet, terms)
    nf = normal_form(p, factorwise)
    assert nf == normal_form(p, reference)
    assert normal_form(nf, factorwise) == nf
    assert factorwise.status == CONFLUENT


def test_rewrite_strictly_decreases_leading_word(magic):
    rng = random.Random(29)
    pres = magic[3]
    for rule in pres.system.rules:
        for w in rule.rhs.terms:
            assert deglex_key(w) < deglex_key(rule.lhs)
    for _ in range(30):
        terms = {tuple(rng.randrange(9) for _ in range(rng.randrange(4))):
                 F(rng.randint(-2, 2)) for _ in range(3)}
        p = NCPoly(pres.alphabet, terms)
        nf = normal_form(p, pres.system)
        if p and nf:
            assert deglex_key(nf.leading_word()) <= deglex_key(p.leading_word())



@pytest.fixture(scope="module")
def strategy_systems(magic):
    """Systems whose normal forms depend on the rewriting strategy."""
    xyz = Alphabet(["x", "y", "z"])
    x, y, z = (NCPoly.gen(xyz, i) for i in range(3))
    overlapping = RewriteSystem(xyz, [          # x.y is a factor of x.y.z
        RewriteRule((0, 1), z + y - 1),
        RewriteRule((0, 1, 2), 2 * y * y - x),
        RewriteRule((1, 2), x - 3)])
    return {
        "magic4-raw": magic[4].system,
        "magic5-cap3": complete(magic_presentation(5).system, 3).system,
        "x.y and x.y.z": overlapping,
    }


@pytest.mark.parametrize("name", ["magic4-raw", "magic5-cap3", "x.y and x.y.z"])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_normal_form_matches_the_plain_reducer(strategy_systems, name, data):
    """Leftmost position, then shortest lhs, as a rule-list scan computes it."""
    system = strategy_systems[name]
    letters = st.integers(0, len(system.alphabet) - 1)
    terms = data.draw(st.dictionaries(st.lists(letters, max_size=5).map(tuple),
                                      st.integers(-3, 3).filter(bool), max_size=4))
    nf = normal_form(NCPoly(system.alphabet, terms), system)
    assert nf.terms == reference_normal_form(terms, system.rules)


def test_rule_table_rejects_repeated_or_empty_lhs():
    A = Alphabet(["x", "y"])
    x, y = NCPoly.gen(A, 0), NCPoly.gen(A, 1)
    with pytest.raises(ValueError, match="lhs"):
        RewriteSystem(A, [RewriteRule((0, 1), x), RewriteRule((0, 1), y)])
    with pytest.raises(ValueError, match="lhs"):
        RewriteSystem(A, [RewriteRule((), NCPoly.zero(A))])


# -- completion --

def test_complete_magic_2_exhaustive_reduction_oracle(completed_magic):
    res = completed_magic[2]
    assert res.status == CONFLUENT
    basis = quotient_basis(res.system)
    names = [".".join(res.system.alphabet.names[i] for i in w) or "1" for w in basis]
    assert names == ["1", "u11"]
    # oracle: every word of length <= 6 reduces into span{1, u11}
    allowed = {(), (0,)}
    for length in range(7):
        for word in itertools.product(range(4), repeat=length):
            nf = normal_form(NCPoly(res.system.alphabet, {word: 1}), res.system)
            assert set(nf.terms) <= allowed


def test_complete_magic_3_dimension(completed_magic):
    res = completed_magic[3]
    assert res.status == CONFLUENT
    assert len(quotient_basis(res.system)) == 6


def test_complete_idempotent_pair_no_new_rules():
    sys0, p, q = idempotent_pair_system()
    res = complete(sys0, 10)
    assert res.status == CONFLUENT
    assert len(res.system.rules) == 2
    assert {r.lhs for r in res.system.rules} == {(0, 0), (1, 1)}
    # oracle: enumerate every overlap of degree <= 10 among the input rules
    # and check both reductions of the overlap word agree
    rules = {r.lhs: r.rhs for r in sys0.rules}
    for a, b in itertools.product(rules, repeat=2):
        for olap in range(1, min(len(a), len(b))):
            if a[-olap:] != b[:olap]:
                continue
            w = a + b[olap:]
            assert len(w) <= 10
            via_a = NCPoly(sys0.alphabet, {rw + b[olap:]: c
                                           for rw, c in rules[a].terms.items()})
            via_b = NCPoly(sys0.alphabet, {a[:len(a) - olap] + rw: c
                                           for rw, c in rules[b].terms.items()})
            assert normal_form(via_a - via_b, res.system) == 0


def test_complete_rejects_low_cap(magic):
    with pytest.raises(ValueError):
        complete(magic[3].system, 1)


def test_complete_with_cyclotomic_coefficients():
    A = Alphabet(["x"])
    x = NCPoly.gen(A, 0)
    sys0 = RewriteSystem.from_relations(A, [x * x - zeta(4) * x])
    res = complete(sys0, 8)
    assert res.status == CONFLUENT
    assert normal_form(x * x * x, res.system) == -x


def _rule_coefficients(system):
    return [c for r in system.rules for c in r.rhs.terms.values()]


def test_orient_divides_exactly():
    """Orientation by a leading coefficient other than +-1 gives an int when
    the quotient is integral and a Fraction in lowest terms otherwise."""
    A = Alphabet(["x", "y"])
    x, y = NCPoly.gen(A, 0), NCPoly.gen(A, 1)
    cases = [([2 * x * y - 3 * y * x, 3 * y * y - 1], ["y.x -> 2/3*x.y", "y.y -> 1/3"]),
             ([2 * y * x - 4 * x * y, 3 * y * y - 1], ["y.x -> 2*x.y", "y.y -> 1/3"])]
    for relations, rendered in cases:
        sys0 = RewriteSystem.from_relations(A, relations)
        assert [r.render() for r in sys0.rules] == rendered
        res = complete(sys0, 8)
        assert res.status == CONFLUENT
        # yx = q xy with q*q != 1 and yy = 1/3: yyx = x/3 = q*q x/3, so x = 0
        assert normal_form(x, res.system) == 0
        coeffs = _rule_coefficients(sys0) + _rule_coefficients(res.system)
        assert any(type(c) is F for c in coeffs)
        for c in coeffs:
            assert type(c) is int or (type(c) is F and c.denominator > 1)
    # leading coefficient -1: the rules keep int coefficients
    sys1 = RewriteSystem.from_relations(A, [x * y - y * x, x * x - y * y - 2 * x])
    assert [r.render() for r in sys1.rules] == ["y.x -> 1*x.y", "y.y -> 1*x.x - 2*x"]
    assert all(type(c) is int for c in _rule_coefficients(sys1))


def test_magic_rule_sets_have_int_coefficients(completed_magic, semi_magic):
    for system in (completed_magic[3].system, completed_magic[4].system,
                   semi_magic[4].system):
        assert all(type(c) is int for c in _rule_coefficients(system))


def test_complete_coefficient_guard():
    A = Alphabet(["x"])

    def one_rule(c):
        return RewriteSystem(A, [RewriteRule((0, 0), NCPoly._trusted(A, {(0,): c}))])

    with pytest.raises(ValueError, match="incompatible fields"):
        complete(one_rule(0.5), 4)
    for c in (2, F(1, 2), zeta(4)):
        assert complete(one_rule(c), 4).status == CONFLUENT


def test_completion_result_report_shape(completed_magic):
    payload = completed_magic[2].to_dict()
    assert payload["status"] == "confluent"
    assert payload["rule_count"] == len(completed_magic[2].system.rules)
    assert payload["rule_count_history"]


# -- zero reduction --

def test_reduces_to_zero_row_sum_expansion(magic):
    pres = magic[4]
    u = pres.gen
    rowsum = u(1, 1) + u(1, 2) + u(1, 3) + u(1, 4) - 1
    assert not normal_form(u(1, 1) * rowsum, pres.system)


def test_reduces_to_zero_commutator_false(completed_magic):
    res = completed_magic[4]
    pres_alpha = res.system.alphabet
    u11 = NCPoly.gen(pres_alpha, 0)
    u33 = NCPoly.gen(pres_alpha, 10)
    assert normal_form(u11 * u33 - u33 * u11, res.system)
    assert not normal_form(NCPoly.zero(pres_alpha), res.system)


def test_quotient_multiplication_well_defined(completed_magic):
    rng = random.Random(31)
    sys3 = completed_magic[3].system

    def rand_poly():
        terms = {tuple(rng.randrange(9) for _ in range(rng.randrange(3))):
                 F(rng.randint(-2, 2)) for _ in range(3)}
        return NCPoly(sys3.alphabet, terms)

    for _ in range(30):
        p, q = rand_poly(), rand_poly()
        lhs = normal_form(p * q, sys3)
        rhs = normal_form(normal_form(p, sys3) * normal_form(q, sys3), sys3)
        assert lhs == rhs


def test_commutators_vanish_for_small_sizes(completed_magic):
    for n in (2, 3):
        sysn = completed_magic[n].system
        nn = n * n
        for a in range(nn):
            for b in range(nn):
                pa = NCPoly.gen(sysn.alphabet, a)
                pb = NCPoly.gen(sysn.alphabet, b)
                assert not normal_form(pa * pb - pb * pa, sysn)


# -- filtration dimensions --

def test_filtration_idempotent_pair_alternating_oracle():
    sys0, p, q = idempotent_pair_system()
    res = complete(sys0, 10)
    dims = filtration_dimension(res.system, 10)

    def oracle(d):
        count = 0
        for length in range(d + 1):
            for word in itertools.product(range(2), repeat=length):
                if any(word[i] == word[i + 1] for i in range(length - 1)):
                    continue
                count += 1
        return count

    assert dims == [oracle(d) for d in range(11)]
    assert dims == [2 * d + 1 for d in range(11)]


def test_filtration_magic_2(completed_magic):
    assert filtration_dimension(completed_magic[2].system, 5) == [1, 2, 2, 2, 2, 2]


def test_filtration_magic_3_stabilizes(completed_magic):
    dims = filtration_dimension(completed_magic[3].system, 8)
    assert dims[-1] == 6 and dims[-2] == 6


@pytest.mark.parametrize("n", [2, 3])
def test_quotient_basis_is_the_flattened_enumeration(completed_magic, n):
    system = completed_magic[n].system
    depth = 6
    levels = irreducible_words_by_length(system, depth)
    assert [len(level) for level in levels[-2:]] == [0, 0]
    flat = sorted((w for level in levels for w in level), key=deglex_key)
    assert quotient_basis(system) == flat
    assert filtration_dimension(system, depth)[-1] == len(flat)
    for w in flat:
        word = NCPoly(system.alphabet, {w: 1})
        assert normal_form(word, system) == word


def test_filtration_requires_completion(magic):
    with pytest.raises(ValueError, match="completion"):
        filtration_dimension(magic[3].system, 4)


# -- interreduction invariants --

def test_interreduce_invariants(magic):
    for n in (2, 3, 4):
        rules = magic[n].system.rules
        lhs = [r.lhs for r in rules]
        assert len(set(lhs)) == len(lhs)
        for a in lhs:
            for b in lhs:
                if a != b:
                    assert not any(a[i:i + len(b)] == b
                                   for i in range(len(a) - len(b) + 1))
        for r in rules:
            renf = normal_form(r.rhs, magic[n].system)
            assert renf == r.rhs


def test_rule_table_add_returns_the_cascade():
    A = Alphabet(["x", "y"])
    x, y = NCPoly.gen(A, 0), NCPoly.gen(A, 1)
    table = _RuleTable(A)
    assert table.add(x * y * x - x) == [0]
    # y.x -> y retires x.y.x, which comes back as x.y -> x
    assert table.add(y * x - y) == [1, 2]
    assert {rid: r.render() for rid, r in table.active.items()} == {
        1: "y.x -> 1*y", 2: "x.y -> 1*x"}
    assert table.add(x * y - x) == []


def test_inconsistent_presentation_detected():
    A = Alphabet(["x"])
    x = NCPoly.gen(A, 0)
    with pytest.raises(InconsistentPresentation):
        interreduce(A, [x - 1, x])


# -- presentation text format --

def test_presentation_roundtrip(magic):
    pres = magic[2]
    text = format_presentation(pres.alphabet, [p for _, p in pres.relations])
    alphabet, relations = parse_presentation(text)
    assert alphabet == pres.alphabet
    assert relations == [p for _, p in pres.relations]
    rebuilt = RewriteSystem.from_relations(alphabet, relations)
    assert rebuilt.rules == pres.system.rules


_NAMES = st.from_regex(r"[A-Za-z_][A-Za-z0-9_@]{0,3}", fullmatch=True)
_COEFFS = st.one_of(st.integers(-5, 5),
                    st.fractions(min_value=-5, max_value=5, max_denominator=7))


@st.composite
def _presentations(draw):
    """An alphabet of 1-4 names and relations with int and Fraction
    coefficients; a relation may be a constant or zero."""
    names = draw(st.lists(_NAMES, min_size=1, max_size=4, unique=True))
    alphabet = Alphabet(names)
    words = st.lists(st.integers(0, len(names) - 1), max_size=3).map(tuple)
    relations = draw(st.lists(
        st.dictionaries(words, _COEFFS, max_size=4).map(lambda t: NCPoly(alphabet, t)),
        max_size=4))
    return alphabet, relations


@settings(max_examples=200, deadline=None)
@given(_presentations())
def test_presentation_text_roundtrip(presentation):
    alphabet, relations = presentation
    assert parse_presentation(format_presentation(alphabet, relations)) == \
        (alphabet, relations)


def test_presentation_parse_errors():
    with pytest.raises(ValueError):
        parse_presentation("order: deglex\n1*x")
    with pytest.raises(ValueError):
        parse_presentation("alphabet: x\norder: lex\n")


# -- golden rule sets --

# sha256 of the status label and rendered rules of each system, plus the
# completion report for completed ones.  A truncated completion depends on
# the order in which critical pairs are resolved, so the n = 5 cap 3 entry
# pins that order as well as the rules.  The n = 5 cap 8 run (confluent,
# 203 rules) is the one where memoised word normal forms do the most work.
GOLDEN_RULES = {
    "magic 1": "dc04dd513315e928dac166cda5ba1a191a6ce0d5d8efdea65b6087c037d47dc7",
    "semi-magic 1": "dc04dd513315e928dac166cda5ba1a191a6ce0d5d8efdea65b6087c037d47dc7",
    "magic 2": "f0c468bc1b2e3c592daffdb4a5ffee67007d986393272b4ef27eb8aa1e4c8ea4",
    "semi-magic 2": "2e2dcc26f7282cd808ce19ece59f98b747d557cd1786897659b3431d0ba44463",
    "magic 3": "2acea287bb7d22507b092f31a75192ba6bf67bb82ef5d2b24c3714c2eb93de88",
    "semi-magic 3": "11c1df5affe58a9d50c879389c538b0662af9ccb044736a12ae3f4d402ea8ac6",
    "magic 4": "3d6fe9563a48eedbb7a63a5238470ad484ea157481a9e3eb0b359ff2ed48aaae",
    "semi-magic 4": "cfb78873fd362bbadd95448916a3a426bcc9823597709471743eda437a6e3ebc",
    "magic 5": "d1c10bea915a80af269958c6ca0cd86a86c811514648f0b06794e3acf94c13b8",
    "semi-magic 5": "f7340bd2a41fd7f45791e5044d6e86080822e8f050823c385de82a7affbc8c4c",
    "magic 4 shuffled 1": "3d6fe9563a48eedbb7a63a5238470ad484ea157481a9e3eb0b359ff2ed48aaae",
    "magic 4 shuffled 2": "3d6fe9563a48eedbb7a63a5238470ad484ea157481a9e3eb0b359ff2ed48aaae",
    "magic 4 shuffled 3": "3d6fe9563a48eedbb7a63a5238470ad484ea157481a9e3eb0b359ff2ed48aaae",
    "complete magic 3 cap 8": "9520a0166dd7622112ffc9e02f8323d44b086ee1fc0f42e4e3b4dc321f1f9a96",
    "complete magic 4 cap 8": "5a8d70910476ad341212ae4643093c119acb93dae95d3220e17193e68542074c",
    "complete magic 5 cap 3": "51b8ce959f67784ecc9d962f08fe568f6dda32a75482dcfbe8f612f7f7c2ed66",
    "block quotient 4 (2, 2)": "bad01bb6a95003b2d1a0db5392637377384c354f0f7aa4a2d2f08a14db8d238f",
    "complete magic 5 cap 8": "0409ab9915ff76ca259345d54ee3c1d769e47bd3614da734e53fad3e82199321",
}


def test_golden_rule_sets(magic, semi_magic, completed_magic):
    def render(system):
        return "\n".join([system.status_label()] + [r.render() for r in system.rules])

    def completed(res):
        return render(res.system) + "\n" + json.dumps(res.to_dict(), sort_keys=True)

    magic5 = magic_presentation(5)
    texts = {}
    for n in range(1, 6):
        texts[f"magic {n}"] = render((magic[n] if n < 5 else magic5).system)
        texts[f"semi-magic {n}"] = render(semi_magic[n].system)
    for seed in (1, 2, 3):
        rels = [p for _, p in magic[4].relations]
        random.Random(seed).shuffle(rels)
        texts[f"magic 4 shuffled {seed}"] = render(
            RewriteSystem.from_relations(magic[4].alphabet, rels))
    texts["complete magic 3 cap 8"] = completed(completed_magic[3])
    texts["complete magic 4 cap 8"] = completed(completed_magic[4])
    texts["complete magic 5 cap 3"] = completed(complete(magic5.system, 3))
    texts["complete magic 5 cap 8"] = completed(complete(magic5.system, 8))
    texts["block quotient 4 (2, 2)"] = render(block_quotient(4, (2, 2)))
    digests = {k: hashlib.sha256(v.encode()).hexdigest() for k, v in texts.items()}
    assert digests == GOLDEN_RULES


# -- retirement cascade, pinned on random presentations --

XYZ = Alphabet(["x", "y", "z"])


def _random_presentation(seed: int) -> list[NCPoly]:
    """1-3 relations over {x, y, z}: 1-3 terms each, words of length <= 3,
    coefficients +-1 or 2."""
    rng = random.Random(seed)
    relations = []
    for _ in range(rng.randint(1, 3)):
        rel = NCPoly.zero(XYZ)
        for _ in range(rng.randint(1, 3)):
            word = tuple(rng.randrange(3) for _ in range(rng.randint(0, 3)))
            rel = rel + NCPoly(XYZ, {word: rng.choice((1, -1, 2))})
        relations.append(rel)
    return relations


# sha256 over seeds 0..99 of the interreduced rules, and of the rules
# completed at cap max(5, rule degree) with the completion report; an
# inconsistent presentation contributes its exception name instead.
GOLDEN_RANDOM = {
    "interreduced": "c43b9ebbea998136026808bc701b7940236ff8c95a621c7b43b70a4e99cf8a7d",
    "completed": "31cf2c3a771326118df99d13e159e814d64ff63156fa1b697eff53d9a1a23d2c",
}


def test_random_presentations_are_pinned():
    texts = {"interreduced": [], "completed": []}
    for seed in range(100):
        relations = _random_presentation(seed)
        try:
            system = RewriteSystem.from_relations(XYZ, relations)
        except ValueError as exc:
            texts["interreduced"].append(type(exc).__name__)
            texts["completed"].append(type(exc).__name__)
            continue
        texts["interreduced"].append("\n".join(r.render() for r in system.rules))
        try:
            res = complete(system, max(5, system.max_rule_degree))
        except ValueError as exc:
            texts["completed"].append(type(exc).__name__)
            continue
        texts["completed"].append("\n".join(
            [r.render() for r in res.system.rules] + [json.dumps(res.to_dict(), sort_keys=True)]))
    digests = {k: hashlib.sha256("\n--\n".join(v).encode()).hexdigest()
               for k, v in texts.items()}
    assert digests == GOLDEN_RANDOM


# -- overlaps of completion, against trying every pair --

# relations over {x, y, z}: 1-3 terms, words of length <= 4
_small_words = st.lists(st.integers(0, 2), max_size=4).map(tuple)
_small_polys = st.dictionaries(_small_words, st.sampled_from((1, -1, 2)), min_size=1, max_size=3)


@settings(max_examples=80, deadline=None)
@given(start=st.lists(_small_polys, max_size=4), added=st.lists(_small_polys, max_size=6))
def test_overlap_index_matches_every_pair(start, added):
    """Rules paired as completion pairs them: a frozen system's rules in one
    batch, then each add's cascade; lhs such as x.x.x overlap themselves."""
    try:
        system = RewriteSystem.from_relations(XYZ, [NCPoly(XYZ, t) for t in start])
    except InconsistentPresentation:
        return
    table = _RuleTable(XYZ)
    index = _OverlapIndex(table.active)
    inserted = [table.insert(rule) for rule in system.rules]
    for terms in [None] + added:
        if terms is not None:
            try:
                inserted = table.add(NCPoly(XYZ, terms))
            except InconsistentPresentation:
                return
        assert sorted(index.overlaps(inserted)) == sorted(
            reference_overlaps(table.active, inserted))


def _canonical(c) -> bool:
    return type(c) is int or (type(c) is F and c.denominator > 1)


def test_integral_coefficients_leave_rewrite_as_int():
    """Against x.y -> 1/2*y, 2*x.y reduces to the int 1*y, in A and in its
    tensor square; two rational relations interreduce to x -> -3, y -> 6."""
    A = Alphabet(["x", "y"])
    system = RewriteSystem.from_relations(A, [parse_poly("2*x.y - y", A)])
    tensor = TensorAlgebra(A, 2)
    p = parse_poly("2*x.y", A)
    for nf in (normal_form(p, system),
               normal_form(tensor.inject(p, 0) * tensor.inject(p, 1),
                           TensorPowerSystem(system, tensor))):
        assert [(c, type(c)) for c in nf.terms.values()] == [(1, int)]
    rules = interreduce(A, [parse_poly("1/2*y + 1/3*x - 2", A), parse_poly("-1/2*y - 1*x", A)])
    assert [r.render() for r in rules] == ["x -> -3", "y -> 6"]
    assert [type(c) for r in rules for c in r.rhs.terms.values()] == [int, int]


@settings(max_examples=80, deadline=None)
@given(relations=st.lists(_small_polys, min_size=1, max_size=4),
       polys=st.lists(_small_polys, min_size=1, max_size=4))
def test_rules_and_normal_forms_have_canonical_coefficients(relations, polys):
    """Every rule coefficient and every normal-form coefficient, in A and in
    its tensor square, is an int or a Fraction with denominator > 1."""
    try:
        system = RewriteSystem.from_relations(XYZ, [NCPoly(XYZ, t) for t in relations])
    except InconsistentPresentation:
        return
    tensor = TensorAlgebra(XYZ, 2)
    square = TensorPowerSystem(system, tensor)
    coeffs = _rule_coefficients(system)
    for terms in polys:
        p = NCPoly(XYZ, terms)
        coeffs += normal_form(p, system).terms.values()
        coeffs += normal_form(tensor.inject(p, 0) * tensor.inject(p, 1), square).terms.values()
    assert all(_canonical(c) for c in coeffs), coeffs


def test_critical_pair_counts_are_pinned(completed_magic):
    """Pairs pushed, popped stale, reduced and reduced to zero, and words
    the completion table computed and dropped from its memo."""
    magic5 = complete(magic_presentation(5).system, 3)
    assert completed_magic[3].critical_pairs == {
        "pushed": 56, "stale": 0, "reduced": 56, "reduced_to_zero": 56}
    assert completed_magic[4].critical_pairs == {
        "pushed": 543, "stale": 0, "reduced": 543, "reduced_to_zero": 528}
    assert magic5.critical_pairs == {
        "pushed": 2192, "stale": 0, "reduced": 1124, "reduced_to_zero": 1065}
    assert completed_magic[4].memo_words == {"computed": 2202, "dropped": 16}
    assert magic5.memo_words == {"computed": 3308, "dropped": 63}


# -- the rule table's memo of word normal forms --

@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 99), data=st.data())
def test_memo_is_exact_while_the_table_changes(seed, data):
    """The same polynomials, reduced after every add, agree with the plain
    reducer over the rules active at that moment."""
    words = st.lists(st.integers(0, 2), max_size=6).map(tuple)
    polys = data.draw(st.lists(st.dictionaries(words, st.integers(-3, 3).filter(bool),
                                               max_size=4), min_size=1, max_size=4))
    table = _RuleTable(XYZ)
    for relation in _random_presentation(seed):
        try:
            table.add(relation)
        except InconsistentPresentation:
            return
        rules = list(table.active.values())
        for terms in polys:
            assert table.reduce_terms(terms) == reference_normal_form(terms, rules)


def test_memo_drops_the_words_that_contain_a_new_lhs():
    A = Alphabet(["x", "y"])
    x, y = NCPoly.gen(A, 0), NCPoly.gen(A, 1)
    table = _RuleTable(A)
    table.add(y * x - x * y)
    word = {(1, 1, 0): 1}
    assert table.reduce_terms(word) == {(0, 1, 1): 1}       # y.y.x -> x.y.y
    table.add(y * y - x)                                     # y.y is a factor of x.y.y
    assert table.reduce_terms(word) == {(0, 0): 1}


def test_memo_drops_a_word_whose_rewrite_reaches_the_new_lhs():
    """z.x avoids y.y but rewrites to it; x.z and its normal form stay."""
    x, y, z = (NCPoly.gen(XYZ, i) for i in range(3))
    table = _RuleTable(XYZ)
    table.add(z * x - y * y)
    assert table.reduce_terms({(2, 0): 1, (0, 2): 1}) == {(1, 1): 1, (0, 2): 1}
    kept, dropped = table.nf_memo[(0, 2)], table.memo_dropped
    table.add(y * y - x)
    assert (2, 0) not in table.nf_memo and (1, 1) not in table.nf_memo
    assert table.nf_memo[(0, 2)] is kept and table.memo_dropped == dropped + 2
    assert table.reduce_terms({(2, 0): 1}) == {(0,): 1}


def test_memo_drops_a_word_whose_normal_form_cancelled():
    """z.z.z.z -> z.x.x - y.x reduces to x.x - x.x = 0 until x.y -> x
    reroutes x.y.z, two rewrites below it; the edges come from the
    rewrites, not from the (empty) normal form."""
    x, y, z = (NCPoly.gen(XYZ, i) for i in range(3))
    table = _RuleTable(XYZ)
    for lhs, rhs in [((1, 2), x), ((1, 0), x * x), ((2, 0, 0), x * y * z),
                     ((2, 2, 2, 2), z * x * x - y * x)]:
        table.insert(RewriteRule(lhs, rhs))
    assert table.reduce_terms({(2, 2, 2, 2): 1}) == {}
    table.add(x * y - x)
    assert (0, 0) in table.nf_memo and (1, 0) in table.nf_memo
    assert table.reduce_terms({(2, 2, 2, 2): 1}) == {(0, 2): 1, (0, 0): -1}


def test_a_one_letter_lhs_drops_the_words_holding_its_letter():
    """A one-letter lhs has no adjacent pair to look words up by, so the
    memo is scanned for the letter; the words rewriting into those go too."""
    x, y, z = (NCPoly.gen(XYZ, i) for i in range(3))
    table = _RuleTable(XYZ)
    for lhs, rhs in [((1, 0), z), ((0, 0), y)]:             # y.x -> z, x.x -> y
        table.insert(RewriteRule(lhs, rhs))
    words = [(2,), (2, 1), (0, 2, 1), (1, 0), (0, 1, 0), (0, 0, 0), (0, 1), (1, 1), (0, 0, 1),
             (1,)]
    table.reduce_terms(dict.fromkeys(words, 1))
    before, dropped = dict(table.nf_memo), table.memo_dropped
    holders = {w for w in before if 2 in w}
    ancestors = {(1, 0), (0, 1, 0), (0, 0, 0)}     # -> z, -> x.z, -> y.x
    assert holders >= {(2,), (2, 1), (0, 2, 1), (0, 2)} and ancestors <= before.keys()
    table.insert(RewriteRule((2,), x))
    assert table.nf_memo.keys() == before.keys() - holders - ancestors
    assert all(nf is before[w] for w, nf in table.nf_memo.items())
    assert table.memo_dropped == dropped + len(holders | ancestors)
    rules = list(table.active.values())
    for w in before:
        assert table.reduce_terms({w: 1}) == reference_normal_form({w: 1}, rules)


def _factors(w) -> set:
    return {w[i:j] for i in range(len(w) + 1) for j in range(i, len(w) + 1)}


class _RetirementLog(_RuleTable):
    """A rule table that checks each insert of the retirement cascade
    against the rules it retired just before."""

    __slots__ = ("retired",)

    def __init__(self, alphabet):
        super().__init__(alphabet)
        self.retired = {}

    def _retire(self, rid):
        self.retired[rid] = rule = super()._retire(rid)
        return rule

    def insert(self, rule):
        was_active = {**self.active, **self.retired}
        assert self.retired.keys() == {k for k, r in was_active.items()
                                       if rule.lhs in _factors(r.lhs)}
        self.retired.clear()
        return super().insert(rule)


@settings(max_examples=100, deadline=None)
@given(relations=st.lists(_small_polys, min_size=1, max_size=8))
def test_retirement_takes_exactly_the_rules_holding_the_new_lhs(relations):
    """Every insert of an add retires the active rules whose lhs has the new
    lhs as a factor, by a filter over all factors, and no others; after
    every add no active lhs is a factor of another."""
    table = _RetirementLog(XYZ)
    for relation in relations:
        try:
            table.add(NCPoly(XYZ, relation))
        except InconsistentPresentation:
            return
        assert not table.retired
        lhss = [r.lhs for r in table.active.values()]
        assert not [(a, b) for a in lhss for b in lhss if a != b and a in _factors(b)]


@pytest.mark.parametrize("c", [2, F(1, 2), zeta(3)], ids=["int", "Fraction", "Cyclotomic"])
def test_combine_sums_into_a_fresh_dict_without_zeros(c):
    """Against the reference sum, with words that cancel part way and words
    that cancel in the end, for each coefficient type."""
    a, b, d = (0,), (0, 1), (1, 1, 0)
    first = {a: c, b: 1}
    pairs = [(first, 1), ({a: 1, d: c}, -c), ({b: c * c}, 2), ({a: c}, 1), ({b: -1, d: c * c}, 1)]
    out = _combine(pairs)
    assert out == combine(pairs) == {b: 2 * c * c, a: c}
    assert list(out) == [b, a]      # a cancels, then comes back after b; d cancels
    cancelled = _combine([(first, c), (first, -c)])
    assert cancelled == {}
    copy = _combine([(first, 1)])
    assert copy == first and copy is not first
    copy[a] = 7
    assert first == {a: c, b: 1}
    assert _combine([]) == {}


@settings(max_examples=80, deadline=None)
@given(relations=st.lists(_small_polys, min_size=1, max_size=6),
       polys=st.lists(st.dictionaries(st.lists(st.integers(0, 2), max_size=6).map(tuple),
                                      st.integers(-3, 3).filter(bool), max_size=4),
                      min_size=1, max_size=4))
def test_retained_memo_entries_are_normal_forms(relations, polys):
    """After every add, each word the memo kept has the normal form a fresh
    table with the same rules gives it."""
    table = _RuleTable(XYZ)
    for relation in relations:
        for terms in polys:
            table.reduce_terms(terms)
        try:
            table.add(NCPoly(XYZ, relation))
        except InconsistentPresentation:
            return
        fresh = _RuleTable(XYZ)
        for rule in table.active.values():
            fresh.insert(rule)
        for w, nf in table.nf_memo.items():
            assert fresh.reduce_terms({w: 1}) == nf


def test_reduce_terms_hands_out_fresh_dicts():
    A = Alphabet(["x", "y"])
    system = RewriteSystem(A, [RewriteRule((0, 0), NCPoly.gen(A, 0))])
    for word in ((0, 0, 0), (0,), (1, 0, 0)):
        nf = system.reduce_terms({word: 1})
        expected = dict(nf)
        nf[(1, 1)] = 5
        nf[next(iter(expected))] = 7
        assert system.reduce_terms({word: 1}) == expected


def test_long_rewrite_chain_reduces():
    """x^3000 takes 2999 rewrites by x.x -> x; no step may cost a Python frame."""
    A = Alphabet(["x"])
    x = NCPoly.gen(A, 0)
    system = RewriteSystem(A, [RewriteRule((0, 0), x)])
    assert normal_form(NCPoly(A, {(0,) * 3000: 1}), system) == x


@pytest.mark.parametrize("family", ["magic", "semi-magic"])
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_confluent_completion_ignores_relation_order(magic, semi_magic, family, data):
    pres = (magic if family == "magic" else semi_magic)[3]
    relations = data.draw(st.permutations([p for _, p in pres.relations]))
    res = complete(RewriteSystem.from_relations(pres.alphabet, relations), 8)
    expected = complete(pres.system, 8)
    assert res.status == expected.status == CONFLUENT
    assert res.system.rules == expected.system.rules
