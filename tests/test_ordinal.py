"""Ordinal notation arithmetic against an independent small-ordinal oracle.

The oracle models ordinals below w^w as descending lists of
(integer exponent, coefficient) pairs and implements comparison and
addition directly on those lists, with no shared code.
"""

import collections
import copy
import functools
import math
import pickle
import random
from fractions import Fraction

import pytest

from ordchain.ordinal import (LT, EQ, GT, MAX_NESTING, OMEGA, ONE, ZERO,
                              Ordinal, OrdinalParseError, add, classify, compare,
                              format_ordinal, fundamental_index,
                              fundamental_sequence, left_subtract,
                              parse_ordinal)
from ordchain import sampling
from ordchain.sampling import (MAX_COEFF, MAX_EXPONENT, MAX_TERMS,
                               MAX_TRAILING_NAT, NoPairsError,
                               sample_comparable_pairs)


# ---------------------------------------------------------------------------
# Oracle: ordinals below w^w as descending (int exponent, coeff) lists.

def oracle_compare(a, b):
    for (ea, ca), (eb, cb) in zip(a, b):
        if ea != eb:
            return -1 if ea < eb else 1
        if ca != cb:
            return -1 if ca < cb else 1
    if len(a) == len(b):
        return 0
    return -1 if len(a) < len(b) else 1


def oracle_add(a, b):
    if not b:
        return list(a)
    eb = b[0][0]
    kept = [t for t in a if t[0] > eb]
    out = list(kept)
    if len(kept) < len(a) and a[len(kept)][0] == eb:
        out.append((eb, a[len(kept)][1] + b[0][1]))
        out.extend(b[1:])
    else:
        out.extend(b)
    return out


def to_oracle(a: Ordinal):
    """Only defined for notations below w^w (integer exponents)."""
    out = []
    for e, c in a.terms:
        assert all(ee == ZERO for ee, _ in e.terms)
        out.append((e.terms[0][1] if e.terms else 0, c))
    return out


def from_oracle(terms):
    return Ordinal(tuple((Ordinal.from_int(e), c) for e, c in terms))


# ---------------------------------------------------------------------------
# Generators for the tests, over any range.  With the default range,
# conditioned below a bound, their law is the one the library's pair sampler
# draws from (by other RNG calls).

def random_notation(rng, max_exponent=MAX_EXPONENT, max_coeff=MAX_COEFF,
                    max_terms=MAX_TERMS, max_nat=MAX_TRAILING_NAT):
    """A random notation below w^(max_exponent + 1): up to `max_terms`
    terms, coefficients up to `max_coeff`, a trailing natural up to
    `max_nat`."""
    n_terms = rng.randint(1, min(max_terms, max_exponent + 1))
    exponents = sorted(rng.sample(range(max_exponent + 1), n_terms), reverse=True)
    return Ordinal(tuple((Ordinal.from_int(e),
                          rng.randint(1, max_nat if e == 0 else max_coeff))
                         for e in exponents))


def sample_below(bound, rng):
    """A notation strictly below `bound`: uniform below a finite bound, as
    the library draws it, else `random_notation` until `compare` puts the
    draw below the bound."""
    if compare(bound, OMEGA) == LT:
        return Ordinal.from_int(rng.randrange(bound.terms[0][1]))
    while True:
        a = random_notation(rng)
        if compare(a, bound) == LT:
            return a


def small_notation(rng):
    return random_notation(rng, max_exponent=3, max_coeff=4, max_terms=3,
                           max_nat=9)


# ---------------------------------------------------------------------------
# Parsing and formatting.

def test_parse_format_roundtrip_examples():
    for text in ["0", "1", "w", "w*3", "w^(2)", "w^(w)*2 + w*3 + 5",
                 "w^(w^(2)+1) + w^(3)*7 + 2"]:
        a = parse_ordinal(text)
        assert format_ordinal(a) == text.replace("  ", " ")
        assert parse_ordinal(format_ordinal(a)) == a


def test_format_compact():
    a = parse_ordinal("w^(2) + w*3 + 5")
    assert format_ordinal(a, compact=True) == "w^(2)+w*3+5"


def test_parse_whitespace_insensitive():
    assert parse_ordinal(" w ^ ( 2 )+w* 3+  5 ") == parse_ordinal("w^(2)+w*3+5")


@pytest.mark.parametrize("bad", [
    "", "w^(0)", "w^(1)", "0 + 1", "1 + w", "w + w", "w*0", "0*3",
    "w^(2", "w + ", "q", "w^(2) + w^(2)", "w^(2) + w^(3)", "5 + 3",
    "w+x", "W", "w^(²)", "w*①", "w^(w)x",
])
def test_parse_rejects_non_canonical(bad):
    with pytest.raises(OrdinalParseError):
        parse_ordinal(bad)


def test_roundtrip_random(ordinal_rng=random.Random(11)):
    for _ in range(300):
        a = random_notation(ordinal_rng, max_exponent=5, max_coeff=6,
                            max_terms=4, max_nat=12)
        assert parse_ordinal(format_ordinal(a)) == a


def tower(nesting):
    """w^(w^(...w)) with `nesting` levels of w^( ."""
    return "w^(" * nesting + "w" + ")" * nesting


def deeper(frames, fn):
    """Call fn from `frames` more stack frames than the caller's."""
    return fn() if frames == 0 else deeper(frames - 1, fn)


def test_nesting_cap_leaves_stack_to_spare():
    text = tower(MAX_NESTING)

    def ops():
        a, b = parse_ordinal(text), parse_ordinal(text)
        assert format_ordinal(a) == text
        assert compare(a, b) == EQ and a == b and hash(a) == hash(b)
        fs = fundamental_sequence(a)
        for k in range(3):
            assert compare(fs(k), a) == LT
            assert fundamental_index(a, fs(k)) == k + 1

    deeper(120, ops)


def test_nesting_past_the_cap_rejected():
    with pytest.raises(OrdinalParseError, match=f"deeper than {MAX_NESTING}"):
        parse_ordinal(tower(MAX_NESTING + 1))
    # only open w^( levels count, not terms side by side
    wide = "+".join(f"w^({e})" for e in range(3 * MAX_NESTING, 1, -1))
    assert len(parse_ordinal(wide).terms) == 3 * MAX_NESTING - 1


# ---------------------------------------------------------------------------
# Comparison.

def test_compare_examples():
    assert compare(OMEGA, Ordinal.from_int(3)) == GT
    assert compare(ZERO, ZERO) == EQ
    # w^2*2 + w vs w^2*2 + 5
    a = parse_ordinal("w^(2)*2 + w")
    b = parse_ordinal("w^(2)*2 + 5")
    assert compare(a, b) == GT
    assert oracle_compare(to_oracle(a), to_oracle(b)) == 1


def test_compare_matches_oracle():
    rng = random.Random(1)
    for _ in range(1500):
        a, b = small_notation(rng), small_notation(rng)
        assert compare(a, b) == oracle_compare(to_oracle(a), to_oracle(b))


def test_compare_total_order_properties():
    rng = random.Random(2)
    sample = [small_notation(rng) for _ in range(40)]
    for a in sample:
        assert compare(a, a) == EQ
        for b in sample:
            assert compare(a, b) == -compare(b, a)
            for c in sample:
                if compare(a, b) == LT and compare(b, c) == LT:
                    assert compare(a, c) == LT


def test_rich_comparisons():
    a, b = parse_ordinal("w"), parse_ordinal("w+1")
    assert a < b and a <= b and b > a and b >= a and a != b
    assert not (a > b) and a <= a and a >= a


# ---------------------------------------------------------------------------
# Addition and left subtraction.

def test_add_examples():
    assert add(ONE, OMEGA) == OMEGA
    assert add(OMEGA, ONE) == parse_ordinal("w + 1")
    got = add(parse_ordinal("w^(2)+w*3"), parse_ordinal("w*2+4"))
    assert got == parse_ordinal("w^(2)+w*5+4")


def test_add_matches_oracle():
    rng = random.Random(3)
    for _ in range(1000):
        a, b = small_notation(rng), small_notation(rng)
        assert to_oracle(add(a, b)) == oracle_add(to_oracle(a), to_oracle(b))


def test_add_associative():
    rng = random.Random(4)
    for _ in range(150):
        a, b, c = (small_notation(rng) for _ in range(3))
        assert add(add(a, b), c) == add(a, add(b, c))


def test_add_output_canonical():
    rng = random.Random(5)
    for _ in range(200):
        out = add(small_notation(rng), small_notation(rng))
        # the constructor itself enforces the invariants; rebuild to check
        assert Ordinal(out.terms) == out


def test_left_subtract_examples():
    assert left_subtract(OMEGA, parse_ordinal("w*2")) == OMEGA
    x = parse_ordinal("w^(2)+3")
    assert left_subtract(x, x) == ZERO
    assert left_subtract(parse_ordinal("w*3+1"), parse_ordinal("w^(4)")) \
        == parse_ordinal("w^(4)")
    # oracle confirmation for the absorption case
    assert oracle_add(to_oracle(parse_ordinal("w*3+1")), [(4, 1)]) == [(4, 1)]


def test_left_subtract_inverts_add():
    rng = random.Random(6)
    for _ in range(500):
        a, b = small_notation(rng), small_notation(rng)
        if compare(a, b) == GT:
            a, b = b, a
        assert add(a, left_subtract(a, b)) == b


def test_left_subtract_rejects_reversed():
    with pytest.raises(ValueError):
        left_subtract(parse_ordinal("w*2"), OMEGA)
    with pytest.raises(ValueError):
        left_subtract(parse_ordinal("w+5"), parse_ordinal("w+4"))
    with pytest.raises(ValueError):                 # b a proper prefix of a
        left_subtract(parse_ordinal("w+1"), OMEGA)


def test_from_int_rejects_a_negative():
    with pytest.raises(ValueError):
        Ordinal.from_int(-1)


# ---------------------------------------------------------------------------
# Classification and fundamental sequences.

def test_classify_examples():
    assert classify(ZERO) == ("zero", None)
    kind, pred = classify(parse_ordinal("w+4"))
    assert kind == "successor" and pred == parse_ordinal("w+3")
    kind, pred = classify(parse_ordinal("w^(w)"))
    assert kind == "limit" and pred is None
    kind, pred = classify(ONE)
    assert kind == "successor" and pred == ZERO


def test_fundamental_sequence_examples():
    fs = fundamental_sequence(OMEGA)
    assert [fs(k) for k in range(4)] == [Ordinal.from_int(k + 1)
                                         for k in range(4)]
    fs = fundamental_sequence(parse_ordinal("w^(2)"))
    assert fs(3) == parse_ordinal("w*4")
    fs = fundamental_sequence(parse_ordinal("w^(w)"))
    assert fs(0) == OMEGA
    assert fs(2) == parse_ordinal("w^(3)")


def test_fundamental_sequence_coefficient_peel():
    fs = fundamental_sequence(parse_ordinal("w^(2)*2"))
    assert fs(1) == parse_ordinal("w^(2)+w*2")


def test_fundamental_sequence_invariants():
    rng = random.Random(7)
    limits = []
    while len(limits) < 20:
        a = random_notation(rng, max_exponent=3, max_coeff=3, max_terms=2,
                            max_nat=3)
        if classify(a)[0] == "limit":
            limits.append(a)
    for a in limits:
        fs = fundamental_sequence(a)
        prev = None
        for k in range(65):
            v = fs(k)
            assert compare(v, a) == LT
            if prev is not None:
                assert compare(prev, v) == LT
            prev = v


def test_fundamental_sequence_exhaustive():
    # for b < a some element of the sequence passes b (bounded search)
    a = parse_ordinal("w^(w)")
    fs = fundamental_sequence(a)
    for text in ["5", "w*7", "w^(3)*2+w", "w^(9)"]:
        b = parse_ordinal(text)
        assert any(compare(fs(k), b) == GT for k in range(16))


def random_limit(rng, depth):
    """A limit notation whose last exponent is finite or, `depth` > 0, a
    random limit itself; up to two terms above it, and a trailing
    coefficient up to 3."""
    if depth and rng.random() < 0.6:
        e = random_limit(rng, depth - 1)
    else:
        e = Ordinal.from_int(rng.randint(1, 4))
    above = [(add(e, Ordinal.from_int(k)), rng.randint(1, 3))
             for k in sorted(rng.sample(range(1, 4), rng.randint(0, 2)),
                             reverse=True)]
    return Ordinal(tuple(above) + ((e, rng.randint(1, 3)),))


def test_fundamental_index_matches_linear_scan():
    rng = random.Random(23)
    for _ in range(150):
        a = random_limit(rng, 2)
        fs = fundamental_sequence(a)
        e, c = a.terms[-1]
        prefix = Ordinal(a.terms[:-1] + (((e, c - 1),) if c > 1 else ()))
        below = [sample_below(a, rng), prefix]
        for k in range(4):
            below += [fs(k), add(fs(k), Ordinal.from_int(k + 1))]
        for x in [sample_below(e, rng), Ordinal.from_int(rng.randint(0, 2))]:
            if compare(x, e) == LT:
                below.append(add(prefix, Ordinal(((x, rng.randint(1, 5)),))))
        for b in below:
            k = next(k for k in range(200) if compare(b, fs(k)) == LT)
            assert fundamental_index(a, b) == k, (a, b)


def test_fundamental_index_needs_b_below_a_limit():
    for a, b in [("w", "w"), ("w^(2)", "w^(2)+1"), ("w+1", "3")]:
        with pytest.raises(ValueError):
            fundamental_index(parse_ordinal(a), parse_ordinal(b))


def test_fundamental_sequence_rejects_non_limit():
    for text in ["0", "3", "w+1"]:
        with pytest.raises(ValueError):
            fundamental_sequence(parse_ordinal(text))
    fs = fundamental_sequence(OMEGA)
    with pytest.raises(ValueError):
        fs(-1)


# ---------------------------------------------------------------------------
# Constructor validation and hashing.

def test_constructor_rejects_bad_terms():
    with pytest.raises(ValueError):
        Ordinal(((ZERO, 0),))
    with pytest.raises(ValueError):
        Ordinal(((ZERO, 2), (ONE, 1)))          # increasing exponents
    with pytest.raises(TypeError):
        Ordinal(((1, 1),))


@pytest.mark.parametrize("c", [2.0, True])
def test_non_int_coefficient_rejected_with_or_without_a_twin(c):
    """A coefficient equal to an int is refused whether or not the notation
    with that int is alive, so the answer never depends on the table."""
    n = int(c)
    with pytest.raises(ValueError):
        Ordinal(((OMEGA, c),))
    twin = Ordinal(((OMEGA, n),))
    with pytest.raises(ValueError):
        Ordinal(((OMEGA, c),))
    assert type(twin.terms[0][1]) is int


def test_hash_consistency():
    rng = random.Random(8)
    seen = {}
    for _ in range(200):
        a = small_notation(rng)
        b = parse_ordinal(format_ordinal(a))
        assert hash(a) == hash(b)
        seen[a] = True
        assert b in seen


def reference_comparable_pairs(bound, count, rng):
    """The pair sampler with every draw built afresh by `sample_below`;
    equal pairs are drawn again.  Below a finite bound it makes the
    library's RNG calls."""
    out = []
    while len(out) < count:
        a, b = sample_below(bound, rng), sample_below(bound, rng)
        if compare(a, b) != EQ:
            out.append((a, b) if compare(a, b) == LT else (b, a))
    return out


def test_sample_below_respects_bound():
    rng = random.Random(9)
    bound = parse_ordinal("w^(2)")
    for a, b in sample_comparable_pairs(bound, 100, rng):
        assert compare(a, bound) == LT and compare(b, bound) == LT
    # below a finite bound the stream of draws is the reference's, pair for
    # pair; below an infinite one only the law is (next test)
    for text in ["2", "7"]:
        bound = parse_ordinal(text)
        for seed in range(200):
            assert list(sample_comparable_pairs(bound, 10, random.Random(seed))) \
                == reference_comparable_pairs(bound, 10, random.Random(seed)), \
                (text, seed)


class ScriptedRandom:
    """Stands in for random.Random in `random_notation`: its k-th call takes
    option script[k] (option 0 past the script's end), and `widths` records
    how many options each call had."""

    def __init__(self, script):
        self.script, self.widths = script, []

    def _choose(self, width):
        k = len(self.widths)
        self.widths.append(width)
        return self.script[k] if k < len(self.script) else 0

    def randint(self, a, b):
        return a + self._choose(b - a + 1)

    def sample(self, population, k):
        pool = list(population)
        return [pool.pop(self._choose(len(pool))) for _ in range(k)]


@functools.lru_cache(maxsize=1)
def notation_law():
    """The exact law of `random_notation(rng)`: every script of choices is
    walked, and an outcome's probability is the sum over the scripts that
    give it of the product of 1/width over their calls."""
    law = collections.defaultdict(Fraction)
    scripts = [()]
    while scripts:
        script = scripts.pop()
        rng = ScriptedRandom(script)
        a = random_notation(rng)
        if len(rng.widths) > len(script):   # branch on the first unscripted call
            scripts += [script + (i,) for i in range(rng.widths[len(script)])]
        else:
            law[a] += math.prod(Fraction(1, w) for w in rng.widths)
    assert sum(law.values()) == 1
    return dict(law)


LAW_PAIRS = 3000


@pytest.mark.parametrize("text", ["w", "w*2+3", "w^(2)+1", "w^(2)+w*3+5",
                                  "w^(w)", "w^(w)+w^(3)", "w^(w^(w))"])
def test_pair_draws_follow_the_exact_law(text):
    bound = parse_ordinal(text)
    law = notation_law()
    # the library's table holds the same law, weight for weight
    notations, weights = sampling._table()
    assert {a: Fraction(w, sum(weights)) for a, w in zip(notations, weights)} \
        == law
    below = {a: p for a, p in law.items() if compare(a, bound) == LT}
    total = sum(below.values())
    law = {a: p / total for a, p in below.items()}
    seen = collections.Counter()
    for a, b in sample_comparable_pairs(bound, LAW_PAIRS, random.Random(29)):
        assert compare(a, b) == LT and compare(b, bound) == LT
        seen.update((a, b))
    # every notation of positive probability is drawn, and no other
    assert set(seen) == set(law)
    # a pair is two draws, drawn again while equal, so x is one of its ends
    # with chance m = 2 p (1 - p) / (1 - sum of p^2); each count is
    # Binomial(LAW_PAIRS, m), and stays within 5 standard deviations
    same = sum(p * p for p in law.values())
    for a, p in law.items():
        m = 2 * p * (1 - p) / (1 - same)
        mean = LAW_PAIRS * m
        assert (seen[a] - mean) ** 2 <= 25 * mean * (1 - m), \
            (text, str(a), seen[a], float(mean))


def test_pairs_are_drawn_as_they_are_taken():
    # nothing is drawn up front, so the first of 10^12 pairs comes at once,
    # and it is the first pair of a request for one
    bound = parse_ordinal("w^(w)")
    pairs = sample_comparable_pairs(bound, 10 ** 12, random.Random(0))
    first = next(pairs)
    assert compare(*first) == LT
    assert [first] == list(sample_comparable_pairs(bound, 1, random.Random(0)))


def test_no_pair_lies_below_zero():
    with pytest.raises(NoPairsError):
        sample_comparable_pairs(ZERO, 1, random.Random(0))


# ---------------------------------------------------------------------------
# Interning.  The references below are structural and recursive: they read
# the terms alone and never test identity.

def ref_eq(a, b):
    return len(a.terms) == len(b.terms) and all(
        ca == cb and ref_eq(ea, eb)
        for (ea, ca), (eb, cb) in zip(a.terms, b.terms))


def ref_compare(a, b):
    for (ea, ca), (eb, cb) in zip(a.terms, b.terms):
        c = ref_compare(ea, eb)
        if c != EQ:
            return c
        if ca != cb:
            return LT if ca < cb else GT
    if len(a.terms) == len(b.terms):
        return EQ
    return LT if len(a.terms) < len(b.terms) else GT


def ref_prefix(a):
    e, c = a.terms[-1]
    return a.terms[:-1] if c == 1 else a.terms[:-1] + ((e, c - 1),)


def ref_fundamental_sequence(a):
    """One closure per level of limit exponents."""
    e, _ = a.terms[-1]
    prefix = ref_prefix(a)
    kind, epred = classify(e)
    if kind == "successor":
        return lambda k: Ordinal(prefix + ((epred, k + 1),))
    efs = ref_fundamental_sequence(e)
    return lambda k: Ordinal(prefix + ((efs(k), 1),))


def ref_fundamental_index(a, b):
    e, _ = a.terms[-1]
    prefix = ref_prefix(a)
    n = len(prefix)
    if (len(b.terms) <= n or not all(
            ca == cb and ref_eq(ea, eb)
            for (ea, ca), (eb, cb) in zip(b.terms[:n], prefix))):
        return 0
    eb, cb = b.terms[n]
    kind, epred = classify(e)
    if kind == "successor":
        return cb if ref_eq(eb, epred) else 0
    return ref_fundamental_index(e, eb)


def random_nested(rng, depth):
    """Up to three terms; exponents finite or, `depth` > 0, nested notations
    themselves; coefficients up to 3, so trailing ones above 1 are common."""
    exponents = []
    for _ in range(rng.randint(1, 3)):
        if depth and rng.random() < 0.5:
            e = random_nested(rng, depth - 1)
        else:
            e = Ordinal.from_int(rng.randint(0, 3))
        if not any(ref_eq(e, f) for f in exponents):
            exponents.append(e)
    exponents.sort(key=functools.cmp_to_key(ref_compare), reverse=True)
    return Ordinal(tuple((e, rng.randint(1, 3)) for e in exponents))


def test_interned_operations_match_structural_references():
    rng = random.Random(31)
    pool = [random_nested(rng, 3) for _ in range(60)]
    pool += [parse_ordinal(format_ordinal(a)) for a in pool[:20]]
    ties = 0
    for i, a in enumerate(pool):
        for j, b in enumerate(pool):
            want = ref_compare(a, b)
            assert compare(a, b) == want, (a, b)
            assert (a is b) == (want == EQ) == (a == b) == ref_eq(a, b)
            ties += i != j and want == EQ
    assert ties > 40                # equal notations built apart
    limits = [a for a in pool if classify(a)[0] == "limit"]
    assert len(limits) > 20
    for a in limits:
        fs, ref = fundamental_sequence(a), ref_fundamental_sequence(a)
        below = [b for b in pool if ref_compare(b, a) == LT]
        for k in range(5):
            assert fs(k) is ref(k)
            below += [fs(k), add(fs(k), rng.choice(pool))]
        for b in below:
            if ref_compare(b, a) == LT:
                assert fundamental_index(a, b) == ref_fundamental_index(a, b)


def test_deep_notation_needs_no_recursion():
    # 5,000 levels of w^( , far past what the parser admits; the twin
    # differs at the bottom only (w*2 for w)
    def build(base):
        a = base
        for _ in range(5000):
            a = Ordinal(((a, 1),))
        return a

    a, twin = build(OMEGA), build(Ordinal(((ONE, 2),)))

    def ops():
        assert build(OMEGA) == a and hash(build(OMEGA)) == hash(a)
        assert a != twin and compare(a, twin) == LT and compare(twin, a) == GT
        fs = fundamental_sequence(a)
        x = fs(3)
        assert compare(x, a) == LT
        assert fundamental_index(a, x) == 4

    deeper(120, ops)


def test_copies_and_pickles_are_the_interned_notation():
    def copies(a):
        assert copy.copy(a) is a
        assert copy.deepcopy(a) is a
        assert copy.deepcopy([a, (a,)])[1][0] is a
        assert pickle.loads(pickle.dumps(a)) is a

    for a in [ZERO, OMEGA, parse_ordinal("w^(w)*2+w+3"),
              parse_ordinal(tower(MAX_NESTING))]:
        deeper(120, lambda: copies(a))
    assert ZERO.terms == () and ZERO.is_zero()
