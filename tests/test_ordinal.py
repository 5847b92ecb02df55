"""Ordinal notation arithmetic against an independent small-ordinal oracle.

The oracle models ordinals below w^w as descending lists of
(integer exponent, coefficient) pairs and implements comparison and
addition directly on those lists, with no shared code.
"""

import random

import pytest

from ordchain.ordinal import (LT, EQ, GT, MAX_NESTING, OMEGA, ONE, ZERO,
                              Ordinal, OrdinalParseError, add, classify, compare,
                              format_ordinal, fundamental_sequence,
                              left_subtract, parse_ordinal)
from ordchain.sampling import random_notation, sample_below


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


def test_hash_consistency():
    rng = random.Random(8)
    seen = {}
    for _ in range(200):
        a = small_notation(rng)
        b = parse_ordinal(format_ordinal(a))
        assert hash(a) == hash(b)
        seen[a] = True
        assert b in seen


def test_sample_below_respects_bound():
    rng = random.Random(9)
    bound = parse_ordinal("w^(2)")
    for _ in range(100):
        assert compare(sample_below(bound, rng), bound) == LT
