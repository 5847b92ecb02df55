"""Indicator functions of lower cones, F-sigma witnesses, and the pair
check of the embedding's chain, including fault injection."""

import random

import pytest

from ordchain.baire import (BaireFunction, FSigmaWitness, UnknownIndexError,
                            fsigma_witness, pair_failure)
from ordchain.certs import (ChainReport, InvalidCertificateError,
                            OrderCertificate, OrdinalEmbedding,
                            default_certificate, default_interval,
                            verify_certificate)
from ordchain.lazyset import ap, diff, inter, union
from ordchain.ordinal import Ordinal, format_ordinal, parse_ordinal
from ordchain.sampling import sample_comparable_pairs
from test_lazyset import member
from test_ordinal import random_notation

EVENS = ap(2, 0)
MULT4 = ap(4, 0)
NATS = ap(1, 0)
N = Ordinal.from_int


def omega_embedding(upto=8):
    return (OrdinalEmbedding(parse_ordinal("w"), default_interval()),
            [N(k) for k in range(upto)])


def sampled_indices(text, count, seed):
    """The embedding `baire --ordinal text` checks, and the indices of
    `count` seeded pairs below the ordinal."""
    xi = parse_ordinal(text)
    pairs = sample_comparable_pairs(xi, count, random.Random(seed))
    return (OrdinalEmbedding(xi, default_interval()),
            sorted({a for p in pairs for a in p}))


class FakeEmbedding:
    """Test double: the chain x_0, x_1, ... given outright below the bound
    len(members), with only the certificates it is handed, keyed by
    natural pairs."""

    def __init__(self, members, certs):
        self.bound = N(len(members))
        self.members = {N(k): x for k, x in enumerate(members)}
        self.certs = {(N(a), N(b)): c for (a, b), c in certs.items()}

    def member(self, a):
        return self.members[a]

    def cert(self, a, b):
        return self.certs[(a, b)]


# ---------------------------------------------------------------------------
# Evaluation.

def test_self_evaluates_to_zero():
    emb, idx = omega_embedding()
    f = BaireFunction(emb, idx[5])
    value, just = f.evaluate(idx[5])
    assert value == 0 and just.reason == "self" and just.certificate is None


def test_below_evaluates_to_one_with_certificate():
    emb, idx = omega_embedding()
    f = BaireFunction(emb, idx[5])
    value, just = f.evaluate(idx[3])
    assert value == 1 and just.reason == "below"
    assert just.certificate.lower is emb.member(idx[3])
    assert just.certificate.upper is emb.member(idx[5])


def test_above_evaluates_to_zero_with_certificate():
    emb, idx = omega_embedding()
    f = BaireFunction(emb, idx[3])
    value, just = f.evaluate(idx[5])
    assert value == 0 and just.reason == "above"
    assert just.certificate is not None


def test_unknown_index_is_an_error():
    emb, idx = omega_embedding()
    f = BaireFunction(emb, idx[2])
    with pytest.raises(UnknownIndexError):
        f.evaluate(parse_ordinal("w+99"))
    with pytest.raises(UnknownIndexError):
        f(parse_ordinal("w+99"))
    with pytest.raises(UnknownIndexError):
        BaireFunction(emb, parse_ordinal("w+99"))


def test_index_at_or_above_bound_is_unknown():
    # w and w + 1 are not below w: the embedding has no point for them, so
    # they are no index, as a pivot or as an argument
    emb, idx = omega_embedding()
    f = BaireFunction(emb, idx[1])
    for bad, shown in (("w+1", r"w \+ 1"), ("w", "w")):
        match = f"^index {shown} is not below the bound w$"
        with pytest.raises(UnknownIndexError, match=match):
            BaireFunction(emb, parse_ordinal(bad))
        with pytest.raises(UnknownIndexError, match=match):
            f(parse_ordinal(bad))
        with pytest.raises(UnknownIndexError, match=match):
            f.evaluate(parse_ordinal(bad))


def test_every_value_is_justified():
    emb, idx = omega_embedding(6)
    for p in idx:
        f = BaireFunction(emb, p)
        for y in idx:
            value, just = f.evaluate(y)
            assert value in (0, 1)
            assert (just.certificate is None) == (just.reason == "self")


def chain_of_three():
    return FakeEmbedding([MULT4, EVENS, NATS], {
        (0, 1): default_certificate(MULT4, EVENS, 0),
        (1, 2): default_certificate(EVENS, NATS, 0),
        (0, 2): default_certificate(MULT4, NATS, 0),
    }), [N(0), N(1), N(2)]


@pytest.mark.parametrize("make", [
    lambda: sampled_indices("w*2", 6, 1),
    lambda: sampled_indices("w^(2)+w*3+5", 6, 2),
    lambda: sampled_indices("w^(w)", 4, 3),
    chain_of_three,
], ids=["w*2", "w^(2)+w*3+5", "w^(w)", "explicit"])
def test_call_agrees_with_evaluate(make):
    emb, idx = make()
    assert len(idx) >= 3
    for p in idx:
        f = BaireFunction(emb, p)
        assert [f(y) for y in idx] == [f.evaluate(y)[0] for y in idx]


def test_any_notation_below_the_bound_is_an_index():
    # no sample: fresh notations below w^(2), each certificate evaluate
    # derives survives the probe
    emb = OrdinalEmbedding(parse_ordinal("w^(2)"), default_interval())
    rng = random.Random(19)
    idx = [random_notation(rng, max_exponent=1) for _ in range(8)]
    assert len(set(idx)) >= 5
    for p in idx:
        f = BaireFunction(emb, p)
        for y in idx:
            value, just = f.evaluate(y)
            assert f(y) == value
            if just.certificate is not None:
                assert verify_certificate(just.certificate, 16) is None


class NoCertEmbedding(FakeEmbedding):
    def cert(self, a, b):
        raise AssertionError(f"cert({a}, {b}) derived")


def test_call_derives_no_certificate():
    emb = NoCertEmbedding([MULT4, EVENS, NATS], {})
    for p in range(3):
        f = BaireFunction(emb, N(p))
        assert [f(N(y)) for y in range(3)] == [int(y < p) for y in range(3)]


# ---------------------------------------------------------------------------
# F-sigma witnesses.

def singleton(n):
    return diff(ap(1, n), ap(1, n + 1))


def test_fsigma_no_exceptions():
    y = diff(EVENS, singleton(0))               # evens minus {0}
    w = fsigma_witness(EVENS, y, default_certificate(y, EVENS, 0))
    assert w.m == 0
    assert w.check(y, EVENS, probe=200)


def test_fsigma_minimal_bound_two():
    # y = evens minus {0,2} plus {1}: last disagreement at n = 1
    y = union(inter(EVENS, ap(1, 4)), singleton(1))
    cert = default_certificate(y, EVENS, 8)
    w = fsigma_witness(EVENS, y, cert)
    assert w.m == 2
    assert w.check(y, EVENS, probe=500)
    assert not FSigmaWitness(1).check(y, EVENS, probe=500)   # too small
    assert not FSigmaWitness(5).check(y, EVENS, probe=500)   # not minimal


def test_fsigma_identity():
    w = fsigma_witness(EVENS, EVENS, 0)
    assert w.m == 0 and w.check(EVENS, EVENS, probe=100)


def test_fsigma_plain_bound_evidence():
    y = union(inter(EVENS, ap(1, 4)), singleton(1))
    assert fsigma_witness(EVENS, y, 40).m == 2
    with pytest.raises(ValueError):
        fsigma_witness(EVENS, y, -1)


def reference_fsigma_m(x, y, m0):
    """The downward per-element scan fsigma_witness made before it became
    one bitmap comparison; an oracle for it."""
    m = m0
    for n in range(m0 - 1, -1, -1):
        if member(y, n) and not member(x, n):
            break
        m = n
    return m


def reference_check(m, y, x, probe):
    """The per-element FSigmaWitness.check; an oracle for it."""
    for n in range(m, probe):
        if member(y, n) and not member(x, n):
            return False
    return m == 0 or (member(y, m - 1) and not member(x, m - 1))


def test_fsigma_matches_reference():
    rng = random.Random(61)
    emb = OrdinalEmbedding(parse_ordinal("w^(2)"), default_interval())
    sets = [EVENS, MULT4, NATS, union(inter(EVENS, ap(1, 4)), singleton(1)),
            union(MULT4, union(singleton(7), singleton(13)))]
    sets += [emb.member(parse_ordinal(t)) for t in ("0", "3", "w", "w*2+1")]
    for _ in range(60):
        x, y = rng.choice(sets), rng.choice(sets)
        m0 = rng.randint(0, 40)
        m = fsigma_witness(x, y, m0).m
        assert m == reference_fsigma_m(x, y, m0)
        for trial in {0, m, max(m - 1, 0), m + 1, rng.randint(0, 40)}:
            probe = rng.randint(0, 80)
            assert FSigmaWitness(trial).check(y, x, probe) == \
                reference_check(trial, y, x, probe)


def test_fsigma_rejects_mismatched_certificate():
    cert = default_certificate(MULT4, EVENS, 0)
    with pytest.raises(InvalidCertificateError):
        fsigma_witness(EVENS, NATS, cert)


# ---------------------------------------------------------------------------
# Pair checks.

def report_of(embedding, pairs, depth):
    """The report of the pair checks `baire` makes, and the line printed
    per pair."""
    report = ChainReport()
    lines = [report.add(f"PAIR {format_ordinal(a, compact=True)} "
                        f"{format_ordinal(b, compact=True)}",
                        pair_failure(embedding, a, b, depth))
             for a, b in pairs]
    return report, lines


def test_chain_report_on_embedding():
    emb, idx = omega_embedding()
    rng = random.Random(5)
    pairs = [tuple(sorted(rng.sample(idx, 2))) for _ in range(20)]
    report, lines = report_of(emb, pairs, 16)
    assert report.ok, lines
    assert report.checked == 20 and report.failed == 0
    assert report.tally == "CHECKED 20 FAILED 0"
    assert all(line.startswith("PAIR ") for line in lines)


def test_chain_flags_corrupted_certificate():
    emb = FakeEmbedding([MULT4, EVENS, NATS], {
        (0, 1): default_certificate(MULT4, EVENS, 0),
        (1, 2): OrderCertificate(EVENS, NATS, 0, EVENS),     # surplus in lower
        (0, 2): default_certificate(MULT4, NATS, 0),
    })
    report, lines = report_of(emb, [(N(0), N(1)), (N(1), N(2)), (N(0), N(2))], 4)
    assert report.failed == 1
    assert lines == ["PAIR 0 1 OK",
                     "PAIR 1 2 FAIL certificate: surplus element 0 lies in lower",
                     "PAIR 0 2 OK"]


def test_chain_flags_wrong_endpoints():
    emb = FakeEmbedding([MULT4, EVENS],
                        {(0, 1): default_certificate(EVENS, NATS, 0)})
    _, lines = report_of(emb, [(N(0), N(1))], 4)
    assert lines == ["PAIR 0 1 FAIL certificate lower end is not x_i"]


def test_chain_flags_wrong_upper_end():
    emb = FakeEmbedding([MULT4, EVENS],
                        {(0, 1): default_certificate(MULT4, NATS, 0)})
    _, lines = report_of(emb, [(N(0), N(1))], 4)
    assert lines == ["PAIR 0 1 FAIL certificate upper end is not x_j"]


def test_chain_monotone_on_sample_points():
    emb, idx = omega_embedding(6)
    pairs = [(idx[i], idx[j]) for i in range(6) for j in range(i + 1, 6)]
    report, lines = report_of(emb, pairs, 16)
    assert report.ok, lines
    # what a < b gives without a check: f_a <= f_b pointwise, strict at x_a
    for i, j in pairs:
        fi = BaireFunction(emb, i)
        fj = BaireFunction(emb, j)
        assert all(fi(p) <= fj(p) for p in idx)
        assert fi(i) == 0 and fj(i) == 1
