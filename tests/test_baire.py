"""Indicator functions of lower cones, F-sigma witnesses, and the chain
verification harness, including fault injection."""

import random

import pytest

from ordchain.baire import (BaireFunction, EmbeddingFamily, FSigmaWitness,
                            UnknownIndexError, fsigma_witness,
                            monotone_checks)
from ordchain.certs import (ChainReport, InvalidCertificateError,
                            OrderCertificate, OrdinalEmbedding,
                            default_certificate, default_interval)
from ordchain.lazyset import ap, diff, inter, union
from ordchain.ordinal import Ordinal, parse_ordinal
from ordchain.sampling import sample_comparable_pairs

EVENS = ap(2, 0)
MULT4 = ap(4, 0)
NATS = ap(1, 0)


def omega_family(upto=8):
    emb = OrdinalEmbedding(parse_ordinal("w"), default_interval())
    indices = [Ordinal.from_int(k) for k in range(upto)]
    return EmbeddingFamily(emb, indices), indices


def sampled_family(text, count, seed):
    """The family `baire --ordinal text` checks: the indices of `count`
    seeded pairs below the ordinal."""
    xi = parse_ordinal(text)
    pairs = sample_comparable_pairs(xi, count, random.Random(seed))
    indices = sorted({a for p in pairs for a in p})
    return EmbeddingFamily(OrdinalEmbedding(xi, default_interval()),
                           indices), indices


class ExplicitFamily:
    """Test double: a finite chain given outright, ordered by list position,
    with only the certificates it is handed.  It has the methods
    `monotone_checks` and `BaireFunction` use of a family."""

    def __init__(self, members, certs):
        self.members = list(members)
        self.certs = dict(certs)

    def has_index(self, i):
        return isinstance(i, int) and 0 <= i < len(self.members)

    def label(self, i):
        return str(i)

    def order(self, i, j):
        return (i > j) - (i < j)

    def member(self, i):
        if not self.has_index(i):
            raise UnknownIndexError(f"index {i} not in family")
        return self.members[i]

    def cert(self, i, j):
        if (i, j) not in self.certs:
            raise UnknownIndexError(f"no certificate for pair ({i}, {j})")
        return self.certs[(i, j)]


def chain_of_three():
    certs = {(0, 1): default_certificate(MULT4, EVENS, 0),
             (1, 2): default_certificate(EVENS, NATS, 0),
             (0, 2): default_certificate(MULT4, NATS, 0)}
    return ExplicitFamily([MULT4, EVENS, NATS], certs), [0, 1, 2]


# ---------------------------------------------------------------------------
# Evaluation.

def test_self_evaluates_to_zero():
    family, idx = omega_family()
    f = BaireFunction(family, idx[5])
    value, just = f.evaluate(idx[5])
    assert value == 0 and just.reason == "self" and just.certificate is None


def test_below_evaluates_to_one_with_certificate():
    family, idx = omega_family()
    f = BaireFunction(family, idx[5])
    value, just = f.evaluate(idx[3])
    assert value == 1 and just.reason == "below"
    assert just.certificate.lower.expr == family.member(idx[3]).expr
    assert just.certificate.upper.expr == family.member(idx[5]).expr


def test_above_evaluates_to_zero_with_certificate():
    family, idx = omega_family()
    f = BaireFunction(family, idx[3])
    value, just = f.evaluate(idx[5])
    assert value == 0 and just.reason == "above"
    assert just.certificate is not None


def test_unknown_index_is_an_error():
    family, idx = omega_family()
    f = BaireFunction(family, idx[2])
    with pytest.raises(UnknownIndexError):
        f.evaluate(Ordinal.from_int(99))
    with pytest.raises(UnknownIndexError):
        f(Ordinal.from_int(99))
    with pytest.raises(UnknownIndexError):
        BaireFunction(chain_of_three()[0], 0)(3)
    with pytest.raises(UnknownIndexError):
        BaireFunction(family, Ordinal.from_int(99))


def test_family_rejects_index_not_below_bound():
    # w + 1 is not below w: the embedding has no point for it, so the
    # family refuses it up front instead of failing on a later pair check
    emb = OrdinalEmbedding(parse_ordinal("w"), default_interval())
    for bad, shown in (("w+1", r"w \+ 1"), ("w", "w")):
        with pytest.raises(ValueError,
                           match=f"^index {shown} is not below the bound w$"):
            EmbeddingFamily(emb, [Ordinal.from_int(1), parse_ordinal(bad)])


def test_every_value_is_justified():
    family, idx = omega_family(6)
    for p in idx:
        f = BaireFunction(family, p)
        for y in idx:
            value, just = f.evaluate(y)
            assert value in (0, 1)
            assert (just.certificate is None) == (just.reason == "self")


@pytest.mark.parametrize("make", [
    lambda: sampled_family("w*2", 6, 1),
    lambda: sampled_family("w^(2)+w*3+5", 6, 2),
    lambda: sampled_family("w^(w)", 4, 3),
    chain_of_three,
], ids=["w*2", "w^(2)+w*3+5", "w^(w)", "explicit"])
def test_call_agrees_with_evaluate(make):
    family, idx = make()
    assert len(idx) >= 3
    for p in idx:
        f = BaireFunction(family, p)
        assert [f(y) for y in idx] == [f.evaluate(y)[0] for y in idx]


class NoCertFamily(ExplicitFamily):
    def cert(self, i, j):
        raise AssertionError(f"cert({i}, {j}) derived")


def test_call_derives_no_certificate():
    family = NoCertFamily([MULT4, EVENS, NATS], {})
    for p in range(3):
        f = BaireFunction(family, p)
        assert [f(y) for y in range(3)] == [int(y < p) for y in range(3)]


class IncomparableError(ValueError):
    """Raised by IncomparableFamily.order on the pair it cannot order."""


class IncomparableFamily(ExplicitFamily):
    def order(self, i, j):
        if {i, j} == {0, 2}:
            raise IncomparableError(f"{i} and {j} are incomparable")
        return super().order(i, j)


def test_call_propagates_incomparable():
    family = IncomparableFamily([MULT4, EVENS, NATS], {})
    f = BaireFunction(family, 2)
    assert f(1) == 1 and f(2) == 0
    with pytest.raises(IncomparableError):
        f(0)


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
        if y.member(n) and not x.member(n):
            break
        m = n
    return m


def reference_check(m, y, x, probe):
    """The per-element FSigmaWitness.check; an oracle for it."""
    for n in range(m, probe):
        if y.member(n) and not x.member(n):
            return False
    return m == 0 or (y.member(m - 1) and not x.member(m - 1))


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
# Chain verification.

def report_of(checks):
    """The report of a run of checks, and the line printed per check."""
    report = ChainReport()
    lines = [report.add(*check) for check in checks]
    return report, lines


def test_chain_report_on_embedding():
    family, idx = omega_family()
    rng = random.Random(5)
    pairs = [tuple(rng.sample(idx, 2)) for _ in range(20)]
    report, lines = report_of(monotone_checks(family, pairs, 16, idx[:4]))
    assert report.ok, lines
    assert report.checked == 20 and report.failed == 0
    assert report.tally == "CHECKED 20 FAILED 0"
    assert all(line.startswith("PAIR ") for line in lines)


def test_chain_rejects_equal_pair():
    family, idx = omega_family()
    report, lines = report_of(monotone_checks(family, [(idx[2], idx[2])], 8, ()))
    assert report.failed == 1
    assert "not strictly comparable" in lines[0]


def test_chain_normalizes_pair_order():
    family, idx = omega_family()
    report, lines = report_of(monotone_checks(family, [(idx[5], idx[1])], 8, ()))
    assert report.ok
    assert lines[0] == "PAIR 1 5 OK"


def test_chain_flags_corrupted_certificate():
    members = [MULT4, EVENS, NATS]
    certs = {
        (0, 1): default_certificate(MULT4, EVENS, 0),
        (1, 2): OrderCertificate(EVENS, NATS, 0, EVENS),     # surplus in lower
        (0, 2): default_certificate(MULT4, NATS, 0),
    }
    family = ExplicitFamily(members, certs)
    report, lines = report_of(monotone_checks(family, [(0, 1), (1, 2), (0, 2)], 4, ()))
    assert report.failed == 1
    assert lines[0] == "PAIR 0 1 OK"
    assert lines[1].startswith("PAIR 1 2 FAIL")
    assert lines[1].endswith("surplus element 0 lies in lower")


def test_chain_flags_wrong_endpoints():
    members = [MULT4, EVENS]
    certs = {(0, 1): default_certificate(EVENS, NATS, 0)}
    family = ExplicitFamily(members, certs)
    report, lines = report_of(monotone_checks(family, [(0, 1)], 4, ()))
    assert report.failed == 1 and "lower end" in lines[0]


def test_chain_flags_missing_certificate():
    family = ExplicitFamily([MULT4, EVENS], {})
    report, _ = report_of(monotone_checks(family, [(0, 1)], 4, ()))
    assert report.failed == 1


def test_chain_monotone_on_sample_points():
    family, idx = omega_family(6)
    pairs = [(idx[i], idx[j]) for i in range(6) for j in range(i + 1, 6)]
    report, lines = report_of(monotone_checks(family, pairs, 16, idx))
    assert report.ok, lines
    # direct statement: f_i <= f_j pointwise, strict at x_i
    for i, j in [(0, 3), (2, 5)]:
        fi = BaireFunction(family, idx[i])
        fj = BaireFunction(family, idx[j])
        assert all(fi(p) <= fj(p) for p in idx)
        assert fi(idx[i]) == 0 and fj(idx[i]) == 1


def test_chain_reports_unknown_index_unquoted():
    family, idx = omega_family(4)
    pair = (Ordinal.from_int(1), Ordinal.from_int(9))
    _, lines = report_of(monotone_checks(family, [pair], 8, idx))
    assert lines == ["PAIR 1 9 FAIL pair (1, 9) not in family"]


def test_chain_flags_wrong_upper_end():
    certs = {(0, 1): default_certificate(MULT4, NATS, 0)}
    family = ExplicitFamily([MULT4, EVENS], certs)
    _, lines = report_of(monotone_checks(family, [(0, 1)], 4, ()))
    assert lines == ["PAIR 0 1 FAIL certificate upper end is not x_j"]


class ReflexiveFamily(ExplicitFamily):
    """Puts every index strictly below itself."""

    def order(self, i, j):
        return -1 if i == j else super().order(i, j)


def test_chain_flags_missing_strict_witness():
    certs = {(0, 1): default_certificate(MULT4, EVENS, 0)}
    family = ReflexiveFamily([MULT4, EVENS], certs)
    _, lines = report_of(monotone_checks(family, [(0, 1)], 4, ()))
    assert lines == ["PAIR 0 1 FAIL strict witness at x_i missing"]


class CyclicFamily(ExplicitFamily):
    """0 < 1 < 2 as listed, but 2 < 0: an intransitive order."""

    def order(self, i, j):
        if {i, j} == {0, 2}:
            return -1 if i == 2 else 1
        return super().order(i, j)


def test_chain_flags_intransitive_order():
    certs = {(0, 1): default_certificate(MULT4, EVENS, 0)}
    family = CyclicFamily([MULT4, EVENS, NATS], certs)
    _, lines = report_of(monotone_checks(family, [(0, 1)], 4, [0, 1, 2]))
    assert lines == ["PAIR 0 1 FAIL monotonicity fails at point 2"]
