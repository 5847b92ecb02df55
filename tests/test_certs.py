"""Certificates for strict mod-finite containment, interval splitting,
the address tree, and ordinal embeddings."""

import copy
import functools
import itertools
import random

import numpy as np
import pytest

from ordchain import certs, lazyset
from ordchain.certs import (InvalidCertificateError, OrderCertificate,
                            OrdinalEmbedding, SplitChain, UnknownIndexError,
                            _block_end, _block_index, base_cert, compose_certs,
                            default_certificate, default_interval,
                            parse_certificate, tree_node, tree_split,
                            verify_certificate)
from ordchain.lazyset import (ResourceLimitError, SetParseError, ap, diff,
                              empty, inter, parse_set, piece, rows, union)
from ordchain.ordinal import (ONE, Ordinal, add, compare, left_subtract,
                              parse_ordinal)
from ordchain.sampling import sample_comparable_pairs
from test_lazyset import member
from test_ordinal import sample_below

NATS = ap(1, 0)
EVENS = ap(2, 0)
MULT4 = ap(4, 0)


def assert_valid(cert, depth=32):
    reason = verify_certificate(cert, depth)
    assert reason is None, reason


def child_certs(s, a, b):
    """Certificates for x_s < x_{s~a} < x_{s~b} < x_{s+}, 0 < a < b."""
    chain = tree_split(s)
    return [chain.cert(0, a), chain.cert(a, b), chain.cert(b)]


# ---------------------------------------------------------------------------
# Verification.

def test_valid_base_cert():
    assert_valid(base_cert(1, 2), depth=16)


def test_verify_depth_precondition():
    with pytest.raises(ValueError):
        verify_certificate(base_cert(0, 1), 0)


def test_verify_catches_bad_exception_bound():
    # 0 lies in lower but not upper, yet the bound claims no exceptions
    upper = inter(EVENS, ap(1, 1))               # evens >= 2
    bad = default_certificate(MULT4, upper, 0)
    assert verify_certificate(bad, 8) == "element 0"


def test_verify_accepts_with_adequate_bound():
    assert_valid(default_certificate(MULT4, inter(EVENS, ap(1, 1)), 1))


def test_verify_catches_surplus_in_lower():
    bad = OrderCertificate(MULT4, EVENS, 0, EVENS)
    assert verify_certificate(bad, 3) == "surplus element 0 lies in lower"


def test_verify_catches_surplus_outside_upper():
    bad = OrderCertificate(MULT4, EVENS, 0, ap(2, 1))
    assert verify_certificate(bad, 2) == "surplus element 1 not in upper"


def test_verify_reports_exhausted_surplus():
    bad = OrderCertificate(MULT4, EVENS, 0, diff(diff(EVENS, MULT4), ap(1, 7)))
    assert verify_certificate(bad, 5).startswith(
        "surplus exhausted: found only 2 elements of ")


def test_verify_reports_a_refused_scan_as_refused(monkeypatch):
    # four unfolded sets (sets no other test builds, so none keeps a fold
    # the budget would skip) scanned to 1024 take 4096 bytes, over budget;
    # at the default budget the probe finds the false claim at 9,940
    s = ap(1, 9939)
    bad = default_certificate(piece(s, 1), piece(s, 0), 0)
    monkeypatch.setattr(lazyset, "_SCAN_BUDGET", 1 << 11)
    assert verify_certificate(bad, 4) == ("scan refused: a scan of 4 sets to "
                                          "1024 exceeds the budget of 2048 bytes")


def test_surplus_outside_upper_is_reported_before_lower():
    # 1 lies in lower and outside upper (the bound allows it)
    bad = OrderCertificate(union(MULT4, singleton(1)), EVENS, 2, ap(1, 1))
    assert verify_certificate(bad, 4) == "surplus element 1 not in upper"


@pytest.mark.parametrize("surplus", [[2, 6, 10], (2, 6), range(2, 99, 4)],
                         ids=["list", "tuple", "range"])
def test_certificate_surplus_must_be_a_set(surplus):
    with pytest.raises(TypeError, match="^surplus must be a LazySet, not "):
        OrderCertificate(MULT4, EVENS, 0, surplus)


def test_certificates_are_not_decisions():
    # a certificate is only refutable at depth; a bogus claim about sets
    # that are actually ordered the other way is caught by the scan
    bad = default_certificate(EVENS, MULT4, 0)
    assert verify_certificate(bad, 8) is not None


def members_upto(s, n):
    """Sorted members of s below n."""
    return np.flatnonzero(s.bits(n)).tolist()


def reference_verify(cert, depth):
    """The verifier as it was before it read one prefix of each set: every
    surplus element, and every element of lower up to the probe bound, is
    looked up with `member` one at a time.  An oracle for
    verify_certificate: the failure reason, or None for a pass."""
    if depth < 1:
        raise ValueError("depth must be >= 1")
    try:
        surplus = cert.surplus.first_n(depth)
    except ResourceLimitError as exc:
        return f"surplus exhausted: {exc}"
    for s in surplus:
        if not member(cert.upper, s):
            return f"surplus element {s} not in upper"
        if member(cert.lower, s):
            return f"surplus element {s} lies in lower"
    probe = max(cert.bound, max(surplus, default=0), 4 * depth)
    for e in members_upto(cert.lower, probe + 1):
        if e >= cert.bound and not member(cert.upper, e):
            return f"element {e}"
    return None


def singleton(n):
    return diff(ap(1, n), ap(1, n + 1))


def oracle_corpus():
    """Split, tree and embedding certificates, some with a nonzero
    exception bound, plus certificates that fail for every reason the
    verifier gives."""
    certs = []
    for chain in (SplitChain(base_cert(0, 1)),
                  # only 1 lies in lower outside upper: bound 2
                  SplitChain(default_certificate(
                      union(diff(NATS, ap(1, 3)), MULT4), EVENS, 2))):
        certs += [chain.cert(0, 1), chain.cert(0, 3), chain.cert(1, 4),
                  chain.cert(2, 3), chain.cert(3)]
    certs += child_certs((1, 2), 1, 3) + child_certs((2,), 2, 3)
    rng = random.Random(51)
    for interval in (default_interval(),
                     default_certificate(union(MULT4, singleton(5)),
                                         EVENS, 6)):
        emb = OrdinalEmbedding(parse_ordinal("w^(2)+w*3+5"), interval)
        certs += [emb.cert(a, b) for a, b in
                  sample_comparable_pairs(parse_ordinal("w^(2)+w*3+5"), 8, rng)]
        certs.append(emb.cert(parse_ordinal("w*2"), None))
    evens_from_2 = inter(EVENS, ap(1, 1))
    certs += [
        default_certificate(MULT4, evens_from_2, 0),            # FAIL element 0
        default_certificate(union(MULT4, union(singleton(7), singleton(11))),
                            EVENS, 8),                          # FAIL element 11
        OrderCertificate(MULT4, EVENS, 0,                       # 3 not in upper
                         union(diff(EVENS, MULT4), singleton(3))),
        OrderCertificate(MULT4, EVENS, 0,                       # 4 lies in lower
                         union(diff(EVENS, MULT4), singleton(4))),
        OrderCertificate(MULT4, EVENS, 0,                       # only 2 and 6
                         diff(diff(EVENS, MULT4), ap(1, 7))),
        OrderCertificate(union(MULT4, singleton(1)), EVENS, 2,  # 1: both
                         ap(1, 1)),
    ]
    return certs


def verdict(reason):
    """The kind of a verifier's result: OK (a None reason), element, or one
    of the three surplus failures."""
    if reason is None:
        return "OK"
    words = reason.split(" ", 3)
    if words[:2] == ["surplus", "element"]:
        return words[3]
    return "surplus exhausted" if words[0] == "surplus" else words[0]


VERDICTS = {"OK", "element", "surplus exhausted", "not in upper",
            "lies in lower"}


@pytest.mark.parametrize("depth", [4, 16, 32])
def test_verify_matches_reference(depth):
    verdicts = []
    for cert in oracle_corpus():
        reason = verify_certificate(cert, depth)
        assert reason == reference_verify(cert, depth), cert.serialize()
        verdicts.append(verdict(reason))
    # the corpus reaches every verdict
    assert set(verdicts) == VERDICTS


def random_set(rng, depth):
    """A small random expression of depth <= depth + 1, with leaves whose
    periods keep every node folding early."""
    if depth == 0 or rng.random() < 0.3:
        return rng.choice([
            lambda: empty(),
            lambda: rows(rng.randint(1, 3)),
            lambda: ap(rng.randint(1, 6), rng.randint(0, 10)),
            lambda: ap(1, rng.randint(0, 30)),
            lambda: singleton(rng.randint(0, 30)),
        ])()
    op = rng.choice(["union", "inter", "diff", "diff", "piece"])
    if op == "piece":
        return piece(random_set(rng, depth - 1), rng.randint(0, 2))
    ctor = {"union": union, "inter": inter, "diff": diff}[op]
    return ctor(random_set(rng, depth - 1), random_set(rng, depth - 1))


def random_certificate(rng):
    """Lower, upper and surplus drawn apart, or the surplus drawn from
    upper minus lower (a piece of it, or cut by another set), so that
    every verdict occurs."""
    lower, upper = random_set(rng, 3), random_set(rng, 3)
    if rng.random() < 0.5:
        surplus = random_set(rng, 3)
    else:
        surplus = rng.choice([
            lambda: diff(upper, lower),
            lambda: piece(diff(upper, lower), rng.randint(0, 2)),
            lambda: inter(diff(upper, lower), random_set(rng, 2)),
            lambda: union(diff(upper, lower), random_set(rng, 1)),
        ])()
    if rng.random() < 0.5:
        lower = inter(lower, union(upper, random_set(rng, 1)))
    return OrderCertificate(lower, upper, rng.randint(0, 8), surplus)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_verify_matches_reference_on_random_certificates(seed, monkeypatch):
    """Random small certificates: bounds 0-8 and depths 1-40."""
    rng = random.Random(1200 + seed)
    monkeypatch.setattr(lazyset, "_SCAN_CAP", 1 << 16)
    seen = set()
    for _ in range(400):
        cert = random_certificate(rng)
        depth = rng.randint(1, 40)
        reason = verify_certificate(cert, depth)
        assert reason == reference_verify(cert, depth), (cert.serialize(), depth)
        seen.add(verdict(reason))
    assert seen == VERDICTS


def test_verify_matches_reference_under_low_scan_cap(monkeypatch):
    sparse = piece(diff(rows(1), empty()), 11)      # one element, 4094, below 2^12
    corpus = oracle_corpus() + [default_certificate(empty(), sparse, 0)]
    beyond = default_certificate(MULT4, EVENS, 1 << 12)
    monkeypatch.setattr(lazyset, "_SCAN_CAP", 1 << 12)
    # the probe alone: the cap cuts it short, as it cuts the reference
    with monkeypatch.context() as m:
        m.setattr(certs, "subset", lambda a, b: False)
        for cert in corpus:
            assert verify_certificate(cert, 16) == reference_verify(cert, 16)
        assert verify_certificate(corpus[-1], 16) is not None
        for verify in (verify_certificate, reference_verify):
            with pytest.raises(ResourceLimitError):
                verify(beyond, 16)
    # both are true and proved from their structure, so nothing is scanned
    assert verify_certificate(corpus[-1], 16) is None
    assert verify_certificate(beyond, 16) is None


# ---------------------------------------------------------------------------
# Composition.

def test_compose_base_chain():
    c = compose_certs(base_cert(0, 1), base_cert(1, 2))
    assert c.lower is rows(0) and c.upper is rows(2)
    assert c.bound == 0
    assert_valid(c)


def test_compose_bound_is_max():
    c1 = OrderCertificate(MULT4, EVENS, 4, diff(EVENS, MULT4))
    c2 = default_certificate(EVENS, NATS, 0)
    c = compose_certs(c1, c2)
    assert c.bound == 4


def test_compose_surplus_odds():
    c1 = default_certificate(MULT4, EVENS, 0)
    c2 = default_certificate(EVENS, NATS, 0)
    c = compose_certs(c1, c2)
    assert c.surplus.first_n(10) == [1, 3, 5, 7, 9, 11, 13, 15, 17, 19]
    assert_valid(c)


def test_compose_thresholds_surplus():
    c1 = OrderCertificate(MULT4, EVENS, 6, diff(EVENS, MULT4))
    c2 = default_certificate(EVENS, NATS, 0)
    c = compose_certs(c1, c2)
    assert min(c.surplus.first_n(5)) >= 6
    assert_valid(c)
    # a finite surplus is thresholded the same way
    c2l = OrderCertificate(EVENS, NATS, 0, diff(ap(2, 1), ap(1, 14)))
    cl = compose_certs(c1, c2l)
    assert cl.surplus.first_n(3) == [7, 9, 11]


def test_compose_rejects_mismatched_middle():
    with pytest.raises(InvalidCertificateError):
        compose_certs(base_cert(0, 1), base_cert(2, 3))


def test_compose_accepts_a_deep_copied_leg():
    leg = copy.deepcopy(base_cert(1, 2))
    assert leg.lower is rows(1) and leg.upper is rows(2)
    assert verify_certificate(compose_certs(base_cert(0, 1), leg), 16) is None


def test_compose_random_chains_valid():
    rng = random.Random(21)
    chain = SplitChain(base_cert(0, 1))
    for _ in range(100):
        a = rng.randint(1, 4)
        b = rng.randint(a + 1, 6)
        c = rng.randint(b + 1, 8)
        comp = compose_certs(chain.cert(a, b), chain.cert(b, c))
        assert_valid(comp, depth=16)


# ---------------------------------------------------------------------------
# Serialization.

def test_certificate_serialize_parse_roundtrip():
    c = default_certificate(MULT4, EVENS, 3)
    text = c.serialize()
    assert text == "cert{m=3, lower=ap(4,0), upper=ap(2,0)}"
    back = parse_certificate(text)
    assert back.lower is c.lower and back.upper is c.upper
    assert back.bound == 3
    assert back.surplus is c.surplus


def test_parse_certificate_rejects_garbage():
    for bad in ["", "cert{}", "cert{m=1, lower=ap(2,0)}",
                "cert{m=x, lower=ap(2,0), upper=ap(1,0)}",
                "cert{m=1, lower=ap(2,0), upper=ap(1,0)}}",
                "cert{m=1 lower=ap(2,0), upper=ap(1,0)}",
                "CERT{m=1, lower=ap(2,0), upper=ap(1,0)}",
                "cert{m=-1, lower=ap(2,0), upper=ap(1,0)}"]:
        with pytest.raises(SetParseError):
            parse_certificate(bad)


# ---------------------------------------------------------------------------
# Base chain.

def test_base_chain_values():
    assert rows(0) is empty()
    assert members_upto(rows(1), 9) == [0, 2, 4, 6, 8]
    c = base_cert(1, 2)
    assert c.surplus.first_n(3) == [1, 5, 9]
    assert c.bound == 0


def test_base_cert_requires_increase():
    with pytest.raises(ValueError):
        base_cert(2, 2)


# ---------------------------------------------------------------------------
# Interval splitting.

def test_split_example_multiples_of_four():
    cert = default_certificate(MULT4, EVENS, 0)
    chain = SplitChain(cert)
    # surplus 2,6,10,...; row-0 ranks give 2,10,18,...
    assert chain.cert(0, 1).surplus.first_n(3) == [2, 10, 18]
    z1 = chain.z(1)
    assert z1.expr == union(inter(MULT4, EVENS), piece(cert.surplus, 0)).expr
    assert_valid(chain.cert(0, 1), depth=16)


def test_split_chain_structure():
    chain = SplitChain(base_cert(0, 1))
    z1 = chain.z(1)
    z2 = chain.z(2)
    members1 = set(members_upto(z1, 10000))
    members2 = set(members_upto(z2, 10000))
    evens = set(members_upto(EVENS, 10000))
    assert members1 and members1 <= members2 <= evens
    assert len(evens - members1) > 100           # complement stays infinite


def test_split_certs_all_valid():
    chain = SplitChain(base_cert(0, 1))
    assert_valid(chain.cert(0, 1))
    assert_valid(chain.cert(0, 3))
    for k in range(1, 5):
        assert_valid(chain.cert(k, k + 1))
        assert_valid(chain.cert(k))
    assert_valid(chain.cert(1, 4))


def test_split_keeps_exception_bound():
    # lower = {0,1,2} plus multiples of 4; only 1 escapes the evens
    lower = union(diff(NATS, ap(1, 3)), MULT4)
    cert = default_certificate(lower, EVENS, 2)
    chain = SplitChain(cert)
    assert chain.cert(0, 1).bound == 2
    assert chain.cert(1, 2).bound == 0
    assert_valid(chain.cert(0, 2))


def test_split_chain_index_contracts():
    chain = SplitChain(base_cert(0, 1))
    for a, b in [(-1, 2), (2, 2), (3, 1), (-1, None)]:
        with pytest.raises(ValueError):
            chain.cert(a, b)
    assert_valid(chain.cert(0))
    # x below y, straight from the interval: its bound and piece 0
    interval = default_certificate(ap(6, 1), ap(3, 1), 3)
    whole = SplitChain(interval).cert(0)
    assert whole.lower is interval.lower and whole.upper is interval.upper
    assert whole.bound == 3 and whole.surplus is piece(interval.surplus, 0)
    assert_valid(whole)
    ends = OrdinalEmbedding(parse_ordinal("w*2"), interval).cert(None, None)
    assert ends.lower is interval.lower and ends.upper is interval.upper
    assert ends.bound == 3
    assert_valid(ends)


# ---------------------------------------------------------------------------
# The address tree.

def reference_tree_node(s):
    """The node rule before one split walk per address, an oracle for
    tree_node: drop trailing zeros, then take split point z_last of the
    parent's split, whose interval is found again the same way."""
    def interval(t):
        if len(t) == 1:
            return base_cert(t[0], t[0] + 1)
        return SplitChain(interval(t[:-1])).cert(t[-1], t[-1] + 1)

    s = tuple(s)
    while len(s) > 1 and s[-1] == 0:
        s = s[:-1]
    if len(s) == 1:
        return rows(s[0])
    return SplitChain(interval(s[:-1])).z(s[-1])


def test_tree_zero_extension_is_identity():
    assert tree_node((3, 0)) is tree_node((3,))
    assert tree_node((1, 2, 0)) is tree_node((1, 2))
    assert tree_node((4, 0, 0)) is rows(4)
    assert tree_node((0,)) is rows(0)


def test_tree_node_matches_reference():
    rng = random.Random(71)
    for _ in range(40):
        s = tuple(rng.randint(0, 3) for _ in range(rng.randint(1, 3)))
        s += (0,) * rng.randint(0, 2)
        assert tree_node(s) is reference_tree_node(s), s


def test_tree_base_level():
    assert tree_node((2,)) is rows(2)
    assert_valid(tree_split((2,)).cert(0))


def test_tree_three_way_example():
    lo, mid, hi = child_certs((1,), 2, 3)
    assert lo.lower is tree_node((1,))
    assert lo.upper.expr == tree_node((1, 2)).expr
    assert mid.upper.expr == tree_node((1, 3)).expr
    for c in (lo, mid, hi):
        assert_valid(c)


def test_tree_nodes_are_found_again_without_a_memo():
    from ordchain import certs
    assert not hasattr(certs, "_tree_splits")
    for s in [(0,), (2,), (1, 2), (0, 1, 3), (2, 0, 1)]:
        assert tree_node(s) is tree_node(s)
        lo, mid, hi = child_certs(s, 1, 3)
        plus = s[:-1] + (s[-1] + 1,)
        assert lo.lower is tree_node(s) and lo.upper is tree_node(s + (1,))
        assert mid.lower is tree_node(s + (1,)) and mid.upper is tree_node(s + (3,))
        assert hi.lower is tree_node(s + (3,)) and hi.upper is tree_node(plus)


def test_tree_snapshot():
    # regression pin for the concrete construction
    assert tree_node((0, 1)).first_n(5) == [0, 4, 8, 12, 16]
    # evens plus the row-0 slice {1, 9, 17, ...} of row 1
    assert tree_node((1, 1)).first_n(5) == [0, 1, 2, 4, 6]


def test_tree_address_validation():
    for bad in [(), (1, -2), ("a",)]:
        with pytest.raises(ValueError):
            tree_node(bad)
    with pytest.raises(ValueError):
        tree_split((1,)).cert(2, 2)
    with pytest.raises(ValueError):
        tree_split((1,)).cert(0, 0)


def test_tree_discipline_random():
    rng = random.Random(31)
    for _ in range(12):
        s = tuple(rng.randint(0, 2) for _ in range(rng.randint(1, 3)))
        a = rng.randint(1, 2)
        b = rng.randint(a + 1, 4)
        assert tree_node(s + (0,)).expr == tree_node(s).expr
        for c in child_certs(s, a, b):
            assert_valid(c, depth=16)


def tree_certs():
    """The child certificates (a, b) = (1, 2) of every address of depth 1-4
    with entries 0-3, as `verify --cert` reads them: 1,020 in all."""
    return [default_certificate(c.lower, c.upper, c.bound)
            for d in range(1, 5) for s in itertools.product(range(4), repeat=d)
            for c in child_certs(s, 1, 2)]


def embedding_certs():
    """20 pair certificates each of w^(w) and w^(w^(w))."""
    out = []
    for text in ("w^(w)", "w^(w^(w))"):
        xi = parse_ordinal(text)
        emb = OrdinalEmbedding(xi, default_interval())
        out += [emb.cert(a, b) for a, b in
                sample_comparable_pairs(xi, 20, random.Random(1))]
    return out


def test_construction_certificates_are_proved():
    for cert in tree_certs() + embedding_certs():
        assert lazyset.subset(cert.lower, cert.upper), cert.serialize()
        assert lazyset.infinite(cert.surplus), cert.serialize()
        assert lazyset.subset(cert.surplus, cert.upper), cert.serialize()
        assert lazyset.disjoint(cert.surplus, cert.lower), cert.serialize()


def test_swapped_certificates_are_probed():
    # with lower and upper exchanged no certificate is proved: each is
    # probed and FAILs with the probe's reason
    swapped = [default_certificate(c.upper, c.lower, c.bound)
               for c in tree_certs()]
    swapped += [OrderCertificate(c.upper, c.lower, c.bound, c.surplus)
                for c in embedding_certs()]
    assert len(swapped) == 1060
    for cert in swapped:
        reason = verify_certificate(cert, 32)
        assert reason is not None
        assert reason == reference_verify(cert, 32), cert.serialize()


# ---------------------------------------------------------------------------
# Ordinal embeddings.

def test_embed_finite_chain():
    emb = OrdinalEmbedding(Ordinal.from_int(3), default_interval())
    sets = [emb.member(Ordinal.from_int(k)) for k in range(3)]
    m = [set(members_upto(s, 4000)) for s in sets]
    assert m[0] < m[1] < m[2]
    for i in range(3):
        for j in range(i + 1, 3):
            assert_valid(emb.cert(Ordinal.from_int(i), Ordinal.from_int(j)))


def test_embed_omega_plus_one_upper_bound():
    emb = OrdinalEmbedding(parse_ordinal("w+1"), default_interval())
    top = parse_ordinal("w")
    for k in range(0, 21, 4):
        assert_valid(emb.cert(Ordinal.from_int(k), top))


def test_embed_requires_order():
    emb = OrdinalEmbedding(parse_ordinal("w"), default_interval())
    with pytest.raises(ValueError):
        emb.cert(Ordinal.from_int(2), Ordinal.from_int(2))
    # the message prints as written, not quoted as a KeyError's would be
    with pytest.raises(UnknownIndexError) as exc:
        emb.member(parse_ordinal("w"))
    assert str(exc.value) == "notation w is not below w"
    with pytest.raises(UnknownIndexError) as exc:
        emb.cert(Ordinal.from_int(1), parse_ordinal("w+1"))
    assert str(exc.value) == "notation w + 1 is not below w"
    # a refused notation is not kept: it is refused again, and the
    # notations below the bound still answer
    assert parse_ordinal("w") not in emb._located
    with pytest.raises(UnknownIndexError):
        emb.member(parse_ordinal("w"))
    assert emb.member(Ordinal.from_int(3)) is emb._chain.z(4)
    assert emb.cert(Ordinal.from_int(1), Ordinal.from_int(3)).upper is emb._chain.z(4)


def test_embed_zero_is_empty():
    emb = OrdinalEmbedding(Ordinal(), default_interval())
    with pytest.raises(UnknownIndexError) as exc:
        emb.member(Ordinal())
    assert str(exc.value) == "notation 0 is not below 0"


@pytest.mark.parametrize("embed", [True, False])
def test_embed_rejects_explicit_surplus_at_construction(embed):
    # the certificate itself refuses it, before an embedding (True) or a
    # bare chain (False) could see it
    with pytest.raises(TypeError, match="surplus must be a LazySet, not list"):
        cert = OrderCertificate(MULT4, EVENS, 0, [2, 6, 10, 14])
        if embed:
            OrdinalEmbedding(parse_ordinal("w*2"), cert)
        else:
            SplitChain(cert)


def reference_blocks(bound):
    """Block slots as they were built before slots came on demand: all at
    construction, one per coefficient unit.  The end and (start, type,
    is unit) of every block, an oracle for _block_end, _block_index and the
    slots an OrdinalEmbedding keeps."""
    ends, slots = [], []
    acc = Ordinal()
    for e, c in bound.terms:
        unit = Ordinal(((e, 1),)) if not e.is_zero() else ONE
        for _ in range(c):
            slots.append((acc, unit, e.is_zero()))
            acc = add(acc, unit)
            ends.append(acc)
    return ends, slots


def random_bound(rng, depth):
    """Up to four terms with coefficients up to 30; exponents are finite or
    themselves random bounds, nested `depth` deep."""
    pool = [Ordinal.from_int(k) for k in range(4)]
    pool += [random_bound(rng, depth - 1) for _ in range(3 if depth else 0)]
    pool = sorted(set(pool), key=functools.cmp_to_key(compare), reverse=True)
    exponents = sorted(rng.sample(range(len(pool)), rng.randint(1, 4)))
    return Ordinal(tuple((pool[i], rng.randint(1, 30)) for i in exponents))


def test_block_slots_match_reference():
    rng = random.Random(53)
    checked = 0
    while checked < 300:
        bound = random_bound(rng, rng.randint(0, 2))
        if len(bound.terms) == 1 and bound.terms[0][1] == 1 \
                and not bound.terms[0][0].is_zero():
            continue                        # a limit power: segments
        ends, slots = reference_blocks(bound)
        emb = OrdinalEmbedding(bound, default_interval())
        order = list(range(len(ends)))
        if checked % 2:
            order.reverse()                 # ask for the last block first
        for t in order:
            start, unit, is_unit = slots[t]
            assert _block_end(bound, t) == ends[t]
            # the block's first notation and one more, offset d < unit
            for d in (Ordinal(), sample_below(unit, rng)):
                alpha = add(start, d)
                assert _block_index(bound, alpha) == t
                assert emb._locate(alpha)[:2] == (t, d)
            assert emb._slots[t][0] == start
            assert (emb._slots[t][1] is None) == is_unit
        assert len(emb._slots) == len(ends)
        checked += 1


def test_embed_interval_endpoints_certified():
    emb = OrdinalEmbedding(parse_ordinal("w^(2)"), default_interval())
    for text in ["0", "5", "w", "w*2+3"]:
        a = parse_ordinal(text)
        lo = emb.cert(None, a)
        hi = emb.cert(a, None)
        assert lo.lower is rows(0) and lo.upper.expr == emb.member(a).expr
        assert hi.lower.expr == emb.member(a).expr and hi.upper is rows(1)
        assert_valid(lo)
        assert_valid(hi)


def test_embed_order_preserving_sampled():
    rng = random.Random(41)
    xi = parse_ordinal("w^(2)+w*3+5")
    emb = OrdinalEmbedding(xi, default_interval())
    for a, b in sample_comparable_pairs(xi, 30, rng):
        c = emb.cert(a, b)
        assert c.lower.expr == emb.member(a).expr
        assert c.upper.expr == emb.member(b).expr
        assert_valid(c)


def test_embed_memoizes_members():
    emb = OrdinalEmbedding(parse_ordinal("w^(2)"), default_interval())
    a = parse_ordinal("w+1")
    assert emb.member(a) is emb.member(a)


def test_embed_into_nontrivial_interval():
    cert = default_certificate(MULT4, EVENS, 0)
    emb = OrdinalEmbedding(parse_ordinal("w*2"), cert)
    a, b = parse_ordinal("3"), parse_ordinal("w+1")
    assert_valid(emb.cert(a, b))
    assert_valid(emb.cert(None, b))
    assert_valid(emb.cert(b, None))


class ReferenceEmbedding:
    """Certificates as derived before each chain had one `cert` query: the
    four SplitChain formulas (lower end, between, slot, upper end) and the
    separate pair, lower-end and upper-end compositions, an oracle for
    SplitChain.cert and OrdinalEmbedding.cert.  Slots are read off the
    terms by a library embedding of the same bound."""

    def __init__(self, bound, interval):
        self.slots = OrdinalEmbedding(bound, interval)
        self.chain = SplitChain(interval)
        self.subs = {}

    def lower_end(self, k):
        c = self.chain
        return OrderCertificate(c.x, c.z(k), c.bound, piece(c.source, 0))

    def between(self, a, b):
        c = self.chain
        return OrderCertificate(c.z(a), c.z(b), 0, piece(c.source, a))

    def slot(self, t):
        return self.lower_end(1) if t == 0 else self.between(t, t + 1)

    def upper_end(self, k):
        c = self.chain
        return OrderCertificate(c.z(k), c.y, 0, piece(c.source, k))

    def locate(self, alpha):
        t = self.slots._slot_index(alpha)
        start = self.slots._slot_end(t - 1) if t else Ordinal()
        if t not in self.subs:
            otype = left_subtract(start, self.slots._slot_end(t))
            self.subs[t] = None if otype == ONE else ReferenceEmbedding(
                otype, self.slot(t))
        return t, left_subtract(start, alpha), self.subs[t]

    def cert(self, alpha, beta):
        ta, offa, suba = self.locate(alpha)
        tb, offb, subb = self.locate(beta)
        if ta == tb:
            return suba.cert(offa, offb)
        legs = [] if suba is None else [suba.above(offa)]
        if subb is None:
            legs.append(self.between(ta + 1, tb + 1))
        else:
            if ta + 1 < tb:
                legs.append(self.between(ta + 1, tb))
            legs.append(subb.below(offb))
        out = legs[0]
        for leg in legs[1:]:
            out = compose_certs(out, leg)
        return out

    def below(self, alpha):
        t, off, sub = self.locate(alpha)
        if sub is None:
            return self.lower_end(t + 1)
        inner = sub.below(off)
        return inner if t == 0 else compose_certs(self.lower_end(t), inner)

    def above(self, alpha):
        t, off, sub = self.locate(alpha)
        if sub is None:
            return self.upper_end(t + 1)
        return compose_certs(sub.above(off), self.upper_end(t + 1))


def same_certificate(c, ref):
    return (c.lower is ref.lower and c.upper is ref.upper
            and c.bound == ref.bound and c.surplus is ref.surplus)


@pytest.mark.parametrize("interval", [
    default_interval(),
    default_certificate(MULT4, EVENS, 0),
    default_certificate(ap(6, 1), ap(3, 1), 3),
], ids=["rows", "mult4-evens", "bound3"])
def test_cert_queries_match_reference(interval):
    chain, ref = SplitChain(interval), ReferenceEmbedding(ONE, interval)
    for k in range(1, 6):
        assert same_certificate(chain.cert(0, k), ref.lower_end(k))
        assert same_certificate(chain.cert(k), ref.upper_end(k))
        assert same_certificate(chain.cert(k - 1, k), ref.slot(k - 1))
        for j in range(k + 1, 7):
            assert same_certificate(chain.cert(k, j), ref.between(k, j))
    for text in ["w", "w*2", "w^(2)", "w^(2)+w*3+5", "w^(w)", "w^(w)+w^(3)",
                 "w^(w^(w))", "12"]:
        xi = parse_ordinal(text)
        emb, ref = OrdinalEmbedding(xi, interval), ReferenceEmbedding(xi, interval)
        pairs = list(sample_comparable_pairs(xi, 60, random.Random(61)))
        # each pair again, in reverse order, answered from the located notations
        for a, b in pairs + pairs[::-1]:
            assert same_certificate(emb.cert(a, b), ref.cert(a, b)), (text, a, b)
            assert same_certificate(emb.cert(None, a), ref.below(a))
            assert same_certificate(emb.cert(b, None), ref.above(b))
            assert emb.member(a) is ref.below(a).upper
            # only a derivation out of the interval's lower end keeps its
            # bound: the rule that lets cert fold its steps in any grouping
            assert emb.cert(a, b).bound == 0 and emb.cert(b, None).bound == 0
            assert emb.cert(None, a).bound == interval.bound


def test_default_interval():
    c = default_interval()
    assert c.lower is rows(0) and c.upper is rows(1)
    assert_valid(c)
