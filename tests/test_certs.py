"""Certificates for strict mod-finite containment, interval splitting,
the address tree, and ordinal embeddings."""

import functools
import random

import pytest

from ordchain import lazyset
from ordchain.certs import (InvalidCertificateError, OrderCertificate,
                            OrdinalEmbedding, Report, SplitChain, _block_end,
                            _block_index, base_cert, compose_certs,
                            default_certificate, default_interval,
                            parse_certificate, tree_child_certs, tree_node,
                            tree_split, verify_certificate)
from ordchain.lazyset import (ResourceLimitError, SetParseError, ap, diff,
                              empty, inter, parse_set, piece, rows, union)
from ordchain.ordinal import ONE, Ordinal, add, compare, parse_ordinal
from ordchain.sampling import sample_below, sample_comparable_pairs

NATS = ap(1, 0)
EVENS = ap(2, 0)
MULT4 = ap(4, 0)


def assert_valid(cert, depth=32):
    r = verify_certificate(cert, depth)
    assert r.ok, r.message


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
    r = verify_certificate(bad, 8)
    assert not r.ok
    assert "element 0" in r.message


def test_verify_accepts_with_adequate_bound():
    assert_valid(default_certificate(MULT4, inter(EVENS, ap(1, 1)), 1))


def test_verify_catches_repeating_surplus():
    bad = OrderCertificate(MULT4, EVENS, 0, [2, 6, 6, 10, 14, 18, 22, 26])
    r = verify_certificate(bad, 3)
    assert not r.ok
    assert "repeats" in r.message and "6" in r.message


def test_verify_catches_surplus_in_lower():
    bad = OrderCertificate(MULT4, EVENS, 0, [2, 4, 6])
    r = verify_certificate(bad, 3)
    assert not r.ok and "lies in lower" in r.message


def test_verify_catches_surplus_outside_upper():
    bad = OrderCertificate(MULT4, EVENS, 0, [2, 3])
    r = verify_certificate(bad, 2)
    assert not r.ok and "not in upper" in r.message


def test_verify_reports_exhausted_surplus():
    bad = OrderCertificate(MULT4, EVENS, 0, [2, 6])
    r = verify_certificate(bad, 5)
    assert not r.ok and "surplus" in r.message


def test_certificates_are_not_decisions():
    # a certificate is only refutable at depth; a bogus claim about sets
    # that are actually ordered the other way is caught by the scan
    bad = default_certificate(EVENS, MULT4, 0)
    r = verify_certificate(bad, 8)
    assert not r.ok


def reference_verify(cert, depth):
    """The verifier as it was before its probe became one bitmap
    comparison: every element of lower up to the probe bound is looked up
    in upper one at a time.  An oracle for verify_certificate."""
    if depth < 1:
        raise ValueError("depth must be >= 1")
    try:
        surplus = cert.surplus_elements(depth)
    except ResourceLimitError as exc:
        return Report(False, f"surplus exhausted: {exc}")
    if len(set(surplus)) != len(surplus):
        dupe = next(s for s in surplus if surplus.count(s) > 1)
        return Report(False, f"surplus repeats element {dupe}")
    for s in surplus:
        if not cert.upper.member(s):
            return Report(False, f"surplus element {s} not in upper")
        if cert.lower.member(s):
            return Report(False, f"surplus element {s} lies in lower")
    probe = max(cert.bound, max(surplus, default=0), 4 * depth)
    for e in cert.lower.members_upto(probe + 1):
        if e >= cert.bound and not cert.upper.member(e):
            return Report(False, f"element {e}")
    return Report(True, "OK")


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
        certs += [chain.cert_lower(1), chain.cert_lower(3),
                  chain.cert_between(1, 4), chain.cert_slot(2),
                  chain.cert_upper(3)]
    certs += tree_child_certs((1, 2), 1, 3) + tree_child_certs((2,), 2, 3)
    rng = random.Random(51)
    for interval in (default_interval(),
                     default_certificate(union(MULT4, singleton(5)),
                                         EVENS, 6)):
        emb = OrdinalEmbedding(parse_ordinal("w^(2)+w*3+5"), interval)
        certs += [emb.cert(a, b) for a, b in
                  sample_comparable_pairs(parse_ordinal("w^(2)+w*3+5"), 8, rng)]
        certs.append(emb.upper_cert(parse_ordinal("w*2")))
    evens_from_2 = inter(EVENS, ap(1, 1))
    certs += [
        default_certificate(MULT4, evens_from_2, 0),            # FAIL element 0
        default_certificate(union(MULT4, union(singleton(7), singleton(11))),
                            EVENS, 8),                          # FAIL element 11
        OrderCertificate(MULT4, EVENS, 0, [2, 3, 6, 10] + list(range(14, 200, 4))),
        OrderCertificate(MULT4, EVENS, 0, [2, 4, 6] + list(range(10, 200, 4))),
        OrderCertificate(MULT4, EVENS, 0, [2, 6, 6] + list(range(10, 200, 4))),
        OrderCertificate(MULT4, EVENS, 0, [2, 6]),              # too short
        OrderCertificate(MULT4, EVENS, 0, [-2] + list(range(2, 200, 4))),
    ]
    return certs


@pytest.mark.parametrize("depth", [4, 16, 32])
def test_verify_matches_reference(depth):
    reports = []
    for cert in oracle_corpus():
        report = verify_certificate(cert, depth)
        assert report == reference_verify(cert, depth), cert.serialize()
        reports.append(report.message.split(" ")[0])
    # the corpus reaches every verdict
    assert {"OK", "element", "surplus"} <= set(reports)


def test_repeated_surplus_matches_reference():
    """The one-pass duplicate check names the same element as the
    reference's quadratic scan: the first, in surplus order, whose value
    occurs more than once."""
    rng = random.Random(67)
    surpluses = [[2, 6, 10, 6, 2], [2, 6, 10, 14, 14], [10, 6, 6, 10],
                 [2, 6, 10, 14, 18, 2]]
    for _ in range(200):
        n = rng.randint(2, 120)
        s = rng.sample(range(2, 8 * n, 4), n)
        for _ in range(rng.randint(1, 4)):      # several repeats
            s[rng.randrange(n)] = rng.choice(s)
        if len(set(s)) == n:
            s[-1] = s[rng.randrange(n - 1)]     # a repeat at the very end
        surpluses.append(s)
    for s in surpluses:
        cert = OrderCertificate(MULT4, EVENS, 0, s)
        report = verify_certificate(cert, len(s))
        assert report == reference_verify(cert, len(s)), s
        assert report.message.startswith("surplus repeats element ")


def test_verify_matches_reference_under_low_scan_cap():
    sparse = piece(diff(rows(1), empty()), 11)      # one element, 4094, below 2^12
    corpus = oracle_corpus() + [default_certificate(empty(), sparse, 0)]
    # caches longer than the cap would make every scan refuse at once
    lazyset.purge_caches()
    lazyset.set_scan_cap(1 << 12)
    for cert in corpus:
        assert verify_certificate(cert, 16) == reference_verify(cert, 16)
    assert not verify_certificate(corpus[-1], 16).ok
    beyond = default_certificate(MULT4, EVENS, 1 << 12)
    for verify in (verify_certificate, reference_verify):
        with pytest.raises(ResourceLimitError):
            verify(beyond, 16)


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
    assert c.surplus_elements(10) == [1, 3, 5, 7, 9, 11, 13, 15, 17, 19]
    assert_valid(c)


def test_compose_thresholds_surplus():
    c1 = OrderCertificate(MULT4, EVENS, 6, diff(EVENS, MULT4))
    c2 = default_certificate(EVENS, NATS, 0)
    c = compose_certs(c1, c2)
    assert min(c.surplus_elements(5)) >= 6
    assert_valid(c)
    # explicit-sequence surplus is thresholded the same way
    c2l = OrderCertificate(EVENS, NATS, 0, [1, 3, 5, 7, 9, 11, 13])
    cl = compose_certs(c1, c2l)
    assert cl.surplus_elements(3) == [7, 9, 11]


def test_compose_rejects_mismatched_middle():
    with pytest.raises(InvalidCertificateError):
        compose_certs(base_cert(0, 1), base_cert(2, 3))


def test_compose_random_chains_valid():
    rng = random.Random(21)
    chain = SplitChain(base_cert(0, 1))
    for _ in range(100):
        a = rng.randint(1, 4)
        b = rng.randint(a + 1, 6)
        c = rng.randint(b + 1, 8)
        comp = compose_certs(chain.cert_between(a, b), chain.cert_between(b, c))
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
    assert back.surplus_elements(3) == c.surplus_elements(3)


def test_parse_certificate_rejects_garbage():
    for bad in ["", "cert{}", "cert{m=1, lower=ap(2,0)}",
                "cert{m=x, lower=ap(2,0), upper=ap(1,0)}"]:
        with pytest.raises(SetParseError):
            parse_certificate(bad)


# ---------------------------------------------------------------------------
# Base chain.

def test_base_chain_values():
    assert rows(0) is empty()
    assert rows(1).members_upto(9) == [0, 2, 4, 6, 8]
    c = base_cert(1, 2)
    assert c.surplus_elements(3) == [1, 5, 9]
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
    assert chain.slice_piece(0).first_n(3) == [2, 10, 18]
    z1 = chain.z(1)
    assert z1.expr == union(inter(MULT4, EVENS), chain.slice_piece(0)).expr
    assert_valid(chain.cert_lower(1), depth=16)


def test_split_chain_structure():
    chain = SplitChain(base_cert(0, 1))
    z1 = chain.z(1)
    z2 = chain.z(2)
    members1 = set(z1.members_upto(10000))
    members2 = set(z2.members_upto(10000))
    evens = set(EVENS.members_upto(10000))
    assert members1 and members1 <= members2 <= evens
    assert len(evens - members1) > 100           # complement stays infinite


def test_split_certs_all_valid():
    chain = SplitChain(base_cert(0, 1))
    assert_valid(chain.cert_lower(1))
    assert_valid(chain.cert_lower(3))
    for k in range(1, 5):
        assert_valid(chain.cert_slot(k))
        assert_valid(chain.cert_upper(k))
    assert_valid(chain.cert_between(1, 4))


def test_split_keeps_exception_bound():
    # lower = {0,1,2} plus multiples of 4; only 1 escapes the evens
    lower = union(diff(NATS, ap(1, 3)), MULT4)
    cert = default_certificate(lower, EVENS, 2)
    chain = SplitChain(cert)
    assert chain.cert_lower(1).bound == 2
    assert chain.cert_slot(1).bound == 0
    assert_valid(chain.cert_lower(2))


def test_split_rejects_invalid_interval():
    with pytest.raises(InvalidCertificateError):
        SplitChain(default_certificate(EVENS, MULT4, 0))
    with pytest.raises(InvalidCertificateError):
        SplitChain(OrderCertificate(MULT4, EVENS, 0, [2, 6, 10]))


def test_split_chain_index_contracts():
    chain = SplitChain(base_cert(0, 1))
    with pytest.raises(ValueError):
        chain.cert_lower(0)
    with pytest.raises(ValueError):
        chain.cert_between(2, 2)
    with pytest.raises(ValueError):
        chain.cert_upper(0)


# ---------------------------------------------------------------------------
# The address tree.

def reference_tree_node(s):
    """The node rule before one split walk per address, an oracle for
    tree_node: drop trailing zeros, then take split point z_last of the
    parent's split, whose interval is found again the same way."""
    def interval(t):
        if len(t) == 1:
            return base_cert(t[0], t[0] + 1)
        return SplitChain(interval(t[:-1]), validate=False).cert_slot(t[-1])

    s = tuple(s)
    while len(s) > 1 and s[-1] == 0:
        s = s[:-1]
    if len(s) == 1:
        return rows(s[0])
    return SplitChain(interval(s[:-1]), validate=False).z(s[-1])


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
    assert_valid(tree_split((2,)).cert)


def test_tree_three_way_example():
    lo, mid, hi = tree_child_certs((1,), 2, 3)
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
        lo, mid, hi = tree_child_certs(s, 1, 3)
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
        tree_child_certs((1,), 2, 2)
    with pytest.raises(ValueError):
        tree_child_certs((1,), 0, 2)


def test_tree_discipline_random():
    rng = random.Random(31)
    for _ in range(12):
        s = tuple(rng.randint(0, 2) for _ in range(rng.randint(1, 3)))
        a = rng.randint(1, 2)
        b = rng.randint(a + 1, 4)
        assert tree_node(s + (0,)).expr == tree_node(s).expr
        for c in tree_child_certs(s, a, b):
            assert_valid(c, depth=16)


# ---------------------------------------------------------------------------
# Ordinal embeddings.

def test_embed_finite_chain():
    emb = OrdinalEmbedding(Ordinal.from_int(3), default_interval())
    sets = [emb.member(Ordinal.from_int(k)) for k in range(3)]
    m = [set(s.members_upto(4000)) for s in sets]
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
    with pytest.raises(KeyError):
        emb.member(parse_ordinal("w"))
    with pytest.raises(KeyError):
        emb.cert(Ordinal.from_int(1), parse_ordinal("w+1"))


def test_embed_zero_is_empty():
    emb = OrdinalEmbedding(Ordinal(), default_interval())
    with pytest.raises(KeyError):
        emb.member(Ordinal())


def test_embed_rejects_invalid_interval():
    with pytest.raises(InvalidCertificateError):
        OrdinalEmbedding(parse_ordinal("w"),
                         default_certificate(EVENS, MULT4, 0))


def test_embed_invalid_interval_message():
    with pytest.raises(InvalidCertificateError,
                       match="^invalid interval certificate: surplus exhausted"):
        OrdinalEmbedding(parse_ordinal("w"),
                         default_certificate(EVENS, MULT4, 0))


@pytest.mark.parametrize("validate", [True, False])
def test_embed_rejects_explicit_surplus_at_construction(validate):
    explicit = OrderCertificate(MULT4, EVENS, 0, [2, 6, 10, 14])
    with pytest.raises(InvalidCertificateError,
                       match="split needs a set-backed surplus"):
        OrdinalEmbedding(parse_ordinal("w*2"), explicit, validate=validate)


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
        emb = OrdinalEmbedding(bound, default_interval(), validate=False)
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
        lo = emb.lower_cert(a)
        hi = emb.upper_cert(a)
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
    assert_valid(emb.lower_cert(b))
    assert_valid(emb.upper_cert(b))


def test_default_interval():
    c = default_interval()
    assert c.lower is rows(0) and c.upper is rows(1)
    assert_valid(c)
