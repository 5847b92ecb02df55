"""Lazy set expressions: pairing bijection, membership, enumeration, grammar.

The numpy-backed fast path is cross-checked against the pure-Python slow
path and, for the leaf constructors, against direct formulas.
"""

import random

import pytest

import ordchain.lazyset as lazyset
from ordchain.lazyset import (ResourceLimitError, SetParseError, ap, diff,
                              empty, inter, pair, parse_set, piece, rows,
                              union, unpair)


def test_pairing_bijection_exhaustive():
    seen = {}
    for i in range(15):
        for j in range(2 ** 14):
            n = pair(i, j)
            if n < 2 ** 14:
                assert n not in seen
                seen[n] = (i, j)
    assert sorted(seen) == list(range(2 ** 14))
    for n, ij in seen.items():
        assert unpair(n) == ij


def test_pairing_examples():
    assert pair(0, 0) == 0
    assert [pair(0, j) for j in range(4)] == [0, 2, 4, 6]     # row 0: evens
    assert [pair(1, j) for j in range(3)] == [1, 5, 9]


def test_rows_membership():
    evens = rows(1)
    assert evens.members_upto(10) == [0, 2, 4, 6, 8]
    assert rows(0) is empty()
    assert rows(2).members_upto(10) == [0, 1, 2, 4, 5, 6, 8, 9]
    assert diff(rows(2), rows(1)).first_n(3) == [1, 5, 9]


def test_rows_row_decomposition():
    # rows(k) is exactly the points whose unpair row index is < k
    for k in range(4):
        got = rows(k).members_upto(500) if k else []
        expect = [n for n in range(500) if unpair(n)[0] < k]
        assert got == expect


def test_ap_membership():
    assert ap(3, 1).members_upto(12) == [1, 4, 7, 10]
    assert ap(1, 0).members_upto(5) == [0, 1, 2, 3, 4]
    with pytest.raises(ValueError):
        ap(0, 1)
    with pytest.raises(ValueError):
        ap(2, -1)


def test_boolean_operations():
    evens, mult4 = ap(2, 0), ap(4, 0)
    assert inter(evens, mult4).members_upto(20) == mult4.members_upto(20)
    assert diff(evens, mult4).members_upto(20) == [2, 6, 10, 14, 18]
    assert union(ap(2, 1), evens).members_upto(8) == list(range(8))


def test_piece_slices_by_enumeration_rank():
    evens = ap(2, 0)
    # rank r of evens has value 2r; row-0 ranks are 0,2,4,...
    assert piece(evens, 0).first_n(4) == [0, 4, 8, 12]
    assert piece(evens, 1).first_n(3) == [2, 10, 18]
    with pytest.raises(ValueError):
        piece(evens, -1)


def test_piece_of_infinite_set_is_infinite():
    surplus = diff(ap(2, 0), ap(4, 0))
    for i in range(5):
        elems = piece(surplus, i).first_n(8)
        assert len(elems) == 8
        assert elems == sorted(set(elems))


def test_pieces_partition_parent():
    parent = diff(rows(2), rows(1))
    upto = parent.members_upto(2000)
    collected = []
    for i in range(8):
        collected += [e for e in piece(parent, i).members_upto(2000)]
    # every collected element is a parent element, no element twice
    assert len(collected) == len(set(collected))
    assert set(collected) <= set(upto)


def test_enumerate_strictly_increasing_and_consistent():
    exprs = [rows(1), rows(3), ap(3, 2), diff(rows(2), rows(1)),
             union(ap(4, 1), ap(6, 0)), piece(ap(2, 0), 1),
             inter(rows(2), ap(2, 0))]
    for s in exprs:
        elems = s.first_n(1000)
        assert all(a < b for a, b in zip(elems, elems[1:]))
        for e in elems[:50]:
            assert s.member(e)
        for k in range(50):
            assert s.enumerate(k) == elems[k]


def test_member_edge_cases():
    assert not ap(2, 0).member(-1)
    assert ap(2, 0).member(0)
    assert not empty().member(0)
    assert empty().members_upto(100) == []


def test_slow_oracle_agrees_with_fast_path():
    rng = random.Random(13)
    leaves = [lambda: rows(rng.randint(1, 3)),
              lambda: ap(rng.randint(1, 5), rng.randint(0, 4))]

    def random_expr(depth):
        if depth == 0 or rng.random() < 0.3:
            return rng.choice(leaves)()
        op = rng.choice(["union", "inter", "diff", "piece"])
        if op == "piece":
            return piece(random_expr(depth - 1), rng.randint(0, 2))
        ctor = {"union": union, "inter": inter, "diff": diff}[op]
        return ctor(random_expr(depth - 1), random_expr(depth - 1))

    for _ in range(40):
        s = random_expr(3)
        assert s.members_upto(1500) == s.members_upto_slow(1500)


def test_first_n_raises_on_finite_set():
    finite = diff(ap(1, 0), ap(1, 3))           # {0, 1, 2}
    assert finite.members_upto(100) == [0, 1, 2]
    lazyset.set_scan_cap(1 << 14)
    with pytest.raises(ResourceLimitError):
        finite.first_n(4)


def test_scan_cap_enforced():
    lazyset.set_scan_cap(1 << 12)
    with pytest.raises(ResourceLimitError):
        ap(2, 0).bits(1 << 13)


def test_depth_cap_enforced():
    with pytest.raises(ValueError):
        lazyset.set_depth_cap(0)
    lazyset.set_depth_cap(10)
    s = ap(1, 0)
    with pytest.raises(ResourceLimitError):
        for i in range(40):
            s = union(s, ap(1, i))


def test_depth_cap_holds_for_interned_sets():
    s = ap(1, 0)
    for i in range(12):
        s = union(s, ap(1, i))
    assert s.depth == 13
    lazyset.set_depth_cap(10)
    with pytest.raises(ResourceLimitError):
        union(s.children[0], s.children[1])
    with pytest.raises(ResourceLimitError):
        parse_set(s.expr)


def test_purge_caches_is_invisible():
    s = diff(rows(3), ap(3, 0))
    before = s.members_upto(3000)
    lazyset.purge_caches()
    assert s.members_upto(3000) == before


def test_interning():
    assert ap(2, 0) is ap(2, 0)
    assert union(ap(2, 0), rows(1)) is union(ap(2, 0), rows(1))
    assert parse_set("union(ap(2,0),rows(1))") is union(ap(2, 0), rows(1))


# ---------------------------------------------------------------------------
# Grammar.

def test_parse_set_roundtrip():
    texts = ["empty", "rows(3)", "ap(2,1)",
             "union(rows(1),ap(3,0))",
             "piece(diff(rows(2),rows(1)),4)",
             "inter(ap(2,0),union(empty,rows(5)))"]
    for text in texts:
        s = parse_set(text)
        assert s.expr == text
        assert parse_set(s.expr) is s


def test_parse_set_whitespace():
    assert parse_set(" union( rows( 1 ) , ap(2, 1) ) ") is \
        union(rows(1), ap(2, 1))


def test_parse_set_deep_nesting():
    # well past the interpreter's recursion limit, well within the depth cap
    s = ap(2, 0)
    for i in range(1500):
        s = (union(s, ap(3, i)) if i % 4 == 0 else
             inter(ap(1, i), s) if i % 4 == 1 else
             diff(s, ap(5, i)) if i % 4 == 2 else piece(s, 0))
    assert s.depth == 1501
    assert parse_set(s.expr) is s


@pytest.mark.parametrize("bad", [
    "", "rows", "rows()", "rows(x)", "ap(0,1)", "ap(2)", "frobnicate(1)",
    "union(rows(1))", "rows(1) rows(2)", "piece(rows(1))", "rows(1),",
    "union(rows(1),rows(2)", "rows(-1)",
])
def test_parse_set_rejects(bad):
    with pytest.raises(SetParseError):
        parse_set(bad)
