"""Lazy set expressions: pairing bijection, membership, enumeration, grammar.

The folded numpy fast path is cross-checked against two oracles kept here:
`reference_bits`, an unfolded evaluation of every node's whole prefix, and
`slow_members`, a pure-Python per-element evaluation; the leaf
constructors are also checked against direct formulas.
"""

import copy
import pickle
import random
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ordchain.lazyset as lazyset
from ordchain.certs import default_certificate, parse_certificate
from ordchain.lazyset import (SET, ResourceLimitError, SetParseError, ap,
                              diff, empty, inter, pair, parse_set, parse_text,
                              piece, rows, union, unpair)


def members_upto(s, n):
    """Sorted members of s below n."""
    return np.flatnonzero(s.bits(n)).tolist()


def member(s, n):
    """Whether n is a member of s: one `bits` prefix to n + 1."""
    return n >= 0 and bool(s.bits(n + 1)[n])


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
    assert members_upto(evens, 10) == [0, 2, 4, 6, 8]
    assert rows(0) is empty()
    assert members_upto(rows(2), 10) == [0, 1, 2, 4, 5, 6, 8, 9]
    assert diff(rows(2), rows(1)).first_n(3) == [1, 5, 9]


def test_rows_row_decomposition():
    # rows(k) is exactly the points whose unpair row index is < k
    for k in range(4):
        got = members_upto(rows(k), 500) if k else []
        expect = [n for n in range(500) if unpair(n)[0] < k]
        assert got == expect


def test_ap_membership():
    assert members_upto(ap(3, 1), 12) == [1, 4, 7, 10]
    assert members_upto(ap(1, 0), 5) == [0, 1, 2, 3, 4]
    with pytest.raises(ValueError):
        ap(0, 1)
    with pytest.raises(ValueError):
        ap(2, -1)


def test_boolean_operations():
    evens, mult4 = ap(2, 0), ap(4, 0)
    assert members_upto(inter(evens, mult4), 20) == members_upto(mult4, 20)
    assert members_upto(diff(evens, mult4), 20) == [2, 6, 10, 14, 18]
    assert members_upto(union(ap(2, 1), evens), 8) == list(range(8))


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
    upto = members_upto(parent, 2000)
    collected = []
    for i in range(8):
        collected += [e for e in members_upto(piece(parent, i), 2000)]
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
            assert member(s, e)
        for k in range(50):
            assert s.first_n(k + 1)[k] == elems[k]


def test_member_edge_cases():
    assert not member(ap(2, 0), -1)
    assert member(ap(2, 0), 0)
    assert not member(empty(), 0)
    assert members_upto(empty(), 100) == []


# ---------------------------------------------------------------------------
# Oracles.

def post_order(root):
    order, seen, stack = [], set(), [(root, False)]
    while stack:
        node, done = stack.pop()
        if done:
            order.append(node)
        elif id(node) not in seen:
            seen.add(id(node))
            stack.append((node, True))
            stack.extend((c, False) for c in node.children)
    return order


def slow_members(root, n):
    """Sorted members < n: per-node sorted lists of plain Python integers,
    no numpy and no shared caches."""
    values = {}
    for node in post_order(root):
        kind = node.kind
        if kind == "empty":
            out = []
        elif kind == "rows":
            (k,) = node.nats
            out = [m for m in range(n) if unpair(m)[0] < k]
        elif kind == "ap":
            a, b = node.nats
            out = list(range(b, n, a))
        elif kind == "piece":
            (i,) = node.nats
            parent = values[id(node.children[0])]
            out = [v for rank, v in enumerate(parent) if unpair(rank)[0] == i]
        else:
            left = set(values[id(node.children[0])])
            right = set(values[id(node.children[1])])
            out = sorted(left | right if kind == "union" else
                         left & right if kind == "inter" else left - right)
        values[id(node)] = out
    return values[id(root)]


def trailing_zeros(x):
    """2-adic valuation of each positive entry, through a float log2 of its
    lowest set bit: an oracle independent of the library's strided slices."""
    return np.round(np.log2((x & -x).astype(np.float64))).astype(np.int64)


def reference_bits(root, n):
    """Membership over [0, n), unfolded: every node's whole prefix, bottom
    up, nothing cached."""
    values = {}
    for node in post_order(root):
        kind = node.kind
        if kind == "empty":
            out = np.zeros(n, dtype=bool)
        elif kind == "rows":
            (k,) = node.nats
            x = np.arange(1, n + 1, dtype=np.int64)
            out = trailing_zeros(x) < k
        elif kind == "ap":
            a, b = node.nats
            out = np.zeros(n, dtype=bool)
            out[b::a] = True
        elif kind == "piece":
            (i,) = node.nats
            idx = np.flatnonzero(values[id(node.children[0])])
            ranks = np.arange(1, len(idx) + 1, dtype=np.int64)
            out = np.zeros(n, dtype=bool)
            out[idx[trailing_zeros(ranks) == i]] = True
        else:
            x, y = (values[id(c)] for c in node.children)
            out = x | y if kind == "union" else x & y if kind == "inter" else x & ~y
        values[id(node)] = out
    return values[id(root)]


def reference_member(ref, n):
    cap = lazyset._SCAN_CAP
    if n < 0:
        return False
    if n + 1 > cap:
        raise ResourceLimitError(f"scan bound {n + 1} exceeds cap {cap}")
    return bool(ref[n])


def reference_bits_upto(ref, n):
    cap = lazyset._SCAN_CAP
    if n > cap:
        raise ResourceLimitError(f"scan bound {n} exceeds cap {cap}")
    return ref[:n]


def reference_first_n(ref, expr, count):
    """first_n by a prefix scan doubled up to the scan cap (`ref` reaches
    the cap)."""
    cap = lazyset._SCAN_CAP
    if count <= 0:
        return []
    n = 1024
    while True:
        idx = np.flatnonzero(ref[:n])
        if len(idx) >= count:
            return idx[:count].tolist()
        if n >= cap:
            raise ResourceLimitError(
                f"found only {len(idx)} elements of {expr} below {n}")
        n = min(2 * n, cap)


def outcome(f, *args):
    """The result of f(*args), or the type and text of what it raised."""
    try:
        out = f(*args)
    except (ResourceLimitError, ValueError) as exc:
        return type(exc).__name__, str(exc)
    return out.tobytes() if isinstance(out, np.ndarray) else out


def random_expr(rng, depth):
    """Depth <= depth + 1.  ap(1,b) leaves make some differences finite;
    sparse ap leaves give periods too long to fold below the probes."""
    if depth == 0 or rng.random() < 0.35:
        return rng.choice([
            lambda: empty(),
            lambda: rows(rng.randint(1, 4)),
            lambda: ap(rng.randint(1, 7), rng.randint(0, 12)),
            lambda: ap(1, rng.randint(0, 40)),
            lambda: ap(rng.randint(2, 1 << 18), rng.randint(0, 1 << 18)),
        ])()
    op = rng.choice(["union", "inter", "diff", "piece", "piece"])
    if op == "piece":
        return piece(random_expr(rng, depth - 1), rng.randint(0, 3))
    ctor = {"union": union, "inter": inter, "diff": diff}[op]
    return ctor(random_expr(rng, depth - 1), random_expr(rng, depth - 1))


def reference_text(s):
    """The text rule the factories once applied as each node was built."""
    if s.kind == "empty":
        return "empty"
    if s.kind == "rows":
        return f"rows({s.nats[0]})"
    if s.kind == "ap":
        return f"ap({s.nats[0]},{s.nats[1]})"
    if s.kind == "piece":
        return f"piece({reference_text(s.children[0])},{s.nats[0]})"
    x, y = s.children
    return f"{s.kind}({reference_text(x)},{reference_text(y)})"


def test_expr_matches_text_rule_and_rebuilds_intern():
    for seed in range(60):
        s = random_expr(random.Random(seed), 5)
        assert random_expr(random.Random(seed), 5) is s
        # ask in a shuffled order, so some nodes render with kept child
        # text and some without
        nodes = post_order(s)
        random.Random(seed).shuffle(nodes)
        for node in nodes:
            assert node.expr == reference_text(node)
        assert parse_set(s.expr) is s


def test_deep_chain_renders_without_recursion():
    s = ap(1, 0)
    for i in range(5000):
        s = union(s, piece(ap(2, 1), i % 3))
    assert s.expr.startswith("union(" * 5000 + "ap(1,0),piece(ap(2,1),0))")
    assert parse_set(s.expr) is s


def test_escapes_rejects_negative_start():
    # a negative start used to slice from the end of the bitmap
    x = union(ap(4, 0), diff(ap(1, 1), ap(1, 2)))
    assert lazyset.escapes(x, ap(2, 0), 0, 8).tolist() == [1]
    with pytest.raises(ValueError):
        lazyset.escapes(x, ap(2, 0), -3, 8)


def test_slow_oracle_agrees_with_fast_path():
    rng = random.Random(13)
    for _ in range(40):
        s = random_expr(rng, 3)
        assert members_upto(s, 1500) == slow_members(s, 1500)


FAR = 1 << 19
CAPS = (1 << 27, 1 << 14, 1 << 20)


def assert_keeps_only_short_folds(root):
    """Every node under root keeps nothing, or its fold: P + T members,
    with P + T at most the fold limit."""
    for node in post_order(root):
        if node._bits is not None:
            assert len(node._bits) == sum(node._shape) <= lazyset._FOLD_LIMIT


@pytest.mark.parametrize("seed", [5, 6])
def test_folded_path_matches_reference(seed, monkeypatch):
    rng = random.Random(seed)
    exprs = [random_expr(rng, 5) for _ in range(30)]
    refs = [reference_bits(s, 1 << 20) for s in exprs]
    probes = sorted(rng.sample(range(FAR), 60)) + [FAR - 1, (1 << 20) - 1]
    # warm (sets may be shared with earlier tests), then with the caps in
    # the other order, so folds made under one cap meet another
    for caps in (CAPS, CAPS[::-1]):
        for cap in caps:
            monkeypatch.setattr(lazyset, "_SCAN_CAP", cap)
            edge = [cap - 1, cap] if cap <= 1 << 20 else []
            for s, ref in zip(exprs, refs):
                for n in probes + edge:
                    assert outcome(member, s, n) == outcome(reference_member, ref, n)
                assert outcome(s.bits, FAR) == outcome(reference_bits_upto, ref, FAR)
                if cap > 1 << 20:
                    continue        # `ref` does not reach the default cap
                for count in (1, 7, 64, 3000):
                    assert outcome(s.first_n, count) == \
                        outcome(reference_first_n, ref, s.expr, count)
    # after a scan, a node keeps one preperiod plus one period, or nothing
    monkeypatch.setattr(lazyset, "_SCAN_CAP", CAPS[0])
    folded = 0
    for s in exprs:
        s.bits(FAR)
        assert_keeps_only_short_folds(s)
        folded += s._bits is not None and sum(s._shape) <= FAR // 4
    assert folded >= len(exprs) // 3


def test_periods_past_any_bitmap_never_fold():
    # periods 2^100 and 2^71: the shape is marked as never folding, and the
    # node (and every set built on it) keeps nothing between scans
    sets = [rows(100), piece(rows(100), 3), piece(ap(1, 0), 70),
            union(piece(ap(1, 0), 70), ap(2, 0))]
    for s in sets:
        assert members_upto(s, 3000) == slow_members(s, 3000)
        assert s._shape is False and s._bits is None
        assert_keeps_only_short_folds(s)


def test_point_probe_builds_no_long_prefix():
    # P + T past the fold limit: a probe keeps nothing, and one under it
    # keeps the fold once a scan covers P + T
    s, short = ap(10 ** 8, 3), ap(1000, 3)
    assert member(s, 3) and not member(s, 5)
    assert member(short, 3) and not member(short, 5)
    assert s._bits is None and short._bits is None
    assert member(short, 1003)
    assert len(short._bits) == 1003 and s._bits is None


def test_scan_budget_refuses_before_it_allocates(monkeypatch):
    s = ap(2, 0)
    for i in range(300):
        s = union(s, ap(1024, i))
    # about 600 sets, none folded before a scan covers its P + T: n bytes each
    monkeypatch.setattr(lazyset, "_SCAN_BUDGET", 1 << 19)
    # a proof whose fold is over the budget proves nothing, and raises nothing
    assert not lazyset.infinite(s)
    with pytest.raises(ResourceLimitError, match="sets to 16384 exceeds the budget"):
        s.bits(1 << 14)
    assert member(s, 500) and not member(s, 501)
    assert_keeps_only_short_folds(s)


def test_first_n_raises_on_finite_set(monkeypatch):
    finite = diff(ap(1, 0), ap(1, 3))           # {0, 1, 2}
    assert members_upto(finite, 100) == [0, 1, 2]
    monkeypatch.setattr(lazyset, "_SCAN_CAP", 1 << 14)
    with pytest.raises(ResourceLimitError):
        finite.first_n(4)


def test_first_n_of_nothing():
    assert ap(3, 1).first_n(0) == []


def test_rows_rejects_a_negative_count():
    with pytest.raises(ValueError):
        rows(-1)


def test_shape_past_the_limit_is_scanned_unfolded(monkeypatch):
    far = ap(1, 2 ** 62)                        # P + T passes _SHAPE_LIMIT
    assert not far.bits(8).any()
    assert far._shape is False and far._bits is None
    monkeypatch.setattr(lazyset, "_SCAN_CAP", 1 << 12)
    with pytest.raises(ResourceLimitError):
        far.first_n(1)


def test_first_n_past_the_cap_on_folded_set():
    # ceil((2^27 - 1) / 3) members of ap(3,1) lie below the default cap; a
    # folded set counts them instead of listing a billion candidates
    with pytest.raises(ResourceLimitError,
                       match=r"found only 44739243 elements of ap\(3,1\) below 134217728"):
        ap(3, 1).first_n(10 ** 9)
    assert ap(3, 1).first_n(10 ** 6 + 1)[10 ** 6] == 3 * 10 ** 6 + 1


def test_scan_cap_enforced(monkeypatch):
    monkeypatch.setattr(lazyset, "_SCAN_CAP", 1 << 12)
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


def test_interning():
    assert ap(2, 0) is ap(2, 0)
    assert union(ap(2, 0), rows(1)) is union(ap(2, 0), rows(1))
    assert parse_set("union(ap(2,0),rows(1))") is union(ap(2, 0), rows(1))


def test_copies_and_pickles_are_the_interned_set():
    # a copy travels as the text, which is written and parsed without
    # recursion, so a 3,000-deep union copies like a leaf
    deep = rows(1)
    for _ in range(3000):
        deep = union(deep, rows(2))
    for s in [empty(), piece(diff(rows(2), ap(3, 1)), 2), deep]:
        assert copy.copy(s) is s
        assert copy.deepcopy(s) is s
        assert pickle.loads(pickle.dumps(s)) is s


# ---------------------------------------------------------------------------
# Structural proofs, fuzzed against the unfolded oracle.

PROOF_SPAN = 1 << 14


def proof_pool(rng, depth):
    """The nodes of a random expression, and of a split of two of them, or
    of two rows leaves up to rows(24), past the fold range: z_0 = x ∩ y and
    z_{k+1} = z_k ∪ piece k of y minus x, the shape every certificate's
    sets take."""
    nodes = post_order(random_expr(rng, depth))
    if rng.random() < 0.5:
        x, y = rows(rng.randint(1, 24)), rows(rng.randint(1, 24))
    else:
        x, y = rng.choice(nodes), rng.choice(nodes)
    z = inter(x, y)
    for k in range(3):
        z = union(z, piece(diff(y, x), k))
    return list({id(n): n for n in nodes + post_order(z)}.values())


@settings(derandomize=True, deadline=None, database=None, max_examples=120)
@given(st.integers(0, 1 << 32), st.integers(1, 5))
def test_proofs_hold_on_reference_bits(seed, depth):
    nodes = proof_pool(random.Random(seed), depth)
    ref = {id(n): reference_bits(n, PROOF_SPAN) for n in nodes}
    for a in nodes:
        for b in nodes:
            if lazyset.subset(a, b):
                assert not (ref[id(a)] & ~ref[id(b)]).any(), (a, b)
            if lazyset.disjoint(a, b):
                assert not (ref[id(a)] & ref[id(b)]).any(), (a, b)
        if lazyset.infinite(a):
            # a member in one period, where the shape is known and short
            a.bits(PROOF_SPAN)
            if a._shape and sum(a._shape) <= PROOF_SPAN:
                p, t = a._shape
                assert ref[id(a)][p:p + t].any(), a


def least_period(ref, p, t):
    """The least divisor d of t with ref[n] == ref[n + d] for p <= n < p + t
    (`ref` reaches p + 2t)."""
    return min(d for d in range(1, t + 1) if t % d == 0
               and (ref[p:p + t] == ref[p + d:p + t + d]).all())


@settings(derandomize=True, deadline=None, database=None, max_examples=60)
@given(st.integers(0, 1 << 32), st.integers(1, 5))
def test_shapes_come_from_the_expression(seed, depth):
    # every node, pieces included, has its shape when it is built, and a
    # scan leaves it as it is; where it is short, it is a period
    nodes = proof_pool(random.Random(seed), depth)
    shapes = [n._shape for n in nodes]
    assert all(shape is False or isinstance(shape, tuple) for shape in shapes)
    for node, shape in zip(nodes, shapes):
        node.bits(64)
        assert node._shape == shape, node
        if shape and sum(shape) <= PROOF_SPAN:
            p, t = shape
            ref = reference_bits(node, p + 2 * t)
            assert (ref[p:p + t] == ref[p + t:]).all(), node


def test_piece_of_an_odd_count_has_its_least_period():
    # one member of the parent per period, so the piece's period
    # T * 2^(i+1) is its least
    for parent in [rows(1), ap(3, 1), diff(rows(3), rows(2)),
                   piece(ap(3, 1), 0)]:
        for i in range(5):
            p, t = piece(parent, i)._shape
            assert t == parent._shape[1] << (i + 1)
            assert least_period(reference_bits(piece(parent, i), p + 2 * t), p, t) == t


def test_progressions_and_rows_are_infinite_by_definition():
    # too long to fold, so only the rule proves them
    for s in [ap(2 ** 40, 7), rows(100)]:
        assert lazyset.infinite(s)
        assert s._bits is None


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


def test_parse_set_any_whitespace_between_tokens():
    rng = random.Random(5)
    spaces = ["", "", " ", "  ", "\t", "\n", "\r\n ", "\u00a0", "\u2003"]

    def spread(text):
        toks = re.findall(r"\w+|\S", text)
        return "".join(rng.choice(spaces) + t for t in toks) + rng.choice(spaces)

    for seed in range(40):
        nodes = post_order(random_expr(random.Random(seed), 4))
        for node in nodes:
            assert parse_set(spread(node.expr)) is node
        # an interval and a certificate of the same nodes, read by the same
        # reader from their templates
        lower, upper = nodes[0], nodes[-1]
        got = parse_text(spread(f"{lower.expr},{upper.expr}"), (SET, ",", SET))
        assert got[0] is lower and got[1] is upper
        cert = parse_certificate(spread(default_certificate(lower, upper, seed).serialize()))
        assert (cert.bound, cert.lower, cert.upper) == (seed, lower, upper)


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
    "union(rows(1),rows(2)", "rows(-1)", "rows(ap(1,0))", "union(rows(1),2)",
    "piece(3,rows(1))", "piece(rows(1),ap(1,0))", "empty()", "ap(1,2,3)",
    "rows(1)}", "ROWS(1)", "rows(²)",
])
def test_parse_set_rejects(bad):
    with pytest.raises(SetParseError):
        parse_set(bad)
