"""Lazy, decidable-membership subsets of the naturals.

Sets are closed expression trees over a small constructor grammar:

    set := "empty" | "rows(" nat ")" | "ap(" nat "," nat ")"
         | "union(" set "," set ")" | "inter(" set "," set ")"
         | "diff(" set "," set ")" | "piece(" set "," nat ")"

`rows(k)` is the union of the first k rows of the pairing bijection
<i,j> = 2^i * (2j+1) - 1 on omega x omega.  `ap(a,b)` is the arithmetic
progression {a*n+b : n in N}, a >= 1.  `piece(p, i)` selects the elements
of p whose enumeration index lies in row i of the pairing; a piece of an
infinite set is therefore infinite by construction.

Nodes are interned by their canonical serialization, so structurally equal
expressions are the same object and share membership caches.  Membership
caches are append-only; with or without them the observable behavior is
identical.
"""

from __future__ import annotations

import re

import numpy as np


class SetParseError(ValueError):
    pass


class ResourceLimitError(RuntimeError):
    """An expression exceeded a configured depth or scan budget."""


_DEPTH_CAP = 10000
_SCAN_CAP = 1 << 27
_CACHE_BUDGET = 1 << 30
_cached_bytes = 0


def set_depth_cap(cap: int) -> None:
    global _DEPTH_CAP
    if cap < 1:
        raise ValueError("depth cap must be positive")
    _DEPTH_CAP = cap


def depth_cap() -> int:
    return _DEPTH_CAP


def set_scan_cap(cap: int) -> None:
    global _SCAN_CAP
    if cap < 1024:
        raise ValueError("scan cap too small")
    _SCAN_CAP = cap


def purge_caches() -> None:
    """Drop every membership cache; semantics are unaffected."""
    global _cached_bytes
    for node in _INTERN.values():
        node._bits = np.zeros(0, dtype=bool)
    _cached_bytes = 0


def pair(i: int, j: int) -> int:
    """The bijection omega x omega -> omega used throughout."""
    return (1 << i) * (2 * j + 1) - 1


def unpair(n: int) -> tuple:
    """Inverse of `pair`."""
    m = n + 1
    i = (m & -m).bit_length() - 1
    return i, ((m >> i) - 1) // 2


def _trailing_zeros_vec(x: np.ndarray) -> np.ndarray:
    low = (x & -x).astype(np.float64)
    return np.round(np.log2(low)).astype(np.int64)


_INTERN = {}


class LazySet:
    """Interned expression node; construct via the module factories."""

    __slots__ = ("kind", "nats", "children", "expr", "depth", "_bits")

    def __init__(self, kind, nats, children, expr, depth):
        self.kind = kind
        self.nats = nats
        self.children = children
        self.expr = expr
        self.depth = depth
        self._bits = np.zeros(0, dtype=bool)

    def __repr__(self):
        return f"LazySet<{self.expr}>"

    # -- membership -------------------------------------------------------

    def bits(self, n: int) -> np.ndarray:
        """Membership indicator over [0, n)."""
        if n > _SCAN_CAP:
            raise ResourceLimitError(f"scan bound {n} exceeds cap {_SCAN_CAP}")
        if len(self._bits) < n:
            if _cached_bytes > _CACHE_BUDGET:
                purge_caches()
            _extend_bits(self, n)
        return self._bits[:n]

    def member(self, n: int) -> bool:
        if n < 0:
            return False
        if len(self._bits) <= n:
            # grow geometrically so point probes stay amortized-linear
            target = max(n + 1, 2 * len(self._bits), 1024)
            self.bits(max(n + 1, min(target, _SCAN_CAP)))
        return bool(self._bits[n])

    def members_upto(self, n: int):
        """Sorted members < n."""
        return [int(v) for v in np.flatnonzero(self.bits(n))]

    def enumerate(self, k: int) -> int:
        """The k-th smallest element (0-based)."""
        return self.first_n(k + 1)[k]

    def first_n(self, count: int):
        """The `count` smallest elements; ResourceLimitError if the scan
        budget is exhausted first (the set may be finite)."""
        if count <= 0:
            return []
        n = max(1024, len(self._bits))
        while True:
            idx = np.flatnonzero(self.bits(n))
            if len(idx) >= count:
                return [int(v) for v in idx[:count]]
            if n >= _SCAN_CAP:
                raise ResourceLimitError(
                    f"found only {len(idx)} elements of {self.expr} below {n}")
            n = min(2 * n, _SCAN_CAP)

    # -- slow path: independent per-element evaluation --------------------

    def members_upto_slow(self, n: int):
        """Sorted members < n via pure-Python evaluation (no numpy caches)."""
        return _slow_members(self, n)


def _make(kind, nats, children, expr):
    node = _INTERN.get(expr)
    if node is None:
        depth = 1 + max((c.depth for c in children), default=0)
        node = LazySet(kind, nats, children, expr, depth)
    # checked on a hit too: the cap may have been lowered since
    if node.depth > _DEPTH_CAP:
        raise ResourceLimitError(f"expression depth {node.depth} exceeds cap {_DEPTH_CAP}")
    return _INTERN.setdefault(expr, node)


def empty() -> LazySet:
    return _make("empty", (), (), "empty")


def rows(k: int) -> LazySet:
    if k < 0:
        raise ValueError("rows(k) needs k >= 0")
    if k == 0:
        return empty()
    return _make("rows", (k,), (), f"rows({k})")


def ap(a: int, b: int) -> LazySet:
    if a < 1 or b < 0:
        raise ValueError("ap(a,b) needs a >= 1, b >= 0")
    return _make("ap", (a, b), (), f"ap({a},{b})")


def union(x: LazySet, y: LazySet) -> LazySet:
    return _make("union", (), (x, y), f"union({x.expr},{y.expr})")


def inter(x: LazySet, y: LazySet) -> LazySet:
    return _make("inter", (), (x, y), f"inter({x.expr},{y.expr})")


def diff(x: LazySet, y: LazySet) -> LazySet:
    return _make("diff", (), (x, y), f"diff({x.expr},{y.expr})")


def piece(parent: LazySet, i: int) -> LazySet:
    if i < 0:
        raise ValueError("piece index must be a natural")
    return _make("piece", (i,), (parent,), f"piece({parent.expr},{i})")


def escapes(x: LazySet, y: LazySet, lo: int, hi: int) -> np.ndarray:
    """The elements of x outside y in [lo, hi), ascending: one bitmap
    comparison, x & ~y."""
    if hi <= lo:
        return np.zeros(0, dtype=np.int64)
    return lo + np.flatnonzero(x.bits(hi)[lo:] & ~y.bits(hi)[lo:])


# ---------------------------------------------------------------------------
# Vectorized evaluation.  Iterative post-order walk, so deep expressions do
# not hit the interpreter recursion limit.

def _extend_bits(root: LazySet, n: int) -> None:
    order = []
    seen = set()
    stack = [(root, False)]
    while stack:
        node, done = stack.pop()
        if done:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for c in node.children:
            if len(c._bits) < n:
                stack.append((c, False))
    global _cached_bytes
    for node in order:
        if len(node._bits) >= n:
            continue
        _cached_bytes -= node._bits.nbytes
        node._bits = _compute_bits(node, n)
        _cached_bytes += node._bits.nbytes


def _compute_bits(node: LazySet, n: int) -> np.ndarray:
    kind = node.kind
    if kind == "empty":
        return np.zeros(n, dtype=bool)
    if kind == "rows":
        (k,) = node.nats
        x = np.arange(1, n + 1, dtype=np.int64)
        return _trailing_zeros_vec(x) < k
    if kind == "ap":
        a, b = node.nats
        out = np.zeros(n, dtype=bool)
        if b < n:
            out[b::a] = True
        return out
    if kind == "union":
        return node.children[0]._bits[:n] | node.children[1]._bits[:n]
    if kind == "inter":
        return node.children[0]._bits[:n] & node.children[1]._bits[:n]
    if kind == "diff":
        return node.children[0]._bits[:n] & ~node.children[1]._bits[:n]
    if kind == "piece":
        (i,) = node.nats
        idx = np.flatnonzero(node.children[0]._bits[:n])
        out = np.zeros(n, dtype=bool)
        if len(idx):
            ranks = np.arange(1, len(idx) + 1, dtype=np.int64)
            out[idx[_trailing_zeros_vec(ranks) == i]] = True
        return out
    raise AssertionError(kind)


# ---------------------------------------------------------------------------
# Slow path used as an independent oracle in tests: per-node sorted lists,
# plain Python integers, no shared caches.

def _slow_members(root: LazySet, n: int):
    order = []
    seen = set()
    stack = [(root, False)]
    while stack:
        node, done = stack.pop()
        if done:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        stack.extend((c, False) for c in node.children)
    values = {}
    for node in order:
        kind = node.kind
        if kind == "empty":
            out = []
        elif kind == "rows":
            (k,) = node.nats
            out = [m for m in range(n) if unpair(m)[0] < k]
        elif kind == "ap":
            a, b = node.nats
            out = list(range(b, n, a))
        elif kind in ("union", "inter", "diff"):
            left = set(values[id(node.children[0])])
            right = set(values[id(node.children[1])])
            if kind == "union":
                out = sorted(left | right)
            elif kind == "inter":
                out = sorted(left & right)
            else:
                out = sorted(left - right)
        elif kind == "piece":
            (i,) = node.nats
            parent = values[id(node.children[0])]
            out = [v for rank, v in enumerate(parent) if unpair(rank)[0] == i]
        else:
            raise AssertionError(kind)
        values[id(node)] = out
    return values[id(root)]


# ---------------------------------------------------------------------------
# Grammar.

_SET_TOKEN = re.compile(r"\s*(\d+|[a-z]+|\(|\)|,)")


def parse_set(text: str) -> LazySet:
    """Parse the grammar above.  Constructors still awaiting operands wait
    on an explicit stack, so nesting is bounded by the depth cap and not by
    the interpreter's recursion limit."""
    toks, pos = [], 0
    while pos < len(text):
        m = _SET_TOKEN.match(text, pos)
        if not m:
            if text[pos:].strip():
                raise SetParseError(f"bad character in set expression: {text[pos:]!r}")
            break
        toks.append(m.group(1))
        pos = m.end()
    # [constructor, left operand or None] per open compound expression
    stack, i = [], 0
    while True:
        if i >= len(toks):
            raise SetParseError("unexpected end of input")
        head = toks[i]
        if head in _COMPOUND:
            i = _expect(toks, i + 1, "(")
            stack.append([head, None])
            continue
        node, i = _parse_leaf(toks, i)
        # close every compound whose last set operand is now complete
        while stack and (stack[-1][0] == "piece" or stack[-1][1] is not None):
            head, left = stack.pop()
            if head == "piece":
                i = _expect(toks, i, ",")
                k, i = _nat(toks, i)
                node = piece(node, k)
            else:
                node = _COMPOUND[head](left, node)
            i = _expect(toks, i, ")")
        if not stack:
            break
        stack[-1][1] = node
        i = _expect(toks, i, ",")
    if i != len(toks):
        raise SetParseError(f"trailing input: {toks[i:]}")
    return node


_COMPOUND = {"union": union, "inter": inter, "diff": diff, "piece": piece}


def _expect(toks, i, tok):
    if i >= len(toks) or toks[i] != tok:
        got = toks[i] if i < len(toks) else "end of input"
        raise SetParseError(f"expected {tok!r}, got {got!r}")
    return i + 1


def _nat(toks, i):
    if i >= len(toks) or not toks[i].isdigit():
        raise SetParseError("expected a natural number")
    return int(toks[i]), i + 1


def _parse_leaf(toks, i):
    """An expression with no set operand: empty, rows(k) or ap(a,b)."""
    head = toks[i]
    i += 1
    if head == "empty":
        return empty(), i
    if head == "rows":
        i = _expect(toks, i, "(")
        k, i = _nat(toks, i)
        i = _expect(toks, i, ")")
        return rows(k), i
    if head == "ap":
        i = _expect(toks, i, "(")
        a, i = _nat(toks, i)
        i = _expect(toks, i, ",")
        b, i = _nat(toks, i)
        i = _expect(toks, i, ")")
        try:
            return ap(a, b), i
        except ValueError as exc:
            raise SetParseError(str(exc)) from exc
    raise SetParseError(f"unknown constructor {head!r}")
