"""Lazy, decidable-membership subsets of the naturals.

Sets are closed expression trees over a small constructor grammar:

    set := "empty" | "rows(" nat ")" | "ap(" nat "," nat ")"
         | "union(" set "," set ")" | "inter(" set "," set ")"
         | "diff(" set "," set ")" | "piece(" set "," nat ")"

One reader, `parse_text`, reads a text as a template of literal tokens and
SET and NAT slots, each constructor's being the tokens after its name, so a
certificate and an interval pair are read as a set is.  Any whitespace may
sit between tokens, and a parse error names the token where reading stopped.

`rows(k)` is the union of the first k rows of the pairing bijection
<i,j> = 2^i * (2j+1) - 1 on omega x omega.  `ap(a,b)` is the arithmetic
progression {a*n+b : n in N}, a >= 1.  `piece(p, i)` selects the elements
of p whose enumeration index lies in row i of the pairing; a piece of an
infinite set is therefore infinite by construction.

Nodes are interned on (constructor, naturals, interned children), so equal
expressions are the same object, share folds and proved facts, and compare
with `is`, at one table lookup per node.  The text `expr` is written only
when asked for.

Every set in the grammar is eventually periodic: from its preperiod P on,
n and n + T are members together, for its period T.  A node's shape (P, T)
is fixed when it is built, from its constructor and its children's shapes:
empty is (0, 1), rows(k) is (0, 2^k), ap(a,b) is (b, a); union, inter and
diff take the larger P and the lcm of the two T; piece(s,i) keeps the P of
s and has period T*2^(i+1), since 2^(i+1) periods of s add a multiple of
2^(i+1) to each rank.  A shape's T need not be the least period: if s has
c members in one period, piece(s,i) repeats every T*2^(i+1)/gcd(c, 2^(i+1))
as well, which is shorter when c is even.

Membership comes from a scan (`bits`, which `first_n` calls): one
post-order pass that computes each node's prefix from its children's.
The prefixes live in a memo of that scan alone, each computed up to P + T
and tiled past it.  A node keeps only a short fold, its members over
[0, P + T) once P + T is at most _FOLD_LIMIT, and answers every later
question from it.  A scan is charged n bytes for each node it computes
before it allocates any, and past _SCAN_BUDGET it raises
ResourceLimitError.  Folded or not, the observable behavior is identical.

Three facts are proved from the structure of the expressions, with no
scan: `subset(a, b)`, `disjoint(a, b)` and `infinite(s)`.  Each answers
True only with a proof by sound rules, such as piece(s,i) ⊆ s, distinct
pieces of one parent are disjoint, and x ⊆ union(x, y); piece-free nodes
with a short P + T are decided from their fold.  A union is read only as
its summands, the non-union nodes reached through union children, found
by one walk a question.  Whether a node is piece-free is fixed when it is
built, like its depth and shape.  An answer is kept on the node, so a
repeated question costs one lookup, and, like a shape, it is a fact about
the expression.
"""

from __future__ import annotations

import math
import re

import numpy as np


class SetParseError(ValueError):
    pass


class ResourceLimitError(RuntimeError):
    """An expression exceeded a configured depth or scan budget."""


class _ScanRefused(ResourceLimitError):
    """A scan would take more than _SCAN_BUDGET bytes."""


_DEPTH_CAP = DEFAULT_DEPTH_CAP = 10000
_SCAN_CAP = 1 << 27
# Bytes one scan may take: n for each node it computes.
_SCAN_BUDGET = 1 << 30
# A node keeps its fold only when P + T is at most this; piece-free nodes
# are decided from their fold by the proofs.
_FOLD_LIMIT = 1 << 20
# No bitmap is this long, so a node whose P + T passes it never folds; the
# bound also keeps shape arithmetic on small integers.
_SHAPE_BITS = 62
_SHAPE_LIMIT = 1 << _SHAPE_BITS


def set_depth_cap(cap: int) -> None:
    global _DEPTH_CAP
    if cap < 1:
        raise ValueError("depth cap must be positive")
    _DEPTH_CAP = cap


def pair(i: int, j: int) -> int:
    """The bijection omega x omega -> omega used throughout."""
    return (1 << i) * (2 * j + 1) - 1


def unpair(n: int) -> tuple:
    """Inverse of `pair`."""
    m = n + 1
    i = (m & -m).bit_length() - 1
    return i, ((m >> i) - 1) // 2


_INTERN = {}


class LazySet:
    """Interned expression node; construct via the module factories."""

    __slots__ = ("kind", "nats", "children", "depth", "_text", "_bits", "_shape",
                 "_piece_free", "_facts")

    def __init__(self, kind, nats, children, depth, shape):
        self.kind = kind
        self.nats = nats
        self.children = children
        self.depth = depth
        self._text = None
        # the fold, membership over [0, P + T), or None
        self._bits = None
        # (P, T), or False if P + T passes _SHAPE_LIMIT
        self._shape = shape
        self._piece_free = kind != "piece" and all(c._piece_free for c in children)
        # (rule name, other node or None) -> whether the rules prove it
        self._facts = {}

    def __repr__(self):
        return f"LazySet<{self.expr}>"

    def __reduce__(self):   # a copy or an unpickled set is the interned one
        return parse_set, (self.expr,)

    @property
    def expr(self) -> str:
        """The canonical text, written on first use from an explicit stack
        (no recursion) and kept; a child's kept text is copied whole."""
        if self._text is None:
            out, stack = [], [self]
            while stack:
                item = stack.pop()
                if isinstance(item, str):
                    out.append(item)
                elif item._text is not None or item.kind == "empty":
                    out.append(item._text or "empty")
                else:   # kind(children..., nats...), comma-separated
                    parts = (*item.children, *map(str, item.nats))
                    commas = [t for part in parts[1:] for t in (",", part)]
                    stack += reversed([item.kind + "(", parts[0], *commas, ")"])
            self._text = "".join(out)
        return self._text

    # -- membership -------------------------------------------------------

    def bits(self, n: int) -> np.ndarray:
        """Membership indicator over [0, n)."""
        if n > _SCAN_CAP:
            raise ResourceLimitError(f"scan bound {n} exceeds cap {_SCAN_CAP}")
        return _scan(self, n)

    def first_n(self, count: int):
        """The `count` smallest elements; ResourceLimitError if fewer lie
        below the scan cap (the set may be finite), or if a scan is over
        budget."""
        if count <= 0:
            return []
        n = 1024
        while True:
            bits = self.bits(n)
            if self._shape and sum(self._shape) <= n:
                break
            idx = np.flatnonzero(bits)
            if len(idx) >= count:
                return idx[:count].tolist()
            if n >= _SCAN_CAP:
                raise ResourceLimitError(
                    f"found only {len(idx)} elements of {self.expr} below {n}")
            n = min(2 * n, _SCAN_CAP)
        # The scan covers P + T: the members below P, then one period's
        # members a whole number of periods on.  Count those below the cap
        # before listing any, so a large count costs no more than the answer.
        p, t = self._shape
        pre = np.flatnonzero(bits[:p])
        period = p + np.flatnonzero(bits[p:p + t])
        q, r = divmod(max(_SCAN_CAP - p, 0), t)
        below = (np.count_nonzero(pre < _SCAN_CAP) + q * len(period)
                 + np.count_nonzero(period < p + r))
        if below < count:
            raise ResourceLimitError(
                f"found only {below} elements of {self.expr} below {_SCAN_CAP}")
        if count <= len(pre):
            return pre[:count].tolist()
        k = np.arange(count - len(pre))
        return pre.tolist() + (period[k % len(period)] + k // len(period) * t).tolist()


def _make(kind, nats, children):
    # children are interned, so they hash and compare by identity
    key = (kind, nats, children)
    node = _INTERN.get(key)
    if node is None:
        depth = 1 + max((c.depth for c in children), default=0)
        node = _INTERN[key] = LazySet(kind, nats, children, depth,
                                      _shape_of(kind, nats, children))
    # checked on every lookup, not at insertion: the cap may change later
    if node.depth > _DEPTH_CAP:
        raise ResourceLimitError(f"expression depth {node.depth} exceeds cap {_DEPTH_CAP}")
    return node


def _shape_of(kind, nats, children):
    """(P, T) of a node from its constructor and its children's shapes, or
    False if P + T passes _SHAPE_LIMIT; a long shift is refused before it
    builds a huge integer."""
    if kind == "empty":
        shape = (0, 1)
    elif kind == "rows":
        (k,) = nats
        shape = k <= _SHAPE_BITS and (0, 1 << k)
    elif kind == "ap":
        a, b = nats
        shape = (b, a)
    elif kind == "piece":
        s, (i,) = children[0]._shape, nats
        shape = s and i < _SHAPE_BITS and (s[0], s[1] << (i + 1))
    else:
        x, y = (c._shape for c in children)
        shape = x and y and (max(x[0], y[0]), math.lcm(x[1], y[1]))
    return shape if shape and sum(shape) <= _SHAPE_LIMIT else False


def empty() -> LazySet:
    return _make("empty", (), ())


def rows(k: int) -> LazySet:
    if k < 0:
        raise ValueError("rows(k) needs k >= 0")
    if k == 0:
        return empty()
    return _make("rows", (k,), ())


def ap(a: int, b: int) -> LazySet:
    if a < 1 or b < 0:
        raise ValueError("ap(a,b) needs a >= 1, b >= 0")
    return _make("ap", (a, b), ())


def union(x: LazySet, y: LazySet) -> LazySet:
    return _make("union", (), (x, y))


def inter(x: LazySet, y: LazySet) -> LazySet:
    return _make("inter", (), (x, y))


def diff(x: LazySet, y: LazySet) -> LazySet:
    return _make("diff", (), (x, y))


def piece(parent: LazySet, i: int) -> LazySet:
    if i < 0:
        raise ValueError("piece index must be a natural")
    return _make("piece", (i,), (parent,))


def escapes(x: LazySet, y: LazySet, lo: int, hi: int) -> np.ndarray:
    """The elements of x outside y in [lo, hi), ascending: one bitmap
    comparison, x & ~y."""
    if lo < 0:
        raise ValueError("escapes needs lo >= 0")
    if hi <= lo:
        return np.zeros(0, dtype=np.int64)
    return lo + np.flatnonzero(x.bits(hi)[lo:] & ~y.bits(hi)[lo:])


# ---------------------------------------------------------------------------
# Vectorized evaluation.  Iterative post-order walk, so deep expressions do
# not hit the interpreter recursion limit.

def _scan(root: LazySet, n: int) -> np.ndarray:
    """Membership of root over [0, n): one post-order pass over the nodes
    under root that keep no fold, each computed to min(n, P + T) in a memo
    of this scan alone.  A node keeps its prefix only as a fold."""
    order, seen, stack = [], set(), [(root, False)]
    while stack:
        node, done = stack.pop()
        if done:
            order.append(node)
        elif node not in seen and node._bits is None:
            seen.add(node)
            stack.append((node, True))
            stack += ((c, False) for c in node.children)
    if len(order) * n > _SCAN_BUDGET:
        raise _ScanRefused(f"a scan of {len(order)} sets to {n} exceeds "
                           f"the budget of {_SCAN_BUDGET} bytes")
    memo = {}
    for node in order:
        shape = node._shape
        m = min(n, sum(shape)) if shape else n
        bits = memo[node] = _compute_bits(node, m, memo)
        if shape and m == sum(shape) <= _FOLD_LIMIT:
            node._bits = bits
    return _prefix(root, n, memo)


def _prefix(node: LazySet, n: int, memo: dict) -> np.ndarray:
    """Membership over [0, n) of a node folded or computed in this scan:
    past its prefix, the period is tiled."""
    bits = memo[node] if node._bits is None else node._bits
    if n <= len(bits):
        return bits[:n]
    p, t = node._shape
    out = np.empty(n, dtype=bool)
    out[:p + t] = bits[:p + t]
    done = p + t
    while done < n:
        # out[p:done] is a whole number of periods: copy it on, doubling
        step = min(done - p, n - done)
        out[done:done + step] = out[p:p + step]
        done += step
    return out


def _compute_bits(node: LazySet, n: int, memo: dict) -> np.ndarray:
    kind = node.kind
    if kind == "empty":
        return np.zeros(n, dtype=bool)
    if kind == "rows":
        k = min(node.nats[0], n.bit_length())   # a larger k spares every m < n too
        out = np.ones(n, dtype=bool)
        out[(1 << k) - 1::1 << k] = False       # m is in row v2(m + 1)
        return out
    if kind == "ap":
        a, b = node.nats
        out = np.zeros(n, dtype=bool)
        if b < n:
            out[b::a] = True
        return out
    x = _prefix(node.children[0], n, memo)
    if kind == "union":
        return x | _prefix(node.children[1], n, memo)
    if kind == "inter":
        return x & _prefix(node.children[1], n, memo)
    if kind == "diff":
        return x & ~_prefix(node.children[1], n, memo)
    if kind == "piece":
        i = min(node.nats[0], n.bit_length())   # a larger i picks no rank <= n either
        out = np.zeros(n, dtype=bool)
        out[np.flatnonzero(x)[(1 << i) - 1::1 << (i + 1)]] = True   # ranks r with v2(r) = i
        return out
    raise AssertionError(kind)


# ---------------------------------------------------------------------------
# Structural proofs.  `subset`, `disjoint` and `infinite` answer True only
# with a proof by the rules below, and False when no rule proves the claim,
# which may still hold.  A subset or disjointness question asks only about
# pairs of smaller total depth, never whether a set is infinite, and an
# `infinite` question asks that only of shallower nodes, so the search
# ends.  It runs on an explicit stack of rule generators, each yielding the
# questions it needs answered, so deep expressions do not recurse.

def subset(a: LazySet, b: LazySet) -> bool:
    """Whether the rules prove every member of a a member of b."""
    return _prove("subset", a, b)


def disjoint(a: LazySet, b: LazySet) -> bool:
    """Whether the rules prove that a and b share no member."""
    return _prove("disjoint", a, b)


def infinite(s: LazySet) -> bool:
    """Whether the rules prove s infinite."""
    return _prove("infinite", s, None)


def _prove(rule, a, b):
    facts, key = _slot(rule, a, b)
    answer = facts.get(key)
    stack = [] if answer is not None else [(facts, key, _RULES[rule](a, b))]
    while stack:
        facts, key, steps = stack[-1]
        try:
            ask = steps.send(answer)
        except StopIteration as stop:
            stack.pop()
            answer = facts[key] = bool(stop.value)
            continue
        facts, key = _slot(*ask)
        answer = facts.get(key)
        if answer is None:
            stack.append((facts, key, _RULES[ask[0]](*ask[1:])))
    return answer


def _slot(rule, a, b):
    """Where the answer is kept: a node's facts, and the key there."""
    if rule == "disjoint" and id(b) < id(a):    # one entry for both orders
        a, b = b, a
    return a._facts, (rule, b)


def _subset_rules(a, b):
    if a is b or a.kind == "empty":
        return True
    if a.kind == b.kind == "rows" and a.nats <= b.nats:
        return True                         # rows(m) ⊆ rows(n) for m ≤ n
    if b.kind == "union" and a in b.children:
        return True                         # x ⊆ union(x, y)
    within = _summands(b)                   # b is their union
    if a.kind == "union":                   # each summand, exactly
        for c in _summands(a):
            if c not in within and not (yield "subset", c, b):
                return False
        return True
    if a in within:
        return True
    for c in within:                        # x ⊆ inter(y, z) if x ⊆ y and x ⊆ z
        if c.kind == "inter" and (yield "subset", a, c.children[0]) \
                and (yield "subset", a, c.children[1]):
            return True
    for c in _containers(a):                # x ⊆ c ⊆ b
        if (yield "subset", c, b):
            return True
    fold = _fold(a, b)
    return fold is not None and not (fold[1] & ~fold[2]).any()


def _disjoint_rules(a, b):
    if a.kind == "empty" or b.kind == "empty":
        return True
    if a.kind == "union" or b.kind == "union":  # each pair of summands, exactly
        ys = _summands(b)
        for x in _summands(a):
            for y in ys:
                if not _distinct_pieces(x, y) \
                        and not (yield "disjoint", x, y):
                    return False
        return True
    if _distinct_pieces(a, b):
        return True
    # the deeper operand's climb first: a failed climb of the shallower one
    # asks about every pair of containers of the two, quadratic in depth
    for x, y in ((a, b), (b, a)) if a.depth >= b.depth else ((b, a), (a, b)):
        # diff(s, t) misses every subset of t
        if x.kind == "diff" and (yield "subset", y, x.children[1]):
            return True
        for c in _containers(x):            # x ⊆ c, and c misses y
            if (yield "disjoint", c, y):
                return True
    fold = _fold(a, b)
    return fold is not None and not (fold[1] & fold[2]).any()


def _infinite_rules(s, _):
    if s.kind in ("ap", "rows"):            # by definition: a >= 1, k >= 1
        return True
    if s.kind == "piece":                   # by the grammar's definition
        return (yield "infinite", s.children[0], None)
    if s.kind == "inter" and s.children[1].kind == "ap" \
            and s.children[1].nats[0] == 1:  # drops finitely many members
        return (yield "infinite", s.children[0], None)
    if s.kind == "diff":
        # diff(a, b) holds an infinite w ⊆ a disjoint from b: a union
        # summand of a, or for a parent p of pieces in b's union, the first
        # piece of p past them
        a, b = s.children
        if a.kind == b.kind == "rows" and a.nats > b.nats:
            return True     # diff(rows(n), rows(m)) holds pair(m, j) for every j
        last = {}
        for n in _summands(b):
            if n.kind == "piece":
                p = n.children[0]
                last[p] = max(last.get(p, -1), n.nats[0])
        for w in [*_summands(a), *(piece(p, i + 1) for p, i in last.items())]:
            if (yield "infinite", w, None) and (yield "subset", w, a) \
                    and (yield "disjoint", w, b):
                return True
    fold = _fold(s)
    return fold is not None and fold[1][fold[0]:].any()


_RULES = {"subset": _subset_rules, "disjoint": _disjoint_rules,
          "infinite": _infinite_rules}


def _containers(x: LazySet) -> tuple:
    """Operands that hold all of x: piece(s,i) ⊆ s, diff(s, t) ⊆ s, and
    inter(s, t) ⊆ s and ⊆ t."""
    if x.kind == "inter":
        return x.children
    return x.children[:1] if x.kind in ("piece", "diff") else ()


def _summands(s: LazySet) -> set:
    """The nodes reached from s through union children alone that are not
    unions: s is their union."""
    out, seen, stack = set(), set(), [s]
    while stack:
        node = stack.pop()
        if node.kind != "union":
            out.add(node)
        elif node not in seen:
            seen.add(node)
            stack += node.children
    return out


def _distinct_pieces(x: LazySet, y: LazySet) -> bool:
    """Distinct pieces of one parent, so disjoint: their ranks lie in
    distinct rows."""
    return x.kind == y.kind == "piece" and x.children[0] is y.children[0] \
        and x.nats != y.nats


def _fold(*nodes):
    """(P, then each node's membership over [0, P + T)) for a preperiod P
    and a period T common to `nodes`, or None unless every node is
    piece-free, a fact fixed when it was built, and P + T is at most
    _FOLD_LIMIT.  Pieces are refused for cost: a piece's fold needs its
    parent scanned to the piece's P + T, a period 2^(i+1) times its
    parent's, and the proofs fall back on a fold at every rule that fails."""
    if not all(node._piece_free and node._shape for node in nodes):
        return None
    shapes = [node._shape for node in nodes]
    p = max(shape[0] for shape in shapes)
    n = p + math.lcm(*(shape[1] for shape in shapes))
    if n > _FOLD_LIMIT:
        return None
    try:
        return (p, *(_scan(node, n) for node in nodes))
    except ResourceLimitError:              # too many sets to scan at once
        return None


# ---------------------------------------------------------------------------
# Grammar.

# A numeral, a word, or any other single character: a stray character is a
# token that no template accepts.
_SET_TOKEN = re.compile(r"\d+|[a-z]+|\S")

# The slots of a template: a set expression, or a natural number.
SET, NAT = object(), object()

# constructor -> (template of the tokens after its name, factory); the
# factory takes the slots' values in order, as `LazySet.expr` writes them
_SETS = ("(", SET, ",", SET, ")")
_GRAMMAR = {"empty": ((), empty), "rows": (("(", NAT, ")"), rows),
            "ap": (("(", NAT, ",", NAT, ")"), ap), "union": (_SETS, union),
            "inter": (_SETS, inter), "diff": (_SETS, diff),
            "piece": (("(", SET, ",", NAT, ")"), piece)}


def parse_set(text: str) -> LazySet:
    """Parse the grammar above."""
    return parse_text(text, (SET,))[0]


def parse_text(text: str, template: tuple) -> list:
    """Read all of `text` as `template`, a tuple of literal tokens, each to
    appear as written, and SET and NAT slots; return the slots' values.
    Templates still being read wait on an explicit stack, so nesting is
    bounded by the depth cap and not by the interpreter's recursion limit."""
    toks = _SET_TOKEN.findall(text)
    toks.append("")                 # the end of input, which no template accepts
    # the template being read, its factory and its slot values, over the
    # same three for each constructor around it
    items, make, values = iter(template), None, []
    stack, i = [], 0
    while True:
        item = next(items, None)
        if item is None:            # the template is read: build its node
            if not stack:
                break
            try:
                node = make(*values)
            except ValueError as exc:   # ap(0, b)
                raise SetParseError(str(exc)) from None
            items, make, values = stack.pop()
            values.append(node)
            continue
        tok = toks[i]
        i += 1
        if item is SET:
            entry = _GRAMMAR.get(tok)
            if entry is None:
                raise SetParseError(f"expected a set, got {tok or 'end of input'!r}")
            stack.append((items, make, values))
            items, make, values = iter(entry[0]), entry[1], []
        elif item is NAT:
            if not tok.isdecimal():
                raise SetParseError(
                    f"expected a natural number, got {tok or 'end of input'!r}")
            try:
                values.append(int(tok))
            except ValueError as exc:   # past Python's int-conversion digit limit
                raise SetParseError(str(exc)) from None
        elif tok != item:
            raise SetParseError(f"expected {item!r}, got {tok or 'end of input'!r}")
    if toks[i]:
        raise SetParseError(f"trailing input at {toks[i]!r}")
    return values
