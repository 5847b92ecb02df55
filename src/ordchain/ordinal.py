"""Ordinal notations in Cantor normal form below epsilon_0.

An ordinal is a finite sum  w^e1*c1 + ... + w^ek*ck  with strictly
decreasing exponents (themselves ordinals) and positive integer
coefficients.  The empty sum is 0.  Values are immutable and hashable.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Callable, Iterator, Tuple

LT, EQ, GT = -1, 0, 1


class OrdinalParseError(ValueError):
    pass


class Ordinal:
    """Cantor-normal-form notation.  Do not mutate `terms`."""

    __slots__ = ("terms", "_hash")

    def __init__(self, terms=()):
        terms = tuple(terms)
        for e, c in terms:
            if not isinstance(e, Ordinal):
                raise TypeError("exponent must be an Ordinal")
            if not isinstance(c, int) or c < 1:
                raise ValueError("coefficient must be a positive integer")
        for (e1, _), (e2, _) in zip(terms, terms[1:]):
            if compare(e1, e2) != GT:
                raise ValueError("exponents must be strictly decreasing")
        self.terms = terms
        self._hash = None

    @staticmethod
    def from_int(n: int) -> "Ordinal":
        if n < 0:
            raise ValueError("no negative ordinals")
        if n == 0:
            return ZERO
        return Ordinal(((ZERO, n),))

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        if not isinstance(other, Ordinal):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(self.terms)
        return self._hash

    def __lt__(self, other):
        return compare(self, other) == LT

    def __le__(self, other):
        return compare(self, other) != GT

    def __gt__(self, other):
        return compare(self, other) == GT

    def __ge__(self, other):
        return compare(self, other) != LT

    def __add__(self, other):
        return add(self, other)

    def __repr__(self):
        return f"Ordinal<{format_ordinal(self)}>"

    def __str__(self):
        return format_ordinal(self)


ZERO = Ordinal()
ONE = Ordinal.from_int(1)
OMEGA = Ordinal(((ONE, 1),))


def compare(a: Ordinal, b: Ordinal) -> int:
    """Strict total order; returns LT, EQ or GT."""
    for (ea, ca), (eb, cb) in zip(a.terms, b.terms):
        c = compare(ea, eb)
        if c != EQ:
            return c
        if ca != cb:
            return LT if ca < cb else GT
    if len(a.terms) == len(b.terms):
        return EQ
    return LT if len(a.terms) < len(b.terms) else GT


def add(a: Ordinal, b: Ordinal) -> Ordinal:
    """Ordinal sum; terms of `a` below the leading exponent of `b` are absorbed."""
    if b.is_zero():
        return a
    if a.is_zero():
        return b
    eb, cb = b.terms[0]
    kept = [t for t in a.terms if compare(t[0], eb) == GT]
    last_kept = len(kept)
    if last_kept < len(a.terms) and compare(a.terms[last_kept][0], eb) == EQ:
        merged = (eb, a.terms[last_kept][1] + cb)
        return Ordinal(tuple(kept) + (merged,) + b.terms[1:])
    return Ordinal(tuple(kept) + b.terms)


def left_subtract(a: Ordinal, b: Ordinal) -> Ordinal:
    """The unique d with a + d == b; requires a <= b."""
    i = 0
    while i < len(a.terms) and i < len(b.terms) and a.terms[i] == b.terms[i]:
        i += 1
    if i == len(a.terms):
        return Ordinal(b.terms[i:])
    if i == len(b.terms):
        raise ValueError("left_subtract: a > b")
    (ea, ca), (eb, cb) = a.terms[i], b.terms[i]
    c = compare(ea, eb)
    if c == LT:
        return Ordinal(b.terms[i:])
    if c == EQ and ca < cb:
        return Ordinal(((eb, cb - ca),) + b.terms[i + 1:])
    raise ValueError("left_subtract: a > b")


ZERO_KIND, SUCCESSOR_KIND, LIMIT_KIND = "zero", "successor", "limit"


def classify(a: Ordinal):
    """Returns (ZERO_KIND, None), (SUCCESSOR_KIND, predecessor) or (LIMIT_KIND, None)."""
    if a.is_zero():
        return ZERO_KIND, None
    e, c = a.terms[-1]
    if not e.is_zero():
        return LIMIT_KIND, None
    if c == 1:
        pred = Ordinal(a.terms[:-1])
    else:
        pred = Ordinal(a.terms[:-1] + ((ZERO, c - 1),))
    return SUCCESSOR_KIND, pred


@dataclass(frozen=True)
class FundamentalSequence:
    """Strictly increasing omega-sequence converging to a limit notation."""

    source: Ordinal
    generator: Callable[[int], Ordinal]

    def __call__(self, k: int) -> Ordinal:
        if k < 0:
            raise ValueError("index must be a natural")
        return self.generator(k)


def fundamental_sequence(a: Ordinal) -> FundamentalSequence:
    """Wainer-style assignment.

    For g + w^(e+1) the k-th element is g + w^e*(k+1); for g + w^l with l a
    limit it is g + w^(l[k]); a trailing coefficient > 1 peels one copy.
    """
    kind, _ = classify(a)
    if kind != LIMIT_KIND:
        raise ValueError("fundamental sequence requires a limit notation")
    e, c = a.terms[-1]
    prefix = a.terms[:-1] if c == 1 else a.terms[:-1] + ((e, c - 1),)
    ekind, epred = classify(e)
    if ekind == SUCCESSOR_KIND:
        def gen(k: int, prefix=prefix, epred=epred) -> Ordinal:
            return Ordinal(prefix + ((epred, k + 1),))
    else:
        efs = fundamental_sequence(e)

        def gen(k: int, prefix=prefix, efs=efs) -> Ordinal:
            return Ordinal(prefix + ((efs(k), 1),))

    return FundamentalSequence(a, gen)


def fundamental_index(a: Ordinal, b: Ordinal) -> int:
    """The least k with b < a[k], for b < a a limit: the inverse of
    `fundamental_sequence`, read off the terms of b.  Recurses once per
    nesting level of a's last exponent."""
    if classify(a)[0] != LIMIT_KIND or compare(b, a) != LT:
        raise ValueError("fundamental index requires b < a, a limit")
    e, c = a.terms[-1]
    prefix = a.terms[:-1] if c == 1 else a.terms[:-1] + ((e, c - 1),)
    n = len(prefix)
    if b.terms[:n] != prefix or len(b.terms) == n:
        return 0                    # b is at most the prefix, below a[0]
    eb, cb = b.terms[n]
    ekind, epred = classify(e)
    if ekind == SUCCESSOR_KIND:
        return cb if eb == epred else 0
    return fundamental_index(e, eb)


# ---------------------------------------------------------------------------
# Textual grammar:
#   ord  := "0" | term ("+" term)*
#   term := nat | "w" ("*" nat)? | "w^(" ord ")" ("*" nat)?
# Whitespace-insensitive; non-canonical input is rejected.

_TOKEN = re.compile(r"\s*(\d+|w|\^|\(|\)|\*|\+)")

# Deepest "w^(" nesting that parses.  Comparing, hashing and stepping the
# fundamental sequence recurse 3-4 frames per level: called from 120 frames
# deep under Python's default recursion limit they first fail past 200
# levels, twice this cap.
MAX_NESTING = 100


def _tokenize(text: str):
    out, pos = [], 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            if text[pos:].strip():
                raise OrdinalParseError(f"bad character at {pos!r}: {text[pos:]!r}")
            break
        out.append(m.group(1))
        pos = m.end()
    return out


class _Parser:
    def __init__(self, tokens):
        self.toks = tokens
        self.i = 0
        self.nesting = 0

    def peek(self):
        return self.toks[self.i] if self.i < len(self.toks) else None

    def take(self, expected=None):
        t = self.peek()
        if t is None or (expected is not None and t != expected):
            raise OrdinalParseError(f"expected {expected or 'token'}, got {t!r}")
        self.i += 1
        return t

    def ordinal(self) -> Ordinal:
        if self.peek() == "0" and self.toks[self.i + 1:self.i + 2] != ["*"]:
            # bare zero only stands alone
            self.take()
            if self.peek() == "+":
                raise OrdinalParseError("'0' cannot appear in a sum")
            return ZERO
        terms = [self.term()]
        while self.peek() == "+":
            self.take("+")
            terms.append(self.term())
        for (e1, _), (e2, _) in zip(terms, terms[1:]):
            if compare(e1, e2) != GT:
                raise OrdinalParseError("non-canonical: exponents must strictly decrease")
        return Ordinal(tuple(terms))

    def term(self) -> Tuple[Ordinal, int]:
        t = self.peek()
        if t is None:
            raise OrdinalParseError("unexpected end of input")
        if t.isdigit():
            self.take()
            n = int(t)
            if n == 0:
                raise OrdinalParseError("zero term not allowed")
            return (ZERO, n)
        self.take("w")
        exponent = ONE
        if self.peek() == "^":
            self.take("^")
            self.take("(")
            self.nesting += 1
            if self.nesting > MAX_NESTING:
                raise OrdinalParseError(f"w^( nested deeper than {MAX_NESTING}")
            exponent = self.ordinal()
            self.nesting -= 1
            self.take(")")
            if exponent.is_zero():
                raise OrdinalParseError("w^(0) is non-canonical; write 1")
            if exponent == ONE:
                raise OrdinalParseError("w^(1) is non-canonical; write w")
        coeff = 1
        if self.peek() == "*":
            self.take("*")
            c = self.take()
            if not c.isdigit() or int(c) == 0:
                raise OrdinalParseError("coefficient must be a positive integer")
            coeff = int(c)
        return (exponent, coeff)


def parse_ordinal(text: str) -> Ordinal:
    p = _Parser(_tokenize(text))
    if not p.toks:
        raise OrdinalParseError("empty input")
    result = p.ordinal()
    if p.peek() is not None:
        raise OrdinalParseError(f"trailing input: {p.toks[p.i:]}")
    return result


def format_ordinal(a: Ordinal, compact: bool = False) -> str:
    if a.is_zero():
        return "0"
    parts = []
    for e, c in a.terms:
        if e.is_zero():
            parts.append(str(c))
            continue
        if e == ONE:
            base = "w"
        else:
            base = f"w^({format_ordinal(e, compact=True)})"
        parts.append(base if c == 1 else f"{base}*{c}")
    sep = "+" if compact else " + "
    return sep.join(parts)
