"""Ordinal notations in Cantor normal form below epsilon_0.

An ordinal is a finite sum  w^e1*c1 + ... + w^ek*ck  with strictly
decreasing exponents (themselves ordinals) and positive integer
coefficients.  The empty sum is 0.  Notations are immutable and interned
on their terms, like sets: building a notation twice returns the same
object, so equal notations compare with `is` and hash by identity.
"""

from __future__ import annotations

import re
import weakref
from typing import Callable, Tuple

LT, EQ, GT = -1, 0, 1


class OrdinalParseError(ValueError):
    pass


# The live notation per terms tuple; a key hashes by identity, as exponents
# are interned.  A notation keeps no cache: rebuilding one re-validates it.
_TABLE = weakref.WeakValueDictionary()


class Ordinal:
    """Interned Cantor-normal-form notation.  Do not mutate `terms`."""

    __slots__ = ("terms", "__weakref__")

    def __new__(cls, terms=()):
        terms = tuple(terms)
        # typed before the lookup, so 1.0 or True never finds the notation with 1
        for e, c in terms:
            if not isinstance(e, Ordinal):
                raise TypeError("exponent must be an Ordinal")
            if type(c) is not int or c < 1:
                raise ValueError("coefficient must be a positive integer")
        a = _TABLE.get(terms)
        if a is None:
            for (e1, _), (e2, _) in zip(terms, terms[1:]):
                if compare(e1, e2) != GT:
                    raise ValueError("exponents must be strictly decreasing")
            a = _TABLE[terms] = object.__new__(cls)
            a.terms = terms
        return a

    def __reduce__(self):       # a copy or an unpickled notation is the interned one
        return Ordinal, (self.terms,)

    def __deepcopy__(self, memo):   # immutable: no walk down the exponents
        return self

    @staticmethod
    def from_int(n: int) -> "Ordinal":
        if n < 0:
            raise ValueError("no negative ordinals")
        if n == 0:
            return ZERO
        return Ordinal(((ZERO, n),))

    def is_zero(self) -> bool:
        return not self.terms

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
    """Strict total order; returns LT, EQ or GT.  Equal exponents are the
    same object, so only the first differing one is descended into, and
    the answer there is final."""
    while a is not b:
        for (ea, ca), (eb, cb) in zip(a.terms, b.terms):
            if ea is not eb:
                a, b = ea, eb
                break
            if ca != cb:
                return LT if ca < cb else GT
        else:   # one is a proper prefix of the other
            return LT if len(a.terms) < len(b.terms) else GT
    return EQ


def add(a: Ordinal, b: Ordinal) -> Ordinal:
    """Ordinal sum; terms of `a` below the leading exponent of `b` are absorbed."""
    if b.is_zero():
        return a
    if a.is_zero():
        return b
    eb, cb = b.terms[0]
    kept = tuple(t for t in a.terms if compare(t[0], eb) == GT)
    rest = a.terms[len(kept):]
    if rest and rest[0][0] is eb:
        return Ordinal(kept + ((eb, rest[0][1] + cb),) + b.terms[1:])
    return Ordinal(kept + b.terms)


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
    head, e = _head(a)
    if not e.is_zero():
        return LIMIT_KIND, None
    return SUCCESSOR_KIND, Ordinal(head)


def _head(a: Ordinal) -> Tuple[tuple, Ordinal]:
    """(h, e) for a nonzero a = h + w^e: the terms before a's last w-power,
    and its exponent."""
    e, c = a.terms[-1]
    return a.terms[:-1] + (((e, c - 1),) if c > 1 else ()), e


def fundamental_sequence(a: Ordinal) -> Callable[[int], Ordinal]:
    """Wainer-style assignment, as a function k -> a[k].

    For g + w^(e+1) the k-th element is g + w^e*(k+1); for g + w^l with l a
    limit it is g + w^(l[k]); a trailing coefficient > 1 peels one copy.
    The heads down the chain of limit exponents are found once, and each
    element is built back up them."""
    if classify(a)[0] != LIMIT_KIND:
        raise ValueError("fundamental sequence requires a limit notation")
    heads, kind = [], LIMIT_KIND
    while kind == LIMIT_KIND:       # down to the first successor exponent
        head, a = _head(a)
        heads.append(head)
        kind, epred = classify(a)

    def element(k: int) -> Ordinal:
        if k < 0:
            raise ValueError("index must be a natural")
        x, c = epred, k + 1
        for head in reversed(heads):
            x, c = Ordinal(head + ((x, c),)), 1
        return x

    return element


def fundamental_index(a: Ordinal, b: Ordinal) -> int:
    """The least k with b < a[k], for b < a a limit: the inverse of
    `fundamental_sequence`, read off the terms of b one limit exponent of
    a at a time."""
    if classify(a)[0] != LIMIT_KIND or compare(b, a) != LT:
        raise ValueError("fundamental index requires b < a, a limit")
    while True:
        head, e = _head(a)
        n = len(head)
        if b.terms[:n] != head or len(b.terms) == n:
            return 0                # b is at most the head, below a[0]
        eb, cb = b.terms[n]         # eb < e, as b < a
        ekind, epred = classify(e)
        if ekind == SUCCESSOR_KIND:
            return cb if eb is epred else 0
        a, b = e, eb


# ---------------------------------------------------------------------------
# Textual grammar:
#   ord  := "0" | term ("+" term)*
#   term := nat | "w" ("*" nat)? | "w^(" ord ")" ("*" nat)?
# Whitespace-insensitive; non-canonical input is rejected.

# A numeral or any other single character: a stray character is a token
# that no rule accepts.
_TOKEN = re.compile(r"\d+|\S")

# Deepest "w^(" nesting that parses.  Only parsing, formatting and pickling
# recurse per level: called from 120 frames deep under CPython 3.11's default
# limit, they first fail at 435, 874 and 217 levels.
MAX_NESTING = 100


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
        try:
            return Ordinal(terms)
        except ValueError as exc:   # exponents not strictly decreasing
            raise OrdinalParseError(f"non-canonical: {exc}") from None

    def term(self) -> Tuple[Ordinal, int]:
        t = self.peek()
        if t is None:
            raise OrdinalParseError("unexpected end of input")
        if t.isdecimal():
            return (ZERO, self.positive("zero term not allowed"))
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
            if exponent is ONE:
                raise OrdinalParseError("w^(1) is non-canonical; write w")
        if self.peek() != "*":
            return (exponent, 1)
        self.take("*")
        return (exponent, self.positive("coefficient must be a positive integer"))

    def positive(self, message: str) -> int:
        """The next token as a positive natural; else `message` is the error."""
        t = self.take()
        try:
            n = int(t) if t.isdecimal() else 0
        except ValueError as exc:   # past Python's int-conversion digit limit
            raise OrdinalParseError(str(exc)) from None
        if n == 0:
            raise OrdinalParseError(f"{message}, got {t!r}")
        return n


def parse_ordinal(text: str) -> Ordinal:
    p = _Parser(_TOKEN.findall(text))
    if not p.toks:
        raise OrdinalParseError("empty input")
    result = p.ordinal()
    if p.peek() is not None:
        raise OrdinalParseError(f"trailing input at {p.peek()!r}")
    return result


def format_ordinal(a: Ordinal, compact: bool = False) -> str:
    if a.is_zero():
        return "0"
    parts = []
    for e, c in a.terms:
        if e.is_zero():
            parts.append(str(c))
            continue
        base = "w" if e is ONE else f"w^({format_ordinal(e, compact=True)})"
        parts.append(base if c == 1 else f"{base}*{c}")
    sep = "+" if compact else " + "
    return sep.join(parts)
