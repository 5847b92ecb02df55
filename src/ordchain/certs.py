"""Certified almost-inclusion (strict mod-finite containment) on subsets of
the naturals.

A relation ``lower almost-contained-in upper`` is never decided; it is
witnessed by an OrderCertificate: a finite exception bound m (every element
of lower outside upper is < m) together with a surplus set, infinitely many
elements of upper that avoid lower.  Certificates are checkable to any
finite depth, from one prefix of each of their sets, and compose
transitively.

On top of the certificates this module builds:

* the base chain rows(0), rows(1), ... with its step certificates,
* interval splitting: an omega-chain strictly between any certified pair,
* the address tree x_s with x_s strictly below x_{s~a} below x_{s+},
* embeddings of ordinal notations into any certified interval.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from .lazyset import (LazySet, ResourceLimitError, SetParseError, ap, diff,
                      inter, parse_set, piece, rows, union)
from .ordinal import (ONE, Ordinal, compare, fundamental_index,
                      fundamental_sequence, left_subtract)


class InvalidCertificateError(ValueError):
    pass


@dataclass(frozen=True)
class OrderCertificate:
    """Witness that `lower` is strictly almost-contained in `upper`.

    Every element of lower \\ upper is < `bound`; `surplus` is a set of
    elements of upper \\ lower, drawn in increasing order with `first_n`
    (a surplus that misbehaves is refuted by the verifier).
    """

    lower: LazySet
    upper: LazySet
    bound: int
    surplus: LazySet

    def __post_init__(self):
        if not isinstance(self.surplus, LazySet):
            raise TypeError(
                f"surplus must be a LazySet, not {type(self.surplus).__name__}")

    def serialize(self) -> str:
        return f"cert{{m={self.bound}, lower={self.lower.expr}, upper={self.upper.expr}}}"


def default_certificate(lower: LazySet, upper: LazySet, bound: int) -> OrderCertificate:
    """Certificate whose surplus is the set difference upper \\ lower."""
    return OrderCertificate(lower, upper, bound, diff(upper, lower))


_CERT_RE = re.compile(
    r"\s*cert\s*\{\s*m\s*=\s*(\d+)\s*,\s*lower\s*=(.*?),\s*upper\s*=(.*)\}\s*$",
    re.DOTALL)


def parse_certificate(text: str) -> OrderCertificate:
    m = _CERT_RE.match(text)
    if not m:
        raise SetParseError("expected cert{m=<nat>, lower=<set>, upper=<set>}")
    try:
        bound = int(m.group(1))
    except ValueError as exc:   # past Python's int-conversion digit limit
        raise SetParseError(str(exc)) from None
    lower = parse_set(m.group(2))
    upper = parse_set(m.group(3))
    return default_certificate(lower, upper, bound)


@dataclass(frozen=True)
class Report:
    ok: bool
    message: str

    def __bool__(self):
        return self.ok


def verify_certificate(cert: OrderCertificate, depth: int) -> Report:
    """Probe a certificate to finite depth.

    Draws the `depth` smallest surplus elements and reads one prefix of
    each of lower and upper, up to the probe bound: the largest of the
    exception bound, the last surplus element and 4 * depth.  The first
    surplus element outside upper or inside lower is reported; then every
    element of lower from the exception bound up to the probe bound must
    lie in upper, and the first that does not is reported.  A failed check
    is reported, not raised.
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    try:
        surplus = cert.surplus.first_n(depth)
    except ResourceLimitError as exc:
        return Report(False, f"surplus exhausted: {exc}")
    probe = max(cert.bound, surplus[-1], 4 * depth) + 1
    lower, upper = cert.lower.bits(probe), cert.upper.bits(probe)
    bad = lower[surplus] | ~upper[surplus]
    if bad.any():
        s = surplus[int(bad.argmax())]
        where = "not in upper" if not upper[s] else "lies in lower"
        return Report(False, f"surplus element {s} {where}")
    escaped = lower[cert.bound:] & ~upper[cert.bound:]
    if escaped.any():
        return Report(False, f"element {cert.bound + int(escaped.argmax())}")
    return Report(True, "OK")


@dataclass
class ChainReport:
    """A run of checks, one line per check -- `<label> OK` or
    `<label> FAIL <reason>` -- closed by the tally `CHECKED n FAILED m`."""

    lines: List[str] = field(default_factory=list)
    failed: int = 0

    def add(self, label: str, reason: Optional[str]) -> str:
        """Record one check and return its line; `reason` is None for a
        pass.  An empty label or reason is left out of the line."""
        words = [label, "OK"] if reason is None else [label, "FAIL", reason]
        self.lines.append(" ".join(w for w in words if w))
        if reason is not None:
            self.failed += 1
        return self.lines[-1]

    @property
    def checked(self) -> int:
        return len(self.lines)

    @property
    def ok(self) -> bool:
        return self.failed == 0

    @property
    def tally(self) -> str:
        return f"CHECKED {self.checked} FAILED {self.failed}"

    @property
    def text(self) -> str:
        return "\n".join(self.lines + [self.tally])


def compose_certs(c1: OrderCertificate, c2: OrderCertificate) -> OrderCertificate:
    """Transitivity: certificates for (x,y) and (y,z) give one for (x,z).

    The middle sets must be the same (interned) set.  Surplus elements of the
    second leg below the first exception bound are dropped; the rest cannot
    lie in x.
    """
    if c1.upper is not c2.lower:
        raise InvalidCertificateError("middle sets do not match")
    bound = max(c1.bound, c2.bound)
    surplus = c2.surplus
    if c1.bound > 0:
        surplus = inter(surplus, ap(1, c1.bound))
    return OrderCertificate(c1.lower, c2.upper, bound, surplus)


# ---------------------------------------------------------------------------
# Base chain: rows(0) < rows(1) < ...

def base_cert(n: int, m: int) -> OrderCertificate:
    if not n < m:
        raise ValueError("need n < m")
    return default_certificate(rows(n), rows(m), 0)


# ---------------------------------------------------------------------------
# Interval splitting.

class SplitChain:
    """The omega-chain z_1, z_2, ... strictly between a certified pair.

    z_0 is lower-inter-upper (so exception bounds never grow), and
    z_{k+1} = z_k + piece k of the interval's surplus.  The pieces are
    pairwise disjoint infinite slices of upper \\ lower, which yields
    certificates with infinite surplus at every step.
    """

    def __init__(self, cert: OrderCertificate, validate: bool = True):
        if validate:
            r = verify_certificate(cert, 4)
            if not r.ok:
                raise InvalidCertificateError(f"invalid interval certificate: {r.message}")
        self.cert = cert
        self.x = cert.lower
        self.y = cert.upper
        self.bound = cert.bound
        self.source = cert.surplus
        self._z: List[LazySet] = [inter(self.x, self.y)]

    def slice_piece(self, k: int) -> LazySet:
        return piece(self.source, k)

    def z(self, k: int) -> LazySet:
        while len(self._z) <= k:
            j = len(self._z) - 1
            self._z.append(union(self._z[j], self.slice_piece(j)))
        return self._z[k]

    def cert_lower(self, k: int) -> OrderCertificate:
        """lower-end certificate: x strictly below z_k (k >= 1)."""
        if k < 1:
            raise ValueError("k >= 1")
        return OrderCertificate(self.x, self.z(k), self.bound, self.slice_piece(0))

    def cert_between(self, a: int, b: int) -> OrderCertificate:
        """z_a strictly below z_b for 1 <= a < b (z_a is a subset of z_b)."""
        if not 1 <= a < b:
            raise ValueError("need 1 <= a < b")
        return OrderCertificate(self.z(a), self.z(b), 0, self.slice_piece(a))

    def cert_slot(self, t: int) -> OrderCertificate:
        """Slot t of the chain: (x, z_1) for t = 0, else (z_t, z_{t+1})."""
        return self.cert_lower(1) if t == 0 else self.cert_between(t, t + 1)

    def cert_upper(self, k: int) -> OrderCertificate:
        """upper-end certificate: z_k strictly below y (k >= 1)."""
        if k < 1:
            raise ValueError("k >= 1")
        return OrderCertificate(self.z(k), self.y, 0, self.slice_piece(k))


# ---------------------------------------------------------------------------
# The address tree.

TreeAddress = Tuple[int, ...]


def tree_split(s: TreeAddress) -> SplitChain:
    """Split of (x_s, x_{s+}), found by splitting (rows(s_0), rows(s_0 + 1))
    and then, for each later entry a, the chain's slot a."""
    s = tuple(s)
    if not s:
        raise ValueError("tree address must be nonempty")
    if any((not isinstance(a, int)) or a < 0 for a in s):
        raise ValueError("tree address entries must be naturals")
    chain = SplitChain(base_cert(s[0], s[0] + 1), validate=False)
    for a in s[1:]:
        chain = SplitChain(chain.cert_slot(a), validate=False)
    return chain


def tree_node(s: TreeAddress) -> LazySet:
    """The set x_s: length-1 addresses are the base chain and x_{s~a} is
    the a-th split point of (x_s, x_{s+}), so x_{s~0} is x_s."""
    return tree_split(s).x


def tree_child_certs(s: TreeAddress, a: int, b: int):
    """Certificates for x_s < x_{s~a} < x_{s~b} < x_{s+} with 0 < a < b."""
    if not 0 < a < b:
        raise ValueError("need 0 < a < b")
    chain = tree_split(s)
    return chain.cert_lower(a), chain.cert_between(a, b), chain.cert_upper(b)


# ---------------------------------------------------------------------------
# Ordinal embeddings.

def _is_pure_power(a: Ordinal) -> bool:
    """Exactly one term, coefficient 1, exponent >= 1 (i.e. a limit power)."""
    return (len(a.terms) == 1 and a.terms[0][1] == 1
            and not a.terms[0][0].is_zero())


def _block_end(bound: Ordinal, t: int) -> Ordinal:
    """Upper end of block t of `bound`, one coefficient unit per block: the
    terms before the one block t falls in, then t + 1 units of that term."""
    for i, (e, c) in enumerate(bound.terms):
        if t < c:
            return Ordinal(bound.terms[:i] + ((e, t + 1),))
        t -= c
    raise IndexError("block index past the bound")


def _block_index(bound: Ordinal, alpha: Ordinal) -> int:
    """The block of alpha < bound, the least t with alpha < _block_end(t):
    the coefficient units alpha shares with the bound, plus alpha's
    coefficient on the term where it leaves the bound."""
    t = 0
    for (e, c), (ae, ac) in zip(bound.terms, alpha.terms):
        if ae != e:
            break
        t += ac
        if ac != c:
            break
    return t


class OrdinalEmbedding:
    """Order embedding of the notations below `bound` into a certified
    interval, with derivable certificates for every comparable pair.

    The interval is split once into the chain x < z_1 < z_2 < ... < y and
    the notations below `bound` are distributed over consecutive slots,
    slot t sitting in (z_t, z_{t+1}) (slot 0 in (x, z_1)):

    * a limit power w^e is cut along its fundamental sequence, one segment
      per slot — each segment is again a limit power, one exponent step
      down, or a single point;
    * any other notation is cut term-by-term into blocks of type w^e, one
      coefficient unit per slot;
    * a single-point slot maps straight to the split point z_{t+1}.

    A notation's slot is read off its terms, so a large coefficient costs
    nothing up front, and a slot's start and sub-embedding are built once a
    query lands in the slot, and kept.  Slot indices stay proportional to
    the coefficients along a notation's term list, which keeps the derived
    surplus sets scannable.
    """

    def __init__(self, bound: Ordinal, interval: OrderCertificate,
                 validate: bool = True):
        self.bound = bound
        self.interval = interval
        self._chain = SplitChain(interval, validate)
        # (start, sub-embedding or None for a single point) per slot reached
        self._slots: Dict[int, Tuple[Ordinal, Optional["OrdinalEmbedding"]]] = {}
        if _is_pure_power(bound):
            self._slot_end = fundamental_sequence(bound)
            self._slot_index = functools.partial(fundamental_index, bound)
        else:
            self._slot_end = functools.partial(_block_end, bound)
            self._slot_index = functools.partial(_block_index, bound)

    # -- structure ---------------------------------------------------------

    def _locate(self, alpha: Ordinal
                ) -> Tuple[int, Ordinal, Optional["OrdinalEmbedding"]]:
        """Slot index, offset within the slot, and the slot's sub-embedding
        (None for a single-point slot)."""
        t = self._slot_index(alpha)
        if t not in self._slots:
            start = self._slot_end(t - 1) if t else Ordinal()
            otype = left_subtract(start, self._slot_end(t))
            self._slots[t] = (start, None if otype == ONE else OrdinalEmbedding(
                otype, self._chain.cert_slot(t), validate=False))
        start, sub = self._slots[t]
        return t, left_subtract(start, alpha), sub

    def _require_below(self, alpha: Ordinal) -> None:
        if compare(alpha, self.bound) != -1:
            raise KeyError(f"notation {alpha} is not below {self.bound}")

    # -- queries -----------------------------------------------------------

    def member(self, alpha: Ordinal) -> LazySet:
        self._require_below(alpha)
        t, off, sub = self._locate(alpha)
        if sub is None:
            return self._chain.z(t + 1)
        return sub.member(off)

    def cert(self, alpha: Ordinal, beta: Ordinal) -> OrderCertificate:
        """Certificate for e(alpha) strictly below e(beta), alpha < beta."""
        if compare(alpha, beta) != -1:
            raise ValueError("need alpha < beta")
        self._require_below(beta)
        ta, offa, suba = self._locate(alpha)
        tb, offb, subb = self._locate(beta)
        if ta == tb:
            return suba.cert(offa, offb)
        # climb from e(alpha) up to z_{ta+1}, along the chain, into slot tb
        legs: List[OrderCertificate] = []
        if suba is not None:
            legs.append(suba.upper_cert(offa))
        exit_level = ta + 1
        if subb is None:
            legs.append(self._chain.cert_between(exit_level, tb + 1))
        else:
            if exit_level < tb:
                legs.append(self._chain.cert_between(exit_level, tb))
            legs.append(subb.lower_cert(offb))
        out = legs[0]
        for leg in legs[1:]:
            out = compose_certs(out, leg)
        return out

    def lower_cert(self, alpha: Ordinal) -> OrderCertificate:
        """Certificate for interval-lower strictly below e(alpha)."""
        self._require_below(alpha)
        t, off, sub = self._locate(alpha)
        if sub is None:
            return self._chain.cert_lower(t + 1)
        inner = sub.lower_cert(off)
        if t == 0:
            return inner
        return compose_certs(self._chain.cert_lower(t), inner)

    def upper_cert(self, alpha: Ordinal) -> OrderCertificate:
        """Certificate for e(alpha) strictly below interval-upper."""
        self._require_below(alpha)
        t, off, sub = self._locate(alpha)
        if sub is None:
            return self._chain.cert_upper(t + 1)
        return compose_certs(sub.upper_cert(off),
                             self._chain.cert_upper(t + 1))


def default_interval() -> OrderCertificate:
    """The interval (rows(0), rows(1)): empty set below the evens."""
    return base_cert(0, 1)
