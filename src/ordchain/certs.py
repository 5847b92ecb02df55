"""Certified almost-inclusion (strict mod-finite containment) on subsets of
the naturals.

A relation ``lower almost-contained-in upper`` is never decided; it is
witnessed by an OrderCertificate: a finite exception bound m (every element
of lower outside upper is < m) together with a surplus set, infinitely many
elements of upper that avoid lower.  Certificates are proved from the
structure of their sets where the rules of `lazyset` allow, are checkable
otherwise to any finite depth, from one prefix of each of their sets, and
compose transitively.  A certificate serializes as
``cert{m=<nat>, lower=<set>, upper=<set>}``, and is read back by the set
grammar's reader from its template, `OrderCertificate.TEMPLATE`.

On top of the certificates this module builds:

* the base chain rows(0), rows(1), ... with its step certificates,
* interval splitting: an omega-chain strictly between any certified pair,
* the address tree x_s with x_s strictly below x_{s~a} below x_{s+},
* embeddings of ordinal notations into any certified interval.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from .lazyset import (NAT, SET, LazySet, ResourceLimitError, _ScanRefused, ap,
                      diff, disjoint, infinite, inter, parse_text, piece, rows,
                      subset, union)
from .ordinal import (ONE, Ordinal, compare, fundamental_index,
                      fundamental_sequence, left_subtract)


class InvalidCertificateError(ValueError):
    pass


class UnknownIndexError(LookupError):
    """A notation that is not below an embedding's bound."""


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

    # the text `serialize` writes, as a template of `lazyset.parse_text`
    TEMPLATE = ("cert", "{", "m", "=", NAT, ",", "lower", "=", SET, ",",
                "upper", "=", SET, "}")

    def serialize(self) -> str:
        return f"cert{{m={self.bound}, lower={self.lower.expr}, upper={self.upper.expr}}}"


def default_certificate(lower: LazySet, upper: LazySet, bound: int) -> OrderCertificate:
    """Certificate whose surplus is the set difference upper \\ lower."""
    return OrderCertificate(lower, upper, bound, diff(upper, lower))


def parse_certificate(text: str) -> OrderCertificate:
    """The certificate `serialize` writes, with any whitespace between
    tokens; its surplus is upper \\ lower."""
    bound, lower, upper = parse_text(text, OrderCertificate.TEMPLATE)
    return default_certificate(lower, upper, bound)


def verify_certificate(cert: OrderCertificate, depth: int) -> Optional[str]:
    """None if the certificate is proved or survives the probe to finite
    depth, else the reason it fails.

    First the structural rules of `lazyset` are asked for lower ⊆ upper,
    and for a surplus that is infinite, inside upper and disjoint from
    lower.  If all four are proved the certificate holds, and None is
    returned with no surplus drawn and no bitmap read; the answers stay on
    the sets, so a repeated certificate costs a few lookups.

    Any other certificate is probed: the `depth` smallest surplus elements
    are drawn and one prefix of each of lower and upper is read, up to the
    probe bound, the largest of the exception bound, the last surplus
    element and 4 * depth.  The first surplus element outside upper or
    inside lower is reported; then every element of lower from the
    exception bound up to the probe bound must lie in upper, and the first
    that does not is reported.  A failed check is returned, not raised.
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    if subset(cert.lower, cert.upper) and infinite(cert.surplus) \
            and subset(cert.surplus, cert.upper) \
            and disjoint(cert.surplus, cert.lower):
        return None
    try:
        surplus = cert.surplus.first_n(depth)
    except _ScanRefused as exc:
        return f"scan refused: {exc}"
    except ResourceLimitError as exc:
        return f"surplus exhausted: {exc}"
    probe = max(cert.bound, surplus[-1], 4 * depth) + 1
    lower, upper = cert.lower.bits(probe), cert.upper.bits(probe)
    bad = lower[surplus] | ~upper[surplus]
    if bad.any():
        s = surplus[int(bad.argmax())]
        where = "not in upper" if not upper[s] else "lies in lower"
        return f"surplus element {s} {where}"
    escaped = lower[cert.bound:] & ~upper[cert.bound:]
    if escaped.any():
        return f"element {cert.bound + int(escaped.argmax())}"
    return None


@dataclass
class ChainReport:
    """A run of checks, one line per check -- `<label> OK` or
    `<label> FAIL <reason>` -- closed by the tally `CHECKED n FAILED m`."""

    checked: int = 0
    failed: int = 0

    def add(self, label: str, reason: Optional[str]) -> str:
        """Count one check and return its line; `reason` is None for a
        pass.  An empty label or reason is left out of the line."""
        words = [label, "OK"] if reason is None else [label, "FAIL", reason]
        self.checked += 1
        if reason is not None:
            self.failed += 1
        return " ".join(w for w in words if w)

    @property
    def ok(self) -> bool:
        return self.failed == 0

    @property
    def tally(self) -> str:
        return f"CHECKED {self.checked} FAILED {self.failed}"


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
    certificates with infinite surplus at every step.  The chain's levels
    are x (level 0), z_1, z_2, ... and y (level None), and `cert` gives a
    certificate between any two of them.  The interval's certificate is
    trusted, not checked: verify one from outside first.
    """

    def __init__(self, cert: OrderCertificate):
        self.x = cert.lower
        self.y = cert.upper
        self.bound = cert.bound
        self.source = cert.surplus
        self._z: List[LazySet] = [inter(self.x, self.y)]

    def z(self, k: int) -> LazySet:
        if k < 0:
            raise ValueError("need k >= 0")
        while len(self._z) <= k:
            j = len(self._z) - 1
            self._z.append(union(self._z[j], piece(self.source, j)))
        return self._z[k]

    def cert(self, a: int, b: Optional[int] = None) -> OrderCertificate:
        """Level a strictly below level b, 0 <= a < b: level 0 is x, level
        k >= 1 is z_k and b=None is y.  The surplus is piece a, and only a
        certificate out of x keeps the interval's bound."""
        if a < 0 or (b is not None and b <= a):
            raise ValueError("need 0 <= a < b")
        return OrderCertificate(self.z(a) if a else self.x,
                                self.y if b is None else self.z(b),
                                0 if a else self.bound, piece(self.source, a))


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
    chain = SplitChain(base_cert(s[0], s[0] + 1))
    for a in s[1:]:
        chain = SplitChain(chain.cert(a, a + 1))
    return chain


def tree_node(s: TreeAddress) -> LazySet:
    """The set x_s: length-1 addresses are the base chain and x_{s~a} is
    the a-th split point of (x_s, x_{s+}), so x_{s~0} is x_s."""
    return tree_split(s).x


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
    interval, with derivable certificates for every comparable pair and
    for each notation against either end of the interval.

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
    nothing up front; a slot's start and sub-embedding are built when a
    query first lands in it, and kept.  Each notation asked is located
    once, as one path of levels down to its single-point slot, kept at the
    embedding asked; `member` and `cert` read it.  A path holds each
    level's chain, never its own embedding, so a dropped embedding is freed
    without the cyclic collector.  Levels are walked in loops, so a deep
    bound costs no stack.  Slot indices grow with the coefficients along a
    notation's term list; the certificates of large slots are proved from
    their structure and not probed.  A certificate folds the chain steps
    between its ends, only the first of which can carry the interval's
    bound (see `cert`).  The interval's certificate is trusted.
    """

    def __init__(self, bound: Ordinal, interval: OrderCertificate):
        self.bound = bound
        self._chain = SplitChain(interval)
        self._slots: Dict[int, tuple] = {}         # _slot's answers
        self._paths: Dict[Ordinal, tuple] = {}     # _path's answers
        if _is_pure_power(bound):
            self._slot_end = fundamental_sequence(bound)
            self._slot_index = functools.partial(fundamental_index, bound)
        else:
            self._slot_end = functools.partial(_block_end, bound)
            self._slot_index = functools.partial(_block_index, bound)

    def _slot(self, t: int) -> Tuple[Ordinal, Optional["OrdinalEmbedding"]]:
        """(start, sub-embedding or None for a single point) of slot t."""
        if t not in self._slots:
            start = self._slot_end(t - 1) if t else Ordinal()
            otype = left_subtract(start, self._slot_end(t))
            self._slots[t] = (start, None if otype == ONE else OrdinalEmbedding(
                otype, self._chain.cert(t, t + 1)))
        return self._slots[t]

    def _path(self, alpha: Ordinal) -> tuple:
        """(chain, slot, sub-embedding or None) of each level alpha < bound
        is located in, from this one down to its single-point slot."""
        path = self._paths.get(alpha)
        if path is not None:
            return path
        if compare(alpha, self.bound) != -1:
            raise UnknownIndexError(f"notation {alpha} is not below {self.bound}")
        levels, emb, offset = [], self, alpha
        while emb is not None:
            t = emb._slot_index(offset)
            start, sub = emb._slot(t)
            levels.append((emb._chain, t, sub))
            emb, offset = sub, left_subtract(start, offset)
        path = self._paths[alpha] = tuple(levels)
        return path

    def member(self, alpha: Ordinal) -> LazySet:
        chain, t, _ = self._path(alpha)[-1]
        return chain.z(t + 1)

    def cert(self, alpha: Optional[Ordinal],
             beta: Optional[Ordinal]) -> OrderCertificate:
        """Certificate for e(alpha) strictly below e(beta), alpha < beta;
        alpha=None is the interval's lower end and beta=None its upper end.

        One fold of `compose_certs` over the chain steps up out of alpha's
        slot, along the chain where the two paths part and down into beta's
        slot.  Only a step out of a chain's lower end keeps a bound, a chain
        in slot t >= 1 has bound 0, and an up step or the along step between
        notations starts at t + 1 >= 1: at most the first step carries the
        interval's bound, so no grouping of the fold changes the result.
        """
        if alpha is not None and beta is not None and compare(alpha, beta) != -1:
            raise ValueError("need alpha < beta")
        # an interval end is one level, in a slot no notation has
        pb = ((self._chain, None, None),) if beta is None else self._path(beta)
        pa = ((self._chain, -1, None),) if alpha is None else self._path(alpha)
        i = 0
        while pa[i][1] == pb[i][1]:     # the ends share this level's slot
            i += 1
        (chain, ta, _), (_, tb, subb) = pa[i], pb[i]
        # up steps innermost first; a single-point slot t is z_{t+1} itself
        steps = [c.cert(t + 1, None) for c, t, _ in pa[:i:-1]]
        top = None if tb is None else tb + (subb is None)
        if ta + 1 != top:
            steps.append(chain.cert(ta + 1, top))
        # a slot 0 starts at its level's lower end
        steps += [c.cert(0, t + (sub is None)) for c, t, sub in pb[i + 1:]
                  if t or sub is None]
        return functools.reduce(compose_certs, steps)


def default_interval() -> OrderCertificate:
    """The interval (rows(0), rows(1)): empty set below the evens."""
    return base_cert(0, 1)
