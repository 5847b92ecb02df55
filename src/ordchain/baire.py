"""Indicator functions of lower cones in a certified mod-finite chain.

For a chain family {x_i}, here an `EmbeddingFamily` (an ordinal embedding
read at a finite sample of ordinals), f_x sends y to 1 exactly when y sits
strictly below x.  Calling f_x reads the value off the order; `evaluate`
also derives, on demand, the certificate behind it, which the embedding
gives for every ordered pair (none when y is x itself, by irreflexivity).
An index outside the sample is an error, never a silent 0.  The sections
below x are countable unions of sets cut out by "indicators eventually
dominated", which is what FSigmaWitness records.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple, Union

from .certs import InvalidCertificateError, OrderCertificate, verify_certificate
from .lazyset import LazySet, escapes
from .ordinal import Ordinal, compare, format_ordinal


class UnknownIndexError(LookupError):
    pass


class EmbeddingFamily:
    """Chain family read off an ordinal embedding at a finite index sample,
    each index below the embedding's bound."""

    def __init__(self, embedding, index_sample: Sequence[Ordinal]):
        for i in index_sample:
            if compare(i, embedding.bound) != -1:
                raise ValueError(f"index {i} is not below the bound {embedding.bound}")
        self.embedding = embedding
        self._known = set(index_sample)

    def has_index(self, i) -> bool:
        return i in self._known

    def label(self, i) -> str:
        return format_ordinal(i, compact=True)

    def order(self, i, j) -> int:
        return compare(i, j)

    def member(self, i) -> LazySet:
        if not self.has_index(i):
            raise UnknownIndexError(f"index {i} not in family")
        return self.embedding.member(i)

    def cert(self, i, j) -> OrderCertificate:
        if not (self.has_index(i) and self.has_index(j)):
            raise UnknownIndexError(f"pair ({i}, {j}) not in family")
        return self.embedding.cert(i, j)


@dataclass(frozen=True)
class Justification:
    """Why an evaluation returned what it did."""

    reason: str                                 # "below", "above", "self"
    certificate: Optional[OrderCertificate]


class BaireFunction:
    """Indicator of the strict lower cone of `pivot` within the family."""

    def __init__(self, family, pivot):
        if not family.has_index(pivot):
            raise UnknownIndexError(f"pivot {pivot} not in family")
        self.family = family
        self.pivot = pivot

    def evaluate(self, y) -> Tuple[int, Justification]:
        if not self.family.has_index(y):
            raise UnknownIndexError(f"index {y} not in family")
        c = self.family.order(y, self.pivot)
        if c == 0:
            return 0, Justification("self", None)
        if c < 0:
            return 1, Justification("below", self.family.cert(y, self.pivot))
        return 0, Justification("above", self.family.cert(self.pivot, y))

    def __call__(self, y) -> int:
        if not self.family.has_index(y):
            raise UnknownIndexError(f"index {y} not in family")
        return 1 if self.family.order(y, self.pivot) < 0 else 0


@dataclass(frozen=True)
class FSigmaWitness:
    """Least m with y(n) <= x(n) for all n >= m (indicator comparison).

    Minimality means: m == 0, or the indicators disagree at m - 1.
    """

    m: int

    def check(self, y: LazySet, x: LazySet, probe: int) -> bool:
        """No n in [m, probe) with y(n) > x(n), and one at m - 1 if m > 0."""
        if len(escapes(y, x, self.m, probe)):
            return False
        return self.m == 0 or len(escapes(y, x, self.m - 1, self.m)) == 1


def fsigma_witness(x: LazySet, y: LazySet,
                   evidence: Union[OrderCertificate, int]) -> FSigmaWitness:
    """Witness for y almost-contained in x, minimized to one past the last
    element of y outside x below the exception bound.

    `evidence` is either a certificate with lower == y, upper == x, or a
    plain exception bound (equality-mod-finite evidence)."""
    if isinstance(evidence, OrderCertificate):
        if evidence.lower is not y or evidence.upper is not x:
            raise InvalidCertificateError(
                "certificate endpoints do not match the given sets")
        m0 = evidence.bound
    else:
        m0 = int(evidence)
        if m0 < 0:
            raise ValueError("exception bound must be a natural")
    hits = escapes(y, x, 0, m0)
    return FSigmaWitness(int(hits[-1]) + 1 if len(hits) else 0)


def monotone_checks(family, pairs, depth: int, sample_points):
    """Check pointwise monotonicity with strict witnesses over index pairs.

    For each pair i < j the pair certificate is probed to `depth`, the
    canonical strict witness f_j(x_i) = 1 > 0 = f_i(x_i) is evaluated, and
    f_i <= f_j is confirmed on `sample_points`.  Yields one (label, reason)
    check per pair, in the given order, as `ChainReport.add` takes it;
    each is yielded as soon as its pair is checked, so a caller can print
    the line before the next pair runs (or raises).

    `family` needs what this and `BaireFunction` use of `EmbeddingFamily`:
    `has_index`, `label`, `member`, `order(i, j)` giving -1, 0 or 1 without
    raising, and `cert(i, j)`, whose `UnknownIndexError` is a FAIL reason."""
    points = list(sample_points)
    for raw_i, raw_j in pairs:
        c = family.order(raw_i, raw_j)
        i, j = (raw_i, raw_j) if c <= 0 else (raw_j, raw_i)
        reason = "not strictly comparable" if c == 0 else \
            _check_pair(family, i, j, depth, points)
        yield f"PAIR {family.label(i)} {family.label(j)}", reason


def _check_pair(family, i, j, depth, points) -> Optional[str]:
    try:
        cert = family.cert(i, j)
    except UnknownIndexError as exc:
        return str(exc)
    if cert.lower is not family.member(i):
        return "certificate lower end is not x_i"
    if cert.upper is not family.member(j):
        return "certificate upper end is not x_j"
    reason = verify_certificate(cert, depth)
    if reason is not None:
        return f"certificate: {reason}"
    fi = BaireFunction(family, i)
    fj = BaireFunction(family, j)
    if not (fi(i) == 0 and fj(i) == 1):
        return "strict witness at x_i missing"
    for p in points:
        if fi(p) > fj(p):
            return f"monotonicity fails at point {family.label(p)}"
    return None
