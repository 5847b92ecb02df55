"""Indicator functions of lower cones in a certified mod-finite chain.

For the chain {x_a} of an ordinal embedding, f_a sends y to 1 exactly when
y sits strictly below a.  Calling f_a reads the value off the order;
`evaluate` also derives, on demand, the certificate behind it, which the
embedding gives for every ordered pair (none when y is a itself, by
irreflexivity).  There is no sample: every notation below the embedding's
bound is an index, and one that is not below it is an error, never a
silent 0.  So f_a <= f_b, strict at x_a, follows from a < b, and what a
pair a < b needs checked is its certificate (`pair_failure`).  The
sections below x are countable unions of sets cut out by "indicators
eventually dominated", which is what FSigmaWitness records.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple, Union

from .certs import (InvalidCertificateError, OrderCertificate,
                    UnknownIndexError, verify_certificate)
from .lazyset import LazySet, escapes
from .ordinal import Ordinal, compare


@dataclass(frozen=True)
class Justification:
    """Why an evaluation returned what it did."""

    reason: str                                 # "below", "above", "self"
    certificate: Optional[OrderCertificate]


class BaireFunction:
    """Indicator of the strict lower cone of `pivot`: f(y) is 1 exactly
    when y < pivot, for notations y and pivot below the embedding's bound."""

    def __init__(self, embedding, pivot: Ordinal):
        self.embedding = embedding
        self.pivot = self._index(pivot)

    def _index(self, i: Ordinal) -> Ordinal:
        if compare(i, self.embedding.bound) != -1:
            raise UnknownIndexError(
                f"index {i} is not below the bound {self.embedding.bound}")
        return i

    def evaluate(self, y: Ordinal) -> Tuple[int, Justification]:
        c = compare(self._index(y), self.pivot)
        if c == 0:
            return 0, Justification("self", None)
        if c < 0:
            return 1, Justification("below", self.embedding.cert(y, self.pivot))
        return 0, Justification("above", self.embedding.cert(self.pivot, y))

    def __call__(self, y: Ordinal) -> int:
        return 1 if compare(self._index(y), self.pivot) < 0 else 0


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


def pair_failure(embedding, a: Ordinal, b: Ordinal,
                 depth: int) -> Optional[str]:
    """Why the pair a < b fails, or None.  Its certificate must have ends
    x_a and x_b and survive the probe to `depth`; f_a <= f_b, strict at
    x_a, follows from a < b itself."""
    cert = embedding.cert(a, b)
    if cert.lower is not embedding.member(a):
        return "certificate lower end is not x_i"
    if cert.upper is not embedding.member(b):
        return "certificate upper end is not x_j"
    reason = verify_certificate(cert, depth)
    return None if reason is None else f"certificate: {reason}"
