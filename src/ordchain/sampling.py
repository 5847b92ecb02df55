"""Deterministic random sampling of ordinal notations.

Below a finite bound n a draw is uniform on 0, ..., n-1.  Below an
infinite bound it comes from a fixed range: notations below w^5 with at
most 2 terms, coefficients at most 2 and a trailing natural at most 3.
The range's raw law picks the number of terms, then that many distinct
exponents, then each coefficient, each uniformly; a draw follows the raw
law conditioned on lying below the bound.  It is read off an exact table
of the range's weights with one RNG call and no rejection, so its stream
differs from that of the rejection sampler the table replaced.  Probing
does not need the range, as the certificates of larger notations are
proved from their structure and not probed.  Drawing from the whole bound
is an open item in ROADMAP.md, "Sample pairs from the whole bound".
"""

from __future__ import annotations

import functools
import itertools
import math
import random
from bisect import bisect_right
from typing import Iterator, Optional, Tuple

from .ordinal import EQ, LT, Ordinal, compare, format_ordinal

MAX_EXPONENT = 4
MAX_COEFF = 2
MAX_TERMS = 2
MAX_TRAILING_NAT = 3


class NoPairsError(ValueError):
    """Below the bound there is no pair a < b to sample."""


@functools.lru_cache(maxsize=1)
def _table() -> Tuple[Tuple[Ordinal, ...], Tuple[int, ...]]:
    """Every notation of the range, in a fixed order, and its integer weight
    in proportion to its raw-draw probability, 1/MAX_TERMS times
    1/C(MAX_EXPONENT+1, n) for its n exponents times 1/|coefficient range|
    for each term.  Built on the first draw below an infinite bound and kept
    (with its notations) for the life of the process."""
    entries = []
    for n in range(1, MAX_TERMS + 1):
        for exponents in itertools.combinations(range(MAX_EXPONENT, -1, -1), n):
            tops = [MAX_TRAILING_NAT if e == 0 else MAX_COEFF for e in exponents]
            odds = math.comb(MAX_EXPONENT + 1, n) * math.prod(tops)
            for coeffs in itertools.product(*(range(1, t + 1) for t in tops)):
                entries.append((Ordinal(tuple(zip(map(Ordinal.from_int, exponents),
                                                  coeffs))), odds))
    scale = math.lcm(*(odds for _, odds in entries))
    return (tuple(a for a, _ in entries),
            tuple(scale // odds for _, odds in entries))


def _finite(a: Ordinal) -> Optional[int]:
    """The natural number `a` is, or None if it is infinite."""
    if a.is_zero():
        return 0
    e, c = a.terms[0]
    return c if e.is_zero() else None


def _draws(bound: Ordinal, rng: random.Random) -> Iterator[Ordinal]:
    """Notations strictly below `bound`, one RNG call each: uniform below a
    finite bound, else the table's entries below the bound by weight."""
    n = _finite(bound)
    while n is not None:
        yield Ordinal.from_int(rng.randrange(n))
    below = [(a, w) for a, w in zip(*_table()) if compare(a, bound) == LT]
    items = [a for a, _ in below]
    cum = list(itertools.accumulate(w for _, w in below))
    total = cum[-1]         # 1, 2 and 3 lie below every infinite bound
    while True:
        yield items[bisect_right(cum, rng.randrange(total))]


def _pairs(bound: Ordinal, count: int,
           rng: random.Random) -> Iterator[Tuple[Ordinal, Ordinal]]:
    draws = _draws(bound, rng)
    for _ in range(count):
        c = EQ
        while c == EQ:
            a, b = next(draws), next(draws)
            c = compare(a, b)
        yield (a, b) if c == LT else (b, a)


def sample_comparable_pairs(bound: Ordinal, count: int,
                            rng: random.Random) -> Iterator[Tuple[Ordinal, Ordinal]]:
    """`count` pairs (a, b) with a < b < bound, each drawn as it is taken,
    with an equal pair drawn again; NoPairsError at once if count is
    positive and bound is 0 or 1, which have no such pair."""
    if count > 0 and _finite(bound) in (0, 1):
        raise NoPairsError(f"no pair a < b lies below {format_ordinal(bound)}")
    return _pairs(bound, count, rng)
