"""Deterministic random sampling of ordinal notations.

Draws come from a fixed range: below w^5, with coefficients at most 2 and
a trailing natural at most 3.  Probing no longer needs the range, as the
certificates of larger notations are proved from their structure and not
probed.  Drawing from the whole bound is an open item in ROADMAP.md,
"Sample pairs from the whole bound".
"""

from __future__ import annotations

import random
from typing import Dict, Iterator, List, Optional, Tuple

from .ordinal import LT, Ordinal, compare, format_ordinal

MAX_EXPONENT = 4
MAX_COEFF = 2
MAX_TERMS = 2
MAX_TRAILING_NAT = 3
MAX_TRIES = 10000


def _raw_notation(rng: random.Random) -> Tuple[Tuple[int, int], ...]:
    """The (exponent, coefficient) naturals of one draw from the range."""
    n_terms = rng.randint(1, MAX_TERMS)
    exponents = sorted(rng.sample(range(MAX_EXPONENT + 1), n_terms), reverse=True)
    return tuple((e, rng.randint(1, MAX_TRAILING_NAT if e == 0 else MAX_COEFF))
                 for e in exponents)


class NoPairsError(ValueError):
    """Below the bound there is no pair a < b to sample."""


def _finite(a: Ordinal) -> Optional[int]:
    """The natural number `a` is, or None if it is infinite."""
    if a.is_zero():
        return 0
    e, c = a.terms[0]
    return c if e.is_zero() else None


def _draws(bound: Ordinal, rng: random.Random) -> Iterator[Ordinal]:
    """Notations strictly below `bound`, one per `next`: uniform below a
    finite bound, else rejection-sampled from the range.  A raw draw is
    built and compared with the bound once per stream."""
    n = _finite(bound)
    while n is not None:
        yield Ordinal.from_int(rng.randrange(n))
    below: Dict[Tuple[Tuple[int, int], ...], Optional[Ordinal]] = {}
    while True:
        for _ in range(MAX_TRIES):
            raw = _raw_notation(rng)
            if raw not in below:
                a = Ordinal(tuple((Ordinal.from_int(e), c) for e, c in raw))
                below[raw] = a if compare(a, bound) == LT else None
            if below[raw] is not None:
                yield below[raw]
                break
        else:
            raise ValueError(f"could not sample below {bound}")


def sample_comparable_pairs(bound: Ordinal, count: int,
                            rng: random.Random) -> List[Tuple[Ordinal, Ordinal]]:
    """`count` pairs (a, b) with a < b < bound; NoPairsError if count is
    positive and bound is 0 or 1, which have no such pair."""
    if count > 0 and _finite(bound) in (0, 1):
        raise NoPairsError(f"no pair a < b lies below {format_ordinal(bound)}")
    out: List[Tuple[Ordinal, Ordinal]] = []
    draws = _draws(bound, rng)
    while len(out) < count:
        a, b = next(draws), next(draws)
        c = compare(a, b)
        if c == 0:
            continue
        out.append((a, b) if c == LT else (b, a))
    return out
