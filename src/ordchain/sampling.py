"""Deterministic random sampling of ordinal notations.

Draws come from `random_notation`'s fixed range: below w^5, with
coefficients at most 2 and a trailing natural at most 3.  Probing no longer
needs the range, as the certificates of larger notations are proved from
their structure and not probed.  Drawing from the whole bound is an open
item in ROADMAP.md, "Sample pairs from the whole bound".
"""

from __future__ import annotations

import random
from typing import List, Optional, Tuple

from .ordinal import LT, Ordinal, compare, format_ordinal

MAX_EXPONENT = 4
MAX_COEFF = 2
MAX_TERMS = 2
MAX_TRAILING_NAT = 3
MAX_TRIES = 10000


def random_notation(rng: random.Random, max_exponent: int = MAX_EXPONENT,
                    max_coeff: int = MAX_COEFF, max_terms: int = MAX_TERMS,
                    max_nat: int = MAX_TRAILING_NAT) -> Ordinal:
    """A random notation below w^(max_exponent + 1)."""
    n_terms = rng.randint(1, min(max_terms, max_exponent + 1))
    exponents = sorted(rng.sample(range(max_exponent + 1), n_terms), reverse=True)
    terms = []
    for e in exponents:
        cap = max_nat if e == 0 else max_coeff
        terms.append((Ordinal.from_int(e), rng.randint(1, cap)))
    return Ordinal(terms)


class NoPairsError(ValueError):
    """Below the bound there is no pair a < b to sample."""


def _finite(a: Ordinal) -> Optional[int]:
    """The natural number `a` is, or None if it is infinite."""
    if a.is_zero():
        return 0
    e, c = a.terms[0]
    return c if e.is_zero() else None


def sample_below(bound: Ordinal, rng: random.Random) -> Ordinal:
    """A notation strictly below `bound`: uniform below a finite bound,
    else rejection-sampled from `random_notation`."""
    n = _finite(bound)
    if n is not None:
        return Ordinal.from_int(rng.randrange(n))
    for _ in range(MAX_TRIES):
        candidate = random_notation(rng)
        if compare(candidate, bound) == LT:
            return candidate
    raise ValueError(f"could not sample below {bound}")


def sample_comparable_pairs(bound: Ordinal, count: int,
                            rng: random.Random) -> List[Tuple[Ordinal, Ordinal]]:
    """`count` pairs (a, b) with a < b < bound; NoPairsError if count is
    positive and bound is 0 or 1, which have no such pair."""
    if count > 0 and _finite(bound) in (0, 1):
        raise NoPairsError(f"no pair a < b lies below {format_ordinal(bound)}")
    out: List[Tuple[Ordinal, Ordinal]] = []
    while len(out) < count:
        a = sample_below(bound, rng)
        b = sample_below(bound, rng)
        c = compare(a, b)
        if c == 0:
            continue
        out.append((a, b) if c == LT else (b, a))
    return out
