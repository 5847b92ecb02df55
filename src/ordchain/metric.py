"""Chains of continuous functions on finite metric spaces, exactly.

Given a finite space with rational distances, a dense enumeration D and a
total order on D, the construction stacks one bump per level: at level n a
greedily built maximal 2^(2-n)-separated net contributes a bump of height
2^(-n) around each center, and a point d collects the bumps of the centers
strictly below it in the order.  The resulting functions live in [0, 2],
increase with the order, and are strictly separated at the lower point of
every ordered pair.

Everything is computed in exact rational arithmetic; for finite spaces the
infinite level sum collapses to a closed form once the separation
threshold drops below the minimum pairwise distance.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple


class MetricAxiomError(ValueError):
    """A distance table violating a metric axiom; names the axiom."""


class LocalityError(AssertionError):
    """Two net centers of one level within bump range of one point: the
    separation invariant was violated upstream."""


class SpaceParseError(ValueError):
    pass


class MetricSpace:
    """Finite point set with exact rational metric and a total order on the
    (dense = full) point set."""

    def __init__(self, n_points: int, dists: Dict[Tuple[int, int], Fraction],
                 order: Sequence[int]):
        self.n = n_points
        self._d = dict(dists)
        self.order = list(order)
        if sorted(self.order) != list(range(self.n)):
            raise SpaceParseError("order must list every point index exactly once")
        self.pos = [0] * self.n
        for p, idx in enumerate(self.order):
            self.pos[idx] = p
        for i, j in self._d:
            if not 0 <= i < j < self.n:
                raise SpaceParseError(f"distance for pair {i} {j}: no such pair of points")
        for i in range(self.n):
            for j in range(i + 1, self.n):
                if (i, j) not in self._d:
                    raise SpaceParseError(f"missing distance for pair {i} {j}")

    @staticmethod
    def from_points_1d(points: Sequence[Fraction],
                       order: Optional[Sequence[int]] = None) -> "MetricSpace":
        n = len(points)
        dists = {(i, j): abs(Fraction(points[i]) - Fraction(points[j]))
                 for i in range(n) for j in range(i + 1, n)}
        return MetricSpace(n, dists, order if order is not None else range(n))

    def dist(self, i: int, j: int) -> Fraction:
        if i == j:
            return Fraction(0)
        if i > j:
            i, j = j, i
        return self._d[(i, j)]

    def precedes(self, d: int, e: int) -> bool:
        return self.pos[d] < self.pos[e]

    def validate(self) -> List[str]:
        """Exhaustive metric-axiom check; returns violation descriptions."""
        bad = []
        for (i, j), v in self._d.items():
            if v < 0:
                bad.append(f"nonnegativity {i} {j}")
            if v == 0:
                bad.append(f"identity {i} {j}")
        for i in range(self.n):
            for j in range(self.n):
                for k in range(self.n):
                    if self.dist(i, j) > self.dist(i, k) + self.dist(k, j):
                        bad.append(f"triangle {i} {j} {k}")
        return bad

    def min_distance(self) -> Optional[Fraction]:
        return min(self._d.values()) if self._d else None


@dataclass
class SeparatedNets:
    """Per level n: a maximal subset of D with pairwise distances >= 2^(2-n),
    built greedily in D-enumeration order."""

    space: MetricSpace
    levels: List[List[int]] = field(default_factory=list)

    def level(self, n: int) -> List[int]:
        while len(self.levels) <= n:
            self.levels.append(self._build_level(len(self.levels)))
        return self.levels[n]

    def _build_level(self, n: int) -> List[int]:
        threshold = Fraction(4, 2 ** n)
        chosen: List[int] = []
        for p in range(self.space.n):
            if all(self.space.dist(p, c) >= threshold for c in chosen):
                chosen.append(p)
        return chosen

    def check_level(self, n: int) -> List[str]:
        """Separation and maximality violations at level n (empty if fine)."""
        threshold = Fraction(4, 2 ** n)
        net = self.level(n)
        bad = []
        for a in range(len(net)):
            for b in range(a + 1, len(net)):
                if self.space.dist(net[a], net[b]) < threshold:
                    bad.append(f"separation {net[a]} {net[b]}")
        for p in range(self.space.n):
            if p not in net and all(self.space.dist(p, c) >= threshold for c in net):
                bad.append(f"maximality {p}")
        return bad


def phi(space: MetricSpace, nets: SeparatedNets, n: int, c: int, x: int) -> Fraction:
    """Bump of height 2^(-n) at center c, clipped at zero."""
    if c not in nets.level(n):
        raise ValueError(f"point {c} is not a level-{n} center")
    return max(Fraction(0), Fraction(1, 2 ** n) - space.dist(x, c))


def _center_in_range(space: MetricSpace, nets: SeparatedNets,
                     n: int, x: int) -> Optional[int]:
    radius = Fraction(1, 2 ** n)
    hits = [c for c in nets.level(n) if space.dist(x, c) < radius]
    if len(hits) > 1:
        raise LocalityError(
            f"level {n}: centers {hits} all within {radius} of point {x}")
    return hits[0] if hits else None


def psi(space: MetricSpace, nets: SeparatedNets, n: int, d: int, x: int) -> Fraction:
    """Level-n bump sum of the centers strictly below d; by separation at
    most one bump is live at x, so the sum has at most one term."""
    c = _center_in_range(space, nets, n, x)
    if c is None or not space.precedes(c, d):
        return Fraction(0)
    return phi(space, nets, n, c, x)


class ContChain:
    """The family {f_d}: f_d is the level sum of psi, monotone in the order
    on D and strict at d for every ordered pair."""

    def __init__(self, space: MetricSpace):
        violations = space.validate()
        if violations:
            raise MetricAxiomError(violations[0])
        self.space = space
        self.nets = SeparatedNets(space)
        self.stable_level = self._stable_level()
        self.nets.level(max(self.stable_level - 1, 0))

    def _stable_level(self) -> int:
        """First level beyond which every net is all of D and the only
        center within bump range of a point is the point itself."""
        delta = self.space.min_distance()
        if delta is None:
            return 0
        n = 0
        while Fraction(4, 2 ** n) > delta:
            n += 1
        return n

    def eval(self, d: int, x: int,
             truncate: Optional[int] = None) -> Tuple[Fraction, Fraction]:
        """(value, tail bound).  Exact mode (truncate=None) sums the
        geometric tail in closed form and has tail bound 0; truncated mode
        stops after `truncate` levels with tail bound 2^(1-N)."""
        if truncate is None:
            head = sum((psi(self.space, self.nets, n, d, x)
                        for n in range(self.stable_level)), Fraction(0))
            if self.space.precedes(x, d):
                head += Fraction(2, 2 ** self.stable_level)
            return head, Fraction(0)
        if truncate < 0:
            raise ValueError("truncation level must be a natural")
        value = sum((psi(self.space, self.nets, n, d, x)
                     for n in range(truncate)), Fraction(0))
        return value, Fraction(2, 2 ** truncate)

    def value_table(self) -> List[List[Fraction]]:
        """table[d][x] = exact f_d(x)."""
        return [[self.eval(d, x)[0] for x in range(self.space.n)]
                for d in range(self.space.n)]


@dataclass
class WitnessReport:
    witnesses: List[Optional[int]]          # per consecutive pair
    fibers: Dict[int, List[int]]            # d -> pair indices witnessed at d
    missing: List[int]                      # pair indices with no witness

    @property
    def ok(self) -> bool:
        return not self.missing


def witness_points(functions: Sequence, sample: Sequence[int]) -> WitnessReport:
    """For each consecutive pair of functions, find a sample point where the
    later one is strictly larger, and group the pairs by witness point.

    `functions` are callables from point index to an exact value.  A pair
    with no witness in the sample is reported, not invented.
    """
    witnesses: List[Optional[int]] = []
    fibers: Dict[int, List[int]] = {}
    missing: List[int] = []
    for a in range(len(functions) - 1):
        found = None
        for p in sample:
            if functions[a](p) < functions[a + 1](p):
                found = p
                break
        witnesses.append(found)
        if found is None:
            missing.append(a)
        else:
            fibers.setdefault(found, []).append(a)
    return WitnessReport(witnesses, fibers, missing)


# ---------------------------------------------------------------------------
# Line-oriented space files:
#   points <k>
#   dist <i> <j> <p>/<q>        (for every i < j)
#   order <i0> <i1> ...

def parse_space(text: str) -> MetricSpace:
    n = None
    dists: Dict[Tuple[int, int], Fraction] = {}
    order = None
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        try:
            if fields[0] == "points":
                n = int(fields[1])
            elif fields[0] == "dist":
                i, j = int(fields[1]), int(fields[2])
                if i == j:
                    raise ValueError("dist lines need two distinct points")
                p, q = fields[3].split("/")
                value = Fraction(int(p), int(q))
                key = (min(i, j), max(i, j))
                if key in dists and dists[key] != value:
                    raise MetricAxiomError(f"symmetry {key[0]} {key[1]}")
                dists[key] = value
            elif fields[0] == "order":
                order = [int(f) for f in fields[1:]]
            else:
                raise ValueError(f"unknown directive {fields[0]!r}")
        except MetricAxiomError:
            raise
        except (IndexError, ValueError, ZeroDivisionError) as exc:
            raise SpaceParseError(f"line {lineno}: {exc}") from exc
    if n is None:
        raise SpaceParseError("missing 'points' header")
    if order is None:
        raise SpaceParseError("missing 'order' line")
    return MetricSpace(n, dists, order)


def load_space(path: str) -> MetricSpace:
    with open(path, encoding="utf-8") as fh:
        return parse_space(fh.read())


def format_eval(d: int, x: int, value: Fraction, tail: Fraction) -> str:
    def frac(v: Fraction) -> str:
        return f"{v.numerator}/{v.denominator}" if v else "0"
    return f"f {d} at {x} = {value.numerator}/{value.denominator} (+/- {frac(tail)})"
