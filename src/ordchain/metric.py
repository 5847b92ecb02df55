"""Chains of continuous functions on finite metric spaces, exactly.

Given a finite space with rational distances, a dense enumeration D and a
total order on D, the construction stacks one bump per level: at level n a
greedily built maximal 2^(2-n)-separated net contributes a bump of height
2^(-n) around each center, and a point d collects the bumps of the centers
strictly below it in the order.  The resulting functions live in [0, 2],
increase with the order, and are strictly separated at the lower point of
every ordered pair.  `separated_net` builds one level's net;
`ContChain` builds each level's net below the stable level once, when
its values are first asked for, and keeps the per-level bump terms, not
the nets.

Arithmetic is exact and runs on integers over one common denominator.  The
parser reads each distance as a (numerator, denominator) pair of ints, and a
space keeps one n x n numpy matrix: every distance times L, the least common
multiple of the denominators.  The metric check, the nets, the bump sums and
the value table compare and add those integers; a value of f_d is a
numerator over L * 2^S, S the stable level, beyond which the infinite level
sum collapses to a closed form.  The space computes S once, when it is
built, from its least distance.  The matrix is int64 when every integer
computed from it fits, that is when twice the largest |L * d| and
L * 2^(S+2) are both below 2^63, and Python ints (dtype object) otherwise;
the code and the answers are the same either way.  Values leave the matrix
as Python ints, and `Fraction` appears only in `dist`, `ContChain.eval`,
`ContChain.value_table` and error texts.

`parse_space` first tests a file against the plain form: the `points`
line, the `dist` lines and the `order` line in that order, single spaces,
`\\n` line ends and ASCII numerals of at most 18 digits.  A plain file's
numbers become int64 columns in one conversion per slice of about
_SLICE_CHARS characters, and its range, completeness, i != j, q != 0 and
repeated-pair checks run on those columns.  Any other file, and a plain
one that a check refuses, goes to the line loop `_read_lines`, which reads
every form the format allows, is the reference for the plain reader, and is
the only code that names a fault; so every message is the line loop's.

`ContChain.verdicts` decides every pair of the order at once.  Pointwise
<= is transitive, so when every consecutive pair of the order is
monotone, every pair is: that costs O(n^2), and rows are compared pair by
pair only when a consecutive pair fails.  Strictness is one comparison of
the table, rows and columns taken in the order, with its diagonal.
`validate` takes the rows i of its triangle check in blocks of about
_BLOCK_BYTES bytes, and sums in int32 when twice every distance fits.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from functools import cached_property
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np


class MetricAxiomError(ValueError):
    """A distance table violating a metric axiom; names the axiom."""


class LocalityError(AssertionError):
    """Two net centers of one level within bump range of one point: the
    separation invariant was violated upstream."""


class SpaceParseError(ValueError):
    pass


# validate takes as many rows i at a time as keep its [i, j, k] block of
# sums within this many bytes
_BLOCK_BYTES = 1 << 18


class MetricSpace:
    """Finite point set with exact rational metric and a total order on the
    (dense = full) point set.  `dists[(i, j)]`, for every i < j, is the
    distance as an int pair (p, q), q nonzero of either sign and p/q not
    necessarily reduced.  `scale` is L, the least common multiple of the
    q's, and `_m[i, j]` is L * d(i, j): int64 when 2 * max |L * d| and
    L * 2^(S+2) are below 2^63, else Python ints.  `stable_level` is S,
    the first level n with least positive distance * 2^n >= 4, or 0 if
    no distance is positive."""

    def __init__(self, n_points: int, dists: Dict[Tuple[int, int], Tuple[int, int]],
                 order: Sequence[int]):
        self._set_order(n_points, order)
        for i, j in dists:
            if not 0 <= i < j < self.n:
                raise SpaceParseError(f"distance for pair {i} {j}: no such pair of points")
        if len(dists) != self.n * (self.n - 1) // 2:
            # the pairs are in range and distinct, so one is missing
            i, j = next((i, j) for i in range(self.n) for j in range(i + 1, self.n)
                        if (i, j) not in dists)
            raise SpaceParseError(f"missing distance for pair {i} {j}")
        rows, cols = np.array(list(dists), dtype=np.intp).reshape(-1, 2).T
        p, q = np.array(list(dists.values()), dtype=object).reshape(-1, 2).T
        self._set_distances(rows, cols, p, q)

    @classmethod
    def _from_columns(cls, n_points: int, order: Sequence[int], rows: np.ndarray,
                      cols: np.ndarray, p: np.ndarray, q: np.ndarray) -> "MetricSpace":
        """The space whose k-th pair is (rows[k], cols[k]) at distance
        p[k] / q[k], from columns that hold every pair 0 <= i < j < n once
        and no zero q."""
        space = cls.__new__(cls)
        space._set_order(n_points, order)
        space._set_distances(rows, cols, p, q)
        return space

    def _set_order(self, n_points: int, order: Sequence[int]) -> None:
        if n_points < 0:
            raise SpaceParseError(f"point count must be >= 0, not {n_points}")
        self.n = n_points
        self.order = list(order)
        if len(self.order) != self.n or sorted(self.order) != list(range(self.n)):
            raise SpaceParseError("order must list every point index exactly once")
        self.pos = [0] * self.n
        for p, idx in enumerate(self.order):
            self.pos[idx] = p

    def _set_distances(self, rows: np.ndarray, cols: np.ndarray, p: np.ndarray,
                       q: np.ndarray) -> None:
        """Scale the pairs' distances p / q to integers over L and fill the
        matrix.  The columns are int64 or Python ints; the products are
        taken in int64 when every one fits, else in Python ints."""
        distinct, inverse = np.unique(q, return_inverse=True)
        self.scale = math.lcm(*distinct.tolist())
        # L // q is exact for either sign of q
        factors = [self.scale // u for u in distinct.tolist()]
        widest = max(map(abs, factors), default=0) * int(abs(p).max(initial=0))
        wide = np.int64 if widest < 2 ** 62 else object
        values = p.astype(wide, copy=False) * np.array(factors, dtype=wide)[inverse]
        positive = values[values > 0]
        least = int(positive.min()) if positive.size else 4 * self.scale
        self.stable_level = 0
        while least << self.stable_level < 4 * self.scale:
            self.stable_level += 1
        # every integer the metric layer computes fits in int64: a sum of
        # two distances (the triangle check) and L * 2^(S+2), which bounds
        # every net threshold, bump term and value-table entry
        fits = (2 * int(abs(values).max(initial=0)) < 2 ** 63
                and self.scale << (self.stable_level + 2) < 2 ** 63)
        # pair indices in the order given, for validate
        self._rows, self._cols = rows, cols
        self._m = np.zeros((self.n, self.n), dtype=np.int64 if fits else object)
        self._m[self._rows, self._cols] = self._m[self._cols, self._rows] = values

    def _check_points(self, i: int, j: int) -> None:
        """Refuse an index that names no point of the space, which a list or
        numpy index would wrap (a negative one) or refuse without naming."""
        if not 0 <= i < self.n > j >= 0:        # both in [0, n)
            bad = j if 0 <= i < self.n else i
            raise ValueError(f"point {bad} is not below {self.n}")

    def dist(self, i: int, j: int) -> Fraction:
        self._check_points(i, j)
        return Fraction(int(self._m[i, j]), self.scale)

    def precedes(self, d: int, e: int) -> bool:
        self._check_points(d, e)
        return self.pos[d] < self.pos[e]

    def validate(self) -> Iterator[str]:
        """Exhaustive metric-axiom check, yielding violation descriptions as
        it finds them: the sign ones, then the triangle ones in (i, j, k)
        order, a block of i at a time, so a caller that stops at the first
        pays for no others."""
        m = self._m
        values = m[self._rows, self._cols]
        for k in np.flatnonzero(values <= 0):
            yield (f"{'nonnegativity' if values[k] < 0 else 'identity'} "
                   f"{self._rows[k]} {self._cols[k]}")
        if (m.dtype == np.int64
                and 2 * max(int(m.max(initial=0)), -int(m.min(initial=0))) < 2 ** 31):
            m = m.astype(np.int32)      # the same sums, with half the bytes to move
        step = max(1, _BLOCK_BYTES // (m.itemsize * self.n * self.n or 1))
        faulty = False
        for start in range(0, self.n, step):
            block = m[start:start + step]
            # entry [i, j - low, k]: d(i, j) > d(i, k) + d(k, j), as m is
            # symmetric.  Until a fault turns up, j below the block is left
            # out: the rule is symmetric in i and j, and the mirror (j, i, k)
            # of such a fault lies in an earlier row, which showed none.
            low = 0 if faulty else start
            broken = block[:, low:, None] > block[:, None, :] + m[low:]
            if low and broken.any():
                low, broken = 0, block[:, :, None] > block[:, None, :] + m
            if broken.any():
                faulty = True
                yield from (f"triangle {start + i} {low + j} {k}"
                            for i, j, k in np.argwhere(broken))

    def _closer_than(self, k: int, n: int, cols=slice(None)) -> np.ndarray:
        """Boolean matrix of d(x, c) < k * 2^(-n), for every point x and
        the columns `cols`: L * d < ceil(k * L / 2^n) on integers."""
        return self._m[:, cols] < -(-k * self.scale >> n)


def separated_net(space: MetricSpace, n: int) -> List[int]:
    """A maximal subset of D with pairwise distances >= 2^(2-n), built
    greedily in D-enumeration order."""
    near = space._closer_than(4, n)
    blocked = np.zeros(space.n, dtype=bool)
    chosen: List[int] = []
    for p in range(space.n):
        if not blocked[p]:
            chosen.append(p)
            blocked |= near[p]
    return chosen


class ContChain:
    """The family {f_d}: f_d(x) sums, per level, the bump of x's one center
    in range if that center precedes d; monotone in the order on D and
    strict at d for every ordered pair."""

    def __init__(self, space: MetricSpace):
        violation = next(space.validate(), None)
        if violation is not None:
            raise MetricAxiomError(violation)
        self.space = space
        # the first level beyond which every net is all of D and the only
        # center within bump range of a point is the point itself
        self.stable_level = space.stable_level

    @cached_property
    def _terms(self) -> List[Tuple[np.ndarray, np.ndarray]]:
        """Per level n below the stable level, per point x: the order
        position of x's center in range (n_points if none) and the level-n
        term at x as a numerator over L * 2^S, due to every d after that
        center.  Raises LocalityError at the first point with two centers."""
        space, top = self.space, self.stable_level
        pos = np.array(space.pos)
        terms = []
        for n in range(top):
            net = separated_net(space, n)
            hits = space._closer_than(1, n, net)    # [x, c]: c within 2^(-n) of x
            count = hits.sum(axis=1)
            faults = np.flatnonzero(count > 1)
            if faults.size:
                x = int(faults[0])
                near = [c for c, hit in zip(net, hits[x]) if hit]
                raise LocalityError(f"level {n}: centers {near} all within "
                                    f"{Fraction(1, 2 ** n)} of point {x}")
            has = count == 1
            centers = np.asarray(net)[hits.argmax(axis=1)]
            term = np.zeros(space.n, dtype=space._m.dtype)
            term[has] = ((space.scale << (top - n))
                         - (space._m[has, centers[has]] << top))
            terms.append((np.where(has, pos[centers], space.n), term))
        return terms

    @cached_property
    def _table(self) -> np.ndarray:
        """table[d, x] = f_d(x) as a numerator over L * 2^S."""
        pos = np.array(self.space.pos)
        before = pos[None, :] < pos[:, None]            # [d, x]: x precedes d
        table = before.astype(self.space._m.dtype) * (2 * self.space.scale)
        for center_pos, term in self._terms:
            table += (center_pos[None, :] < pos[:, None]) * term
        return table

    def eval(self, d: int, x: int,
             truncate: Optional[int] = None) -> Tuple[Fraction, Fraction]:
        """(value, tail bound).  Exact mode (truncate=None) sums the
        geometric tail in closed form and has tail bound 0; truncated mode
        stops after `truncate` levels with tail bound 2^(1-N).  Levels from
        the stable level S on are summed in closed form in both modes: each
        contributes 2^(-n) if x precedes d, else 0."""
        if truncate is not None and truncate < 0:
            raise ValueError("truncation level must be a natural")
        self.space._check_points(d, x)
        top, scale = self.stable_level, self.space.scale
        pos = self.space.pos
        d_pos = pos[d]
        before = pos[x] < d_pos                 # x precedes d
        head = int(sum(term[x] for center_pos, term in self._terms[:truncate]
                       if center_pos[x] < d_pos))
        if truncate is None:
            return Fraction(head + (2 * scale if before else 0), scale << top), Fraction(0)
        value = Fraction(head, scale << top)
        if before and truncate > top:
            value += Fraction(2 ** (truncate - top) - 1, 2 ** (truncate - 1))
        return value, Fraction(2, 2 ** truncate)

    def value_table(self) -> List[List[Fraction]]:
        """table[d][x] = exact f_d(x)."""
        den = self.space.scale << self.stable_level
        return [[Fraction(v, den) for v in row] for row in self._table.tolist()]

    def pair_failure(self, d: int, e: int) -> Optional[str]:
        """Why f_d <= f_e, strict at d, fails, or None."""
        self.space._check_points(d, e)
        table = self._table
        if (table[d] > table[e]).any():
            return "monotonicity"
        if not table[d, d] < table[e, d]:
            return "strictness"
        return None

    def verdicts(self) -> Iterator[Tuple[int, int, Optional[str]]]:
        """(d, e, pair_failure(d, e)) for every pair d before e in the
        order, by the positions of d and then of e, all decided at once.
        Pointwise <= is transitive, so when f_d <= f_e holds for every
        consecutive pair of the order it holds for every pair, which costs
        O(n^2); only when a consecutive pair fails are rows compared pair
        by pair.  Strictness compares each column of the table, taken in
        the order, with its diagonal entry."""
        order = self.space.order
        rows = self._table[order]                   # rows[a] = f_{order[a]}
        at = rows[:, order]                         # [b, a]: f_{order[b]}(order[a])
        # codes[a, b] for a < b: 0 ok, 1 monotonicity, 2 strictness
        codes = np.where(at.T > at.diagonal()[:, None], np.int8(0), np.int8(2))
        if not (rows[:-1] <= rows[1:]).all():
            for a in range(len(order)):
                codes[a, a + 1:][(rows[a] > rows[a + 1:]).any(axis=1)] = 1
        reasons = (None, "monotonicity", "strictness")
        for a, d in enumerate(order):
            for e, code in zip(order[a + 1:], codes[a, a + 1:].tolist()):
                yield d, e, reasons[code]


# ---------------------------------------------------------------------------
# Line-oriented space files, where blank lines and lines starting with #
# are skipped:
#   points <k>
#   dist <i> <j> <p>/<q>        (for every i < j)
#   order <i0> <i1> ...
#
# The plain form: the points line, then the dist lines, then the order
# line, fields one space apart, every line ended by \n (the last may not
# be), and every number an ASCII numeral of at most 18 digits, so that it
# fits in int64.
_PLAIN_POINTS = re.compile(r"points ([0-9]{1,18})\n")
_PLAIN_DISTS = re.compile(
    r"(?:dist [0-9]{1,18} [0-9]{1,18} -?[0-9]{1,18}/-?[0-9]{1,18}\n)*")
_PLAIN_ORDER = re.compile(r"order((?: [0-9]{1,18})*)\n?")
# The plain dist lines are converted about this many characters at a time,
# so the reader's memory past the text and its columns does not grow with
# the file.
_SLICE_CHARS = 1 << 20


def parse_space(text: str) -> MetricSpace:
    """The space a file describes.  A plain text is read in bulk; any other
    text, and a plain one that breaks a rule, goes to the line loop, which
    names the first fault."""
    space = _read_plain(text)
    return space if space is not None else _read_lines(text)


def _read_plain(text: str) -> Optional[MetricSpace]:
    """The space of a plain text that gives every pair of points once, with
    no zero denominator and an order of every point, read as int64
    columns; None for any other text."""
    points = _PLAIN_POINTS.match(text)
    last = text.rfind("\n", 0, len(text) - 1) + 1     # the last line's start
    order = _PLAIN_ORDER.fullmatch(text, last)
    if points is None or order is None:
        return None
    n = int(points.group(1))
    pairs = n * (n - 1) // 2
    if text.count("\n", points.end(), last) != pairs:
        return None
    columns = np.empty((pairs, 4), dtype=np.int64)     # i, j, p, q per line
    row, start = 0, points.end()
    while start < last:
        end = text.find("\n", min(start + _SLICE_CHARS, last) - 1) + 1
        if not _PLAIN_DISTS.fullmatch(text, start, end):
            return None
        piece = text[start:end].replace("dist ", "").replace("/", " ")
        values = np.fromstring(piece, dtype=np.int64, sep=" ").reshape(-1, 4)
        columns[row:row + len(values)] = values
        row, start = row + len(values), end
    i, j, p, q = columns.T
    rows, cols = np.minimum(i, j), np.maximum(i, j)
    if ((i == j) | (q == 0) | (cols >= n)).any():
        return None
    seen = np.zeros(n * n, dtype=bool)
    seen[rows * n + cols] = True
    order = [int(f) for f in order.group(1).split()]
    if np.count_nonzero(seen) != pairs or sorted(order) != list(range(n)):
        return None
    return MetricSpace._from_columns(n, order, rows, cols, p, q)


def _read_lines(text: str) -> MetricSpace:
    """The space a text describes, read line by line: the reference reader,
    and the one that names a fault."""
    n = None
    dists: Dict[Tuple[int, int], Tuple[int, int]] = {}
    order = None
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        try:
            if (fields[0] == "points" and n is not None
                    or fields[0] == "order" and order is not None):
                raise ValueError(f"repeated {fields[0]!r} line")
            if fields[0] == "points":
                _, n = fields
                n = int(n)
            elif fields[0] == "dist":
                _, i, j, d = fields
                i, j = int(i), int(j)
                if i == j:
                    raise ValueError("dist lines need two distinct points")
                p, q = d.split("/")
                p, q = int(p), int(q)
                if q == 0:
                    raise ValueError(f"distance {d} has denominator 0")
                key = (i, j) if i < j else (j, i)
                p0, q0 = dists.setdefault(key, (p, q))
                if p * q0 != p0 * q:
                    raise MetricAxiomError(f"symmetry {key[0]} {key[1]}")
            elif fields[0] == "order":
                order = [int(f) for f in fields[1:]]
            else:
                raise ValueError(f"unknown directive {fields[0]!r}")
        except MetricAxiomError:
            raise
        except ValueError as exc:
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
