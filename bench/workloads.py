"""Seeded job generation for the three workloads.

A workload is a deck of rounds.  Every round holds the same number of jobs
of each of the workload's classes, in a seeded order, so any run that stops
at a round boundary has the same class mix; the seed varies the parameters
inside a class (pairs, points, addresses).  Class costs were chosen so that the
median and the tail percentile fall inside a class, not on the edge between
two classes, which keeps both figures steady from seed to seed.

Inputs are built here, outside the timed region, without importing the
library: set expressions are written by a mirror of the tree and split
constructions, so the expected `NODE` and `Z` lines are an independent
check of the program's output.
"""

from __future__ import annotations

import itertools
import os
import random
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Iterator, List, Sequence, Tuple

WORKLOADS = ("embed", "cont", "tree")

# Rounds per deck: a pass takes 20-25 s at the seed program's speed, so a
# 30 s run completes at least one even on a slow host and its peak memory
# is that of one pass, whatever the program's speed.  The loop repeats the
# deck; later passes meet warm library caches, as a library session
# re-checking its inputs would.
# A tree deck of 15 rounds visits every address, split interval and
# certificate of its classes a whole number of times, so its jobs are the
# same for every seed and only their order varies.
DECK_ROUNDS = {"embed": 24, "cont": 16, "tree": 15}


@dataclass(frozen=True)
class Job:
    """One CLI invocation with its expected result.

    `lines` are exact lines expected at the head of stdout, `last` is a
    regex the last stdout line must match in full, and `verify` marks a
    `verify` job, which counts as one check.
    """

    argv: Tuple[str, ...]
    rc: int
    last: str
    lines: Tuple[str, ...] = ()
    verify: bool = False


def checked(n: int) -> str:
    """Regex of the report line of n checks that all passed."""
    return re.escape(f"CHECKED {n} FAILED 0")


# ---------------------------------------------------------------------------
# embed: point probes through ordinal embeddings.

LIMIT_ORDINALS = ("w^(w)", "w^(w)+w^(3)", "w^(w^(w))")
CHEAP_ORDINAL = "w^(2)+w*3+5"
LIMIT_PAIRS, LIMIT_DEPTH = 12, 16
CHEAP_PAIRS = 30


def embed_deck(rng: random.Random, workdir: str, rounds: int) -> List[List[Job]]:
    """Per round: 2 cheap embed, 4 cheap baire and 4 limit-power jobs.

    A limit-power pair costs ~20 ms at probe depth 16, with a coefficient
    of variation near 1; a cheap-ordinal job varies little.  The median job
    is a cheap `baire` job and the p90 job a limit-power one.
    """
    del workdir
    deck = []
    for _ in range(rounds):
        jobs = [_pairs_job("embed", CHEAP_ORDINAL, CHEAP_PAIRS, rng) for _ in range(2)]
        jobs += [_pairs_job("baire", CHEAP_ORDINAL, CHEAP_PAIRS, rng) for _ in range(4)]
        jobs += [_pairs_job("embed", o, LIMIT_PAIRS, rng, LIMIT_DEPTH)
                 for o in LIMIT_ORDINALS]
        jobs.append(_pairs_job("baire", LIMIT_ORDINALS[0], LIMIT_PAIRS, rng,
                               LIMIT_DEPTH))
        deck.append(jobs)
    return deck


def _pairs_job(command: str, ordinal: str, pairs: int, rng: random.Random,
               depth: int = 32) -> Job:
    seed = rng.randrange(1 << 30)
    return Job((command, "--ordinal", ordinal, "--pairs", str(pairs),
                "--depth", str(depth), "--seed", str(seed)), 0, checked(pairs))


# ---------------------------------------------------------------------------
# cont: exact metric chains on generated spaces.

CONT_SIZES = {"line_all": 32, "line_eval": 28, "grid_all": 28,
              "grid_eval": 28, "bad": 24}
# Coordinates are integers over this denominator; one pair of points sits
# at the minimum gap 1/DENOM, which fixes the number of net levels.
DENOM = 16


def cont_deck(rng: random.Random, workdir: str, rounds: int) -> List[List[Job]]:
    return [[cont_job(name, n, rng, os.path.join(workdir, f"r{r:03d}-{name}.space"))
             for name, n in CONT_SIZES.items()] for r in range(rounds)]


def cont_job(name: str, n: int, rng: random.Random, path: str) -> Job:
    points = grid_points(n, rng) if name.startswith("grid") else line_points(n, rng)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(space_text(points, rng, break_triangle=name == "bad"))
    if name == "bad":
        return Job(("cont", "--space", path, "--check-all"), 1,
                   r"FAIL triangle \d+ \d+ \d+")
    if name.endswith("_all"):
        return Job(("cont", "--space", path, "--check-all"), 0,
                   checked(n * (n - 1) // 2))
    d, x = rng.randrange(n), rng.randrange(n)
    return Job(("cont", "--space", path, "--eval", f"{d},{x}"), 0,
               rf"f {d} at {x} = \d+/\d+ \(\+/- 0\)")


Point = Tuple[int, ...]


def line_points(n: int, rng: random.Random) -> List[Point]:
    """n distinct points of [0, 4) on the 1/DENOM grid, two of them adjacent."""
    first = rng.randrange(4 * DENOM - 1)
    rest = rng.sample([v for v in range(4 * DENOM) if v not in (first, first + 1)],
                      n - 2)
    return [(v,) for v in [first, first + 1] + rest]


def grid_points(n: int, rng: random.Random) -> List[Point]:
    """n distinct points of [0, 2)^2 on the 1/DENOM grid, two of them
    adjacent; under L1 their nets differ from the line's."""
    side = 2 * DENOM
    cells = [(x, y) for x in range(side) for y in range(side)]
    first = (rng.randrange(side - 1), rng.randrange(side))
    second = (first[0] + 1, first[1])
    rest = rng.sample([c for c in cells if c not in (first, second)], n - 2)
    return [first, second] + rest


def l1(p: Point, q: Point) -> Fraction:
    return Fraction(sum(abs(a - b) for a, b in zip(p, q)), DENOM)


def space_text(points: Sequence[Point], rng: random.Random,
               break_triangle: bool = False) -> str:
    """A space file under the L1 metric with a seeded order.  With
    `break_triangle` one distance is raised above the sum of two others."""
    n = len(points)
    table = {(i, j): l1(points[i], points[j])
             for i in range(n) for j in range(i + 1, n)}
    if break_triangle:
        i, k, j = sorted(rng.sample(range(n), 3))
        table[(i, j)] = table[(i, k)] + table[(k, j)] + 1
    order = list(range(n))
    rng.shuffle(order)
    lines = [f"points {n}"]
    lines += [f"dist {i} {j} {v.numerator}/{v.denominator}"
              for (i, j), v in table.items()]
    lines.append("order " + " ".join(map(str, order)))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# tree: new interned nodes, long expressions, large scans.
#
# A tree job's cost grows about twofold per unit of its address's entry
# sum, and with the upper child index b, while the order of the entries
# matters little.  So each class fixes depth, entry sum and (a, b), and the
# seed orders the compositions of that sum; split intervals and
# certificates are drawn the same way from fixed lists.  The heaviest
# class holds the p90 job and, with its large scans, the peak memory.

TREE_CLASSES = (
    # (depth, entry sum, a, b, jobs per round)
    (2, 3, 1, 2, 2),
    (2, 4, 1, 3, 8),
    (3, 5, 1, 3, 2),
    (3, 6, 1, 3, 6),
)
SPLIT_COUNT = 9
SPLIT_JOBS = 2
SPLIT_STEPS = (3, 5, 7)                   # m in the interval ap(2m,r),ap(m,r)
CERT_STEPS = (1, 2)                       # a in a certificate's lower end


def tree_deck(rng: random.Random, workdir: str, rounds: int) -> List[List[Job]]:
    bags = [(a, b, count, shuffled_cycle(compositions(total, depth), rng))
            for depth, total, a, b, count in TREE_CLASSES]
    certs = shuffled_cycle(compositions(4, 2), rng)
    ok_certs = shuffled_cycle(list(itertools.product(compositions(4, 2), CERT_STEPS)),
                              rng)
    splits = shuffled_cycle([(m, r) for m in SPLIT_STEPS for r in range(2 * m)], rng)
    deck = []
    for r in range(rounds):
        jobs = [tree_job(next(bag), a, b)
                for a, b, count, bag in bags for _ in range(count)]
        for _ in range(SPLIT_JOBS):
            m, start = next(splits)
            jobs.append(split_job(m, start, SPLIT_COUNT))
        for c in range(2):
            address, a = next(ok_certs)
            path = os.path.join(workdir, f"r{r:03d}-ok{c}.cert")
            write_cert(path, tree_node(address + (a,)), tree_node(address + (a + 2,)))
            jobs.append(Job(("verify", "--cert", path), 0, "OK", verify=True))
        # z_3 is not below z_1 + piece 3 of the same split: pieces 1 and 2
        # lie in z_3 only, and the first of them shows below the probe bound.
        chain = Split.of(next(certs))
        path = os.path.join(workdir, f"r{r:03d}-bad.cert")
        write_cert(path, chain.z(3), union(chain.z(1), chain.piece(3)))
        jobs.append(Job(("verify", "--cert", path), 1, r"FAIL element \d+",
                        verify=True))
        deck.append(jobs)
    return deck


def compositions(total: int, parts: int) -> List[Tuple[int, ...]]:
    """Every ordered split of `total` into `parts` entries >= 1."""
    return [tuple(b - a for a, b in zip((0,) + cuts, cuts + (total,)))
            for cuts in itertools.combinations(range(1, total), parts - 1)]


def shuffled_cycle(items: Sequence, rng: random.Random) -> Iterator:
    """The items in seeded order, reshuffled after each pass, so a deck
    visits every item of a class about equally often."""
    items = list(items)
    while True:
        rng.shuffle(items)
        yield from items


def tree_job(address: Tuple[int, ...], a: int, b: int) -> Job:
    text = ",".join(map(str, address))
    return Job(("tree", "--address", text, "--a", str(a), "--b", str(b)), 0,
               checked(4), lines=(f"NODE {tree_node(address)}", "EXTEND0 OK"))


def split_job(m: int, r: int, count: int) -> Job:
    """Split of the interval (ap(2m, r), ap(m, r))."""
    lower, upper = ap(2 * m, r), ap(m, r)
    chain = Split(lower, upper, diff(upper, lower))
    lines = tuple(f"Z {k} {chain.z(k)}" for k in range(1, count + 1))
    return Job(("split", "--interval", f"{lower},{upper}", "--count", str(count)),
               0, checked(count + 1), lines=lines)


def write_cert(path: str, lower: str, upper: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"cert{{m=0, lower={lower}, upper={upper}}}\n")


# Mirror of the set constructors and of the split / tree constructions,
# producing the canonical expression strings.

def rows(k: int) -> str:
    return "empty" if k == 0 else f"rows({k})"


def ap(a: int, b: int) -> str:
    return f"ap({a},{b})"


def union(x: str, y: str) -> str:
    return f"union({x},{y})"


def inter(x: str, y: str) -> str:
    return f"inter({x},{y})"


def diff(x: str, y: str) -> str:
    return f"diff({x},{y})"


def piece(x: str, i: int) -> str:
    return f"piece({x},{i})"


class Split:
    """z_0 = x ∩ y, z_{k+1} = z_k ∪ piece(source, k)."""

    _memo: Dict[Tuple[int, ...], "Split"] = {}

    def __init__(self, x: str, y: str, source: str):
        self.x, self.source = x, source
        self._z = [inter(x, y)]

    def piece(self, k: int) -> str:
        return piece(self.source, k)

    def z(self, k: int) -> str:
        while len(self._z) <= k:
            j = len(self._z) - 1
            self._z.append(union(self._z[j], self.piece(j)))
        return self._z[k]

    @classmethod
    def of(cls, address: Tuple[int, ...]) -> "Split":
        """Split of the tree interval (x_s, x_{s+})."""
        chain = cls._memo.get(address)
        if chain is None:
            if len(address) == 1:
                i = address[0]
                chain = cls(rows(i), rows(i + 1), diff(rows(i + 1), rows(i)))
            else:
                parent, a = cls.of(address[:-1]), address[-1]
                if a == 0:
                    chain = cls(parent.x, parent.z(1), parent.piece(0))
                else:
                    chain = cls(parent.z(a), parent.z(a + 1), parent.piece(a))
            cls._memo[address] = chain
        return chain


def tree_node(address: Tuple[int, ...]) -> str:
    while len(address) > 1 and address[-1] == 0:
        address = address[:-1]
    if len(address) == 1:
        return rows(address[0])
    return Split.of(address[:-1]).z(address[-1])


# ---------------------------------------------------------------------------

DECK_BUILDERS = {"embed": embed_deck, "cont": cont_deck, "tree": tree_deck}


def build_deck(workload: str, seed: int, workdir: str,
               rounds: int = 0) -> List[List[Job]]:
    """The seeded deck of `rounds` rounds (default DECK_ROUNDS), each
    round shuffled; input files are written under `workdir`."""
    os.makedirs(workdir, exist_ok=True)
    rng = random.Random(f"{workload}:{seed}")
    deck = DECK_BUILDERS[workload](rng, workdir, rounds or DECK_ROUNDS[workload])
    for jobs in deck:
        rng.shuffle(jobs)
    return deck


def parse_checked(stdout: str) -> int:
    """Sum of n over the `CHECKED n FAILED m` lines."""
    return sum(map(int, re.findall(r"^CHECKED (\d+) FAILED \d+$", stdout,
                                   re.MULTILINE)))
