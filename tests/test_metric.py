"""Continuous-function chains on finite metric spaces: nets, bumps, exact
evaluation, witnesses, and the space-file format."""

import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence

import pytest

from ordchain.metric import (ContChain, LocalityError, MetricAxiomError,
                             MetricSpace, SeparatedNets, SpaceParseError,
                             format_eval, parse_space)

F = Fraction


def as_pairs(dists):
    """A table of Fraction distances as the (numerator, denominator) pairs
    that MetricSpace takes."""
    return {key: (v.numerator, v.denominator) for key, v in dists.items()}


def points_1d(points, order=None):
    """The space of rational points on a line, ordered by `order` (by index
    if None)."""
    n = len(points)
    dists = {(i, j): abs(F(points[i]) - F(points[j]))
             for i in range(n) for j in range(i + 1, n)}
    return MetricSpace(n, as_pairs(dists), order if order is not None else range(n))


def level_term(chain, n, d, x):
    """The level-n term of f_d(x): two truncated sums apart."""
    return chain.eval(d, x, truncate=n + 1)[0] - chain.eval(d, x, truncate=n)[0]


def two_point_space():
    # points a=0, b=1 at distance 1, order a before b
    return points_1d([F(0), F(1)])


def random_space(rng, n, order_shuffle=True):
    den = rng.choice([1, 2, 4, 8])
    points = [F(p, den) for p in rng.sample(range(0, 40 * n), n)]
    order = list(range(n))
    if order_shuffle:
        rng.shuffle(order)
    return points_1d(points, order)


# ---------------------------------------------------------------------------
# Reference implementations: the exact-Fraction loops that the integer
# kernel replaced, kept as oracles.  They see only the distance table.

class Reference:
    def __init__(self, n, dists, order):
        self.n, self.dists = n, dists
        self.pos = {p: k for k, p in enumerate(order)}
        self.nets = {}

    @classmethod
    def parse(cls, text):
        """The space a file describes, read through Fraction: the pairs in
        the order first given, MetricAxiomError on a pair repeated with
        another value."""
        n, dists, order = None, {}, None
        for line in text.splitlines():
            word, *rest = line.split()
            if word == "points":
                n = int(rest[0])
            elif word == "dist":
                i, j = sorted(map(int, rest[:2]))
                value = F(*map(int, rest[2].split("/")))
                if dists.setdefault((i, j), value) != value:
                    raise MetricAxiomError(f"symmetry {i} {j}")
            else:
                order = [int(f) for f in rest]
        return cls(n, dists, order)

    def dist(self, i, j):
        return F(0) if i == j else self.dists[(min(i, j), max(i, j))]

    def validate(self):
        bad = []
        for (i, j), v in self.dists.items():
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

    def net(self, level):
        if level not in self.nets:
            threshold = F(4, 2 ** level)
            chosen = []
            for p in range(self.n):
                if all(self.dist(p, c) >= threshold for c in chosen):
                    chosen.append(p)
            self.nets[level] = chosen
        return self.nets[level]

    def stable_level(self):
        if not self.dists:
            return 0
        delta, level = min(self.dists.values()), 0
        while F(4, 2 ** level) > delta:
            level += 1
        return level

    def psi(self, level, d, x):
        radius = F(1, 2 ** level)
        hits = [c for c in self.net(level) if self.dist(x, c) < radius]
        if len(hits) > 1:
            raise LocalityError(
                f"level {level}: centers {hits} all within {radius} of point {x}")
        if not hits or not self.pos[hits[0]] < self.pos[d]:
            return F(0)
        return max(F(0), radius - self.dist(x, hits[0]))

    def eval(self, d, x, truncate=None):
        """(value, tail bound) by the per-level psi sum; exact mode adds the
        closed-form tail from the stable level on."""
        top = self.stable_level() if truncate is None else truncate
        value = sum((self.psi(level, d, x) for level in range(top)), F(0))
        if truncate is not None:
            return value, F(2, 2 ** truncate)
        if self.pos[x] < self.pos[d]:
            value += F(2, 2 ** top)
        return value, F(0)


def space_inputs(rng, n, dims=1, dens=(1, 2, 4, 8)):
    """(n, dists, order): n distinct random points of [0, n)^dims under
    the L1 metric, each coordinate over a denominator drawn from `dens`."""
    points = set()
    while len(points) < n:
        points.add(tuple(F(rng.randrange(n * den), den)
                         for den in (rng.choice(dens) for _ in range(dims))))
    points = list(points)
    dists = {(i, j): sum(abs(a - b) for a, b in zip(points[i], points[j]))
             for i in range(n) for j in range(i + 1, n)}
    order = list(range(n))
    rng.shuffle(order)
    return n, dists, order


# ---------------------------------------------------------------------------
# Metric space basics.

def test_validate_accepts_good_space():
    assert two_point_space().validate() == []


def test_validate_names_violated_axiom():
    bad = MetricSpace(2, {(0, 1): (0, 1)}, [0, 1])
    assert "identity 0 1" in bad.validate()
    bad = MetricSpace(2, {(0, 1): (-1, 1)}, [0, 1])
    assert "nonnegativity 0 1" in bad.validate()
    bad = MetricSpace(3, {(0, 1): (5, 1), (0, 2): (1, 1), (1, 2): (1, 1)}, [0, 1, 2])
    assert any(v.startswith("triangle") for v in bad.validate())


def test_missing_distance_rejected():
    with pytest.raises(SpaceParseError):
        MetricSpace(3, {(0, 1): (1, 1)}, [0, 1, 2])


def test_order_must_be_permutation():
    with pytest.raises(SpaceParseError):
        MetricSpace(2, {(0, 1): (1, 1)}, [0, 0])


def test_dist_and_precedes():
    ms = points_1d([F(0), F(3), F(5)], order=[2, 0, 1])
    assert ms.dist(1, 2) == F(2) == ms.dist(2, 1)
    assert ms.dist(1, 1) == 0
    assert ms.precedes(2, 0) and not ms.precedes(1, 0)


def test_unreduced_pairs_of_either_sign():
    ms = MetricSpace(3, {(0, 1): (-2, -4), (1, 2): (3, -6), (0, 2): (5, 3)},
                     [0, 1, 2])
    assert ms.dist(1, 0) == F(1, 2) and ms.dist(2, 1) == F(-1, 2)
    assert ms.dist(0, 2) == F(5, 3)
    assert ms.validate()[0] == "nonnegativity 1 2"


# ---------------------------------------------------------------------------
# Separated nets.

def test_two_point_net_levels():
    # thresholds 4, 2, 1, 1/2 against distance 1
    nets = SeparatedNets(two_point_space())
    assert nets.level(0) == [0]
    assert nets.level(1) == [0]
    assert nets.level(2) == [0, 1]
    assert nets.level(3) == [0, 1]


def test_singleton_net():
    nets = SeparatedNets(points_1d([F(7)]))
    for n in range(3):
        assert nets.level(n) == [0]


def test_net_saturates_below_min_distance():
    ms = points_1d([F(0), F(1, 2), F(2)])
    nets = SeparatedNets(ms)
    # 2^{2-n} <= 1/2 from n = 3 on
    assert nets.level(3) == [0, 1, 2]
    assert nets.level(5) == [0, 1, 2]


def test_net_invariants_random():
    rng = random.Random(17)
    for _ in range(10):
        ms = random_space(rng, rng.randint(2, 12))
        nets = SeparatedNets(ms)
        top = ContChain(ms).stable_level
        for n in range(top + 2):
            assert nets.check_level(n) == []


def test_check_level_catches_violations():
    ms = two_point_space()
    nets = SeparatedNets(ms, levels=[[0, 1]])     # dist 1 < threshold 4
    assert "separation 0 1" in nets.check_level(0)
    nets = SeparatedNets(ms, levels=[[], [], [0]])
    assert "maximality 1" in nets.check_level(2)


def test_build_nets_rejects_bad_metric():
    # ContChain validates the metric before it builds any net
    bad = MetricSpace(3, {(0, 1): (5, 1), (0, 2): (1, 1), (1, 2): (1, 1)}, [0, 1, 2])
    with pytest.raises(MetricAxiomError) as err:
        ContChain(bad)
    assert "triangle" in str(err.value)


# ---------------------------------------------------------------------------
# Bumps: the level-n term of f_d(x) is the bump of x's level-n center, if
# it precedes d, read off two truncated sums.

def test_phi_values():
    chain = ContChain(two_point_space())
    assert level_term(chain, 0, 1, 0) == 1        # center 0 at dist 0, level 0
    assert level_term(chain, 0, 1, 1) == 0        # dist 1 >= 2^0: no center
    chain3 = ContChain(points_1d([F(0), F(1, 8), F(10)]))
    assert 0 in chain3.nets.level(2) and 1 not in chain3.nets.level(2)
    assert level_term(chain3, 2, 2, 1) == F(1, 8)  # 1/4 - 1/8


def test_psi_strictness_identity():
    # d in D_n and d before e gives psi_d(d) = 0 < 2^-n = psi_e(d)
    ms = two_point_space()
    chain, ref = ContChain(ms), Reference(2, {(0, 1): F(1)}, [0, 1])
    for n in range(2, 4):
        assert 0 in chain.nets.level(n)
        assert level_term(chain, n, 0, 0) == ref.psi(n, 0, 0) == 0
        assert level_term(chain, n, 1, 0) == ref.psi(n, 1, 0) == F(1, 2 ** n)


def test_psi_no_center_in_range():
    chain = ContChain(points_1d([F(0), F(10)]))
    assert level_term(chain, 0, 1, 1) == 0        # only center 0, too far


def test_psi_range_bound():
    rng = random.Random(19)
    ms = random_space(rng, 8)
    chain = ContChain(ms)
    for n in range(chain.stable_level + 1):
        for d in range(ms.n):
            for x in range(ms.n):
                v = level_term(chain, n, d, x)
                assert 0 <= v <= F(1, 2 ** n)


# ---------------------------------------------------------------------------
# Exact evaluation.

def test_two_point_closed_forms():
    chain = ContChain(two_point_space())
    assert chain.eval(0, 0) == (F(0), F(0))       # f_a is identically 0
    assert chain.eval(0, 1) == (F(0), F(0))
    assert chain.eval(1, 0) == (F(2), F(0))       # attains the range bound
    assert chain.eval(1, 1) == (F(0), F(0))


def test_values_stay_in_range():
    rng = random.Random(23)
    for _ in range(5):
        ms = random_space(rng, rng.randint(1, 10))
        table = ContChain(ms).value_table()
        for row in table:
            for v in row:
                assert 0 <= v <= 2


def test_truncation_soundness():
    rng = random.Random(29)
    ms = random_space(rng, 7)
    chain = ContChain(ms)
    for N in range(0, chain.stable_level + 3):
        for d in range(ms.n):
            for x in range(ms.n):
                exact, tail0 = chain.eval(d, x)
                approx, tail = chain.eval(d, x, truncate=N)
                assert tail0 == 0 and tail == F(2, 2 ** N)
                assert 0 <= exact - approx <= tail


def test_truncate_rejects_negative():
    chain = ContChain(two_point_space())
    with pytest.raises(ValueError):
        chain.eval(0, 0, truncate=-1)


def test_monotone_and_strict():
    rng = random.Random(31)
    ms = random_space(rng, 12)
    chain = ContChain(ms)
    table = chain.value_table()
    for pd in range(ms.n):
        for pe in range(pd + 1, ms.n):
            d, e = ms.order[pd], ms.order[pe]
            assert all(table[d][x] <= table[e][x] for x in range(ms.n))
            assert table[d][d] < table[e][d]


def test_strictness_quantified():
    # d in D_n and d before e force a gap of at least 2^-n at d
    rng = random.Random(37)
    ms = random_space(rng, 9)
    chain = ContChain(ms)
    table = chain.value_table()
    for d in range(ms.n):
        n = next(n for n in range(chain.stable_level + 1)
                 if d in chain.nets.level(n))
        for e in range(ms.n):
            if ms.precedes(d, e):
                assert table[e][d] - table[d][d] >= F(1, 2 ** n)


def test_order_isomorphism_on_permutation():
    # the map d -> f_d reproduces an arbitrary permutation order exactly
    rng = random.Random(41)
    ms = random_space(rng, 20)
    chain = ContChain(ms)
    table = chain.value_table()
    ranked = sorted(range(ms.n),
                    key=lambda d: [table[d][x] for x in range(ms.n)])
    assert ranked == ms.order


def test_chain_rejects_bad_metric():
    bad = MetricSpace(2, {(0, 1): (0, 1)}, [0, 1])
    with pytest.raises(MetricAxiomError) as err:
        ContChain(bad)
    assert "identity" in str(err.value)


# ---------------------------------------------------------------------------
# Witness extraction.

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


def test_witness_two_point():
    chain = ContChain(two_point_space())
    fs = [lambda x: chain.eval(0, x)[0], lambda x: chain.eval(1, x)[0]]
    report = witness_points(fs, [0, 1])
    assert report.ok
    assert report.witnesses == [0]                # f_a(a)=0 < 2=f_b(a)
    assert report.fibers == {0: [0]}


def test_witness_constant_pair_reported():
    fs = [lambda x: F(1), lambda x: F(1)]
    report = witness_points(fs, [0, 1, 2])
    assert not report.ok and report.missing == [0]
    assert report.witnesses == [None]


def test_witness_every_consecutive_pair():
    rng = random.Random(43)
    ms = random_space(rng, 20)
    chain = ContChain(ms)
    fs = [(lambda x, d=d: chain.eval(d, x)[0]) for d in ms.order]
    report = witness_points(fs, list(range(ms.n)))
    assert report.ok
    assert sum(len(v) for v in report.fibers.values()) == ms.n - 1


# ---------------------------------------------------------------------------
# The integer kernel against the Fraction reference.

KERNEL_SPACES = [
    pytest.param(1, (1, 2, 4, 8), id="line-dyadic"),
    pytest.param(2, (1, 2, 4, 8), id="grid-dyadic"),
    pytest.param(1, (3, 7, 9), id="line-3-7-9"),
    pytest.param(2, (3, 7, 9), id="grid-3-7-9"),
    pytest.param(1, (2 ** 71 * 3 ** 45,), id="line-huge"),
    pytest.param(2, (2 ** 71 * 3 ** 45, 7), id="grid-huge"),
]


@pytest.mark.parametrize("dims, dens", KERNEL_SPACES)
def test_kernel_matches_reference(dims, dens):
    rng = random.Random(53 + dims)
    for _ in range(3):
        n, dists, order = space_inputs(rng, rng.randint(2, 8), dims, dens)
        ms, ref = MetricSpace(n, as_pairs(dists), order), Reference(n, dists, order)
        if dens[0] > 2 ** 70:
            assert ms.scale * max(dists.values()) > 2 ** 70
        assert ms.validate() == ref.validate() == []
        chain = ContChain(ms)
        top = chain.stable_level
        assert top == ref.stable_level()
        for level in range(top + 2):
            assert chain.nets.level(level) == ref.net(level)
            assert chain.nets.check_level(level) == []
        table = chain.value_table()
        for d in range(n):
            for x in range(n):
                exact = ref.eval(d, x)
                assert chain.eval(d, x) == exact
                assert table[d][x] == exact[0]
                for N in {0, 1, top, top + 3}:
                    assert chain.eval(d, x, truncate=N) == ref.eval(d, x, N)
                for level in range(top + 2):
                    assert level_term(chain, level, d, x) == ref.psi(level, d, x)


@pytest.mark.parametrize("dims, dens", KERNEL_SPACES)
def test_validate_matches_reference_on_broken_spaces(dims, dens):
    rng = random.Random(59 + dims)
    for _ in range(6):
        n, dists, order = space_inputs(rng, rng.randint(2, 8), dims, dens)
        keys = list(dists)
        for key in rng.sample(keys, rng.randint(1, len(keys))):
            dists[key] = rng.choice([F(0), -dists[key], dists[key] * 3,
                                     dists[key] / 5])
        rng.shuffle(keys)
        dists = {key: dists[key] for key in keys}     # file order is kept
        expected = Reference(n, dists, order).validate()
        assert expected
        assert MetricSpace(n, as_pairs(dists), order).validate() == expected


def test_pair_failure_matches_reference():
    rng = random.Random(61)
    for dims, dens in [(1, (1, 2, 4, 8)), (2, (3, 7, 9))]:
        n, dists, order = space_inputs(rng, 10, dims, dens)
        chain = ContChain(MetricSpace(n, as_pairs(dists), order))
        ref = Reference(n, dists, order)
        for d in range(n):
            for e in range(n):
                fd = [ref.eval(d, x)[0] for x in range(n)]
                fe = [ref.eval(e, x)[0] for x in range(n)]
                expected = ("monotonicity" if any(a > b for a, b in zip(fd, fe))
                            else "strictness" if not fd[d] < fe[d] else None)
                assert chain.pair_failure(d, e) == expected


def test_truncated_eval_far_beyond_stable_level():
    # levels from the stable level on are summed in closed form
    rng = random.Random(67)
    n, dists, order = space_inputs(rng, 5, 1, (3, 7, 9))
    chain = ContChain(MetricSpace(n, as_pairs(dists), order))
    ref = Reference(n, dists, order)
    for d in range(n):
        for x in range(n):
            assert chain.eval(d, x, truncate=80) == ref.eval(d, x, 80)


def test_integer_path_locality_fault_injection():
    ms = points_1d([F(0), F(1, 8), F(10)])
    ref = Reference(ms.n, {(0, 1): F(1, 8), (0, 2): F(10), (1, 2): F(79, 8)},
                    ms.order)
    ref.nets[0] = [0, 1]
    with pytest.raises(LocalityError) as expected:
        ref.psi(0, 1, 0)
    for run in (lambda c: c.value_table(), lambda c: c.eval(1, 0),
                lambda c: c.pair_failure(0, 1)):
        chain = ContChain(ms)
        chain.nets.levels[0] = [0, 1]             # corrupt: both as centers
        with pytest.raises(LocalityError) as err:
            run(chain)
        assert str(err.value) == str(expected.value)


# ---------------------------------------------------------------------------
# Space files.

GOOD_FILE = """\
# two points, unit distance
points 2
dist 0 1 1/1
order 0 1
"""


def test_parse_space_roundtrip():
    ms = parse_space(GOOD_FILE)
    assert ms.n == 2 and ms.dist(0, 1) == 1 and ms.order == [0, 1]


def test_parse_space_symmetric_duplicates_ok():
    ms = parse_space("points 2\ndist 0 1 3/2\ndist 1 0 -6/-4\norder 1 0\n")
    assert ms.dist(1, 0) == F(3, 2)


def test_parse_space_conflicting_orientations():
    with pytest.raises(MetricAxiomError) as err:
        parse_space("points 2\ndist 0 1 1/1\ndist 1 0 2/1\norder 0 1\n")
    assert str(err.value) == "symmetry 0 1"


@pytest.mark.parametrize("bad", [
    "order 0 1\n",                                  # no points header
    "points 2\ndist 0 1 1/1\n",                     # no order
    "points 2\norder 0 1\n",                        # missing distance
    "points 2\ndist 0 0 1/1\norder 0 1\n",          # diagonal entry
    "points 2\ndist 0 1 1/0\norder 0 1\n",          # zero denominator
    "points 2\ndist 0 1 1/1\norder 0 1\nwibble\n",  # unknown directive
    "points 2\ndist 0 1 x\norder 0 1\n",
    "points 2 7\ndist 0 1 1/2\norder 0 1\n",       # extra field on points
    "points 2\ndist 0 1 1/2 9/9 x\norder 0 1\n",  # extra fields on dist
])
def test_parse_space_rejects(bad):
    with pytest.raises(SpaceParseError):
        parse_space(bad)


def test_parse_space_zero_denominator_text():
    with pytest.raises(SpaceParseError) as err:
        parse_space("points 2\ndist 0 1 1/0\norder 0 1\n")
    assert str(err.value) == "line 2: distance 1/0 has denominator 0"


def fraction_text(rng, v):
    """v as p/q, now and then unreduced, with both signs flipped, or both."""
    k = rng.choice([1, 1, 2, 3, 10]) * rng.choice([1, -1])
    return f"{v.numerator * k}/{v.denominator * k}"


def random_space_text(rng):
    """A space file in shuffled line order: each pair written either way
    round, some pairs twice with an equal value, and now and then a
    distance made zero, negative or three times larger (which may break
    the triangle rule), or one pair repeated with another value."""
    n, dists, order = space_inputs(rng, rng.randint(2, 7), rng.choice([1, 2]),
                                   rng.choice([(1, 2, 4, 8), (3, 7, 9)]))
    if rng.random() < 0.4:
        for key in rng.sample(list(dists), rng.randint(1, len(dists))):
            dists[key] = rng.choice([F(0), -dists[key], dists[key] * 3])
    lines = [f"points {n}", "order " + " ".join(map(str, order))]
    for (i, j), v in dists.items():
        for _ in range(rng.choice([1, 1, 1, 2])):
            a, b = (i, j) if rng.random() < 0.5 else (j, i)
            lines.append(f"dist {a} {b} {fraction_text(rng, v)}")
    if rng.random() < 0.1:
        (i, j), v = rng.choice(list(dists.items()))
        lines.append(f"dist {j} {i} {fraction_text(rng, v + F(1, 3))}")
    rng.shuffle(lines)
    return "\n".join(lines) + "\n"


def test_parsed_text_matches_reference():
    rng = random.Random(71)
    seen = Counter()
    for _ in range(80):
        text = random_space_text(rng)
        try:
            ref = Reference.parse(text)
        except MetricAxiomError as expected:
            with pytest.raises(MetricAxiomError) as err:
                parse_space(text)
            assert str(err.value) == str(expected)
            seen["symmetry"] += 1
            continue
        ms = parse_space(text)
        bad = ref.validate()
        assert ms.validate() == bad
        seen.update(v.split()[0] for v in bad)
        if bad:
            continue
        seen["valid"] += 1
        chain = ContChain(ms)
        top = chain.stable_level
        assert top == ref.stable_level()
        for d in range(ms.n):
            for x in range(ms.n):
                assert chain.eval(d, x) == ref.eval(d, x)
                for N in range(top + 3):
                    assert chain.eval(d, x, truncate=N) == ref.eval(d, x, N)
    assert set(seen) == {"symmetry", "nonnegativity", "identity", "triangle",
                         "valid"}, seen


def test_format_eval():
    assert format_eval(1, 0, F(2), F(0)) == "f 1 at 0 = 2/1 (+/- 0)"
    assert format_eval(0, 3, F(5, 4), F(1, 8)) == "f 0 at 3 = 5/4 (+/- 1/8)"
