"""Continuous-function chains on finite metric spaces: nets, bumps, exact
evaluation, witnesses, and the space-file format."""

import copy
import random
import tracemalloc
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence

import numpy as np
import pytest

from ordchain import metric
from ordchain.metric import (ContChain, LocalityError, MetricAxiomError,
                             MetricSpace, SpaceParseError, format_eval,
                             parse_space, separated_net)

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


def check_level(space, net, n):
    """Separation and maximality violations of `net` as the level-n net of
    `space` (empty if fine)."""
    near = space._closer_than(4, n)
    bad = [f"separation {net[a]} {net[b]}"
           for a, b in np.argwhere(np.triu(near[np.ix_(net, net)], 1))]
    covered = near[net].any(axis=0)
    bad += [f"maximality {p}" for p in range(space.n)
            if p not in net and not covered[p]]
    return bad


def set_level0(monkeypatch, level0):
    """Make every net built at level 0 `level0`, a fault injected upstream
    of the bumps."""
    build = metric.separated_net
    monkeypatch.setattr(metric, "separated_net",
                        lambda space, n: level0 if n == 0 else build(space, n))


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
        for (i, j), v in self.dists.items():
            if v < 0:
                yield f"nonnegativity {i} {j}"
            if v == 0:
                yield f"identity {i} {j}"
        for i in range(self.n):
            for j in range(self.n):
                for k in range(self.n):
                    if self.dist(i, j) > self.dist(i, k) + self.dist(k, j):
                        yield f"triangle {i} {j} {k}"

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
    assert list(two_point_space().validate()) == []


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
    assert list(ms.validate())[0] == "nonnegativity 1 2"


# ---------------------------------------------------------------------------
# Separated nets.

def test_two_point_net_levels():
    # thresholds 4, 2, 1, 1/2 against distance 1
    ms = two_point_space()
    assert [separated_net(ms, n) for n in range(4)] == [[0], [0], [0, 1], [0, 1]]


def test_singleton_net():
    ms = points_1d([F(7)])
    for n in range(3):
        assert separated_net(ms, n) == [0]


def test_net_saturates_below_min_distance():
    ms = points_1d([F(0), F(1, 2), F(2)])
    # 2^{2-n} <= 1/2 from n = 3 on
    assert separated_net(ms, 3) == [0, 1, 2]
    assert separated_net(ms, 5) == [0, 1, 2]


def test_net_invariants_random():
    rng = random.Random(17)
    for _ in range(10):
        ms = random_space(rng, rng.randint(2, 12))
        top = ContChain(ms).stable_level
        for n in range(top + 2):
            assert check_level(ms, separated_net(ms, n), n) == []


def test_check_level_catches_violations():
    ms = two_point_space()
    assert "separation 0 1" in check_level(ms, [0, 1], 0)   # dist 1 < 4
    assert "maximality 1" in check_level(ms, [0], 2)


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
    net = separated_net(chain3.space, 2)
    assert 0 in net and 1 not in net
    assert level_term(chain3, 2, 2, 1) == F(1, 8)  # 1/4 - 1/8


def test_psi_strictness_identity():
    # d in D_n and d before e gives psi_d(d) = 0 < 2^-n = psi_e(d)
    ms = two_point_space()
    chain, ref = ContChain(ms), Reference(2, {(0, 1): F(1)}, [0, 1])
    for n in range(2, 4):
        assert 0 in separated_net(ms, n)
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
                 if d in separated_net(ms, n))
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
        assert ms._m.dtype == (object if dens[0] > 2 ** 70 else np.int64)
        assert list(ms.validate()) == list(ref.validate()) == []
        chain = ContChain(ms)
        top = chain.stable_level
        assert top == ref.stable_level()
        for level in range(top + 2):
            net = separated_net(ms, level)
            assert net == ref.net(level)
            assert check_level(ms, net, level) == []
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


def broken_space_inputs(rng, dims, dens):
    """(n, dists, order) as `space_inputs` gives, with some distances made
    zero, negative, three times larger or five times smaller, and the pairs
    in shuffled order."""
    n, dists, order = space_inputs(rng, rng.randint(2, 8), dims, dens)
    keys = list(dists)
    for key in rng.sample(keys, rng.randint(1, len(keys))):
        dists[key] = rng.choice([F(0), -dists[key], dists[key] * 3,
                                 dists[key] / 5])
    rng.shuffle(keys)
    return n, {key: dists[key] for key in keys}, order     # file order is kept


@pytest.mark.parametrize("dims, dens", KERNEL_SPACES)
def test_validate_matches_reference_on_broken_spaces(dims, dens):
    rng = random.Random(59 + dims)
    for _ in range(6):
        n, dists, order = broken_space_inputs(rng, dims, dens)
        expected = list(Reference(n, dists, order).validate())
        assert expected
        assert list(MetricSpace(n, as_pairs(dists), order).validate()) == expected


def test_first_fault_is_raised_without_listing_the_rest():
    # random distances break the triangle rule 158,464 times on 100 points:
    # ContChain raises the first fault and lists none of the others, so its
    # memory does not grow with their number
    rng = random.Random(67)
    n = 100
    dists = {(i, j): F(rng.randint(1, 100)) for i in range(n) for j in range(i + 1, n)}
    space = MetricSpace(n, as_pairs(dists), range(n))
    tracemalloc.start()
    try:
        with pytest.raises(MetricAxiomError) as err:
            ContChain(space)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(err.value) == next(Reference(n, dists, range(n)).validate())
    assert peak < 2 << 20, peak


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


def test_integer_path_locality_fault_injection(monkeypatch):
    ms = points_1d([F(0), F(1, 8), F(10)])
    ref = Reference(ms.n, {(0, 1): F(1, 8), (0, 2): F(10), (1, 2): F(79, 8)},
                    ms.order)
    ref.nets[0] = [0, 1]
    with pytest.raises(LocalityError) as expected:
        ref.psi(0, 1, 0)
    set_level0(monkeypatch, [0, 1])               # corrupt: both as centers
    for run in (lambda c: c.value_table(), lambda c: c.eval(1, 0),
                lambda c: c.pair_failure(0, 1)):
        chain = ContChain(ms)
        with pytest.raises(LocalityError) as err:
            run(chain)
        assert str(err.value) == str(expected.value)


# ---------------------------------------------------------------------------
# The matrix dtype: int64 where every computed integer fits, else Python
# ints, with the same answers.

def object_twin(ms):
    """ms with its matrix as Python ints, as a space past the int64 limit
    keeps it."""
    twin = copy.copy(ms)
    twin._m = ms._m.astype(object)
    return twin


def assert_exact_fractions(values):
    for v in values:
        assert type(v.numerator) is int and type(v.denominator) is int, v


def assert_dtypes_agree(n, pairs, order, dtype=np.int64, level0=None):
    """The space of the int pairs `pairs` takes `dtype`, and it and its
    object twin give the same answers as each other and as `Reference`,
    the stable level of space and chain among them.  With `level0`, every
    level-0 net is built as it before anything is evaluated, and every
    evaluation must raise Reference's LocalityError."""
    ms = MetricSpace(n, pairs, order)
    ref = Reference(n, {key: F(p, q) for key, (p, q) in pairs.items()}, order)
    spaces = [ms, object_twin(ms)]
    assert [s._m.dtype for s in spaces] == [dtype, object]
    assert_exact_fractions(s.dist(i, j) for s in spaces
                           for i in range(n) for j in range(n))
    expected = list(ref.validate())
    assert [list(s.validate()) for s in spaces] == [expected, expected]
    if expected:
        return
    chains = [ContChain(s) for s in spaces]
    top = ref.stable_level()
    for space, chain in zip(spaces, chains):
        assert space.stable_level == chain.stable_level == top
    for level in range(top + 2):
        assert [separated_net(s, level) for s in spaces] == [ref.net(level)] * 2
    if level0 is not None:
        ref.nets[0] = level0
        with pytest.raises(LocalityError) as fault:
            ref.eval(1, 0)
        with pytest.MonkeyPatch.context() as mp:
            set_level0(mp, level0)
            for chain in chains:
                for run in (lambda: chain.value_table(), lambda: chain.eval(1, 0),
                            lambda: chain.eval(1, 0, truncate=80),
                            lambda: chain.pair_failure(0, 1)):
                    with pytest.raises(LocalityError) as err:
                        run()
                    assert str(err.value) == str(fault.value)
        return
    assert chains[0]._table.tolist() == chains[1]._table.tolist()
    exact = [[ref.eval(d, x)[0] for x in range(n)] for d in range(n)]
    for chain in chains:
        table = chain.value_table()
        assert table == exact
        assert_exact_fractions(v for row in table for v in row)
        for d in range(n):
            for x in range(n):
                for truncate in (None, 80):
                    value = chain.eval(d, x, truncate)
                    assert value == ref.eval(d, x, truncate)
                    assert_exact_fractions(value)
            for e in range(n):
                fd, fe = exact[d], exact[e]
                assert chain.pair_failure(d, e) == (
                    "monotonicity" if any(a > b for a, b in zip(fd, fe))
                    else "strictness" if not fd[d] < fe[d] else None)


def test_int64_and_object_paths_agree():
    rng = random.Random(73)
    for dims, dens in [(1, (1, 2, 4, 8)), (2, (1, 2, 4, 8)), (1, (3, 7, 9)),
                       (2, (3, 7, 9))]:
        for _ in range(3):
            n, dists, order = space_inputs(rng, rng.randint(2, 8), dims, dens)
            assert_dtypes_agree(n, as_pairs(dists), order)
            n, dists, order = broken_space_inputs(rng, dims, dens)
            assert_dtypes_agree(n, as_pairs(dists), order)


def test_int64_and_object_paths_agree_on_locality_faults():
    pairs = {(0, 1): (1, 8), (0, 2): (10, 1), (1, 2): (79, 8)}
    assert_dtypes_agree(3, pairs, [0, 1, 2], level0=[0, 1])   # both centers


def line_pairs(den, *points):
    """The distances between the points p/den on a line, each written over
    den, so L = den however they reduce."""
    return {(i, j): (abs(points[i] - points[j]), den)
            for i in range(len(points)) for j in range(i + 1, len(points))}


# Each space sits just below or just above the int64 limit on one axis.
# Points 0, 1 and D: 2 * max |L * d| = 2D against 2^63.  Points 0, k/2^30
# and 1 over L = 2^30: k = 4 gives S = 30 and L * 2^(S+2) = 2^62, while
# k = 2 gives S = 31 and 2^63.  The last space is just below on both axes,
# and its far pairs shifted left by S would pass 2^63.
LIMIT_SPACES = [
    pytest.param(line_pairs(1, 0, 1, 2 ** 62 - 1), np.int64, id="distance-below"),
    pytest.param(line_pairs(1, 0, 1, 2 ** 62), object, id="distance-above"),
    pytest.param(line_pairs(2 ** 30, 0, 4, 2 ** 30), np.int64, id="least-below"),
    pytest.param(line_pairs(2 ** 30, 0, 2, 2 ** 30), object, id="least-above"),
    pytest.param(line_pairs(2 ** 30, 0, 4, 2 ** 61), np.int64, id="both-below"),
]


@pytest.mark.parametrize("pairs, dtype", LIMIT_SPACES)
def test_dtype_follows_the_int64_limit(pairs, dtype):
    assert_dtypes_agree(3, pairs, [2, 0, 1], dtype)


@pytest.mark.parametrize("n", [0, 1])
def test_spaces_below_two_points_have_stable_level_0(n):
    assert MetricSpace(n, {}, list(range(n))).stable_level == 0
    assert_dtypes_agree(n, {}, list(range(n)))


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
        bad = list(ref.validate())
        assert list(ms.validate()) == bad
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
