"""End-to-end acceptance checks.

Each test prints one summary line, `CRITERION <k> PASS ...` or
`CRITERION <k> FAIL ...`, directly to the terminal, then asserts.
Tolerances: rational arithmetic is exact (no epsilon anywhere);
certificate checks use depth 32; brute-force scans go to N = 10^4.
Runtime bounds: criterion 1 under 10 s, criterion 4 under 30 s per
ordinal, criterion 9 under 5 s of process CPU, criterion 10 under 3.5 s of
child-process CPU.
"""

import os
import random
import resource
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

import ordchain
from ordchain import cli
from ordchain.baire import FSigmaWitness, fsigma_witness, pair_failure
from ordchain.certs import (ChainReport, OrdinalEmbedding, SplitChain,
                            base_cert, compose_certs, default_certificate,
                            default_interval, tree_node, tree_split,
                            verify_certificate)
from ordchain.lazyset import ap, diff
from ordchain.metric import (ContChain, LocalityError, MetricSpace,
                             separated_net)
from ordchain.ordinal import (LT, Ordinal, add, classify, compare,
                              fundamental_sequence, left_subtract,
                              parse_ordinal)
from ordchain.sampling import sample_comparable_pairs
from test_cli import MAIN
from test_lazyset import member
from test_metric import check_level
from test_ordinal import random_notation

F = Fraction


@pytest.fixture
def announce(capsys):
    def _announce(k, ok, detail):
        with capsys.disabled():
            print(f"CRITERION {k} {'PASS' if ok else 'FAIL'} {detail}")
        assert ok, detail
    return _announce


def points_1d(points, order=None):
    """The space of rational points on a line, ordered by `order` (by index
    if None)."""
    n = len(points)
    dists = {}
    for i in range(n):
        for j in range(i + 1, n):
            v = abs(F(points[i]) - F(points[j]))
            dists[(i, j)] = (v.numerator, v.denominator)
    return MetricSpace(n, dists, order if order is not None else range(n))


def random_1d_space(rng, n):
    den = rng.choice([1, 2, 4, 8])
    points = [F(p, den) for p in rng.sample(range(0, 50 * n), n)]
    order = list(range(n))
    rng.shuffle(order)
    return points_1d(points, order)


def test_criterion_1_continuous_chain_50_points(announce):
    rng = random.Random(101)
    start = time.monotonic()
    ms = random_1d_space(rng, 50)
    table = ContChain(ms).value_table()
    bad = 0
    pairs = 0
    for pd in range(50):
        for pe in range(pd + 1, 50):
            d, e = ms.order[pd], ms.order[pe]
            pairs += 1
            if any(table[d][x] > table[e][x] for x in range(50)):
                bad += 1
            elif not table[d][d] < table[e][d]:
                bad += 1
    elapsed = time.monotonic() - start
    ok = bad == 0 and pairs == 1225 and elapsed < 10
    announce(1, ok, f"50-point chain: {pairs - bad}/{pairs} ordered pairs "
                    f"monotone and strict in {elapsed:.1f}s")


def test_criterion_2_range_bound_attained(announce):
    ms = points_1d([F(0), F(1)])
    chain = ContChain(ms)
    value, tail = chain.eval(1, 0)
    ok = value == F(2) and tail == 0
    announce(2, ok, f"two-point upper function attains 2 exactly "
                    f"(got {value}, tail {tail})")


def test_criterion_3_net_invariants(announce):
    rng = random.Random(103)
    violations = 0
    evaluations = 0
    for trial in range(20):
        n = rng.randint(2, 100)
        ms = random_1d_space(rng, n)
        chain = ContChain(ms)
        for level in range(chain.stable_level + 2):
            violations += len(check_level(ms, separated_net(ms, level), level))
        # locality is enforced by the evaluation kernel, which raises at
        # the first point with two centers; evaluate broadly
        if n <= 40:
            targets = [(d, x) for d in range(n) for x in range(n)]
        else:
            targets = [(rng.randrange(n), rng.randrange(n))
                       for _ in range(300)]
        try:
            for d, x in targets:
                chain.eval(d, x)
                evaluations += 1
        except LocalityError:
            violations += 1
    ok = violations == 0
    announce(3, ok, f"20 spaces: separation/maximality exhaustive, "
                    f"locality held over {evaluations} evaluations "
                    f"({violations} violations)")


def test_criterion_4_ordinal_embeddings(announce):
    ordinals = ["w", "w*2", "w^(2)", "w^(2)+w*3+5", "w^(w)"]
    failures = []
    times = []
    for text in ordinals:
        xi = parse_ordinal(text)
        start = time.monotonic()
        emb = OrdinalEmbedding(xi, default_interval())
        rng = random.Random(104)
        for a, b in sample_comparable_pairs(xi, 200, rng):
            reason = verify_certificate(emb.cert(a, b), 32)
            if reason is not None:
                failures.append((text, str(a), str(b), reason))
        elapsed = time.monotonic() - start
        times.append(elapsed)
        if elapsed >= 30:
            failures.append((text, "runtime", f"{elapsed:.1f}s"))
    ok = not failures
    worst = max(times)
    announce(4, ok, f"5 ordinals x 200 pairs at depth 32: "
                    f"{len(failures)} failures, worst ordinal {worst:.1f}s")


def test_criterion_5_tree_discipline(announce):
    rng = random.Random(105)
    bad = 0
    for _ in range(50):
        s = tuple(rng.randint(0, 3) for _ in range(rng.randint(1, 3)))
        a = rng.randint(1, 4)
        b = rng.randint(a + 1, 5)
        if tree_node(s + (0,)).expr != tree_node(s).expr:
            bad += 1
        chain = tree_split(s)
        for cert in (chain.cert(0, a), chain.cert(a, b), chain.cert(b)):
            if verify_certificate(cert, 32) is not None:
                bad += 1
    announce(5, bad == 0, f"50 tree addresses: zero-extension identity and "
                          f"3 certificates each at depth 32 ({bad} failures)")


def test_criterion_6_baire_chain(announce):
    xi = parse_ordinal("w^(2)")
    emb = OrdinalEmbedding(xi, default_interval())
    rng = random.Random(106)
    pairs = list(sample_comparable_pairs(xi, 100, rng))
    report = ChainReport()
    for a, b in pairs:
        report.add("", pair_failure(emb, a, b, 32))
    witness_bad = 0
    for a, b in pairs[:40]:
        x, y = emb.member(b), emb.member(a)
        cert = emb.cert(a, b)
        w = fsigma_witness(x, y, cert)
        probe = max(cert.bound, 64)
        if not w.check(y, x, probe):
            witness_bad += 1
        if w.m > 0 and FSigmaWitness(w.m - 1).check(y, x, probe):
            witness_bad += 1
    ok = report.ok and witness_bad == 0
    announce(6, ok, f"embedded w^2 chain: {report.checked} pairs checked, "
                    f"{report.failed} failed; {witness_bad} witness "
                    f"minimality violations")


def test_criterion_7_oracle_equivalence(announce):
    N = 10 ** 4
    certs = []
    for n in range(10):
        for m in range(n + 1, 11):
            certs.append(base_cert(n, m))
    chain = SplitChain(default_certificate(ap(4, 0), ap(2, 0), 0))
    for k in range(1, 11):
        certs.append(chain.cert(0, k))
        certs.append(chain.cert(k))
        for j in range(k + 1, 11):
            certs.append(chain.cert(k, j))
    rng = random.Random(107)
    for _ in range(40):
        s = tuple(rng.randint(0, 2) for _ in range(rng.randint(1, 2)))
        a = rng.randint(1, 3)
        tree = tree_split(s)
        certs.extend([tree.cert(0, a), tree.cert(a, a + 1), tree.cert(a + 1)])
    for text in ["w^(2)", "w^(2)+w*3+5"]:
        xi = parse_ordinal(text)
        emb = OrdinalEmbedding(xi, default_interval())
        for a, b in sample_comparable_pairs(xi, 90, rng):
            certs.append(emb.cert(a, b))
    base = SplitChain(default_interval())
    for _ in range(80):
        a = rng.randint(1, 4)
        b = rng.randint(a + 1, 6)
        c = rng.randint(b + 1, 8)
        certs.append(compose_certs(base.cert(a, b), base.cert(b, c)))
    certs = certs[:500]
    assert len(certs) == 500
    bad = 0
    for cert in certs:
        lower = cert.lower.bits(N)
        upper = cert.upper.bits(N)
        exceptions = [int(e) for e in (lower & ~upper).nonzero()[0]]
        if any(e >= cert.bound for e in exceptions):
            bad += 1
            continue
        for s in cert.surplus.first_n(32):
            if not member(cert.upper, s) or member(cert.lower, s):
                bad += 1
                break
    announce(7, bad == 0, f"{len(certs)} certificates against brute-force "
                          f"scans to {N}: {bad} counterexamples")


def test_criterion_8_ordinal_algebra(announce):
    rng = random.Random(108)
    sample = [random_notation(rng, max_exponent=4, max_coeff=5, max_terms=3,
                              max_nat=9) for _ in range(1200)]
    bad = 0
    for a in sample:
        if compare(a, a) != 0:
            bad += 1
    for _ in range(1200):
        a, b = rng.choice(sample), rng.choice(sample)
        if compare(a, b) != -compare(b, a):
            bad += 1
        lo, hi = (a, b) if compare(a, b) != 1 else (b, a)
        if add(lo, left_subtract(lo, hi)) != hi:
            bad += 1
    for _ in range(300):
        a, b, c = (rng.choice(sample) for _ in range(3))
        if add(add(a, b), c) != add(a, add(b, c)):
            bad += 1
        if compare(a, b) == LT and compare(b, c) == LT \
                and compare(a, c) != LT:
            bad += 1
    limits = [a for a in sample if classify(a)[0] == "limit"][:25]
    for a in limits:
        fs = fundamental_sequence(a)
        values = [fs(k) for k in range(65)]
        for prev, cur in zip(values, values[1:]):
            if compare(prev, cur) != LT:
                bad += 1
        if any(compare(v, a) != LT for v in values):
            bad += 1
    announce(8, bad == 0, f"ordinal algebra over {len(sample)} notations "
                          f"and {len(limits)} fundamental sequences "
                          f"({bad} violations)")


def test_criterion_9_large_space_check_all(announce, capsys, tmp_path):
    # point i at i/8 on a line, in a shuffled order: the pairwise check of
    # the whole chain, 114,960 pairs, through the command line
    rng = random.Random(109)
    n = 480
    order = list(range(n))
    rng.shuffle(order)
    lines = [f"points {n}"]
    lines += [f"dist {i} {j} {j - i}/8" for i in range(n) for j in range(i + 1, n)]
    lines.append("order " + " ".join(map(str, order)))
    path = tmp_path / "line480.space"
    path.write_text("\n".join(lines) + "\n")
    start = time.process_time()
    status = cli.main(["cont", "--space", str(path), "--check-all"])
    elapsed = time.process_time() - start
    tally = capsys.readouterr().out.splitlines()[-1]
    ok = status == 0 and tally == "CHECKED 114960 FAILED 0" and elapsed < 5
    announce(9, ok, f"480-point chain through cont --check-all: {tally}, "
                    f"exit {status}, {elapsed:.2f}s CPU")


def test_criterion_10_long_split_chain(announce, tmp_path):
    # 2,001 certificates along z_1 ⊂* z_2 ⊂* ..., each proved with one walk
    # of z_k's union tree.  A new interpreter, as in `run_fresh`: facts kept
    # on interned nodes by earlier tests would make the time depend on test
    # order.  The run prints about 76 MB, to a file.
    out = tmp_path / "split2000.out"
    src = str(Path(ordchain.__file__).resolve().parents[1])
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    with open(out, "w") as stdout:
        status = subprocess.run(
            [sys.executable, "-c", MAIN, "split", "--count", "2000"],
            env=dict(os.environ, PYTHONPATH=src), stdout=stdout,
            stderr=subprocess.DEVNULL, timeout=120).returncode
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    elapsed = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
    with open(out, "rb") as f:
        f.seek(max(f.seek(0, os.SEEK_END) - 200, 0))
        tally = f.read().decode().splitlines()[-1]
    ok = status == 0 and tally == "CHECKED 2001 FAILED 0" and elapsed < 3.5
    announce(10, ok, f"split --count 2000 in a new interpreter: {tally}, "
                     f"exit {status}, {elapsed:.2f}s CPU")
