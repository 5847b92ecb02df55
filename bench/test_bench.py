"""Self-tests of the benchmark: python3 -m pytest bench

They cover the seeded generators, the correctness gate, the span
arithmetic and the result format; they are not part of the library's suite.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def deck_contents(workload, seed, workdir):
    """The deck's jobs and files, with the directory left out of paths."""
    deck = workloads.build_deck(workload, seed, str(workdir), rounds=3)
    argvs = [tuple(a.replace(str(workdir), "") for a in job.argv)
             for jobs in deck for job in jobs]
    files = {p.name: p.read_text() for p in sorted(workdir.iterdir())}
    return argvs, files


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generators_are_deterministic_per_seed(workload, tmp_path):
    first = deck_contents(workload, 7, tmp_path / "a")
    assert deck_contents(workload, 7, tmp_path / "b") == first
    assert deck_contents(workload, 8, tmp_path / "c") != first


def test_tree_rounds_hold_the_same_jobs(tmp_path):
    deck = workloads.build_deck("tree", 3, str(tmp_path), rounds=4)
    sizes = {len(rnd) for rnd in deck}
    per_round = sum(c[-1] for c in workloads.TREE_CLASSES) + workloads.SPLIT_JOBS + 3
    assert sizes == {per_round}


def test_tree_deck_holds_the_same_jobs_for_every_seed(tmp_path):
    def contents(seed):
        workdir = tmp_path / str(seed)
        deck = workloads.build_deck("tree", seed, str(workdir))
        return sorted(" ".join(Path(a).read_text() if a.endswith(".cert") else a
                               for a in job.argv)
                      for jobs in deck for job in jobs)
    assert contents(1) == contents(2)


def test_mirror_matches_library_expressions():
    from ordchain import certs
    for address in [(1, 2), (2, 1, 2), (3, 1, 1), (1, 0, 2)]:
        assert workloads.tree_node(address) == certs.tree_node(address).expr
    chain = certs.SplitChain(certs.default_certificate(
        certs.ap(6, 1), certs.ap(3, 1), 0))
    mirror = workloads.Split("ap(6,1)", "ap(3,1)", "diff(ap(3,1),ap(6,1))")
    assert [mirror.z(k) for k in range(5)] == [chain.z(k).expr for k in range(5)]


JOB = workloads.Job(("embed", "--ordinal", "w", "--pairs", "2"), 0,
                    workloads.checked(2))


def test_gate_accepts_the_expected_result():
    assert run.judge(JOB, 0, "PAIR 0 1 OK\nPAIR 1 w OK\nCHECKED 2 FAILED 0\n") is None


@pytest.mark.parametrize("rc, stdout", [
    (1, "PAIR 0 1 FAIL element 3\nPAIR 1 w OK\nCHECKED 2 FAILED 1\n"),  # verdict
    (0, "PAIR 0 1 OK\nCHECKED 1 FAILED 0\n"),                           # count
    (2, ""),                                                            # exit code
])
def test_gate_counts_wrong_results_as_failed(rc, stdout):
    assert run.judge(JOB, rc, stdout) is not None


def test_gate_checks_verdict_and_head_lines():
    verify = workloads.Job(("verify", "--cert", "x"), 0, "OK", verify=True)
    assert run.judge(verify, 0, "FAIL element 3\n") is not None
    tree = workloads.tree_job((1, 2), 1, 2)
    assert run.judge(tree, 0, "NODE rows(1)\nEXTEND0 OK\nCHECKED 4 FAILED 0\n") \
        is not None


def test_raising_job_is_reported_not_raised():
    def boom(argv):
        raise RuntimeError("injected")
    rc, stdout, seconds, error = run.run_job(boom, JOB)
    assert rc is None and "injected" in error and seconds >= 0


def test_self_time_arithmetic_on_a_synthetic_nest():
    # root [0, 10] spent 1 s in aggregated calls; children A [1, 4] and
    # B [5, 7]; B has child C [5.5, 6.5] and 0.25 s of aggregated calls.
    spans = [(1, None, 0, "root", 0.0, 10.0, 1.0),
             (2, 1, 0, "a", 1.0, 4.0, 0.0),
             (3, 1, 0, "b", 5.0, 7.0, 0.25),
             (4, 3, 0, "c", 5.5, 6.5, 0.0)]
    selfs = tracing.self_times(spans)
    assert selfs == pytest.approx({1: 4.0, 2: 3.0, 3: 0.75, 4: 1.0})
    stats = tracing.group_stats(spans, selfs, {"g": ("b", "c"), "r": ("root",)})
    assert stats["g"] == pytest.approx({"calls": 2, "self_s": 1.75, "total_s": 2.0})
    assert stats["r"]["total_s"] == pytest.approx(10.0)


def test_tracer_aggregates_hot_calls_under_a_span():
    tracer = tracing.Tracer()
    inner = tracer.wrap("hot", lambda: sum(range(1000)), hot=True)
    outer = tracer.wrap("outer", lambda: [inner() for _ in range(3)])
    outer()
    (span,) = tracer.spans
    assert span[3] == "outer" and span[6] > 0
    assert tracer.agg["hot"][0] == 3
    assert tracing.self_times(tracer.spans)[1] == pytest.approx(
        span[5] - span[4] - span[6])


@pytest.mark.parametrize("trace, key", [(0, "end_to_end"), (1, "per_layer")])
def test_result_line_names_every_declared_metric(trace, key):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "cont",
         "--seed", "1", "--seconds", "0", "--trace", str(trace)],
        capture_output=True, text=True, timeout=170, cwd=ROOT)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    declared = {m["name"]: m["unit"] for m in spec[key]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
