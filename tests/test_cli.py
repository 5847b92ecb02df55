"""Command-line behavior: reports, exit codes, determinism."""

import os
import random
import resource
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import ordchain
from ordchain import certs, cli, lazyset, sampling
from ordchain.cli import USAGE_ERROR, main
from ordchain.metric import format_eval
from ordchain.ordinal import MAX_NESTING

TWO_POINT = """\
points 2
dist 0 1 1/1
order 0 1
"""

# three points of a line at 0, 1/3 and 5/7: the common denominator is 21
THIRDS = """\
points 3
dist 0 1 1/3
dist 0 2 5/7
dist 1 2 8/21
order 2 0 1
"""

ASYMMETRIC = """\
points 2
dist 0 1 1/1
dist 1 0 2/1
order 0 1
"""


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


MAIN = "import sys; from ordchain.cli import main; sys.exit(main(sys.argv[1:]))"


def run_fresh(*argv, timeout=120, code=MAIN, **env):
    """Run the CLI (`code`) in a new interpreter, so no set interned by an
    earlier test, and no cap it set, can change the outcome."""
    src = str(Path(ordchain.__file__).resolve().parents[1])
    return subprocess.run(
        [sys.executable, "-c", code, *argv],
        env=dict(os.environ, PYTHONPATH=src, **env),
        capture_output=True, text=True, timeout=timeout)


# The peak RSS in KiB of the interpreter that evaluates it, on Linux.  Not
# ru_maxrss: exec carries the peak of the process that started the child
# (pytest, at any size) into the child's ru_maxrss.
PEAK_KIB = ("int(open('/proc/self/status').read()"
            ".split('VmHWM:')[1].split()[0])")
# MAIN, then the peak RSS on the last line of stderr
MAIN_PEAK = ("import sys; from ordchain.cli import main; "
             "rc = main(sys.argv[1:]); "
             f"print({PEAK_KIB}, file=sys.stderr); sys.exit(rc)")


# ---------------------------------------------------------------------------
# golden output: exit code and the whole of stdout, byte for byte

GOLDEN_FILES = {
    "two.space": TWO_POINT,
    "four.space": "points 4\ndist 0 1 3/1\ndist 0 2 7/1\ndist 0 3 12/1\n"
                  "dist 1 2 4/1\ndist 1 3 9/1\ndist 2 3 5/1\norder 2 0 3 1\n",
    "triangle.space": "points 3\ndist 0 1 5/1\ndist 0 2 1/1\ndist 1 2 1/1\n"
                      "order 0 1 2\n",
    "points-twice.space": "points 2\ndist 0 1 1/1\npoints 2\norder 0 1\n",
    "order-twice.space": "points 2\ndist 0 1 1/1\norder 0 1\norder 1 0\n",
    "good.cert": "cert{m=0, lower=ap(4,0), upper=ap(2,0)}\n",
    "bad.cert": "cert{m=0, lower=ap(4,0), upper=inter(ap(2,0),ap(1,1))}\n",
    "exhausted.cert": "cert{m=0, lower=rows(2), upper=rows(1)}\n",
    "sparse.cert": "cert{m=0, lower=empty, upper=ap(10000000,0)}\n",
}

GOLDEN = [
    pytest.param(
        ["embed", "--ordinal", "w^(2)+1", "--pairs", "4", "--depth", "8",
         "--seed", "3"], 0,
        "PAIR w*2 w*2+2 OK\nPAIR 2 w OK\nPAIR w+1 w^(2) OK\nPAIR w+1 w^(2) OK\n"
        "CHECKED 4 FAILED 0\n", id="embed"),
    pytest.param(
        ["embed", "--ordinal", "w", "--interval", "ap(4,0),ap(2,0)",
         "--pairs", "3", "--depth", "8"], 0,
        "PAIR 1 2 OK\nPAIR 2 3 OK\nPAIR 1 3 OK\nCHECKED 3 FAILED 0\n",
        id="embed-interval"),
    pytest.param(
        ["embed", "--ordinal", "w", "--interval", "ap(2,0),ap(4,0)"], 1,
        "FAIL invalid interval certificate: surplus exhausted: found only 0 "
        "elements of diff(ap(4,0),ap(2,0)) below 134217728\n",
        id="embed-invalid-interval"),
    # split checks its interval as embed does
    pytest.param(
        ["split", "--interval", "ap(2,0),ap(4,0)", "--count", "2"], 1,
        "FAIL invalid interval certificate: surplus exhausted: found only 0 "
        "elements of diff(ap(4,0),ap(2,0)) below 134217728\n",
        id="split-invalid-interval"),
    # the ordinal is read before the interval is checked: `parse error:
    # unexpected end of input` on stderr, and not the interval's FAIL
    pytest.param(
        ["embed", "--ordinal", "w+", "--interval", "ap(2,0),ap(4,0)"], 2, "",
        id="embed-bad-ordinal-invalid-interval"),
    pytest.param(
        ["embed", "--ordinal", "w^(2)*2+w*3+4", "--interval", "ap(4,0),ap(2,0)",
         "--pairs", "10", "--depth", "16", "--seed", "5"], 0,
        "PAIR w w^(2)*2+w OK\nPAIR w*2 w^(2)*2+3 OK\nPAIR w+3 w^(2)+3 OK\n"
        "PAIR w*2+3 w^(2)*2+3 OK\nPAIR 3 w^(2)*2+w*2 OK\nPAIR w*2+3 w^(2) OK\n"
        "PAIR 2 w+2 OK\nPAIR w w^(2)*2+w*2 OK\nPAIR w^(2) w^(2)*2 OK\n"
        "PAIR w*2 w^(2)*2 OK\nCHECKED 10 FAILED 0\n", id="embed-blocks-interval"),
    pytest.param(
        ["baire", "--ordinal", "w*2", "--pairs", "4", "--depth", "8"], 0,
        "PAIR 1 w OK\nPAIR 1 2 OK\nPAIR 2 3 OK\nPAIR 1 w+1 OK\n"
        "CHECKED 4 FAILED 0\n", id="baire"),
    pytest.param(
        ["baire", "--ordinal", "w^(w)", "--pairs", "12", "--depth", "16",
         "--seed", "3"], 0,
        "PAIR w^(2)*2 w^(4)*2+w OK\nPAIR w^(3) w^(4)*2+w^(2) OK\n"
        "PAIR w*2 w*2+1 OK\nPAIR w^(4)+w^(3) w^(4)*2+w*2 OK\n"
        "PAIR w^(4)+3 w^(4)+w*2 OK\nPAIR w^(4)*2 w^(4)*2+w*2 OK\n"
        "PAIR w+3 w^(4) OK\nPAIR w^(2)*2+w*2 w^(4)+w^(3) OK\n"
        "PAIR w^(2)*2 w^(4)*2+w^(2)*2 OK\nPAIR w^(3)+w*2 w^(4)+w^(3) OK\n"
        "PAIR w^(2)*2+w*2 w^(4)*2+w^(2) OK\nPAIR w^(4)+w^(3) w^(4)*2+w^(2) OK\n"
        "CHECKED 12 FAILED 0\n", id="baire-limit-power"),
    pytest.param(
        ["baire", "--ordinal", "w*3+2", "--pairs", "8", "--depth", "8",
         "--seed", "2"], 0,
        "PAIR w w*2 OK\nPAIR w w+3 OK\nPAIR 3 w+2 OK\nPAIR 3 w*2+1 OK\nPAIR 2 w*2 OK\n"
        "PAIR 2 w OK\nPAIR 2 3 OK\nPAIR 1 w OK\nCHECKED 8 FAILED 0\n",
        id="baire-blocks"),
    pytest.param(
        ["split", "--count", "2", "--depth", "8"], 0,
        "Z 1 union(inter(empty,rows(1)),piece(diff(rows(1),empty),0))\n"
        "Z 2 union(union(inter(empty,rows(1)),piece(diff(rows(1),empty),0)),"
        "piece(diff(rows(1),empty),1))\n"
        "PAIR x z1 OK\nPAIR z1 z2 OK\nPAIR z2 y OK\nCHECKED 3 FAILED 0\n",
        id="split"),
    pytest.param(
        ["tree", "--address", "1,2", "--a", "1", "--b", "3", "--depth", "8"], 0,
        "NODE union(union(inter(rows(1),rows(2)),piece(diff(rows(2),rows(1)),0)),"
        "piece(diff(rows(2),rows(1)),1))\n"
        "EXTEND0 OK\nPAIR s s~1 OK\nPAIR s~1 s~3 OK\nPAIR s~3 s+ OK\n"
        "CHECKED 4 FAILED 0\n", id="tree"),
    pytest.param(["verify", "--cert", "good.cert", "--depth", "64"], 0,
                 "OK\n", id="verify-good"),
    pytest.param(["verify", "--cert", "bad.cert"], 1,
                 "FAIL element 0\n", id="verify-bad"),
    pytest.param(["verify", "--cert", "exhausted.cert"], 1,
                 "FAIL surplus exhausted: found only 0 elements of "
                 "diff(rows(1),rows(2)) below 134217728\n", id="verify-exhausted"),
    # progressions too sparse to probe, proved infinite by definition: each
    # FAILed with its surplus exhausted
    pytest.param(["verify", "--cert", "sparse.cert"], 0, "OK\n",
                 id="verify-sparse-progression"),
    pytest.param(
        ["split", "--interval", "empty,ap(10000000,3)", "--count", "2"], 0,
        "Z 1 union(inter(empty,ap(10000000,3)),piece(diff(ap(10000000,3),empty),0))\n"
        "Z 2 union(union(inter(empty,ap(10000000,3)),"
        "piece(diff(ap(10000000,3),empty),0)),piece(diff(ap(10000000,3),empty),1))\n"
        "PAIR x z1 OK\nPAIR z1 z2 OK\nPAIR z2 y OK\nCHECKED 3 FAILED 0\n",
        id="split-sparse-progression"),
    pytest.param(
        ["embed", "--ordinal", "w", "--interval", "empty,ap(10000000,3)",
         "--pairs", "3"], 0,
        "PAIR 1 2 OK\nPAIR 2 3 OK\nPAIR 1 3 OK\nCHECKED 3 FAILED 0\n",
        id="embed-sparse-progression"),
    pytest.param(["cont", "--space", "two.space", "--eval", "1,0"], 0,
                 "f 1 at 0 = 2/1 (+/- 0)\n", id="cont-eval"),
    pytest.param(["cont", "--space", "two.space", "--eval", "1,0",
                  "--truncate", "3"], 0,
                 "f 1 at 0 = 7/4 (+/- 1/4)\n", id="cont-truncate"),
    pytest.param(
        ["cont", "--space", "four.space", "--check-all"], 0,
        "PAIR 2 0 OK\nPAIR 2 3 OK\nPAIR 2 1 OK\nPAIR 0 3 OK\nPAIR 0 1 OK\n"
        "PAIR 3 1 OK\nCHECKED 6 FAILED 0\n", id="cont-check-all"),
    pytest.param(["cont", "--space", "triangle.space", "--check-all"], 1,
                 "FAIL triangle 0 1 2\n", id="cont-triangle"),
    # a second `points` or `order` line is a parse error, not a replacement
    pytest.param(["cont", "--space", "points-twice.space", "--eval", "1,0"], 2, "",
                 id="cont-repeated-points"),
    pytest.param(["cont", "--space", "order-twice.space", "--eval", "1,0"], 2, "",
                 id="cont-repeated-order"),
    # with neither --eval nor --check-all: the metric is checked, no net built
    pytest.param(["cont", "--space", "two.space"], 0, "", id="cont-nothing-asked"),
    pytest.param(["cont", "--space", "triangle.space"], 1,
                 "FAIL triangle 0 1 2\n", id="cont-nothing-asked-triangle"),
]


@pytest.mark.parametrize("argv, code, out", GOLDEN)
def test_golden_output(capsys, tmp_path, monkeypatch, argv, code, out):
    for name, text in GOLDEN_FILES.items():
        write(tmp_path, name, text)
    monkeypatch.chdir(tmp_path)
    assert run(capsys, *argv)[:2] == (code, out)


def test_golden_output_streams_until_depth_cap():
    proc = run_fresh("embed", "--ordinal", "w^(w)", "--pairs", "40",
                     "--depth", "4", TC_DEPTH_CAP="20")
    assert (proc.returncode, proc.stdout) == (1, (
        "PAIR 1 w^(2)+1 OK\n"
        "PAIR w^(2)*2+3 w^(3)+2 OK\n"
        "PAIR 2 w^(4) OK\n"
        "FAIL expression depth 21 exceeds cap 20\n"))


def test_baire_streams_until_depth_cap():
    proc = run_fresh("baire", "--ordinal", "w^(w)", "--pairs", "40",
                     "--depth", "4", TC_DEPTH_CAP="20")
    assert (proc.returncode, proc.stdout) == (1, (
        "PAIR 1 w^(2)+1 OK\n"
        "PAIR w^(2)*2+3 w^(3)+2 OK\n"
        "PAIR 2 w^(4) OK\n"
        "FAIL expression depth 21 exceeds cap 20\n"))


# ---------------------------------------------------------------------------
# embed

def test_embed_report(capsys):
    code, out, _ = run(capsys, "embed", "--ordinal", "w^(2)",
                       "--pairs", "25", "--depth", "16")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 26
    assert all(line.startswith("PAIR ") and line.endswith(" OK")
               for line in lines[:-1])
    assert lines[-1] == "CHECKED 25 FAILED 0"


def test_embed_zero_ordinal(capsys):
    code, out, _ = run(capsys, "embed", "--ordinal", "0")
    assert code == 0
    assert out.strip() == "CHECKED 0 FAILED 0"


def test_embed_finite_bound_two():
    # 0 is drawn below a finite bound, so the one pair below 2 is found
    proc = run_fresh("embed", "--ordinal", "2", "--pairs", "2", timeout=30)
    assert (proc.returncode, proc.stdout) == (
        0, "PAIR 0 1 OK\nPAIR 0 1 OK\nCHECKED 2 FAILED 0\n")


def test_embed_no_pair_below_one(capsys):
    code, out, err = run(capsys, "embed", "--ordinal", "1", "--pairs", "1")
    assert (code, out) == (USAGE_ERROR, "")
    assert err == "embed: no pair a < b lies below 1\n"


def test_baire_no_pair_below_one(capsys):
    code, out, err = run(capsys, "baire", "--ordinal", "1")
    assert (code, out) == (USAGE_ERROR, "")
    assert err == "baire: no pair a < b lies below 1\n"


def test_embed_malformed_ordinal(capsys):
    code, _, err = run(capsys, "embed", "--ordinal", "w^^2")
    assert code == 2
    assert "parse error" in err


def test_embed_empty_surplus_refuted_without_scan():
    # the surplus diff(ap(4,0),ap(2,0)) is empty; folded at its period it is
    # refuted without a scan to the cap (such a scan peaks near 478 MiB)
    proc = run_fresh("embed", "--ordinal", "w", "--interval", "ap(2,0),ap(4,0)",
                     code=MAIN_PEAK, timeout=60)
    assert proc.returncode == 1
    assert proc.stdout == (
        "FAIL invalid interval certificate: surplus exhausted: found only 0 "
        "elements of diff(ap(4,0),ap(2,0)) below 134217728\n")
    assert int(proc.stderr.split()[-1]) < 100 * 1024


def test_embed_large_coefficient_builds_no_block_up_front():
    # blocks are built as pairs reach them, so ten million coefficient units
    # cost nothing up front
    proc = run_fresh("embed", "--ordinal", "w*10000000", "--pairs", "2",
                     "--depth", "4", code=MAIN_PEAK, timeout=20)
    assert (proc.returncode, proc.stdout) == (
        0, "PAIR 1 w*2+1 OK\nPAIR w+1 w*2+2 OK\nCHECKED 2 FAILED 0\n")
    assert int(proc.stderr.split()[-1]) < 100 * 1024


def test_embed_far_slot_keeps_no_slot_ends():
    # the slot of 999,999 is read off its coefficient; walking and keeping
    # every slot end up to it took 885,441 ends, 5 s and 207 MiB
    proc = run_fresh("embed", "--ordinal", "1000000", "--pairs", "2",
                     code=MAIN_PEAK, timeout=60)
    assert (proc.returncode, proc.stdout) == (
        1, "FAIL expression depth 10001 exceeds cap 10000\n")
    assert int(proc.stderr.split()[-1]) < 100 * 1024


def test_embed_finite_bound_scans_in_bounded_memory():
    # the pair 25 < 27 draws on piece 26 of the evens, which has one element
    # below the scan cap: the probe ran to the cap and FAILed the true pair,
    # and now the certificate is proved with no scan
    proc = run_fresh("embed", "--ordinal", "30", "--pairs", "3", "--depth", "4",
                     "--seed", "1", code=MAIN_PEAK, timeout=60)
    assert (proc.returncode, proc.stdout) == (0, (
        "PAIR 4 18 OK\n"
        "PAIR 25 27 OK\n"
        "PAIR 2 24 OK\n"
        "CHECKED 3 FAILED 0\n"))
    assert int(proc.stderr.split()[-1]) < 100 * 1024
    # the scan to the cap itself: with int64 rank arrays and a float log2 of
    # their low bits in place of strided slices, it peaked at 2,718 MiB
    code = ("from ordchain.lazyset import ResourceLimitError, diff, empty, "
            "piece, rows\n"
            "try:\n"
            "    piece(diff(rows(1), empty()), 26).first_n(4)\n"
            "except ResourceLimitError as exc:\n"
            f"    print(exc, {PEAK_KIB})")
    proc = run_fresh(code=code, timeout=60)
    assert proc.returncode == 0
    message, _, rss = proc.stdout.strip().rpartition(" ")
    assert message == ("found only 1 elements of piece(diff(rows(1),empty),26) "
                       "below 134217728")
    assert int(rss) < 1024 * 1024


# tree addresses k, k,1, k,2,1 and k,0,3 and splits of (rows(k), rows(k+1))
# for k <= 70, past the fold range from 20 on, pair runs with their
# certificates, a 300-step split chain, and z_3 ⊆ z_37 of a tree node,
# proved summand by summand
PROVED_RUNS = (
    [("tree", "--address", f"{k}{rest}")
     for k in range(71) for rest in ("", ",1", ",2,1", ",0,3")]
    + [("split", "--interval", f"rows({k}),rows({k + 1})") for k in range(71)]
    + [(command, "--ordinal", xi, *extra) for xi in ("w^(2)", "w^(w)", "w*3+2")
       for command, extra in (("embed", ("--interval", "rows(20),rows(21)")),
                              ("baire", ()))]
    + [("split", "--count", "300", "--depth", "4"),
       ("tree", "--address", "1", "--a", "3", "--b", "37")])


def test_constructions_are_proved_with_the_probe_off(capsys, monkeypatch):
    # with rows(m) ⊆ rows(n) and diff(rows(n), rows(m)) infinite proved,
    # no construction certificate reads a bitmap: from rows(20) on they
    # were probed, and true ones FAILed with their surplus exhausted
    def probe(s, n):
        raise AssertionError(f"probed {s.expr}")
    monkeypatch.setattr(lazyset.LazySet, "bits", probe)
    monkeypatch.setattr(lazyset.LazySet, "first_n", probe)
    assert len(PROVED_RUNS) == 363
    for argv in PROVED_RUNS:
        code, out, _ = run(capsys, *argv)
        assert (code, out.splitlines()[-1].split()[-2:]) == (0, ["FAILED", "0"]), argv


def limit_address_space():
    """Run in the child alone, between fork and exec: 3 GiB of address
    space, so a scan that would take more memory fails in the child."""
    resource.setrlimit(resource.RLIMIT_AS, (3 << 30, 3 << 30))


@pytest.mark.parametrize("depth", [100, 400, 1000])
def test_deep_certificate_keeps_the_exit_contract_in_bounded_memory(tmp_path, depth):
    # the surplus piece(s,1) minus s is empty, so the probe doubles its scan
    # over every node under it: at 400 and 1,000 levels that took n bytes a
    # node at once and died with a numpy traceback; now the scan is charged
    # first and refused
    s = lazyset.ap(2, 0)
    for i in range(depth):
        s = (lazyset.union(s, lazyset.ap(3, i)) if i % 4 == 0 else
             lazyset.inter(lazyset.ap(1, i), s) if i % 4 == 1 else
             lazyset.diff(s, lazyset.ap(5, i)) if i % 4 == 2 else
             lazyset.piece(s, 0))
    cert = certs.default_certificate(s, lazyset.piece(s, 1), 0)
    path = write(tmp_path, "deep.cert", cert.serialize() + "\n")
    src = str(Path(ordchain.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", MAIN, "verify", "--cert", path, "--depth", "4"],
        env=dict(os.environ, PYTHONPATH=src), preexec_fn=limit_address_space,
        capture_output=True, text=True, timeout=120)
    assert proc.returncode in (0, 1, 2)
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("argv, checked", [
    (("tree", "--address", "6,6,6", "--a", "1", "--b", "3", "--depth", "8"), 4),
    (("embed", "--ordinal", "23", "--pairs", "40", "--seed", "1"), 40),
    (("embed", "--ordinal", "64", "--pairs", "20", "--depth", "16",
      "--seed", "1"), 20),
    # the tower w^(w^(...w)) of height 16
    (("embed", "--ordinal", "w^(" * 15 + "w" + ")" * 15, "--pairs", "20",
      "--depth", "16", "--seed", "0"), 20),
], ids=["tree-6,6,6", "embed-23", "embed-64", "embed-tower-16"])
def test_true_pairs_with_sparse_surplus_pass(argv, checked):
    # nested pieces left fewer surplus elements below the scan cap than the
    # probe asks for, so each run FAILed 1 to 13 true pairs (surplus
    # exhausted) after scans that peaked at 197-787 MiB; proved from their
    # structure, the certificates pass with no scan
    proc = run_fresh(*argv, code=MAIN_PEAK, timeout=60)
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[-1] == f"CHECKED {checked} FAILED 0"
    assert int(proc.stderr.split()[-1]) < 100 * 1024


def test_long_split_chain_text_is_not_stored_per_node():
    # z_2000 is 76,910 characters long; storing the text of each of the
    # 4,004 nodes behind it took 76 M characters and peaked near 104 MiB
    code = ("from ordchain.certs import SplitChain, default_interval; "
            "from ordchain.lazyset import parse_set; "
            "z = SplitChain(default_interval()).z(2000); "
            f"print(len(z.expr), parse_set(z.expr) is z, {PEAK_KIB})")
    proc = run_fresh(code=code, timeout=60)
    length, same, rss = proc.stdout.split()
    assert (proc.returncode, length, same) == (0, "76910", "True")
    assert int(rss) < 64 * 1024


def test_embed_at_the_nesting_cap(capsys):
    from test_ordinal import tower
    code, out, err = run(capsys, "embed", "--ordinal", tower(MAX_NESTING),
                         "--pairs", "0")
    assert (code, out, err) == (0, "CHECKED 0 FAILED 0\n", "")


@pytest.mark.parametrize("command", ["embed", "baire"])
def test_nesting_past_the_cap_is_a_parse_error(command):
    from test_ordinal import tower
    proc = run_fresh(command, "--ordinal", tower(MAX_NESTING + 1), "--pairs", "1")
    assert (proc.returncode, proc.stdout) == (USAGE_ERROR, "")
    assert proc.stderr.startswith("parse error:")
    assert "Traceback" not in proc.stderr


DEEP_PAIRS = ("PAIR w^(3) w^(4)+w OK\nPAIR w^(2)+1 w^(2)+w OK\n"
              "CHECKED 2 FAILED 0\n")


@pytest.mark.parametrize("argv,rc,out", [
    (("embed", "--ordinal", "w^(w*500)", "--seed", "1"), 0, DEEP_PAIRS),
    (("baire", "--ordinal", "w^(w*500)", "--seed", "1"), 0, DEEP_PAIRS),
    (("baire", "--ordinal", "w^(w*2000)", "--seed", "1"), 0, DEEP_PAIRS),
    (("baire", "--ordinal", "w^(w^(30)*31+w^(7)*20)*34", "--seed", "3"), 0,
     "PAIR w^(2)*2 w^(4)*2+w OK\nPAIR w^(3) w^(4)*2+w^(2) OK\n"
     "CHECKED 2 FAILED 0\n"),
    (("baire", "--ordinal", "w^(w*1000000)"), 1,
     "FAIL expression depth 10001 exceeds cap 10000\n"),
], ids=["embed", "baire", "baire-2000", "baire-tall", "baire-past-cap"])
def test_deep_bound_is_walked_in_loops(argv, rc, out):
    # a pair below w^(w*500) sits about 1,000 slot levels down, past the
    # interpreter's recursion limit when each level was one call; only the
    # depth cap bounds how deep a bound may go.  Proving its certificates
    # took time and memory quadratic in the depth: 853 MiB at w^(w*2000)
    proc = run_fresh(*argv, "--pairs", "2", code=MAIN_PEAK, timeout=60)
    assert (proc.returncode, proc.stdout) == (rc, out)
    assert "Traceback" not in proc.stderr
    assert int(proc.stderr.split()[-1]) < 160 * 1024


def test_embed_custom_interval(capsys):
    code, out, _ = run(capsys, "embed", "--ordinal", "w",
                       "--interval", "ap(4,0),ap(2,0)",
                       "--pairs", "10", "--depth", "8")
    assert code == 0
    assert out.strip().endswith("CHECKED 10 FAILED 0")


def test_embed_invalid_interval(capsys):
    code, out, _ = run(capsys, "embed", "--ordinal", "w",
                       "--interval", "ap(2,0),ap(4,0)")
    assert code == 1
    assert out.startswith("FAIL")


@pytest.mark.parametrize("interval", ["ap(4,0)", "ap(4,0),ap(2,0),ap(1,0)"],
                         ids=["one-set", "three-sets"])
def test_interval_needs_exactly_two_sets(capsys, interval):
    code, out, err = run(capsys, "split", "--interval", interval)
    assert (code, out) == (USAGE_ERROR, "")
    assert err.startswith("parse error:")


def test_embed_determinism(capsys):
    args = ("embed", "--ordinal", "w*2", "--pairs", "15", "--seed", "7")
    _, out1, _ = run(capsys, *args)
    _, out2, _ = run(capsys, *args)
    assert out1 == out2


# ---------------------------------------------------------------------------
# cont

def test_cont_eval_two_point(capsys, tmp_path):
    space = write(tmp_path, "two.space", TWO_POINT)
    code, out, _ = run(capsys, "cont", "--space", space, "--eval", "1,0")
    assert code == 0
    assert out.strip() == "f 1 at 0 = 2/1 (+/- 0)"


def test_cont_eval_truncated(capsys, tmp_path):
    space = write(tmp_path, "two.space", TWO_POINT)
    code, out, _ = run(capsys, "cont", "--space", space, "--eval", "1,0",
                       "--truncate", "3")
    assert code == 0
    assert out.strip() == "f 1 at 0 = 7/4 (+/- 1/4)"


def test_cont_truncate_beyond_stable_level(capsys, tmp_path):
    # levels from the stable level (here 4) on are summed in closed form
    from test_metric import Reference
    space = write(tmp_path, "thirds.space", THIRDS)
    ref = Reference(3, {(0, 1): Fraction(1, 3), (0, 2): Fraction(5, 7),
                        (1, 2): Fraction(8, 21)}, [2, 0, 1])
    for d, x in [(1, 2), (0, 2), (2, 0)]:
        code, out, _ = run(capsys, "cont", "--space", space, "--eval", f"{d},{x}",
                           "--truncate", "80")
        assert (code, out) == (0, format_eval(d, x, *ref.eval(d, x, 80)) + "\n")


def test_cont_value_past_digit_limit(capsys, tmp_path):
    # 2^N prints in 4300 digits, but the value's denominator 21 * 2^(N-1)
    # does not: a usage error, not a traceback
    space = write(tmp_path, "thirds.space", THIRDS)
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        code, out, err = run(capsys, "cont", "--space", space, "--eval", "1,2",
                             "--truncate", "14284")
    finally:
        sys.set_int_max_str_digits(old)
    assert (code, out) == (USAGE_ERROR, "")
    assert err == "cont: f 1 at 2 has too many digits to print\n"


def test_cont_check_all(capsys, tmp_path):
    lines = ["points 5"]
    pts = [0, 3, 7, 12, 20]
    for i in range(5):
        for j in range(i + 1, 5):
            lines.append(f"dist {i} {j} {pts[j] - pts[i]}/1")
    lines.append("order 2 0 4 1 3")
    space = write(tmp_path, "five.space", "\n".join(lines) + "\n")
    code, out, _ = run(capsys, "cont", "--space", space, "--check-all")
    assert code == 0
    assert out.strip().splitlines()[-1] == "CHECKED 10 FAILED 0"


def test_cont_asymmetric_file(capsys, tmp_path):
    space = write(tmp_path, "bad.space", ASYMMETRIC)
    code, out, _ = run(capsys, "cont", "--space", space, "--eval", "0,0")
    assert code == 1
    assert out.strip() == "FAIL symmetry 0 1"


def test_cont_missing_file(capsys):
    code, _, err = run(capsys, "cont", "--space", "/nonexistent.space")
    assert code == 2


@pytest.mark.parametrize("argv", [["verify", "--cert"],
                                  ["cont", "--check-all", "--space"]])
def test_unreadable_input_file_is_usage_error(capsys, tmp_path, argv):
    binary = tmp_path / "binary"
    binary.write_bytes(b"\x7fELF\xff\xfe\x00")
    code, out, err = run(capsys, *argv, str(tmp_path))
    assert (code, out) == (USAGE_ERROR, "")
    assert "Is a directory" in err
    code, out, err = run(capsys, *argv, str(binary))
    assert (code, out) == (USAGE_ERROR, "")
    assert err.startswith("parse error:") and "utf-8" in err


def test_cont_eval_out_of_range(capsys, tmp_path):
    space = write(tmp_path, "two.space", TWO_POINT)
    code, _, err = run(capsys, "cont", "--space", space, "--eval", "5,0")
    assert code == 2


# ---------------------------------------------------------------------------
# baire

def test_baire_report(capsys):
    code, out, _ = run(capsys, "baire", "--ordinal", "w*2",
                       "--pairs", "20", "--depth", "16")
    assert code == 0
    assert out.strip().splitlines()[-1] == "CHECKED 20 FAILED 0"


def test_baire_zero_pairs(capsys):
    code, out, _ = run(capsys, "baire", "--ordinal", "w", "--pairs", "0")
    assert code == 0
    assert out.strip() == "CHECKED 0 FAILED 0"


@pytest.mark.parametrize("name, line", [
    ("points-twice.space", "line 3: repeated 'points' line"),
    ("order-twice.space", "line 4: repeated 'order' line"),
])
def test_repeated_space_line_names_it(capsys, tmp_path, name, line):
    space = write(tmp_path, name, GOLDEN_FILES[name])
    assert run(capsys, "cont", "--space", space, "--eval", "1,0") == (
        USAGE_ERROR, "", f"parse error: {line}\n")


@pytest.mark.parametrize("argv, err", [
    (["split", "--bound", "7", "--count", "1"], "split: --bound needs --interval\n"),
    (["embed", "--ordinal", "w", "--bound", "7"], "embed: --bound needs --interval\n"),
    (["cont", "--space", "two.space", "--truncate", "3", "--check-all"],
     "cont: --truncate needs --eval\n"),
], ids=["split", "embed", "cont"])
def test_flag_without_its_partner_names_it(capsys, tmp_path, monkeypatch,
                                           argv, err):
    write(tmp_path, "two.space", TWO_POINT)
    monkeypatch.chdir(tmp_path)
    assert run(capsys, *argv) == (USAGE_ERROR, "", err)


@pytest.mark.parametrize("scan_cap", [None, 1 << 12], ids=["default", "low-scan-cap"])
@pytest.mark.parametrize("ordinal, pairs, depth, seed", [
    ("w*2", "4", "8", "0"), ("w^(w)", "12", "16", "3"), ("w*3+2", "8", "8", "2"),
], ids=["w*2", "w^(w)", "w*3+2"])
def test_baire_checks_what_embed_checks(capsys, monkeypatch, ordinal, pairs,
                                        depth, seed, scan_cap):
    # with the certificates probed, not proved, a low scan cap makes probes
    # run out, so FAIL lines appear too
    if scan_cap is not None:
        monkeypatch.setattr(certs, "subset", lambda a, b: False)
        monkeypatch.setattr(lazyset, "_SCAN_CAP", scan_cap)
    argv = ["--ordinal", ordinal, "--pairs", pairs, "--depth", depth,
            "--seed", seed]
    embed_code, embed_out, _ = run(capsys, "embed", *argv)
    baire_code, baire_out, _ = run(capsys, "baire", *argv)
    assert baire_code == embed_code
    embed_lines, baire_lines = embed_out.splitlines(), baire_out.splitlines()
    assert len(baire_lines) == len(embed_lines)
    for e, b in zip(embed_lines, baire_lines):
        label, sep, reason = e.partition(" FAIL ")
        assert b == (f"{label} FAIL certificate: {reason}" if sep else e)
    if scan_cap is not None and ordinal == "w^(w)":
        assert " FAIL " in embed_out


# ---------------------------------------------------------------------------
# verify

def test_verify_valid_cert(capsys, tmp_path):
    cert = write(tmp_path, "good.cert",
                 "cert{m=0, lower=ap(4,0), upper=ap(2,0)}\n")
    code, out, _ = run(capsys, "verify", "--cert", cert, "--depth", "64")
    assert code == 0
    assert out.strip() == "OK"


def test_verify_bad_bound(capsys, tmp_path):
    cert = write(tmp_path, "bad.cert",
                 "cert{m=0, lower=ap(4,0), upper=inter(ap(2,0),ap(1,1))}\n")
    code, out, _ = run(capsys, "verify", "--cert", cert)
    assert code == 1
    assert out.strip() == "FAIL element 0"


def test_verify_deep_union_cert(tmp_path):
    # 1,500 nested unions: far below the depth cap, far above the
    # interpreter's recursion limit
    lower = "union(ap(2,0),ap(3,0))"
    for _ in range(1499):
        lower = f"union({lower},ap(3,0))"
    cert = write(tmp_path, "deep.cert", f"cert{{m=0, lower={lower}, upper=ap(1,0)}}\n")
    proc = run_fresh("verify", "--cert", cert)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "OK\n", "")


@pytest.mark.parametrize("k", [10**12, 10**19])
def test_verify_huge_row_and_piece_index(capsys, tmp_path, k):
    """A row or piece index past any bitmap's bit length costs no big
    integer: the strides are cut to the prefix."""
    cert = write(tmp_path, "huge.cert",
                 f"cert{{m=0, lower=piece(rows(1),{k}), upper=rows({k})}}")
    assert run(capsys, "verify", "--cert", cert) == (0, "OK\n", "")


def test_verify_depth_zero_is_usage_error(capsys, tmp_path):
    cert = write(tmp_path, "good.cert",
                 "cert{m=0, lower=ap(4,0), upper=ap(2,0)}\n")
    code, _, _ = run(capsys, "verify", "--cert", cert, "--depth", "0")
    assert code == 2


def test_verify_unparseable_cert(capsys, tmp_path):
    cert = write(tmp_path, "junk.cert", "not a certificate\n")
    code, _, err = run(capsys, "verify", "--cert", cert)
    assert code == 2


# ---------------------------------------------------------------------------
# split / tree

def test_split_report(capsys):
    code, out, _ = run(capsys, "split", "--count", "3", "--depth", "8")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("Z 1 ")
    assert lines[-1] == "CHECKED 4 FAILED 0"


def test_split_custom_interval(capsys):
    code, out, _ = run(capsys, "split", "--interval", "ap(4,0),ap(2,0)",
                       "--count", "2", "--depth", "8")
    assert code == 0
    assert out.strip().splitlines()[-1] == "CHECKED 3 FAILED 0"


def test_tree_report(capsys):
    code, out, _ = run(capsys, "tree", "--address", "1,2", "--a", "1",
                       "--b", "3", "--depth", "16")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("NODE ")
    assert lines[1] == "EXTEND0 OK"
    assert lines[-1] == "CHECKED 4 FAILED 0"


def test_tree_bad_address(capsys):
    code, _, _ = run(capsys, "tree", "--address", "1,x")
    assert code == 2


def test_tree_bad_child_indices(capsys):
    code, _, _ = run(capsys, "tree", "--address", "1", "--a", "2", "--b", "2")
    assert code == 2


# ---------------------------------------------------------------------------
# global behavior

def test_unknown_subcommand(capsys):
    with pytest.raises(SystemExit) as err:
        main(["frobnicate"])
    assert err.value.code == 2


def test_unknown_flag(capsys):
    with pytest.raises(SystemExit) as err:
        main(["embed", "--ordinal", "w", "--wibble", "1"])
    assert err.value.code == 2


def test_bad_depth_cap_env(capsys, monkeypatch):
    monkeypatch.setenv("TC_DEPTH_CAP", "bogus")
    code, _, err = run(capsys, "embed", "--ordinal", "0")
    assert code == 2
    assert "TC_DEPTH_CAP" in err


def test_bad_depth_cap_env_before_import():
    proc = run_fresh("embed", "--ordinal", "0", TC_DEPTH_CAP="bogus")
    assert proc.returncode == 2
    assert "TC_DEPTH_CAP" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_depth_cap_env_applies(capsys, monkeypatch):
    import ordchain.lazyset as lazyset
    monkeypatch.setenv("TC_DEPTH_CAP", "50000")
    code, _, _ = run(capsys, "embed", "--ordinal", "0")
    assert code == 0
    assert lazyset._DEPTH_CAP == 50000


def test_depth_cap_resets_once_env_is_unset(capsys, monkeypatch):
    argv = ["embed", "--ordinal", "w^(w)", "--pairs", "40", "--depth", "4"]
    monkeypatch.setenv("TC_DEPTH_CAP", "20")
    code, out, _ = run(capsys, *argv)
    assert (code, out.splitlines()[-1]) == (1, "FAIL expression depth 21 exceeds cap 20")
    monkeypatch.delenv("TC_DEPTH_CAP")
    code, out, _ = run(capsys, *argv)
    assert (code, out.splitlines()[-1]) == (0, "CHECKED 40 FAILED 0")


# embed and baire runs over the default interval, given intervals with and
# without --bound, an interval that fails, an empty bound, a bound whose sets
# pass a cap of 20, and one whose sets pass the default cap
HISTORY_ARGVS = [
    ("embed", "--ordinal", "w^(2)+1", "--pairs", "4", "--depth", "8",
     "--seed", "3"),
    ("baire", "--ordinal", "w*2", "--pairs", "3"),
    ("embed", "--ordinal", "w", "--interval", "ap(4,0),ap(2,0)",
     "--pairs", "3", "--depth", "8"),
    ("embed", "--ordinal", "w*3", "--interval",
     "union(ap(4,0),diff(ap(1,0),ap(1,5))),ap(2,0)", "--bound", "5",
     "--pairs", "5", "--depth", "8"),
    ("embed", "--ordinal", "w", "--interval", "ap(2,0),ap(4,0)"),
    ("embed", "--ordinal", "0"),
    ("baire", "--ordinal", "0"),
    ("embed", "--ordinal", "w^(w)", "--pairs", "40", "--depth", "4"),
    ("baire", "--ordinal", "w^(w)", "--pairs", "40", "--depth", "4"),
    ("baire", "--ordinal", "w^(w*1000000)", "--pairs", "2"),
]


def test_outputs_do_not_depend_on_earlier_runs(capsys, monkeypatch):
    # a process keeps the embeddings and draw tables of recent runs; each
    # run, under TC_DEPTH_CAP=20 or unset, prints what it prints with
    # nothing kept, whatever ran before it
    def run_under(argv, cap):
        if cap is None:
            monkeypatch.delenv("TC_DEPTH_CAP", raising=False)
        else:
            monkeypatch.setenv("TC_DEPTH_CAP", cap)
        return run(capsys, *argv)[:2]

    runs = [(argv, cap) for argv in HISTORY_ARGVS for cap in ("20", None)]
    reference = {}
    for argv, cap in runs:
        cli._embedding.cache_clear()
        sampling._below.cache_clear()
        reference[argv, cap] = run_under(argv, cap)
    rng = random.Random(31)
    for _ in range(2):
        rng.shuffle(runs)
        for argv, cap in runs:
            assert run_under(argv, cap) == reference[argv, cap], (argv, cap)


def test_kept_embeddings_and_draw_tables_are_bounded(capsys):
    for k in range(1, sampling.KEPT_BOUNDS + 4):
        code, _, _ = run(capsys, "embed", "--ordinal", f"w^(w*{k})+{k}",
                         "--pairs", "2", "--depth", "4")
        assert code == 0
    assert cli._embedding.cache_info().currsize == sampling.KEPT_BOUNDS
    assert sampling._below.cache_info().currsize == sampling.KEPT_BOUNDS


HUGE = "7" * 5000       # past Python's default int-conversion limit


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                    reason="this Python has no int-conversion digit limit")
@pytest.mark.parametrize("argv, prefix", [
    (["embed", "--ordinal", HUGE], "parse error:"),
    (["baire", "--ordinal", f"w*{HUGE}"], "parse error:"),
    (["embed", "--ordinal", "w", "--interval", f"ap({HUGE},0),rows(1)"],
     "parse error:"),
    (["verify", "--cert", "bound.cert"], "parse error:"),
    (["verify", "--cert", "set.cert"], "parse error:"),
    (["tree", "--address", f"1,{HUGE}"], "tree:"),
    (["cont", "--space", "two.space", "--eval", f"1,{HUGE}"], "cont:"),
], ids=["ordinal", "coefficient", "interval", "cert-bound", "cert-set",
        "tree-address", "cont-eval"])
def test_huge_numeral_is_usage_error(capsys, tmp_path, monkeypatch, argv, prefix):
    write(tmp_path, "two.space", TWO_POINT)
    write(tmp_path, "bound.cert", f"cert{{m={HUGE}, lower=rows(0), upper=rows(1)}}")
    write(tmp_path, "set.cert", f"cert{{m=0, lower=ap({HUGE},0), upper=rows(1)}}")
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, *argv)
    assert (code, out) == (USAGE_ERROR, "")
    assert err.startswith(prefix) and "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["embed", "--ordinal", "w", "--depth", "0"],
    ["baire", "--ordinal", "w", "--depth", "0"],
    ["split", "--depth", "0"],
    ["tree", "--address", "1", "--depth", "0"],
    ["split", "--count", "0"],
    ["cont", "--space", "two.space", "--eval", "1"],
    ["cont", "--space", "two.space", "--eval", "1,0", "--truncate", "-1"],
    ["tree", "--address", "-1"],
    ["cont", "--space", "far.space", "--eval", "0,1"],
    ["cont", "--space", "two.space", "--eval", "1,0", "--truncate", "100000"],
    ["cont", "--space", "negative.space", "--check-all"],
    # the interval is false (1 is in lower, not upper); a negative bound
    # once slipped the check past it
    ["embed", "--ordinal", "w", "--bound=-3",
     "--interval", "union(ap(4,0),diff(ap(1,1),ap(1,2))),ap(2,0)"],
    ["split", "--bound=-3",
     "--interval", "union(ap(4,0),diff(ap(1,1),ap(1,2))),ap(2,0)"],
    ["embed", "--ordinal", "w", "--pairs", "-1"],
    ["baire", "--ordinal", "w", "--pairs", "-1"],
    # flags that would do nothing without the one they qualify
    ["split", "--bound", "7", "--count", "1", "--depth", "4"],
    ["embed", "--ordinal", "w", "--bound", "7"],
    ["cont", "--space", "two.space", "--truncate", "3"],
], ids=["embed-depth", "baire-depth", "split-depth", "tree-depth",
        "split-count", "cont-eval", "cont-truncate", "tree-address",
        "space-point-range", "cont-truncate-unprintable", "space-negative-count",
        "embed-bound", "split-bound", "embed-pairs", "baire-pairs",
        "split-bound-no-interval", "embed-bound-no-interval",
        "cont-truncate-no-eval"])
def test_bad_input_is_usage_error(capsys, tmp_path, monkeypatch, argv):
    write(tmp_path, "two.space", TWO_POINT)
    write(tmp_path, "far.space", TWO_POINT + "dist 0 5 1/1\n")
    write(tmp_path, "negative.space", "points -1\norder\n")
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, *argv)
    assert (code, out) == (USAGE_ERROR, "")
    assert err
