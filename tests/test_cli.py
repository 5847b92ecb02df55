"""Command-line behavior: reports, exit codes, determinism."""

import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import ordchain
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
    "good.cert": "cert{m=0, lower=ap(4,0), upper=ap(2,0)}\n",
    "bad.cert": "cert{m=0, lower=ap(4,0), upper=inter(ap(2,0),ap(1,1))}\n",
}

GOLDEN = [
    pytest.param(
        ["embed", "--ordinal", "w^(2)+1", "--pairs", "4", "--depth", "8",
         "--seed", "3"], 0,
        "PAIR 1 2 OK\nPAIR w*2 w^(2) OK\nPAIR 3 w^(2) OK\nPAIR w w^(2) OK\n"
        "CHECKED 4 FAILED 0\n", id="embed"),
    pytest.param(
        ["embed", "--ordinal", "w", "--interval", "ap(4,0),ap(2,0)",
         "--pairs", "3", "--depth", "8"], 0,
        "PAIR 1 2 OK\nPAIR 1 3 OK\nPAIR 2 3 OK\nCHECKED 3 FAILED 0\n",
        id="embed-interval"),
    pytest.param(
        ["embed", "--ordinal", "w", "--interval", "ap(2,0),ap(4,0)"], 1,
        "FAIL invalid interval certificate: surplus exhausted: found only 0 "
        "elements of diff(ap(4,0),ap(2,0)) below 134217728\n",
        id="embed-invalid-interval"),
    pytest.param(
        ["embed", "--ordinal", "w^(2)*2+w*3+4", "--interval", "ap(4,0),ap(2,0)",
         "--pairs", "10", "--depth", "16", "--seed", "5"], 0,
        "PAIR w w^(2)*2+1 OK\nPAIR 3 w*2 OK\nPAIR w*2 w^(2)*2+2 OK\n"
        "PAIR w*2 w^(2)*2 OK\nPAIR w*2+1 w^(2)*2 OK\nPAIR w*2 w^(2)+w OK\n"
        "PAIR w*2+2 w^(2)+w OK\nPAIR 2 w*2+2 OK\nPAIR 2 w^(2)*2 OK\n"
        "PAIR w w^(2)+w OK\nCHECKED 10 FAILED 0\n", id="embed-blocks-interval"),
    pytest.param(
        ["baire", "--ordinal", "w*2", "--pairs", "4", "--depth", "8"], 0,
        "PAIR 2 w+1 OK\nPAIR 1 3 OK\nPAIR 1 w OK\nPAIR 2 w OK\n"
        "CHECKED 4 FAILED 0\n", id="baire"),
    pytest.param(
        ["baire", "--ordinal", "w^(w)", "--pairs", "12", "--depth", "16",
         "--seed", "3"], 0,
        "PAIR w^(4) w^(4)+w^(3) OK\nPAIR w^(2)+w*2 w^(3)+w OK\n"
        "PAIR w^(2) w^(4)+3 OK\nPAIR w^(2)+w w^(4)*2+w^(3)*2 OK\n"
        "PAIR w^(3) w^(3)*2+w^(2)*2 OK\nPAIR w^(2) w^(4)+w^(3)*2 OK\n"
        "PAIR w^(2)+2 w^(4)+3 OK\nPAIR 2 w^(2)+2 OK\n"
        "PAIR w^(3)+3 w^(3)*2 OK\nPAIR 1 w^(4)+w*2 OK\n"
        "PAIR w*2 w^(4)+w^(2) OK\nPAIR w^(4)+w^(2)*2 w^(4)+w^(3)*2 OK\n"
        "CHECKED 12 FAILED 0\n", id="baire-limit-power"),
    pytest.param(
        ["baire", "--ordinal", "w*3+2", "--pairs", "8", "--depth", "8",
         "--seed", "2"], 0,
        "PAIR 1 2 OK\nPAIR w w*2 OK\nPAIR w w*2 OK\nPAIR 1 2 OK\nPAIR 3 w OK\n"
        "PAIR w+3 w*2 OK\nPAIR 1 w*2 OK\nPAIR 2 w+2 OK\nCHECKED 8 FAILED 0\n",
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
        "PAIR w^(3)*2+3 w^(3)*2+w^(2)*2 OK\n"
        "PAIR w*2+3 w^(4) OK\n"
        "PAIR w^(2) w^(2)*2 OK\n"
        "FAIL expression depth 21 exceeds cap 20\n"))


def test_baire_streams_until_depth_cap():
    proc = run_fresh("baire", "--ordinal", "w^(w)", "--pairs", "40",
                     "--depth", "4", TC_DEPTH_CAP="20")
    assert (proc.returncode, proc.stdout) == (1, (
        "PAIR w^(3)*2+3 w^(3)*2+w^(2)*2 OK\n"
        "PAIR w*2+3 w^(4) OK\n"
        "PAIR w^(2) w^(2)*2 OK\n"
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
        0, "PAIR w+1 w*2+3 OK\nPAIR 2 w OK\nCHECKED 2 FAILED 0\n")
    assert int(proc.stderr.split()[-1]) < 100 * 1024


def test_embed_far_slot_keeps_no_slot_ends():
    # the slot of 999,999 is read off its coefficient; walking and keeping
    # every slot end up to it took 885,441 ends, 5 s and 207 MiB
    proc = run_fresh("embed", "--ordinal", "1000000", "--pairs", "2",
                     code=MAIN_PEAK, timeout=60)
    assert (proc.returncode, proc.stdout) == (
        1, "FAIL expression depth 10001 exceeds cap 10000\n")
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
    assert lazyset.depth_cap() == 50000


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
], ids=["embed-depth", "baire-depth", "split-depth", "tree-depth",
        "split-count", "cont-eval", "cont-truncate", "tree-address",
        "space-point-range", "cont-truncate-unprintable", "space-negative-count",
        "embed-bound", "split-bound", "embed-pairs", "baire-pairs"])
def test_bad_input_is_usage_error(capsys, tmp_path, monkeypatch, argv):
    write(tmp_path, "two.space", TWO_POINT)
    write(tmp_path, "far.space", TWO_POINT + "dist 0 5 1/1\n")
    write(tmp_path, "negative.space", "points -1\norder\n")
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, *argv)
    assert (code, out) == (USAGE_ERROR, "")
    assert err
