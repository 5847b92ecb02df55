"""The exit-code contract under generated input: 0 ok, 1 FAIL, 2 usage or
parse error, never a traceback, and an exit-2 message that starts with a
documented prefix."""

import contextlib
import functools
import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ordchain import lazyset
from ordchain.cli import USAGE_ERROR, main
from ordchain.ordinal import Ordinal, compare, format_ordinal


def check_contract(argv):
    # capsys does not mix with @given, so the streams are redirected here
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:       # argparse's own usage errors
            code = exc.code
    assert code in (0, 1, USAGE_ERROR), (argv, code, err.getvalue())
    assert "Traceback" not in out.getvalue() + err.getvalue()
    if code == USAGE_ERROR:
        prefixes = ("parse error:", f"{argv[0]}:", "usage:")
        assert err.getvalue().startswith(prefixes), (argv, err.getvalue())


commands = st.sampled_from(["embed", "baire"])


@settings(derandomize=True, deadline=None, database=None)
@given(commands, st.text(alphabet="w^()*+0123456789 x²{", max_size=30))
def test_any_ordinal_text_keeps_the_exit_contract(command, text):
    check_contract([command, f"--ordinal={text}", "--pairs", "0"])


def canonical(terms):
    """A notation from (exponent, coefficient) pairs: the first coefficient
    of each exponent, exponents in decreasing order."""
    first = {}
    for e, c in terms:
        first.setdefault(e, c)          # notations are interned: keys by identity
    order = sorted(first, key=functools.cmp_to_key(compare), reverse=True)
    return Ordinal(tuple((e, first[e]) for e in order))


def notations(nesting):
    """Notations nesting w^( at most `nesting` + 1 deep, coefficients and
    naturals at most 3."""
    exponent = st.integers(0, 3).map(Ordinal.from_int)
    if nesting:
        exponent = exponent | notations(nesting - 1)
    return st.lists(st.tuples(exponent, st.integers(1, 3)), max_size=3).map(canonical)


@settings(derandomize=True, deadline=None, database=None)
@given(commands, notations(2))
def test_small_notations_keep_the_exit_contract(command, xi):
    # Pairs whose surplus starts past the scan cap FAIL (exit 1) at any cap;
    # a low one keeps their scans small.
    with pytest.MonkeyPatch.context() as m:
        m.setattr(lazyset, "_SCAN_CAP", 1 << 20)
        check_contract([command, "--ordinal", format_ordinal(xi),
                        "--pairs", "2", "--depth", "4"])


# ---------------------------------------------------------------------------
# The two file inputs: certificates (`verify --cert`) and metric spaces
# (`cont --space`).  Each example overwrites one file of a module-scoped
# directory, since function-scoped fixtures do not mix with @given.

@pytest.fixture(scope="module")
def input_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz") / "input"

    def write(text):
        path.write_text(text, encoding="utf-8")
        return str(path)
    return write


def set_exprs():
    """Small set expressions, ap(0,b) included (a parse error)."""
    leaves = (st.just("empty")
              | st.builds("rows({})".format, st.integers(0, 4))
              | st.builds("ap({},{})".format, st.integers(0, 6), st.integers(0, 12)))
    return st.recursive(leaves, lambda inner: (
        st.builds("{}({},{})".format,
                  st.sampled_from(["union", "inter", "diff"]), inner, inner)
        | st.builds("piece({},{})".format, inner, st.integers(0, 3))),
        max_leaves=6)


CERT_TEXT = st.text(alphabet="cert{m=, lower upper}emptyrowsapunioninterdiffpiece(),0123456789",
                    max_size=60)
VALID_CERTS = st.builds("cert{{m={}, lower={}, upper={}}}\n".format,
                        st.integers(0, 20), set_exprs(), set_exprs())


@settings(derandomize=True, deadline=None, database=None, max_examples=300)
@given(CERT_TEXT | VALID_CERTS, st.integers(0, 8))
def test_certificate_files_keep_the_exit_contract(input_file, text, depth):
    # a surplus that is finite or sparse FAILs (exit 1) at any cap; a low
    # one keeps the scans small.
    with pytest.MonkeyPatch.context() as m:
        m.setattr(lazyset, "_SCAN_CAP", 1 << 16)
        check_contract(["verify", "--cert", input_file(text), "--depth", str(depth)])


SPACE_TEXT = st.text(alphabet="points dist order 0123456789/-#\n", max_size=60)
TRUNCATE = st.none() | st.integers(-2, 64)


def check_cont(path, check_all, point, truncate):
    argv = ["cont", "--space", path]
    if check_all:
        argv.append("--check-all")
    if point is not None:
        argv.append(f"--eval={point}")
    if truncate is not None:
        argv.append(f"--truncate={truncate}")
    check_contract(argv)


@settings(derandomize=True, deadline=None, database=None, max_examples=300)
@given(SPACE_TEXT, st.booleans(),
       st.none() | st.text(alphabet="0123456789,-", max_size=6), TRUNCATE)
def test_space_text_keeps_the_exit_contract(input_file, text, check_all,
                                            point, truncate):
    check_cont(input_file(text), check_all, point, truncate)


@st.composite
def small_spaces(draw):
    """A space file of k <= 5 points of a line, distances over one
    denominator, each written p/q times a factor that may be negative (an
    unreduced value, or a negative denominator), and now and then over a
    zero denominator.  Now and then a distance is redrawn (which may break
    an axiom), a pair is repeated either way round (maybe with another
    value), or the order is not a permutation.  With it, an --eval point
    D,X that is out of range only when D or X is k."""
    k = draw(st.integers(0, 5))
    xs = draw(st.lists(st.integers(0, 40), min_size=k, max_size=k, unique=True))
    q = draw(st.integers(1, 4))

    def value(p):
        if draw(st.integers(0, 49)) == 0:
            return f"{p}/0"
        factor = draw(st.sampled_from([1, 1, 1, 2, 3, -1, -2]))
        return f"{p * factor}/{q * factor}"

    lines = [f"points {k}"]
    for i in range(k):
        for j in range(i + 1, k):
            p = abs(xs[i] - xs[j])
            if draw(st.integers(0, 9)) == 0:
                p = draw(st.integers(0, 9))
            lines.append(f"dist {i} {j} {value(p)}")
            if draw(st.integers(0, 7)) == 0:
                a, b = draw(st.sampled_from([(i, j), (j, i)]))
                lines.append(f"dist {a} {b} {value(draw(st.sampled_from([p, p + 1])))}")
    order = draw(st.permutations(range(k)))
    if draw(st.integers(0, 4)) == 0:
        order = draw(st.lists(st.integers(0, 5), max_size=5))
    lines.append("order " + " ".join(map(str, order)))
    point = f"{draw(st.integers(0, k))},{draw(st.integers(0, k))}"
    return "\n".join(lines) + "\n", point


@settings(derandomize=True, deadline=None, database=None, max_examples=300)
@given(small_spaces(), st.booleans(), st.booleans(), TRUNCATE)
def test_small_spaces_keep_the_exit_contract(input_file, space, check_all,
                                             evaluate, truncate):
    text, point = space
    check_cont(input_file(text), check_all, point if evaluate else None, truncate)
