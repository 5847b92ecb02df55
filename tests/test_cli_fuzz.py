"""The exit-code contract under generated input: 0 ok, 1 FAIL, 2 usage or
parse error, never a traceback, and an exit-2 message that starts with a
documented prefix."""

import contextlib
import functools
import io

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
@given(commands, st.text(alphabet="w^()*+0123456789 ", max_size=30))
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
    # a low one keeps their scans, and the caches those leave in this
    # process, small.  The fixture in conftest.py puts the cap back.
    lazyset.set_scan_cap(1 << 20)
    check_contract([command, "--ordinal", format_ordinal(xi),
                    "--pairs", "2", "--depth", "4"])
