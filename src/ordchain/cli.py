"""Command-line front door.

Subcommands: embed, cont, baire, verify, split, tree.  Reports are plain
text, one fact per line, so runs diff cleanly against snapshots.  Exit
codes: 0 all checks ok, 1 any FAIL, 2 usage or parse error.

One process keeps the embeddings and draw tables of the last KEPT_BOUNDS
(ordinal, interval, depth cap) keys that `embed` and `baire` asked about,
so a run of jobs on a few bounds derives each slot once; every output is
the same as in a new process.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import random
import sys
from typing import Iterable, List, Optional, Tuple

from . import lazyset
from .baire import pair_failure
from .certs import (ChainReport, InvalidCertificateError, OrderCertificate,
                    OrdinalEmbedding, SplitChain, default_certificate,
                    default_interval, parse_certificate, tree_split,
                    verify_certificate)
from .lazyset import SET, ResourceLimitError, SetParseError, parse_text
from .metric import (ContChain, MetricAxiomError, SpaceParseError,
                     format_eval, load_space)
from .ordinal import Ordinal, OrdinalParseError, format_ordinal, parse_ordinal
from .sampling import KEPT_BOUNDS, NoPairsError, sample_comparable_pairs

USAGE_ERROR = 2


def _naturals(text: str) -> Optional[Tuple[int, ...]]:
    """'n,n,...' as a tuple of naturals, or None if it is not one."""
    fields = [f.strip() for f in text.split(",")]
    try:
        return tuple(map(int, fields)) if all(map(str.isdecimal, fields)) else None
    except ValueError:      # past Python's int-conversion digit limit
        return None


def _input_problem(args) -> Optional[str]:
    """Why TC_DEPTH_CAP or the parsed arguments cannot be used, or None.
    Sets the depth cap (the default one if TC_DEPTH_CAP is unset) and turns
    --address and --eval into naturals."""
    cap = os.environ.get("TC_DEPTH_CAP", str(lazyset.DEFAULT_DEPTH_CAP))
    try:
        lazyset.set_depth_cap(int(cap))
    except ValueError:
        return f"bad TC_DEPTH_CAP: {cap!r}"
    for flag, least in (("depth", 1), ("count", 1), ("truncate", 0),
                        ("bound", 0), ("pairs", 0)):
        value = getattr(args, flag, None)
        if value is not None and value < least:
            return f"--{flag} must be >= {least}"
    if getattr(args, "bound", 0) and args.interval is None:
        return "--bound needs --interval"
    if args.command == "cont" and args.truncate is not None \
            and args.eval is None:
        return "--truncate needs --eval"
    if args.command == "tree":
        args.address = _naturals(args.address)
        if args.address is None:
            return "--address needs comma-separated naturals"
        if not 0 < args.a < args.b:
            return "need 0 < a < b"
    if args.command == "cont" and args.truncate is not None:
        # Python 3.10 before 3.10.7 has no int-to-string digit limit
        digits = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        most = math.ceil(digits / math.log10(2)) - 1
        if digits and args.truncate > most:
            return (f"--truncate must be <= {most}: 2^N would have more "
                    f"than {digits} decimal digits")
    if args.command == "cont" and args.eval is not None:
        args.eval = _naturals(args.eval)
        if args.eval is None or len(args.eval) != 2:
            return "--eval needs two naturals D,X"
    return None


def _report(checks: Iterable[Tuple[str, Optional[str]]]) -> int:
    """Print each check's line as soon as the check is done, then the tally.
    A later check may raise; the lines before it are out by then."""
    report = ChainReport()
    for label, reason in checks:
        print(report.add(label, reason))
    print(report.tally)
    return 0 if report.ok else 1


def _interval_cert(arg: Optional[str], bound: int) -> OrderCertificate:
    """The interval `--interval` names (the default one if None), checked
    to depth 4: the chains built on it trust it."""
    if arg is None:
        cert = default_interval()
    else:
        lower, upper = parse_text(arg, (SET, ",", SET))
        cert = default_certificate(lower, upper, bound)
    reason = verify_certificate(cert, 4)
    if reason is not None:
        raise InvalidCertificateError(f"invalid interval certificate: {reason}")
    return cert


@functools.lru_cache(maxsize=KEPT_BOUNDS)
def _embedding(xi: Ordinal, interval: OrderCertificate,
               cap: int) -> OrdinalEmbedding:
    """The embedding of the notations below xi into the interval, kept with
    what it has derived.  The depth cap is in the key: a kept embedding
    hands out its chain's sets without the lookup that checks the cap."""
    return OrdinalEmbedding(xi, interval)


def _pair_checks(args, interval: Optional[str], bound: int, check) -> int:
    """Report `check(embedding, a, b, depth)` for each of `--pairs` seeded
    pairs a < b below `--ordinal`, embedded into the interval.  Each pair
    is checked as it is drawn, so no run holds its pairs in memory.  The
    interval is checked on every run; the embedding is shared with the
    last KEPT_BOUNDS runs on the same ordinal, interval and depth cap,
    which prints what a new one would."""
    xi = parse_ordinal(args.ordinal)
    embedding = _embedding(xi, _interval_cert(interval, bound),
                           lazyset._DEPTH_CAP)
    pairs = sample_comparable_pairs(xi, args.pairs, random.Random(args.seed)) \
        if not xi.is_zero() else []
    return _report((f"PAIR {format_ordinal(a, compact=True)} "
                    f"{format_ordinal(b, compact=True)}",
                    check(embedding, a, b, args.depth))
                   for a, b in pairs)


def cmd_embed(args) -> int:
    return _pair_checks(args, args.interval, args.bound,
                        lambda emb, a, b, depth:
                        verify_certificate(emb.cert(a, b), depth))


def cmd_baire(args) -> int:
    return _pair_checks(args, None, 0, pair_failure)


def cmd_cont(args) -> int:
    space = load_space(args.space)
    chain = ContChain(space)
    if args.eval is not None:
        d, x = args.eval
        if not (d < space.n and x < space.n):
            print(f"cont: --eval D,X must name points below {space.n}",
                  file=sys.stderr)
            return USAGE_ERROR
        value, tail = chain.eval(d, x, truncate=args.truncate)
        try:
            line = format_eval(d, x, value, tail)
        except ValueError:      # past Python's int-to-string digit limit
            print(f"cont: f {d} at {x} has too many digits to print",
                  file=sys.stderr)
            return USAGE_ERROR
        print(line)
    if args.check_all:
        order = space.order
        return _report((f"PAIR {d} {e}", chain.pair_failure(d, e))
                       for pd, d in enumerate(order) for e in order[pd + 1:])
    return 0


def cmd_verify(args) -> int:
    with open(args.cert, encoding="utf-8") as fh:
        cert = parse_certificate(fh.read())
    report = ChainReport()
    print(report.add("", verify_certificate(cert, args.depth)))
    return 0 if report.ok else 1


def cmd_split(args) -> int:
    chain = SplitChain(_interval_cert(args.interval, args.bound))
    for k in range(1, args.count + 1):
        print(f"Z {k} {chain.z(k).expr}")
    checks = [("x" if k == 0 else f"z{k}", f"z{k + 1}", chain.cert(k, k + 1))
              for k in range(args.count)]
    checks.append((f"z{args.count}", "y", chain.cert(args.count)))
    return _report((f"PAIR {lo} {hi}", verify_certificate(c, args.depth))
                   for lo, hi, c in checks)


def cmd_tree(args) -> int:
    chain = tree_split(args.address)
    print(f"NODE {chain.x.expr}")

    # a generator, so EXTEND0 is out before a child certificate can raise
    def checks():
        extends = chain.cert(0, 1).lower is chain.x
        yield "EXTEND0", None if extends else ""
        a, b = args.a, args.b
        for lo, hi, c in [("s", f"s~{a}", chain.cert(0, a)),
                          (f"s~{a}", f"s~{b}", chain.cert(a, b)),
                          (f"s~{b}", "s+", chain.cert(b))]:
            yield f"PAIR {lo} {hi}", verify_certificate(c, args.depth)

    return _report(checks())


@functools.lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process, built on the first call (not at
    import) and reused: building it costs more than a small job."""
    parser = argparse.ArgumentParser(
        prog="ordchain",
        description="Construct and verify certified mod-finite chains, "
                    "ordinal embeddings and continuous-function chains.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("embed", help="embed an ordinal into an interval")
    p.add_argument("--ordinal", required=True)
    p.add_argument("--interval", default=None,
                   help="lower,upper set expressions (default rows(0),rows(1))")
    p.add_argument("--bound", type=int, default=0,
                   help="exception bound for the interval certificate")
    p.add_argument("--pairs", type=int, default=200)
    p.add_argument("--depth", type=int, default=32)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_embed)

    p = sub.add_parser("cont", help="continuous chains on a metric space file")
    p.add_argument("--space", required=True)
    p.add_argument("--eval", default=None, metavar="D,X")
    p.add_argument("--truncate", type=int, default=None)
    p.add_argument("--check-all", action="store_true")
    p.set_defaults(func=cmd_cont)

    p = sub.add_parser("baire", help="verify the indicator chain of an embedding")
    p.add_argument("--ordinal", required=True)
    p.add_argument("--pairs", type=int, default=50)
    p.add_argument("--depth", type=int, default=32)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_baire)

    p = sub.add_parser("verify", help="check a serialized certificate")
    p.add_argument("--cert", required=True)
    p.add_argument("--depth", type=int, default=32)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("split", help="split an interval into an omega-chain")
    p.add_argument("--interval", default=None)
    p.add_argument("--bound", type=int, default=0)
    p.add_argument("--count", type=int, default=4)
    p.add_argument("--depth", type=int, default=16)
    p.set_defaults(func=cmd_split)

    p = sub.add_parser("tree", help="materialize and check a tree address")
    p.add_argument("--address", required=True, metavar="N,N,...")
    p.add_argument("--a", type=int, default=1)
    p.add_argument("--b", type=int, default=2)
    p.add_argument("--depth", type=int, default=32)
    p.set_defaults(func=cmd_tree)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    problem = _input_problem(args)
    if problem is not None:
        print(f"{args.command}: {problem}", file=sys.stderr)
        return USAGE_ERROR
    try:
        return args.func(args)
    except (OrdinalParseError, SetParseError, SpaceParseError, UnicodeDecodeError) as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except OSError as exc:
        print(str(exc), file=sys.stderr)
        return USAGE_ERROR
    except NoPairsError as exc:
        print(f"{args.command}: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except (MetricAxiomError, InvalidCertificateError,
            ResourceLimitError) as exc:
        print(f"FAIL {exc}")
        return 1


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
