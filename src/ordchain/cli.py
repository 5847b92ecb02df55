"""Command-line front door.

Subcommands: embed, cont, baire, verify, split, tree.  Reports are plain
text, one fact per line, so runs diff cleanly against snapshots.  Exit
codes: 0 all checks ok, 1 any FAIL, 2 usage or parse error.
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
from .baire import EmbeddingFamily, monotone_checks
from .certs import (ChainReport, InvalidCertificateError, OrderCertificate,
                    OrdinalEmbedding, SplitChain, default_certificate,
                    default_interval, parse_certificate, tree_split,
                    verify_certificate)
from .lazyset import ResourceLimitError, SetParseError, parse_set
from .metric import (ContChain, MetricAxiomError, SpaceParseError,
                     format_eval, load_space)
from .ordinal import OrdinalParseError, format_ordinal, parse_ordinal
from .sampling import NoPairsError, sample_comparable_pairs

USAGE_ERROR = 2


def _naturals(text: str) -> Optional[Tuple[int, ...]]:
    """'n,n,...' as a tuple of naturals, or None if it is not one."""
    fields = [f.strip() for f in text.split(",")]
    return tuple(map(int, fields)) if all(map(str.isdecimal, fields)) else None


def _input_problem(args) -> Optional[str]:
    """Why TC_DEPTH_CAP or the parsed arguments cannot be used, or None.
    Sets the depth cap and turns --address and --eval into naturals."""
    cap = os.environ.get("TC_DEPTH_CAP")
    if cap is not None:
        try:
            lazyset.set_depth_cap(int(cap))
        except ValueError:
            return f"bad TC_DEPTH_CAP: {cap!r}"
    for flag, least in (("depth", 1), ("count", 1), ("truncate", 0),
                        ("bound", 0), ("pairs", 0)):
        value = getattr(args, flag, None)
        if value is not None and value < least:
            return f"--{flag} must be >= {least}"
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


def _probe(cert: OrderCertificate, depth: int) -> Optional[str]:
    """None if `cert` survives `depth` probes, else why it does not."""
    r = verify_certificate(cert, depth)
    return None if r.ok else r.message


def _split_interval_arg(text: str):
    """Split 'setA,setB' at the top-level comma."""
    depth = 0
    for i, ch in enumerate(text):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch == "," and depth == 0:
            return text[:i], text[i + 1:]
    raise SetParseError("interval needs two comma-separated set expressions")


def _interval_cert(arg: Optional[str], bound: int) -> OrderCertificate:
    if arg is None:
        return default_interval()
    lo, hi = _split_interval_arg(arg)
    return default_certificate(parse_set(lo), parse_set(hi), bound)


def cmd_embed(args) -> int:
    xi = parse_ordinal(args.ordinal)
    embedding = OrdinalEmbedding(xi, _interval_cert(args.interval, args.bound))
    pairs = sample_comparable_pairs(xi, args.pairs, random.Random(args.seed)) \
        if not xi.is_zero() else []
    return _report((f"PAIR {format_ordinal(a, compact=True)} "
                    f"{format_ordinal(b, compact=True)}",
                    _probe(embedding.cert(a, b), args.depth))
                   for a, b in pairs)


def cmd_baire(args) -> int:
    xi = parse_ordinal(args.ordinal)
    embedding = OrdinalEmbedding(xi, default_interval())
    pairs = sample_comparable_pairs(xi, args.pairs, random.Random(args.seed)) \
        if not xi.is_zero() else []
    indices = sorted({a for p in pairs for a in p})
    family = EmbeddingFamily(embedding, indices)
    return _report(monotone_checks(family, pairs, args.depth, indices[:5]))


def cmd_cont(args) -> int:
    space = load_space(args.space)
    chain = ContChain(space)
    if args.eval is not None:
        d, x = args.eval
        if not (d < space.n and x < space.n):
            raise SpaceParseError("eval indices out of range")
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
    print(report.add("", _probe(cert, args.depth)))
    return 0 if report.ok else 1


def cmd_split(args) -> int:
    chain = SplitChain(_interval_cert(args.interval, args.bound))
    for k in range(1, args.count + 1):
        print(f"Z {k} {chain.z(k).expr}")
    checks = [("x" if k == 0 else f"z{k}", f"z{k + 1}", chain.cert_slot(k))
              for k in range(args.count)]
    checks.append((f"z{args.count}", "y", chain.cert_upper(args.count)))
    return _report((f"PAIR {lo} {hi}", _probe(c, args.depth))
                   for lo, hi, c in checks)


def cmd_tree(args) -> int:
    chain = tree_split(args.address)
    print(f"NODE {chain.x.expr}")

    # a generator, so EXTEND0 is out before a child certificate can raise
    def checks():
        extends = chain.cert_slot(0).lower is chain.x
        yield "EXTEND0", None if extends else ""
        a, b = args.a, args.b
        for lo, hi, c in [("s", f"s~{a}", chain.cert_lower(a)),
                          (f"s~{a}", f"s~{b}", chain.cert_between(a, b)),
                          (f"s~{b}", "s+", chain.cert_upper(b))]:
            yield f"PAIR {lo} {hi}", _probe(c, args.depth)

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
