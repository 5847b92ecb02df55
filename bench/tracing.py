"""Spans around calls into the library, recorded from outside it.

`Tracer.install` wraps the public functions and methods of each module of
the package, and rebinds every module attribute that held the original
function (so re-imports such as `cli.verify_certificate` are traced too).

Most calls become spans: (id, parent id, job id, name, start, end, time
spent in aggregated children), kept in memory and written at the end.
Calls to HOT functions, and every call made beneath one, are counted and
timed in aggregate instead, because they run millions of times per run.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import json
import sys
import time
from collections import defaultdict
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

PACKAGE = "ordchain"
MODULES = ("ordinal", "sampling", "lazyset", "certs", "baire", "metric", "cli")

HOT = frozenset({"lazyset.LazySet.member", "ordinal.compare",
                 "metric.SeparatedNets.level"})
# O(1) accessors and the per-level terms of ContChain.eval, called O(n^3)
# times per metric job; unwrapped, their time stays in the caller's self time.
SKIP = frozenset({"ordinal.Ordinal.is_zero", "ordinal.Ordinal.from_int",
                  "metric.MetricSpace.dist", "metric.MetricSpace.precedes",
                  "metric.psi", "metric.phi"})

VERIFY = "certs.verify_certificate"
CTORS = tuple(f"lazyset.{f}" for f in
              ("union", "inter", "diff", "piece", "ap", "rows"))

# Reported groups: metric prefix -> traced functions.
GROUPS: Dict[str, Tuple[str, ...]] = {
    "ordinal.compare": ("ordinal.compare",),
    "ordinal.parse": ("ordinal.parse_ordinal",),
    "sampling.pairs": ("sampling.sample_comparable_pairs",),
    "lazyset.member": ("lazyset.LazySet.member",),
    "lazyset.bits": ("lazyset.LazySet.bits",),
    "lazyset.first_n": ("lazyset.LazySet.first_n",),
    "lazyset.ctor": CTORS,
    "lazyset.parse": ("lazyset.parse_set",),
    "certs.verify": (VERIFY,),
    "certs.embed_cert": ("certs.OrdinalEmbedding.cert",
                         "certs.OrdinalEmbedding.lower_cert",
                         "certs.OrdinalEmbedding.upper_cert",
                         "certs.compose_certs"),
    "certs.split": tuple(f"certs.SplitChain.{m}" for m in
                         ("slice_piece", "z", "cert_lower", "cert_between",
                          "cert_step", "cert_upper")) + ("certs.split_interval",),
    "certs.tree": tuple(f"certs.{f}" for f in
                        ("normalize_address", "tree_split", "tree_node",
                         "tree_interval_cert", "tree_child_certs")),
    "certs.parse": ("certs.parse_certificate",),
    "baire.check": ("baire.verify_chain_monotone",),
    "baire.evaluate": ("baire.BaireFunction.evaluate",),
    "metric.parse": ("metric.parse_space", "metric.load_space"),
    "metric.validate": ("metric.MetricSpace.validate",),
    "metric.nets": ("metric.SeparatedNets.level",
                    "metric.SeparatedNets.check_level", "metric.build_nets"),
    "metric.eval": ("metric.ContChain.eval",),
    "metric.value_table": ("metric.ContChain.value_table",),
}
COMMANDS = ("embed", "baire", "cont", "verify", "split", "tree")
GROUPS.update({f"cli.{c}": (f"cli.cmd_{c}",) for c in COMMANDS})

# (group, stat) pairs reported as per-layer metrics, besides the per-module
# self times and the trace.* figures.
REPORTED = (
    ("ordinal.compare", "calls"), ("ordinal.parse", "total_s"),
    ("sampling.pairs", "total_s"),
    ("lazyset.member", "calls"), ("lazyset.member", "self_s"),
    ("lazyset.bits", "calls"), ("lazyset.bits", "self_s"),
    ("lazyset.first_n", "self_s"),
    ("lazyset.ctor", "calls"), ("lazyset.ctor", "self_s"),
    ("lazyset.parse", "total_s"),
    ("certs.verify", "calls"), ("certs.verify", "self_s"),
    ("certs.embed_cert", "calls"), ("certs.embed_cert", "self_s"),
    ("certs.split", "self_s"), ("certs.tree", "self_s"),
    ("certs.parse", "total_s"),
    ("baire.check", "total_s"), ("baire.evaluate", "calls"),
    ("metric.parse", "total_s"),
    ("metric.validate", "calls"), ("metric.validate", "self_s"),
    ("metric.nets", "self_s"),
    ("metric.eval", "calls"), ("metric.eval", "self_s"),
    ("metric.value_table", "total_s"),
) + tuple((f"cli.{c}", "total_s") for c in COMMANDS)
COUNTERS = ("lazyset.bits.scan_elems", "certs.verify.member_calls")

Span = Tuple[int, Optional[int], Optional[int], str, float, float, float]


class Tracer:
    def __init__(self):
        self.spans: List[Span] = []
        # open calls: [start, time in children, span id or None, time in
        # aggregated children]
        self.stack: List[list] = []
        self.active: Dict[str, int] = defaultdict(int)
        self.agg: Dict[str, List[float]] = {}     # name -> [calls, self, total]
        self.counters: Dict[str, int] = defaultdict(int)
        self.nodes = set()
        self.job: Optional[int] = None

    # -- wrapping ------------------------------------------------------------

    def wrap(self, name: str, fn, hot: bool = False):
        spans, stack, active = self.spans, self.stack, self.active
        agg = self.agg.setdefault(name, [0, 0.0, 0.0])
        hook = _HOOKS.get(name)
        perf = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            as_span = not hot and (parent is None or parent[2] is not None)
            sid = len(spans) + 1 if as_span else None
            if as_span:
                spans.append(None)              # reserve the id
            active[name] += 1
            frame = [perf(), 0.0, sid, 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                active[name] -= 1
                dur = end - frame[0]
                if parent is not None:
                    parent[1] += dur
                if as_span:
                    spans[sid - 1] = (sid, parent[2] if parent else None, self.job, name,
                                      frame[0], end, frame[3])
                else:
                    agg[0] += 1
                    agg[1] += dur - frame[1]
                    if not active[name]:
                        agg[2] += dur
                    if parent is not None and parent[2] is not None:
                        parent[3] += dur
            if hook is not None:
                hook(self, args, result)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap the package's public functions and methods."""
        replaced = {}
        for short in MODULES:
            module = importlib.import_module(f"{PACKAGE}.{short}")
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    name = f"{short}.{attr}"
                    if name not in SKIP:
                        replaced[obj] = self.wrap(name, obj, name in HOT)
                elif inspect.isclass(obj) and not issubclass(obj, BaseException):
                    self._wrap_methods(short, obj)
        for modname, module in list(sys.modules.items()):
            if modname != PACKAGE and not modname.startswith(PACKAGE + "."):
                continue
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in replaced:
                    setattr(module, attr, replaced[obj])

    def _wrap_methods(self, short: str, cls) -> None:
        for attr, obj in list(vars(cls).items()):
            name = f"{short}.{cls.__name__}.{attr}"
            if attr.startswith("_") or name in SKIP:
                continue
            if isinstance(obj, staticmethod):
                setattr(cls, attr, staticmethod(self.wrap(name, obj.__func__, name in HOT)))
            elif inspect.isfunction(obj):
                setattr(cls, attr, self.wrap(name, obj, name in HOT))

    # -- results -------------------------------------------------------------

    def write(self, path: str) -> None:
        """Gzipped JSON lines: a header naming the columns, one array per
        span, then one object per aggregated function."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write(json.dumps({"columns": ["id", "parent", "job", "name", "start",
                                             "end", "agg_child_s"]}) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
            for name, (calls, self_s, total_s) in sorted(self.agg.items()):
                if calls:
                    fh.write(json.dumps({"aggregate": name, "calls": calls,
                                         "self_s": self_s, "total_s": total_s}) + "\n")


def _count_scan(tracer: Tracer, args, result) -> None:
    tracer.counters["lazyset.bits.scan_elems"] += args[1]


def _count_member(tracer: Tracer, args, result) -> None:
    if tracer.active[VERIFY]:
        tracer.counters["certs.verify.member_calls"] += 1


def _count_node(tracer: Tracer, args, result) -> None:
    tracer.nodes.add(id(result))


_HOOKS = {"lazyset.LazySet.bits": _count_scan,
          "lazyset.LazySet.member": _count_member}
_HOOKS.update({name: _count_node for name in CTORS})


def self_times(spans: Sequence[Span]) -> Dict[int, float]:
    """Span id -> duration minus the time its direct child spans cover and
    minus the time it spent in aggregated calls."""
    children = defaultdict(list)
    for sid, parent, _, _, start, end, _ in spans:
        if parent is not None:
            children[parent].append((start, end))
    out = {}
    for sid, _, _, _, start, end, agg_child in spans:
        covered, reach = 0.0, start
        for c_start, c_end in sorted(children.get(sid, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out[sid] = (end - start) - covered - agg_child
    return out


def group_stats(spans: Sequence[Span], selfs: Dict[int, float],
                groups: Dict[str, Iterable[str]]) -> Dict[str, Dict[str, float]]:
    """calls, self_s and total_s of each group's spans; total_s counts only
    spans with no ancestor in the same group."""
    member_of: Dict[str, frozenset] = defaultdict(frozenset)
    for group, names in groups.items():
        for name in names:
            member_of[name] = member_of[name] | {group}
    out = {g: {"calls": 0, "self_s": 0.0, "total_s": 0.0} for g in groups}
    inside: Dict[int, frozenset] = {}    # span id -> groups of it and its ancestors
    for sid, parent, _, name, start, end, _ in spans:   # parents come first
        above = inside[parent] if parent is not None else frozenset()
        mine = member_of.get(name)
        inside[sid] = above | mine if mine else above
        for group in mine or ():
            stat = out[group]
            stat["calls"] += 1
            stat["self_s"] += selfs[sid]
            if group not in above:
                stat["total_s"] += end - start
    return out


def layer_metrics(tracer: Tracer, job_s: float, rounds: int) -> Dict[str, float]:
    """Per-layer figures per round of the workload."""
    selfs = self_times(tracer.spans)
    groups = group_stats(tracer.spans, selfs, GROUPS)
    for group, names in GROUPS.items():
        for name in names:
            calls, self_s, total_s = tracer.agg.get(name, (0, 0.0, 0.0))
            groups[group]["calls"] += calls
            groups[group]["self_s"] += self_s
            groups[group]["total_s"] += total_s
    metrics = {f"{group}.{stat}": groups[group][stat] for group, stat in REPORTED}
    for short in MODULES:
        prefix = short + "."
        metrics[f"{short}.self_s"] = (
            sum(selfs[s[0]] for s in tracer.spans if s[3].startswith(prefix))
            + sum(a[1] for n, a in tracer.agg.items() if n.startswith(prefix)))
    metrics.update({c: tracer.counters[c] for c in COUNTERS})
    metrics["lazyset.nodes"] = len(tracer.nodes)
    metrics["trace.job_s"] = job_s
    return {k: v / rounds for k, v in metrics.items()}
