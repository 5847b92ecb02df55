"""The README's library quick tour runs, and gives the values its comments
promise.

A comment on an expression line that starts with a lowercase word
describes the line; any other such comment is the repr of the value."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import ordchain

ROOT = Path(__file__).resolve().parents[1]


def quick_tour():
    blocks = re.findall(r"```python\n(.*?)```",
                        (ROOT / "README.md").read_text(), re.DOTALL)
    assert len(blocks) == 1
    return blocks[0]


def promises(code):
    """Each top-level expression statement's source and the value its
    comment promises (None for a describing comment or none at all)."""
    lines = code.splitlines()
    out = []
    for node in ast.parse(code).body:
        if isinstance(node, ast.Expr):
            line = lines[node.end_lineno - 1]
            comment = line.partition("#")[2].strip() if "#" in line else ""
            promised = None if not comment or comment[0].islower() \
                else comment
            out.append((ast.get_source_segment(code, node), promised))
    return out


def test_quick_tour_runs_and_keeps_its_promises():
    code = quick_tour()
    tree = ast.parse(code)
    # print the repr of every top-level expression, in order
    tree.body = [ast.Expr(ast.Call(ast.Name("print", ast.Load()),
                                   [ast.Call(ast.Name("repr", ast.Load()),
                                             [node.value], [])], []))
                 if isinstance(node, ast.Expr) else node
                 for node in tree.body]
    src = str(Path(ordchain.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", ast.unparse(ast.fix_missing_locations(tree))],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True,
        text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    expected = promises(code)
    got = proc.stdout.splitlines()
    assert len(got) == len(expected)
    checked = {expr: value for (expr, promised), value in zip(expected, got)
               if promised is not None}
    assert checked == {e: p for e, p in expected if p is not None}
    assert checked['f(parse_ordinal("1"))'] == "1"
    oks = [v for e, v in checked.items() if e.startswith("verify_certificate(")]
    assert oks == ["True"] * 5
    assert checked["verify_certificate(chain.cert(1, 3), depth=32) is None"] \
        == "True"
    assert checked['verify_certificate(emb.cert(None, parse_ordinal("w*2+1")), '
                   'depth=32) is None'] == "True"
