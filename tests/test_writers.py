"""Artifacts are written by the command line front end alone.

`cli` owns the byte format of every CSV and JSON artifact, which the
manifest hashes and reruns compare, and it alone opens files for
writing: the other modules hand it bytes, as `solver.snapshot_bytes`
does for the binary snapshot.  A module of chslab/*.py other than cli
that imports json, calls json.dump or opens a file in a write mode fails
here, with no exception.
"""

import ast
import pathlib

import chslab


def _opens_for_writing(call):
    if getattr(call.func, "id", None) != "open":
        return False
    mode = call.args[1] if len(call.args) > 1 else next(
        (kw.value for kw in call.keywords if kw.arg == "mode"), ast.Constant("r"))
    # a mode that is not a literal cannot be shown to be read-only
    return not (isinstance(mode, ast.Constant) and set(mode.value) <= set("rbt"))


def _writers(tree):
    """(function, line) of each json import, json.dump call and write-mode open."""
    hits = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            imports_json = (
                isinstance(child, ast.Import) and any(a.name == "json" for a in child.names)
                or isinstance(child, ast.ImportFrom) and child.module == "json")
            dumps_json = (isinstance(child, ast.Call) and isinstance(child.func, ast.Attribute)
                          and child.func.attr == "dump"
                          and getattr(child.func.value, "id", None) == "json")
            if imports_json or dumps_json or (isinstance(child, ast.Call)
                                              and _opens_for_writing(child)):
                hits.append((scope, child.lineno))
            visit(child, scope)

    visit(tree, "<module>")
    return hits


def test_only_cli_writes_text_artifacts():
    found = []
    for path in sorted(pathlib.Path(chslab.__file__).parent.glob("*.py")):
        if path.name != "cli.py":
            found += [(path.name, scope, line)
                      for scope, line in _writers(ast.parse(path.read_text()))]
    assert found == []


def test_guard_sees_writers():
    src = ("import json\nfrom json import dump\n\n"
           "def a(p):\n    with open(p, 'w') as fh:\n        json.dump({}, fh)\n\n"
           "def b(p, m):\n    open(p, mode='ab')\n    open(p, m)\n    return open(p).read()\n\n"
           "class R:\n    def save(self, p):\n        open(p, 'rb+')\n"
           "        return open(p, 'rb'), open(p, mode='rt')\n")
    assert _writers(ast.parse(src)) == [
        ("<module>", 1), ("<module>", 2), ("a", 5), ("a", 6), ("b", 9), ("b", 10),
        ("save", 15)]
