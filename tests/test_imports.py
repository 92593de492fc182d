"""Every module-level import in the package is used or re-exported.

A removal that leaves its import behind fails here: each name that a
module-level import binds in chslab/*.py must be read somewhere in that
module or be listed in its __all__, and the same holds for tests/*.py
(the acceptance tests excepted).  Likewise each private (_name)
function, class or variable a module defines must be read in that
module, since nothing outside it should reach for it.  Each public
name in a module's __all__ must be read in chslab/*.py or in the
acceptance tests, or be named in bench/*.py, whose tracer names the
functions it wraps by string: test-only public API does not grow back.
A serial run with no config text loads neither the process pool nor
the INI parser.  The collector is the
front end's business alone: `cli` freezes the import heap, and no other
module imports gc, so importing a library module never changes its state.
"""

import ast
import os
import pathlib
import subprocess
import sys

import chslab


def _unused_imports(tree):
    """(line, name) of every module-level import binding the module never reads."""
    bound, exported = {}, set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    bound[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Assign) and any(
                getattr(target, "id", None) == "__all__" for target in node.targets):
            exported = set(ast.literal_eval(node.value))
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted((line, name) for name, line in bound.items()
                  if name not in read and name not in exported)


def test_package_has_no_unused_imports():
    found = []
    for path in sorted(pathlib.Path(chslab.__file__).parent.glob("*.py")):
        found += [(path.name, *hit) for hit in _unused_imports(ast.parse(path.read_text()))]
    assert found == []


ROOT = pathlib.Path(__file__).resolve().parents[1]


def test_tests_have_no_unused_imports():
    # the acceptance tests stay as they were written
    found = []
    for path in sorted((ROOT / "tests").glob("*.py")):
        if path.name != "test_acceptance.py":
            found += [(path.name, *hit) for hit in _unused_imports(ast.parse(path.read_text()))]
    assert found == []


def test_guard_sees_unused_imports():
    src = ("from __future__ import annotations\nimport os\nimport numpy as np\n"
           "import os.path as osp\nfrom math import pi, tau\nfrom .spectral import Grid\n"
           "__all__ = ['Grid']\nprint(np.zeros(1), tau)\n\n"
           "def f():\n    import sys\n    tau = 1\n")
    assert _unused_imports(ast.parse(src)) == [(2, "os"), (4, "osp"), (5, "pi")]


def _unread_private_names(tree):
    """(line, name) of each module-level _name a def, class or assignment binds, never read."""
    defined = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [n.id for target in node.targets for n in ast.walk(target)
                     if isinstance(n, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                defined.setdefault(name, node.lineno)
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted((line, name) for name, line in defined.items() if name not in read)


def test_package_private_names_are_all_read():
    found = []
    for path in sorted(pathlib.Path(chslab.__file__).parent.glob("*.py")):
        found += [(path.name, *hit) for hit in _unread_private_names(ast.parse(path.read_text()))]
    assert found == []


def test_guard_sees_unread_private_names():
    src = ("import os as _os\n_A = 1\n_B: int = 2\n_C = 3\n__all__ = []\n\n"
           "def _f():\n    return _A\n\n\nclass _K:\n    _inner = 1\n\n\n"
           "_x, _y = 1, 2\nprint(_y, _C)\n\n\ndef g():\n    _local = 1\n")
    assert _unread_private_names(ast.parse(src)) == [(3, "_B"), (7, "_f"), (11, "_K"),
                                                     (15, "_x")]


# public on purpose though nothing here reads them: the snapshot reader and
# the package version
UNREAD_PUBLIC = {("__init__.py", "__version__"), ("solver.py", "load_snapshot")}


def _reads(tree):
    """Every name a tree loads, as a bare name or as an attribute of anything."""
    return {getattr(node, "id", None) or node.attr for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)}


def _named(tree):
    """_reads, plus each identifier spelled in a string, dotted or not."""
    return _reads(tree) | {part for node in ast.walk(tree)
                           if isinstance(node, ast.Constant) and isinstance(node.value, str)
                           for part in node.value.split(".") if part.isidentifier()}


def _unread_public_names(modules, used):
    """(module, name) of each __all__ entry of modules (name -> tree) not in used."""
    return sorted((module, name) for module, tree in modules.items() for node in tree.body
                  if isinstance(node, ast.Assign)
                  and any(getattr(target, "id", None) == "__all__" for target in node.targets)
                  for name in ast.literal_eval(node.value) if name not in used)


def test_every_public_name_is_read():
    modules = {path.name: ast.parse(path.read_text())
               for path in sorted(pathlib.Path(chslab.__file__).parent.glob("*.py"))}
    used = set().union(*map(_reads, modules.values()),
                       _reads(ast.parse((ROOT / "tests" / "test_acceptance.py").read_text())),
                       *(_named(ast.parse(path.read_text()))
                         for path in sorted((ROOT / "bench").glob("*.py"))))
    found = [hit for hit in _unread_public_names(modules, used) if hit not in UNREAD_PUBLIC]
    assert found == []


def test_guard_sees_unread_public_names():
    lib = ast.parse("__all__ = ['used', 'traced', 'planted']\n\n"
                    "def used():\n    pass\n\n\ndef traced():\n    pass\n\n\n"
                    "def planted():\n    pass\n")
    caller = ast.parse("import lib\nlib.used()\nplanted = 1\n")
    bench = ast.parse("LAYERS = {'lib': ('lib.traced',)}\n# planted\n")
    used = _reads(lib) | _reads(caller) | _named(bench)
    assert _unread_public_names({"lib.py": lib}, used) == [
        ("lib.py", "planted")]


def _gc_uses(tree):
    """Lines that import gc, load it through importlib or call one of its functions."""
    hits = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) and any(a.name == "gc" for a in node.names):
            hits.add(node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module == "gc":
            hits.add(node.lineno)
        elif isinstance(node, ast.Call):
            name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
            loads_gc = name in ("__import__", "import_module") and any(
                isinstance(arg, ast.Constant) and arg.value == "gc" for arg in node.args)
            if loads_gc or getattr(getattr(node.func, "value", None), "id", None) == "gc":
                hits.add(node.lineno)
    return sorted(hits)


def test_only_cli_touches_the_collector():
    found = []
    for path in sorted(pathlib.Path(chslab.__file__).parent.glob("*.py")):
        if path.name != "cli.py":
            found += [(path.name, line) for line in _gc_uses(ast.parse(path.read_text()))]
    assert found == []


def test_gc_guard_sees_collector_use():
    src = ("import os, gc\nfrom gc import freeze\nimport importlib\n\n"
           "def f():\n    gc.collect()\n    __import__('gc').disable()\n"
           "    importlib.import_module('gc')\n    os.getpid()\n    garbage = 'gc'\n"
           "    return freeze, garbage\n")
    assert _gc_uses(ast.parse(src)) == [1, 2, 6, 7, 8]


def _fresh_python(code, *args):
    """Run code in a fresh interpreter that imports chslab from this tree."""
    src = pathlib.Path(chslab.__file__).parent.parent
    env = dict(os.environ, PYTHONPATH=str(src))
    return subprocess.run([sys.executable, "-c", code, *map(str, args)], env=env,
                          capture_output=True, text=True, timeout=120)


def test_cli_import_freezes_its_heap_and_leaves_the_collector_working(tmp_path):
    # the frozen import heap is skipped by every collection, the one at
    # interpreter shutdown included; what a run makes later is still collected
    code = ("import gc, sys, weakref\nimport chslab.cli\n"
            "frozen = gc.get_freeze_count()\n"
            "class Node:\n    pass\n"
            "a, b = Node(), Node()\na.other, b.other = b, a\nreclaimed = []\n"
            "weakref.finalize(a, reclaimed.append, 'a')\ndel a, b\ngc.collect()\n"
            "code = chslab.cli.main(['solve', '--N', '64', '--t_end', '0.05',"
            " '--out', sys.argv[1]])\n"
            "print(gc.isenabled(), frozen > 0, reclaimed, code)\n")
    out = tmp_path / "run"
    done = _fresh_python(code, out)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["True", "True", "['a']", "0"]
    lines = (out / "manifest.txt").read_text().splitlines()
    assert lines[0] == "chslab manifest" and lines[-1].startswith("wall_time_s = ")
    assert [line.split()[1] for line in lines if line.startswith("artifact ")] == [
        "ledger.csv", "state_final.chs2"]


def test_serial_run_loads_neither_the_process_pool_nor_the_ini_parser(tmp_path):
    # the fixed cost of every CLI process: a run with one worker and no
    # --config text has no use for either module
    code = ("import sys\nfrom chslab.cli import main\n"
            "code = main(['solve', '--N', '64', '--t_end', '0.05', '--out', sys.argv[1]])\n"
            "print(code, *[m for m in ('concurrent.futures', 'multiprocessing', 'configparser')"
            " if m in sys.modules])\n")
    done = _fresh_python(code, tmp_path / "run")
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["0"]
