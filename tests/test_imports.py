"""Every module-level import in the package is used or re-exported.

A removal that leaves its import behind fails here: each name that a
module-level import binds in chslab/*.py must be read somewhere in that
module or be listed in its __all__.  A serial run with no config text
loads neither the process pool nor the INI parser.
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


def test_guard_sees_unused_imports():
    src = ("from __future__ import annotations\nimport os\nimport numpy as np\n"
           "import os.path as osp\nfrom math import pi, tau\nfrom .spectral import Grid\n"
           "__all__ = ['Grid']\nprint(np.zeros(1), tau)\n\n"
           "def f():\n    import sys\n    tau = 1\n")
    assert _unused_imports(ast.parse(src)) == [(2, "os"), (4, "osp"), (5, "pi")]


def test_serial_run_loads_neither_the_process_pool_nor_the_ini_parser(tmp_path):
    # the fixed cost of every CLI process: a run with one worker and no
    # --config text has no use for either module
    code = ("import sys\nfrom chslab.cli import main\n"
            "code = main(['solve', '--N', '64', '--t_end', '0.05', '--out', sys.argv[1]])\n"
            "print(code, *[m for m in ('concurrent.futures', 'multiprocessing', 'configparser')"
            " if m in sys.modules])\n")
    src = pathlib.Path(chslab.__file__).parent.parent
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run([sys.executable, "-c", code, str(tmp_path / "run")], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["0"]
