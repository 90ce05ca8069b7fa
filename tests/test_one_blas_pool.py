"""mci runs on numpy alone: no module of the package imports scipy.

The numpy and scipy wheels each bundle their own OpenBLAS, each with its own
thread pool.  When the Newton loop alternated a numpy product with a scipy
factorisation, the idle threads of one pool spun on the cores the other
needed: on 2 cores, a 150 x 512 x 150 numpy product followed by scipy's
`cho_factor` took 16-17 ms per pair, against 2-3 ms with numpy's Cholesky.
The l1 program, scipy's last use (`linprog`), is now a numpy homotopy, so
scipy is a test dependency only; `import scipy.optimize` alone took about
0.65 s and 49 MB of every `mci` process.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import mci

SOURCES = sorted(Path(mci.__file__).parent.glob("*.py"))


def _scipy_imports(tree: ast.AST) -> list[int]:
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module is not None:
            names = [node.module]
        else:
            continue
        if any(name == "scipy" or name.startswith("scipy.") for name in names):
            lines.append(node.lineno)
    return lines


def test_no_module_imports_scipy_linalg():
    # Any scipy import at all, scipy.linalg included.
    assert SOURCES
    found = {path.name: lines for path in SOURCES
             if (lines := _scipy_imports(ast.parse(path.read_text())))}
    assert not found, f"scipy imported at {found}"


def test_scan_catches_every_import_form():
    for source in ("import scipy", "import scipy.linalg", "import scipy.linalg as sla",
                   "from scipy import linalg", "from scipy.linalg import cho_factor",
                   "from scipy.optimize import linprog", "import numpy, scipy.stats",
                   "def f():\n    from scipy import optimize"):
        assert _scipy_imports(ast.parse(source)), source
    for source in ("import numpy.linalg", "import scipyx", "from numpy import linalg",
                   "from . import solver", "from .scipy import x"):
        assert not _scipy_imports(ast.parse(source)), source


def test_cli_import_loads_no_scipy():
    # What every `mci` process pays before its first solve.
    code = "import sys, mci.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    src = str(Path(mci.__file__).parent.parent)
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": src}, timeout=60)
    assert out.stdout.strip() == "[]"
