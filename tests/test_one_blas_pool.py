"""mci's dense linear algebra runs on numpy's BLAS alone.

The numpy and scipy wheels each bundle their own OpenBLAS, each with its own
thread pool.  When the Newton loop alternated a numpy product with a scipy
factorisation, the idle threads of one pool spun on the cores the other
needed: on 2 cores, a 150 x 512 x 150 numpy product followed by scipy's
`cho_factor` took 16-17 ms per pair, against 2-3 ms with numpy's Cholesky.
scipy stays for `linprog` (HiGHS uses no BLAS), but no module of the package
may import `scipy.linalg`.
"""

import ast
from pathlib import Path

import mci

SOURCES = sorted(Path(mci.__file__).parent.glob("*.py"))


def _scipy_linalg_imports(tree: ast.AST) -> list[int]:
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module is not None:
            names = [f"{node.module}.{alias.name}" for alias in node.names]
            names.append(node.module)
        else:
            continue
        if any(name == "scipy.linalg" or name.startswith("scipy.linalg.") for name in names):
            lines.append(node.lineno)
    return lines


def test_no_module_imports_scipy_linalg():
    assert SOURCES
    found = {path.name: lines for path in SOURCES
             if (lines := _scipy_linalg_imports(ast.parse(path.read_text())))}
    assert not found, f"scipy.linalg imported at {found}"


def test_scan_catches_every_import_form():
    for source in ("import scipy.linalg", "import scipy.linalg as sla",
                   "from scipy import linalg", "from scipy.linalg import cho_factor",
                   "def f():\n    from scipy import linalg"):
        assert _scipy_linalg_imports(ast.parse(source)), source
    for source in ("import scipy", "from scipy.optimize import linprog", "import numpy.linalg"):
        assert not _scipy_linalg_imports(ast.parse(source)), source
