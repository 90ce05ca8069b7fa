"""Every module of the package reads every name it imports.

`__init__.py` is left out: its imports are the package's exports.
"""

import ast
from pathlib import Path

import mci

PACKAGE = Path(mci.__file__).parent
MODULES = sorted(path for path in PACKAGE.glob("*.py") if path.name != "__init__.py")


def _unused_imports(tree: ast.AST) -> list[tuple[int, str]]:
    """(line, name) of every name bound by an import and never read;
    `from __future__` imports are directives, not names."""
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in read)


def test_every_import_is_read():
    assert MODULES
    found = {path.name: unused for path in MODULES
             if (unused := _unused_imports(ast.parse(path.read_text())))}
    assert not found, f"imported and never read: {found}"


def test_scan_catches_every_import_form():
    for source in ("import json", "import numpy as np", "import os.path",
                   "from math import pi", "from .audit import smallball_estimate as est",
                   "def f():\n    from math import pi\n    return 1"):
        assert _unused_imports(ast.parse(source)), source
    for source in ("from __future__ import annotations", "import json\njson.dumps(1)",
                   "import numpy as np\nx: np.ndarray", "import os.path\nos.sep",
                   "from math import pi\ndef f():\n    return pi"):
        assert not _unused_imports(ast.parse(source)), source
