"""mci raises ValueError for bad input and four exception types for the rest.

A malformed or out-of-range argument, config field or results file raises the
built-in ValueError.  An exception class of the package exists only where a
caller tells it apart from the others: the CLI reports any MciError, and
NumericalFailure and NotConverged name the two ways a well-formed input can
fail.  A solve reports every outcome of well-formed input as a status, so the
solver raises nothing but ValueError; Infeasible is no longer raised and stays
only because the benchmark's tracer (perfbench/layertrace.py) looks it up.
"""

import ast
from pathlib import Path

import mci

PACKAGE = Path(mci.__file__).parent
SOURCES = sorted(PACKAGE.glob("*.py"))
EXCEPTION_TYPES = {"MciError", "NumericalFailure", "NotConverged", "Infeasible"}
RAISABLE = EXCEPTION_TYPES | {"ValueError"}


def _foreign_raises(tree: ast.AST, allowed: set[str] = RAISABLE) -> list[tuple[int, str]]:
    """(line, name) of every `raise` whose exception is not in `allowed`; a
    bare re-raise is allowed."""
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Raise) or node.exc is None:
            continue
        exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
        name = exc.attr if isinstance(exc, ast.Attribute) else getattr(exc, "id", ast.dump(exc))
        if name not in allowed:
            found.append((node.lineno, name))
    return found


def test_errors_defines_exactly_the_four_types():
    tree = ast.parse((PACKAGE / "errors.py").read_text())
    assert {node.name for node in tree.body if isinstance(node, ast.ClassDef)} == EXCEPTION_TYPES


def test_every_raise_is_value_error_or_a_package_type():
    assert SOURCES
    found = {path.name: raises for path in SOURCES
             if (raises := _foreign_raises(ast.parse(path.read_text())))}
    assert not found, f"raises outside {sorted(RAISABLE)}: {found}"


def test_solver_raises_only_value_error():
    # Every other outcome of a solve is a status of its Solution record.
    assert _foreign_raises(ast.parse((PACKAGE / "solver.py").read_text()), {"ValueError"}) == []


def test_scan_catches_every_raise_form():
    for source in ("raise DimMismatch('x')", "raise errors.SchemaMismatch('x')",
                   "raise FileNotFoundError", "def f():\n    raise TypeError('x')",
                   "raise RuntimeError('x') from None"):
        assert _foreign_raises(ast.parse(source)), source
    for source in ("raise ValueError('x')", "raise Infeasible", "raise errors.NotConverged('x')",
                   "try:\n    pass\nexcept ValueError:\n    raise"):
        assert not _foreign_raises(ast.parse(source)), source
