"""Package hygiene: the public names resolve, and no module imports what it
never reads."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import provkit

SRC = Path(provkit.__file__).parent

#: Imports that a module keeps without reading them, by (module, name).
#: perfbench/workloads.py patches ``mlpipe.svm_train`` for its traced replay.
KEPT_IMPORTS = {("mlpipe", "svm_train")}


def test_every_public_name_resolves_once():
    assert len(set(provkit.__all__)) == len(provkit.__all__)
    missing = [name for name in provkit.__all__ if not hasattr(provkit, name)]
    assert missing == []


def _imported_names(tree: ast.Module) -> list[str]:
    """The names that the module's top-level imports bind."""
    names = []
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names += [(a.asname or a.name).split(".")[0] for a in node.names]
    return names


def _read_names(tree: ast.Module) -> set[str]:
    """Every name the module reads, those in quoted annotations and in
    ``__all__`` included."""
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    quoting = []  # the expressions whose strings hold names
    for node in ast.walk(tree):
        if isinstance(node, ast.arg) and node.annotation:
            quoting.append(node.annotation)
        elif isinstance(node, ast.FunctionDef) and node.returns:
            quoting.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            quoting.append(node.annotation)
        elif isinstance(node, ast.Assign) and [ast.unparse(t) for t in node.targets] == ["__all__"]:
            quoting.append(node.value)
    for expr in quoting:
        for node in ast.walk(expr):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                quoted = ast.parse(node.value, mode="eval")
                read |= {n.id for n in ast.walk(quoted) if isinstance(n, ast.Name)}
    return read


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.stem)
def test_no_unused_module_level_import(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    read = _read_names(tree)
    unused = [name for name in _imported_names(tree)
              if name not in read and (path.stem, name) not in KEPT_IMPORTS]
    assert unused == []
