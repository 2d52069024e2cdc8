"""Package hygiene: the public names resolve, each has a reader outside the
tests, no module imports what it never reads, and no function takes a
parameter that it never reads."""

from __future__ import annotations

import ast
import re
from pathlib import Path

import pytest

import provkit

SRC = Path(provkit.__file__).parent

#: Imports that a module keeps without reading them, by (module, name).
#: perfbench/workloads.py patches ``mlpipe.svm_train`` for its traced replay.
KEPT_IMPORTS = {("mlpipe", "svm_train")}

#: Parameters that a function keeps without reading them, by (module, function).
#: ``warnings.showwarning`` fixes the signature of ``cli._print_warning``, and
#: perfbench/workloads.py passes ``threads`` to ``mlpipe.repeated_kfold``.
KEPT_PARAMETERS = {
    ("cli", "_print_warning"): {"category", "filename", "lineno", "file", "line"},
    ("mlpipe", "repeated_kfold"): {"threads"},
}


def test_every_public_name_resolves_once():
    assert len(set(provkit.__all__)) == len(provkit.__all__)
    missing = [name for name in provkit.__all__ if not hasattr(provkit, name)]
    assert missing == []


def _reader_lines() -> list[str]:
    """The lines in which a public name counts as read: every module but its
    ``_EXPORTS`` table, then ``perfbench/*.py`` and README.md."""
    lines = []
    for path in sorted(SRC.glob("*.py")):
        text = path.read_text(encoding="utf-8").splitlines()
        for node in ast.parse("\n".join(text)).body:
            if isinstance(node, ast.Assign) and [ast.unparse(t) for t in node.targets] == ["_EXPORTS"]:
                text[node.lineno - 1 : node.end_lineno] = []
                break
        lines += text
    root = SRC.parents[1]
    for path in [*sorted((root / "perfbench").glob("*.py")), root / "README.md"]:
        lines += path.read_text(encoding="utf-8").splitlines()
    return lines


def test_every_public_name_has_a_reader_outside_the_tests():
    lines = _reader_lines()
    unread = []
    for name in provkit.__all__:
        own = re.compile(rf"(def |class ){name}\b|{name} *[:=]")  # its definition
        word = re.compile(rf"\b{name}\b")
        if not any(word.search(line) and not own.match(line) for line in lines):
            unread.append(name)
    assert unread == []


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


def test_every_parameter_is_read():
    unread = []
    for path in sorted(SRC.glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            a = fn.args
            params = [p.arg for p in (*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg) if p]
            body = fn.body if isinstance(fn.body, list) else [fn.body]
            read = {n.id for stmt in body for n in ast.walk(stmt)
                    if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            name = getattr(fn, "name", "<lambda>")
            kept = KEPT_PARAMETERS.get((path.stem, name), set())
            unread += [f"{path.stem}.{name}({p})" for p in params if p not in read | kept]
    assert unread == []


def test_only_model_sets_up_family_columns():
    """``GraphFamily``'s column invariant has one home: no other module makes
    a family around ``from_records`` and ``_from_columns``."""
    internals = re.compile(r"_set_columns|__new__\(GraphFamily\)|_edge_order|_in_first_appearance")
    offenders = [path.name for path in sorted(SRC.glob("*.py"))
                 if path.name != "model.py" and internals.search(path.read_text(encoding="utf-8"))]
    assert offenders == []
