"""Import hygiene, read from the source with the standard library's ast.

A module may import a name it never loads only when the benchmark's tracer
(perfbench/tracer.py) wraps that binding, and ``qdarwin.__all__`` lists
exactly the names the package's ``__init__`` imports."""
import ast
import importlib
import inspect
import os
import re
import subprocess
import sys
from pathlib import Path

import qdarwin

PACKAGE = Path(qdarwin.__file__).resolve().parent
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
NOQA = re.compile(r"# noqa: F401\s+\(([^:)]*):")  # "# noqa: F401  (a, b: why)" lists a and b


def _imported(tree: ast.Module) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names.update(alias.asname or alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            names.update((alias.asname or alias.name).split(".")[0] for alias in node.names)
    return names


def _loaded(tree: ast.Module) -> set[str]:
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}


def _defined(tree: ast.Module) -> set[str]:
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    names = {node.name for node in tree.body if isinstance(node, defs)}
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return names


def _traced_bindings(monkeypatch) -> dict[str, set[str]]:
    """{module name: attributes} of every module binding the tracer wraps."""
    monkeypatch.syspath_prepend(str(PACKAGE.parent.parent / "perfbench"))
    bindings: dict[str, set[str]] = {}
    for _, targets in importlib.import_module("tracer").TARGETS:
        for owner, attr in targets:
            if inspect.ismodule(owner):
                bindings.setdefault(owner.__name__, set()).add(attr)
    return bindings


def test_unloaded_imports_are_exactly_the_traced_bindings(monkeypatch):
    traced = _traced_bindings(monkeypatch)
    for path in MODULES:
        tree = ast.parse(path.read_text())
        unloaded = _imported(tree) - _loaded(tree)
        wrapped = traced.get(f"qdarwin.{path.stem}", set())
        assert unloaded == wrapped - _loaded(tree) - _defined(tree), path.name


def test_all_lists_exactly_the_init_imports():
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    imported = [alias.name for node in tree.body if isinstance(node, ast.ImportFrom) for alias in node.names]
    assert qdarwin.__all__ == imported
    assert len(set(imported)) == len(imported)


def test_noqa_comments_list_exactly_the_unloaded_imports():
    for path in MODULES:
        source = path.read_text()
        tree = ast.parse(source)
        lines = source.splitlines()
        loaded = _loaded(tree)
        commented = {number for number, line in enumerate(lines, 1) if NOQA.search(line)}
        imports = [node for node in tree.body if isinstance(node, (ast.Import, ast.ImportFrom))]
        assert commented <= {node.lineno for node in imports}, f"{path.name}: a noqa comment off an import line"
        for node in imports:
            listed = NOQA.search(lines[node.lineno - 1])
            names = set(listed.group(1).split(", ")) if listed else set()
            assert names == _imported(node) - loaded, f"{path.name}:{node.lineno}"


def test_import_loads_no_executor():
    # bootstrap blocks are drawn in the calling thread, so neither importing the
    # package nor running a seeded estimate on either pipeline loads a thread pool
    code = (
        "import sys, qdarwin\n"
        "modules = lambda: sorted(m for m in ('concurrent.futures', 'logging', 'queue') if m in sys.modules)\n"
        "print(modules())\n"
        "for name, pipeline in (('star-experimental', 'closed_form'), ('diamond-canonical', 'reconstruction')):\n"
        "    cfg = qdarwin.RunConfig(shots_per_setting=1000, seed=3, bootstrap_resamples=20)\n"
        "    qdarwin.estimate_mi_curve(qdarwin.named_state(name), 1, cfg, pipeline)\n"
        "print(modules())\n"
    )
    out = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)},
                         capture_output=True, text=True, check=True)
    assert out.stdout == "[]\n[]\n"
