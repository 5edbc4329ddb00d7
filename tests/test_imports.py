"""Import hygiene, read from the source with the standard library's ast.

A module may import a name it never loads only when the benchmark's tracer
(perfbench/tracer.py) wraps that binding, ``qdarwin.__all__`` lists
exactly the names the package's ``__init__`` imports, each public
top-level name of a module and each public method of a class in
``__all__`` is used outside the tests, and the command line imports no
private name from the package."""
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


def _attribute_reads(tree: ast.Module, classes: set[str]) -> set[tuple[str | None, str]]:
    """(owner, attribute) of every attribute read: the owner is the class that a
    `ClassName.x` read names or that a `cls.x` read in its body stands for, and
    None where the source does not show the object's class."""
    owners = {}
    for node in ast.walk(tree):  # outer classes first, so a nested class's cls wins
        if isinstance(node, ast.ClassDef):
            owners |= {inner: node.name for inner in ast.walk(node)
                       if isinstance(inner, ast.Attribute) and isinstance(inner.value, ast.Name) and inner.value.id == "cls"}
    reads = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            named = node.value.id if isinstance(node.value, ast.Name) and node.value.id in classes else None
            reads.add((owners.get(node, named), node.attr))
    return reads


def test_every_public_name_is_used_outside_the_tests():
    # a name in __all__, or a public top-level function, class or constant of
    # a module, is loaded in a module of the package other than __init__ (a
    # definition is not a load), or named in the README, the benchmark or
    # pyproject.toml; a public method, class method or property of a class in
    # __all__ counts as used when some such module reads it as an attribute of
    # that class (`ClassName.x`, or `cls.x` in its body) or of an object of
    # unknown class, or the README or the benchmark names it after a dot
    trees = [ast.parse(path.read_text()) for path in MODULES]
    classes = {node.name for tree in trees for node in ast.walk(tree) if isinstance(node, ast.ClassDef)}
    loaded, reads = set(), set()
    for tree in trees:
        loaded |= _loaded(tree)
        reads |= _attribute_reads(tree, classes)
    root = PACKAGE.parent.parent
    documents = [root / "README.md", root / "pyproject.toml", *sorted((root / "perfbench").glob("*.py"))]
    text = "\n".join(p.read_text() for p in documents)
    used = loaded | {attr for _, attr in reads}
    public = dict.fromkeys([*qdarwin.__all__, *sorted(n for tree in trees for n in _defined(tree) if not n.startswith("_"))])
    unused = [name for name in public if name not in used and not re.search(rf"\b{name}\b", text)]
    members = [
        (name, attr)
        for name in qdarwin.__all__
        if inspect.isclass(cls := getattr(qdarwin, name))
        for attr, member in vars(cls).items()
        if not attr.startswith("_")
        and (inspect.isfunction(member) or isinstance(member, (classmethod, staticmethod, property)))
    ]
    unused += [f"{name}.{attr}" for name, attr in members
               if not {(name, attr), (None, attr)} & reads and not re.search(rf"\.{attr}\b", text)]
    assert members and unused == []


def test_a_class_read_credits_only_its_class():
    tree = ast.parse(
        "class A:\n"
        "    @classmethod\n"
        "    def make(cls):\n"
        "        return cls.build(), A.parse\n"
        "class B:\n"
        "    pass\n"
        "B.load, thing.save\n"
    )
    assert _attribute_reads(tree, {"A", "B"}) == {("A", "build"), ("A", "parse"), ("B", "load"), (None, "save")}


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


def test_cli_imports_only_public_names():
    tree = ast.parse((PACKAGE / "cli.py").read_text())
    private = {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level
        for alias in node.names
        if alias.name.startswith("_") and not alias.name.startswith("__")
    }
    assert private == set()


def _cache_breaches(tree: ast.Module) -> list[int]:
    """Line numbers of every lru_cache without a literal maxsize of at most 64, and of
    every functools.cache on anything but a function that takes no parameters."""
    calls = {id(node.func): node for node in ast.walk(tree) if isinstance(node, ast.Call)}
    bare = {id(decorator) for node in ast.walk(tree) if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and not ast.unparse(node.args) for decorator in node.decorator_list}
    breaches = []
    for node in ast.walk(tree):
        name = node.id if isinstance(node, ast.Name) else node.attr if isinstance(node, ast.Attribute) else None
        if name == "lru_cache":
            call = calls.get(id(node))
            size = [*call.args[:1], *(k.value for k in call.keywords if k.arg == "maxsize")] if call else []
            if not (size and isinstance(size[0], ast.Constant) and type(size[0].value) is int and size[0].value <= 64):
                breaches.append(node.lineno)
        elif name == "cache" and id(node) not in bare:
            breaches.append(node.lineno)
    return sorted(breaches)


def test_every_cache_is_bounded():
    # a cache keyed by caller input (Pauli strings, say) would keep every value it ever returned
    breaches = {path.name: _cache_breaches(ast.parse(path.read_text())) for path in MODULES}
    assert {name: lines for name, lines in breaches.items() if lines} == {}


def test_the_cache_rule_reads_each_form():
    tree = ast.parse(
        "@lru_cache(maxsize=64)\ndef a(x): pass\n"
        "@functools.lru_cache(8)\ndef b(x): pass\n"
        "@functools.cache\ndef c(): pass\n"
        "@lru_cache(maxsize=65)\ndef d(x): pass\n"
        "@lru_cache(maxsize=None)\ndef e(x): pass\n"
        "@lru_cache\ndef f(x): pass\n"
        "@functools.lru_cache(maxsize=True)\ndef g(x): pass\n"
        "@cache\ndef h(x): pass\n"
        "@functools.cache\ndef i(*, x): pass\n"
        "j = functools.cache(len)\n"
        "k = lru_cache(maxsize=SIZE)(len)\n"
    )
    assert _cache_breaches(tree) == [7, 9, 11, 13, 15, 17, 19, 20]


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


def test_cli_import_loads_no_hashlib():
    # only `qdarwin estimate --counts-file` hashes, so the import waits for it
    code = "import sys, qdarwin.cli\nprint('hashlib' in sys.modules)\n"
    out = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)},
                         capture_output=True, text=True, check=True)
    assert out.stdout == "False\n"


def test_exhaustive_curve_loads_no_numpy_random(tmp_path):
    # a curve with no sampled size makes no stream, so neither numpy.random nor hashlib is loaded
    code = (
        "import sys, qdarwin.cli\n"
        "for source in (['--family', 'diamond', '--n-env', '10', '--phi', 'pi', '--theta', 'pi/3'], ['--named', 'ghz4']):\n"
        f"    assert qdarwin.cli.run(['curve', *source, '--out', {str(tmp_path / 'c.json')!r}]) == 0\n"
        "print(sorted(m for m in ('hashlib', 'numpy.random') if m in sys.modules))\n"
    )
    out = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)},
                         capture_output=True, text=True, check=True)
    assert out.stdout == "[]\n"
