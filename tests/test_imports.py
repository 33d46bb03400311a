"""Every module-level import in the package is used, and so is every
module-level private name.

An import counts as used when its bound name appears anywhere in the
module. `from __future__` imports and lines marked `# noqa` (a deliberate
re-export) are exempt. A private (`_name`) function, class or constant
counts as used when some module of the package reads it, by name, as an
attribute or through an import."""
import ast
from collections import Counter
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "enboost"


def unused_imports(path):
    source = path.read_text()
    tree = ast.parse(source)
    lines = source.splitlines()
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = []
    for node in tree.body:
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if any("# noqa" in line for line in lines[node.lineno - 1:node.end_lineno]):
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            if name not in used:
                unused.append(f"{path.name}:{node.lineno}: {name}")
    return unused


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_module_imports(path):
    assert unused_imports(path) == []


def test_check_finds_an_unused_import(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("from __future__ import annotations\n"
                     "import json\nimport os\nfrom re import sub  # noqa\n"
                     "print(os.sep)\n")
    assert unused_imports(probe) == ["probe.py:2: json"]


def private_definitions(tree):
    """(node, name) of each module-level `_name` def, class or assignment."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                yield node, name


def read_names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.ImportFrom):
            yield from (alias.name for alias in node.names)


def dead_private_names(package):
    """Private names read nowhere in `package` outside their own definition."""
    trees = {path: ast.parse(path.read_text()) for path in sorted(package.glob("*.py"))}
    reads = Counter(name for tree in trees.values() for name in read_names(tree))
    return [f"{path.name}:{node.lineno}: {name}" for path, tree in trees.items()
            for node, name in private_definitions(tree)
            if reads[name] == list(read_names(node)).count(name)]


def test_no_dead_private_names():
    assert dead_private_names(PACKAGE) == []


def test_check_finds_a_dead_private_name(tmp_path):
    (tmp_path / "a.py").write_text("_LIMIT = 3\n_SPARE = 4\n"
                                   "def _helper():\n    return _LIMIT\n"
                                   "def _unused(x):\n    return _unused(x)\n"
                                   "class _Stub:\n    pass\n")
    (tmp_path / "b.py").write_text("from .a import _helper\n")
    assert dead_private_names(tmp_path) == ["a.py:2: _SPARE", "a.py:5: _unused",
                                            "a.py:7: _Stub"]
