"""Source hygiene: no module under ``src/`` or ``tests/`` imports a name
it never uses.

Each ``.py`` file is parsed with :mod:`ast`.  A name an import binds
counts as used when the module names it anywhere (a bare name, the base
of an attribute chain, or a name inside a string annotation) or lists
it in ``__all__``.  Package ``__init__.py`` files are skipped: their
imports are the package's re-exports.  ``from __future__`` imports bind
nothing.
"""

import ast
from pathlib import Path
from typing import Iterator, List, Set, Tuple

ROOT = Path(__file__).resolve().parent.parent
SCANNED = ("src", "tests")


def _imported(tree: ast.Module) -> Iterator[Tuple[str, int]]:
    """(bound name, line) for every import anywhere in the module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield (alias.asname or alias.name.split(".")[0],
                       node.lineno)
        elif isinstance(node, ast.ImportFrom):
            if node.module == "__future__":
                continue
            for alias in node.names:
                if alias.name != "*":
                    yield alias.asname or alias.name, node.lineno


def _annotation_names(annotation: ast.AST) -> Iterator[str]:
    """Names inside the string parts of an annotation (``"Graph"``,
    ``Optional["Graph"]``)."""
    for node in ast.walk(annotation):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                parsed = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            for sub in ast.walk(parsed):
                if isinstance(sub, ast.Name):
                    yield sub.id


def _used(tree: ast.Module) -> Set[str]:
    used: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.arg) and node.annotation is not None:
            used.update(_annotation_names(node.annotation))
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                and node.returns is not None:
            used.update(_annotation_names(node.returns))
        elif isinstance(node, ast.AnnAssign):
            used.update(_annotation_names(node.annotation))
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            used.update(elt.value for elt in ast.walk(node.value)
                        if isinstance(elt, ast.Constant)
                        and isinstance(elt.value, str))
    return used


def unused_imports(path: Path, root: Path = ROOT) -> List[str]:
    """``file:line: name`` for each import of ``path`` it never uses,
    with ``file`` relative to ``root``."""
    tree = ast.parse(path.read_text(), filename=str(path))
    used = _used(tree)
    rel = path.relative_to(root)
    return [f"{rel}:{line}: {name}"
            for name, line in _imported(tree) if name not in used]


def _sources() -> List[Path]:
    return sorted(p for top in SCANNED for p in (ROOT / top).rglob("*.py")
                  if p.name != "__init__.py")


def test_no_unused_imports():
    problems = [msg for path in _sources() for msg in unused_imports(path)]
    assert not problems, "unused imports:\n" + "\n".join(problems)


def test_scanner_flags_an_unused_import(tmp_path):
    module = tmp_path / "mod.py"
    module.write_text(
        "from __future__ import annotations\n"
        "import os\n"
        "import json as js\n"
        "from typing import List, Optional\n"
        "from collections import OrderedDict\n"
        "__all__ = ['OrderedDict']\n"
        "def f(x: 'Optional[int]') -> List[int]:\n"
        "    return [js.dumps(x)]\n")
    assert unused_imports(module, root=tmp_path) == ["mod.py:2: os"]
