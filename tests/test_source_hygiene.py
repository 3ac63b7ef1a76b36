"""Source hygiene, checked with :mod:`ast` over the ``.py`` files.

* No module under ``src/`` or ``tests/`` imports a name it never uses.
  A name an import binds counts as used when the module names it
  anywhere (a bare name, the base of an attribute chain, or a name
  inside a string annotation) or lists it in ``__all__``.  Package
  ``__init__.py`` files are skipped: their imports are the package's
  re-exports.  ``from __future__`` imports bind nothing.
* Every module-level ``def``/``class`` in ``src/``, and every ``def`` or
  ``class`` directly in a class body, has a caller: its name is
  referenced (a bare name, an attribute, or a name inside a string
  annotation) somewhere in ``src/``, ``benchmarks/``, ``examples/`` or
  ``tools/``.  Its own definition, imports (so ``__init__``
  re-exports), ``__all__`` entries and docstrings are not references,
  and tests do not count as callers.  Dunder methods are called by the
  language.  :data:`NO_CALLER_ALLOWED` names each exception and why.
"""

import ast
from pathlib import Path
from typing import Dict, Iterator, List, Set, Tuple

ROOT = Path(__file__).resolve().parent.parent
SCANNED = ("src", "tests")
CALLER_TREES = ("src", "benchmarks", "examples", "tools")

#: Definitions kept without a caller outside the tests, with the reason.
NO_CALLER_ALLOWED: Dict[str, str] = {
    "LatencyModel.time_at_level":
        "test seam: one op's time at one level, checked against the "
        "vectorized profile table",
    "FrequencyPlan.level_for_op":
        "test seam: the level a plan assigns one op",
    "FrequencyPlan.switch_indices":
        "test seam: the op indices where a plan switches level",
    "Fleet.add_graph":
        "test seam: serving tests register tiny synthetic graphs",
    "FactoredDistance.adjacency":
        "test seam: the exact-decision adjacency matrix, checked against "
        "the dense reference chain (blocks run DBSCAN on the pairs)",
    "attrs_class_for":
        "test seam: the attribute dataclass of an op, for tests that "
        "build a node of every op type",
    "DepthwiseFeatureExtractor.extract_node":
        "test seam: one node's depthwise features, checked against the "
        "whole-graph extract",
    "save_powerlens": "fitted-lens persistence that ROADMAP A.2 serves",
    "load_powerlens": "fitted-lens persistence that ROADMAP A.2 serves",
    "PowerLens.oracle_plan":
        "model-free upper bound that ROADMAP A.2, B.1 and C build on",
    "canonical_json": "the byte format of the experiment goldens",
    "DatasetCache.has": "cache-state inspection in 21 tests",
}


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


def _referenced(tree: ast.Module, attributes: bool = True) -> Set[str]:
    """Names a module refers to: bare names, attribute names (unless
    ``attributes`` is false) and names inside string annotations, never
    imports, ``__all__`` entries or other strings."""
    names: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif attributes and isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.arg) and node.annotation is not None:
            names.update(_annotation_names(node.annotation))
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                and node.returns is not None:
            names.update(_annotation_names(node.returns))
        elif isinstance(node, ast.AnnAssign):
            names.update(_annotation_names(node.annotation))
    return names


_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _definitions(tree: ast.Module) -> Iterator[Tuple[str, str, int]]:
    """(name, qualified name, line) of each module-level def/class and
    each def/class directly in a module-level class body."""
    for node in tree.body:
        if isinstance(node, _DEFS):
            yield node.name, node.name, node.lineno
            if isinstance(node, ast.ClassDef):
                for sub in node.body:
                    if isinstance(sub, _DEFS):
                        yield (sub.name, f"{node.name}.{sub.name}",
                               sub.lineno)


def uncalled_definitions(root: Path = ROOT,
                         allowed: Dict[str, str] = NO_CALLER_ALLOWED
                         ) -> List[str]:
    """``file:line: qualname`` for each definition under ``root/src``
    that nothing under :data:`CALLER_TREES` refers to."""
    referenced: Set[str] = set()
    for top in CALLER_TREES:
        for path in sorted((root / top).rglob("*.py")):
            referenced |= _referenced(ast.parse(path.read_text()))
    problems = []
    for path in sorted((root / "src").rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for name, qualname, line in _definitions(tree):
            if name.startswith("__") and name.endswith("__"):
                continue
            if name not in referenced and qualname not in allowed:
                problems.append(
                    f"{path.relative_to(root)}:{line}: {qualname}")
    return problems


def _used(tree: ast.Module) -> Set[str]:
    used = _referenced(tree, attributes=False)
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
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


def test_every_definition_has_a_caller():
    problems = uncalled_definitions()
    assert not problems, (
        "no caller in src/, benchmarks/, examples/ or tools/ (delete it, "
        "or add it to NO_CALLER_ALLOWED with a reason):\n"
        + "\n".join(problems))


def test_allowlist_names_real_definitions():
    defined = {qualname for path in (ROOT / "src").rglob("*.py")
               for _, qualname, _ in _definitions(ast.parse(
                   path.read_text()))}
    assert set(NO_CALLER_ALLOWED) <= defined


def test_scanner_flags_an_uncalled_definition(tmp_path):
    (tmp_path / "src" / "pkg").mkdir(parents=True)
    (tmp_path / "tools").mkdir()
    (tmp_path / "src" / "pkg" / "__init__.py").write_text(
        "from pkg.mod import Kept, dead\n"
        "__all__ = ['Kept', 'dead']\n")
    (tmp_path / "src" / "pkg" / "mod.py").write_text(
        '"""Docstrings name dead and Kept.gone, which is no call."""\n'
        "class Kept:\n"
        "    def __len__(self): return 0\n"
        "    def used(self): return 1\n"
        "    def gone(self): return 2\n"
        "    def seam(self): return 3\n"
        "def dead(): pass\n"
        "def typed(x: 'Kept') -> None: pass\n")
    (tmp_path / "tools" / "run.py").write_text(
        "from pkg.mod import typed\n"
        "typed(None).used()\n")
    assert uncalled_definitions(
        tmp_path, allowed={"Kept.seam": "test seam"}) == [
        "src/pkg/mod.py:5: Kept.gone",
        "src/pkg/mod.py:7: dead",
    ]
