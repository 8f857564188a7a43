"""Every public top-level name of the package has a caller in the pipeline.

A public function or class counts as used when some code outside its own
definition refers to it: another definition in any ``src/shiftlab``
module (``__init__.py`` re-exports do not count), the acceptance gate
``tests/test_acceptance.py``, or the benchmark under ``perfbench/``.
Unit tests alone do not keep a name alive.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "shiftlab"


def referenced_names(nodes, strings: bool = False) -> set[str]:
    """Identifiers used in the given subtrees; with ``strings``, also words
    inside string literals (the benchmark names the callables it times as
    "module.function")."""
    names = set()
    for root in nodes:
        for node in ast.walk(root):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif strings and isinstance(node, ast.Constant) \
                    and isinstance(node.value, str):
                names.update(re.findall(r"\w+", node.value))
    return names


def public_definitions(tree: ast.Module):
    return [node for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not node.name.startswith("_")]


def test_every_public_name_has_a_pipeline_caller():
    modules = {path: ast.parse(path.read_text(encoding="utf-8"))
               for path in sorted(PACKAGE.glob("*.py")) if path.name != "__init__.py"}
    gate = ast.parse((ROOT / "tests" / "test_acceptance.py").read_text(encoding="utf-8"))
    bench = [ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted((ROOT / "perfbench").glob("*.py"))]
    outside = referenced_names([gate]) | referenced_names(bench, strings=True)
    per_module = {path: referenced_names([tree]) for path, tree in modules.items()}
    unused = []
    for path, tree in modules.items():
        used = outside.union(*(names for p, names in per_module.items() if p != path))
        for definition in public_definitions(tree):
            rest = [node for node in tree.body if node is not definition]
            if definition.name not in used | referenced_names(rest):
                unused.append(f"{path.stem}.{definition.name}")
    assert not unused, f"public names with no pipeline caller: {unused}"
