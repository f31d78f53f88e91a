"""Every top-level function and class in ``medburn`` must have a caller.

A definition counts as used when some module of the package names it outside
its own body, when ``medburn.__all__`` exports it, or when the benchmark's
``perfbench/*.py`` names it (the tracer wraps functions and clears caches by
name).  Code that only tests call belongs in ``tests/``.
"""

import ast
import re
from pathlib import Path

import medburn

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "medburn"


def _names_used(node: ast.AST) -> set[str]:
    return {n.id if isinstance(n, ast.Name) else n.attr
            for n in ast.walk(node) if isinstance(n, (ast.Name, ast.Attribute))}


def unreferenced_definitions(package: Path, exported, benchmark_text: str) -> list[str]:
    statements = []  # every top-level statement of the package, with the names it uses
    for path in sorted(package.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            statements.append((path.name, node, _names_used(node)))
    allowed = set(exported) | set(re.findall(r"\w+", benchmark_text))
    found = []
    for module, node, _ in statements:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name in allowed:
            continue
        if not any(node.name in used for _, other, used in statements if other is not node):
            found.append(f"{module}:{node.name}")
    return found


def test_every_definition_has_a_caller():
    benchmark = "\n".join(
        p.read_text(encoding="utf-8") for p in sorted((ROOT / "perfbench").glob("*.py"))
    )
    assert unreferenced_definitions(PACKAGE, medburn.__all__, benchmark) == []
