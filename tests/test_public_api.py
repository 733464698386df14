"""The package exports and the README's library example match the code, and
no module imports a name it never uses."""

import ast
import re
from pathlib import Path

import iqmix

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"


def test_exports_resolve_and_readme_example_runs():
    assert [name for name in iqmix.__all__ if not hasattr(iqmix, name)] == []

    text = README.read_text(encoding="utf-8")
    block = re.search(r"^## Library use\n.*?^```python\n(.*?)^```", text, re.M | re.S)
    assert block is not None, "README has no python block under 'Library use'"
    namespace: dict = {}
    exec(block.group(1), namespace)
    assert namespace["level"].label == "good"
    assert 1.0 <= namespace["score"] <= 5.0


def unused_imports(source: str) -> list[tuple[int, str]]:
    """(line, name) of each name the source imports and never reads; a name
    listed in __all__ counts as read."""
    tree = ast.parse(source)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used.update(item.value for item in node.value.elts)
    unused = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names = [alias.asname or alias.name for alias in node.names]
        else:
            continue
        unused += [(node.lineno, name) for name in names if name not in used]
    return sorted(unused)


def test_unused_import_finder():
    source = ("from __future__ import annotations\nimport os, json\n"
              "from typing import Any as A, List\nimport xml.dom\n"
              "from .x import y\n__all__ = ['y']\nprint(json, A, xml)\n")
    assert unused_imports(source) == [(2, "os"), (3, "List")]


def test_no_module_imports_a_name_it_never_uses():
    found = [f"src/iqmix/{path.name}:{line}: {name}"
             for path in sorted((ROOT / "src" / "iqmix").glob("*.py"))
             for line, name in unused_imports(path.read_text(encoding="utf-8"))]
    assert found == [], "imported but never used:\n" + "\n".join(found)
