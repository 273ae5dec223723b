"""Static checks on the package source."""

import ast
from pathlib import Path

import sflow

PACKAGE = Path(sflow.__file__).resolve().parent


def _unused_imports(tree: ast.Module) -> list[str]:
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in bound.items()
            if name not in used]


def test_no_unused_module_imports():
    # __init__.py imports names to re-export them
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        unused = _unused_imports(ast.parse(path.read_text(encoding="utf-8")))
        if unused:
            found[path.name] = unused
    assert not found
