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


def _names(node: ast.AST) -> set[str]:
    """Every name a node refers to: bare names, attributes and imports."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif isinstance(sub, ast.alias):
            out.add(sub.asname or sub.name)
    return out


def test_every_private_definition_has_a_caller_in_the_package():
    # a private function or class that only its own body or the tests use is
    # code the package does not need
    defined, used = {}, set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            own = None
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                own = node.name
                if own.startswith("_") and not own.startswith("__"):
                    defined[own] = f"{path.name}:{node.lineno} {own}"
            used |= _names(node) - {own}
    assert sorted(v for k, v in defined.items() if k not in used) == []
