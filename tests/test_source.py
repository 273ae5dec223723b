"""Static checks on the package source."""

import ast
import importlib
from pathlib import Path

import sflow

PACKAGE = Path(sflow.__file__).resolve().parent
TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


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


# the public functions that no code in the package calls: entry points of
# the Python API and of the tests alone. A new public function without a
# caller fails the test below until it is listed here, or deleted.
UNCALLED_PUBLIC = {
    "cogredient.py": {"pointwise_section", "split_positive"},
    "flow.py": {"find_partition"},
    "groups.py": {"character_of_subspace", "isotypical_projection",
                  "multiplicity_vector"},
    "maslov.py": {"fredholm_pair_dims", "graph_lagrangian",
                  "horizontal_lagrangian", "maslov_index_G",
                  "maslov_operator_spectrum", "z2_example"},
    "operators.py": {"check_equivariance", "compress", "direct_sum",
                     "morse_class"},
    "sampling.py": {"preset_action", "random_equivariant_invertible",
                    "random_equivariant_path", "random_invertible_path",
                    "reparametrize"},
}


def test_every_public_function_without_a_caller_is_listed():
    # a re-export in __init__.py is not a call
    defined, used = {}, set()
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            own = None
            if isinstance(node, ast.FunctionDef):
                own = node.name
                if not own.startswith("_"):
                    defined[own] = path.name
            used |= _names(node) - {own}
    uncalled: dict[str, set[str]] = {}
    for name, module in defined.items():
        if name not in used:
            uncalled.setdefault(module, set()).add(name)
    assert uncalled == UNCALLED_PUBLIC



def _assigned(node: ast.AST):
    # (object, attribute) of every attribute a statement sets or deletes, or
    # changes in place through a subscript, or that a setattr call sets
    if isinstance(node, (ast.Assign, ast.Delete)):
        stack = list(node.targets)
    elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
        stack = [node.target]
    else:
        stack = []
    while stack:
        t = stack.pop()
        if isinstance(t, (ast.Tuple, ast.List)):
            stack += t.elts
        elif isinstance(t, (ast.Starred, ast.Subscript)):
            stack.append(t.value)
        elif isinstance(t, ast.Attribute):
            yield ast.unparse(t.value), t.attr
    if (isinstance(node, ast.Call) and ast.unparse(node.func).endswith("setattr")
            and len(node.args) == 3 and isinstance(node.args[1], ast.Constant)):
        yield ast.unparse(node.args[0]), node.args[1].value


def test_nothing_in_the_package_modifies_a_group_or_a_character_table():
    # build_group hands every job the same preset group and table, so their
    # attributes are set by their own constructors only: no statement sets
    # one on another object, and no other method of theirs sets one
    group, table = sflow.build_group("cyclic", 3)
    fields = set(vars(group)) | set(vars(table))
    constructors = {"FiniteGroup": "__post_init__", "RealCharacterTable": "__init__"}
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            found += [f"{path.name}:{node.lineno} {obj}.{attr}"
                      for obj, attr in _assigned(node)
                      if attr in fields and obj != "self"]
        for cls in tree.body:
            if not isinstance(cls, ast.ClassDef) or cls.name not in constructors:
                continue
            for fn in cls.body:
                if (isinstance(fn, ast.FunctionDef)
                        and fn.name != constructors[cls.name]):
                    found += [f"{path.name}:{node.lineno} {cls.name}.{fn.name}"
                              for node in ast.walk(fn)
                              for obj, _ in _assigned(node) if obj == "self"]
    assert found == []


def test_only_operators_catches_a_failed_solve():
    # eigh_each and eigendata_each in operators.py are the one per-block
    # fallback of the package; a second one would bring back a second
    # convention for the rows of a block that fails
    found = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.ExceptHandler) and node.type is not None
                    and "EigenFailure" in _names(node.type)):
                found.add(path.name)
    assert found == {"operators.py"}


def test_every_name_the_benchmark_tracer_hooks_resolves():
    # perfbench/tracer.py wraps these (module, attribute) pairs by name and
    # reports a missing one as absent, so a deleted target would only read 0
    # there; the file is read, not imported
    tree = ast.parse(TRACER.read_text(encoding="utf-8"))
    (targets,) = [ast.literal_eval(node.value) for node in tree.body
                  if isinstance(node, ast.Assign)
                  and [ast.unparse(t) for t in node.targets] == ["SFLOW_TARGETS"]]
    missing = []
    for module, attribute, _ in targets:
        owner = importlib.import_module(module)
        for part in attribute.split("."):
            owner = getattr(owner, part, None)
        if owner is None:
            missing.append(f"{module}.{attribute}")
    assert targets and missing == []
