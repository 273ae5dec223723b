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



# defaulted parameters that no call sets: a flow option left to the caller
# of the Python API. A new one fails the test below until it is listed here,
# or deleted.
UNSET_DEFAULTS = {"maslov_index_G.opts", "z2_example.opts"}


def _defaulted(tree: ast.Module) -> dict:
    # (function, parameter) -> position among the function's positional
    # parameters after self, or None for a keyword-only one; an __init__ is
    # named after its class, since that is the name its calls use
    out, owner = {}, {}
    for cls in ast.walk(tree):
        if isinstance(cls, ast.ClassDef):
            for fn in cls.body:
                if isinstance(fn, ast.FunctionDef):
                    owner[fn] = cls.name if fn.name == "__init__" else None
    for fn in ast.walk(tree):
        if not isinstance(fn, ast.FunctionDef):
            continue
        name = owner.get(fn) or fn.name
        pos = fn.args.posonlyargs + fn.args.args
        if fn in owner and "staticmethod" not in map(ast.unparse,
                                                     fn.decorator_list):
            pos = pos[1:]
        first = len(pos) - len(fn.args.defaults)
        out.update({(name, a.arg): i for i, a in enumerate(pos) if i >= first})
        out.update({(name, a.arg): None for a, d in
                    zip(fn.args.kwonlyargs, fn.args.kw_defaults) if d is not None})
    return out


def _scopes(tree: ast.Module) -> dict:
    # the innermost function or lambda around each node, or None
    out, stack = {}, [(tree, None)]
    while stack:
        node, fn = stack.pop()
        for child in ast.iter_child_nodes(node):
            out[child] = fn
            inner = isinstance(child, (ast.FunctionDef, ast.Lambda))
            stack.append((child, child if inner else fn))
    return out


def _keys(star: ast.keyword, fn) -> set[str] | None:
    # the keywords a ** argument can carry, or None for any: those of its
    # dict display, or of every dict display and dict() call in its function
    value = star.value
    if isinstance(value, ast.Dict):
        if all(isinstance(k, ast.Constant) for k in value.keys):
            return {k.value for k in value.keys}
        return None
    if (not isinstance(value, ast.Name) or not isinstance(fn, ast.FunctionDef)
            or (fn.args.kwarg and fn.args.kwarg.arg == value.id)):
        return None
    out = set()
    for node in ast.walk(fn):
        if isinstance(node, ast.Dict):
            out |= {k.value for k in node.keys if isinstance(k, ast.Constant)}
        elif isinstance(node, ast.Call) and ast.unparse(node.func) == "dict":
            out |= {k.arg for k in node.keywords}
    return out


def _passed(call: ast.Call, param: str, i: int | None, fn) -> list:
    # what a call passes for a parameter: its argument, or None for a * or
    # ** argument that may carry it
    got = []
    for kw in call.keywords:
        if kw.arg == param:
            got.append(kw.value)
        elif kw.arg is None:
            keys = _keys(kw, fn)
            if keys is None or param in keys:
                got.append(None)
    for j, arg in enumerate(call.args if i is not None else []):
        if isinstance(arg, ast.Starred) or j == i:
            got.append(None if isinstance(arg, ast.Starred) else arg)
            break
    return got


def test_every_defaulted_parameter_is_set_by_some_call():
    # calls in the package and the tests, matched by function name: a
    # parameter is unset if no call passes it, or each call passes it only
    # an unset parameter of its own function, as a forwarding wrapper does
    defaulted, trees = {}, []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        defaulted.update(_defaulted(tree))
        trees.append(tree)
    tests = Path(__file__).resolve().parent
    trees += [ast.parse(p.read_text(encoding="utf-8"))
              for p in sorted(tests.glob("*.py"))]
    passes: dict = {key: [] for key in defaulted}
    for tree in trees:
        scope = _scopes(tree)
        for call in ast.walk(tree):
            if isinstance(call, ast.Call):
                name = getattr(call.func, "id", getattr(call.func, "attr", None))
                for (f, param), i in defaulted.items():
                    if f == name:
                        passes[f, param] += [(arg, scope[call]) for arg in
                                             _passed(call, param, i, scope[call])]
    listed = {tuple(k.split(".")) for k in UNSET_DEFAULTS}
    unset = {k for k, ps in passes.items() if not ps} - listed
    while True:
        more = {k for k, ps in passes.items() if k not in unset | listed
                and all(isinstance(arg, ast.Name)
                        and isinstance(fn, ast.FunctionDef)
                        and (fn.name, arg.id) in unset for arg, fn in ps)}
        if not more:
            break
        unset |= more
    assert sorted(".".join(k) for k in unset) == []
    # and no listed parameter is set, or gone
    assert sorted(".".join(k) for k in listed if passes.get(k, [None])) == []


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


def _transposed(node: ast.AST) -> str | None:
    # the source of the matrix a node transposes (m.T, m.swapaxes(...),
    # m.transpose(...), np.swapaxes(m, ...) or np.transpose(m, ...)), or None
    if isinstance(node, ast.Attribute) and node.attr == "T":
        return ast.unparse(node.value)
    if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr in ("swapaxes", "transpose")):
        owner = ast.unparse(node.func.value)
        if owner not in ("np", "numpy"):
            return owner
        return ast.unparse(node.args[0]) if node.args else None
    return None


def test_only_eig_writes_out_the_symmetric_part():
    # 0.5 * m + 0.5 * m^T, in either order, is written once, as
    # _eig.symmetric_part, which every symmetrization of the package calls
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add)):
                continue
            halves = [side.right for side in (node.left, node.right)
                      if isinstance(side, ast.BinOp)
                      and isinstance(side.op, ast.Mult)
                      and ast.unparse(side.left) == "0.5"]
            if len(halves) == 2 and (
                    _transposed(halves[1]) == ast.unparse(halves[0])
                    or _transposed(halves[0]) == ast.unparse(halves[1])):
                found.append(path.name)
    assert found == ["_eig.py"]


def test_only_operators_names_the_equivariance_factor():
    # the equivariance tolerance is operators._equivariance_rows' rule: no
    # other module, and no other function there, names its factor
    found = {path.name for path in PACKAGE.glob("*.py")
             if "EQUIVARIANCE_FACTOR" in path.read_text(encoding="utf-8")}
    tree = ast.parse((PACKAGE / "operators.py").read_text(encoding="utf-8"))
    users = {node.name for node in tree.body
             if isinstance(node, (ast.FunctionDef, ast.ClassDef))
             and "EQUIVARIANCE_FACTOR" in _names(node)}
    assert found == {"operators.py"} and users == {"_equivariance_rows"}
