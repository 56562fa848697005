"""Source hygiene of src/discarr, read with the stdlib ast module.

No module other than the package __init__ imports a name it never uses,
and every _-prefixed module-level name is referenced somewhere in the
package, so a deletion cannot leave a dead import or helper behind.
Every public module-level function and class is read by the rest of
the package (outside __init__ and its own body) or by the benchmark,
apart from the paper's closed forms, embed and the CLI entry point: a
definition only the tests call belongs in tests/ as an oracle.
Every import sits at module level, where a cycle or a missing name shows
on import rather than on the first call.  A functools memo takes only
int parameters, so none can key on an arrangement or keep one alive,
and every lru_cache gives an explicit maxsize other than None (an
unbounded memo is spelled functools.cache).
Only the _Value base and the two classes whose equality is not a key
comparison define __eq__ or __hash__, and every _Value subclass has
__slots__ (an instance dict would cost memory on every value).  Only
cli.main prints, touches sys.stdout or sys.stderr, reads the clock or
returns an exit code, so every command shares its one skeleton.  One
gate, arrangement._require_generic, raises NotGeneric for a dependent
k-subset of normals, and nothing else constructs it.  No function is a
stub whose body only raises NotImplementedError.
No json.dump or json.dumps call passes indent, which would switch json
to its pure-Python encoder (cli._report_text writes the indented report).
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "discarr"
MODULES = sorted(SRC.glob("*.py"))


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def _used_names(tree: ast.AST) -> set[str]:
    """Names read anywhere in tree, quoted annotations included."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        for ann in (getattr(node, "annotation", None), getattr(node, "returns", None)):
            for leaf in ast.walk(ann) if ann else ():
                if isinstance(leaf, ast.Constant) and isinstance(leaf.value, str):
                    used |= _used_names(ast.parse(leaf.value, mode="eval"))
    return used


def _imported_names(tree: ast.Module) -> list[str]:
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names += [a.asname or a.name for a in node.names]
    return names


def _module_level_names(tree: ast.Module) -> list[str]:
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [t.id for t in targets if isinstance(t, ast.Name)]
    return names


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "__init__.py"],
                         ids=lambda p: p.name)
def test_no_unused_import(path):
    tree = _tree(path)
    used = _used_names(tree)
    assert [n for n in _imported_names(tree) if n not in used] == []


def test_every_private_module_name_is_referenced():
    trees = [_tree(p) for p in MODULES]
    referenced = set()
    for tree in trees:
        referenced |= _used_names(tree)
        referenced |= {a.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                       for a in node.names}
    private = [f"{p.name}:{n}" for p, tree in zip(MODULES, trees)
               for n in _module_level_names(tree)
               if n.startswith("_") and not n.endswith("__") and n not in referenced]
    assert private == []


def _reads(tree: ast.AST, skip: ast.AST | None = None) -> set[str]:
    """Names and attributes loaded in tree, outside the subtree skip."""
    used, stack = set(), [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            used.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            used.add(node.attr)
        stack.extend(ast.iter_child_nodes(node))
    return used


# the paper's closed forms, which the tests check as its statements,
# embed, and the console-script entry point
UNREAD_PUBLIC = {"quadral_lower_bound", "quint_lower_bound", "predicted_polygon_sets",
                 "upper_bound_check", "starred_types", "blocked_core_dets", "embed", "main"}


def _unread_public(kind: type) -> list[str]:
    """Public module-level definitions of kind read neither elsewhere in
    the package (outside __init__ and their own body) nor by perfbench."""
    trees = {p: _tree(p) for p in MODULES if p.name != "__init__.py"}
    bench = set()
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        bench |= _reads(_tree(path))
    unread = []
    for path, tree in trees.items():
        others = set(bench)
        for other, other_tree in trees.items():
            if other != path:
                others |= _reads(other_tree)
        for node in tree.body:
            if (isinstance(node, kind) and not node.name.startswith("_")
                    and node.name not in UNREAD_PUBLIC
                    and node.name not in others | _reads(tree, skip=node)):
                unread.append(f"{path.name}:{node.name}")
    return unread


def test_every_public_function_is_read_outside_the_tests():
    assert _unread_public(ast.FunctionDef) == []


def test_every_public_class_is_read_outside_the_tests():
    assert _unread_public(ast.ClassDef) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_imports_at_module_level(path):
    nested = [f"{fn.name}:{node.lineno}" for fn in ast.walk(_tree(path))
              if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
              for node in ast.walk(fn) if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert nested == []


def _is_memo(decorator: ast.expr) -> bool:
    """functools.cache or lru_cache, called or not, by name or attribute."""
    if isinstance(decorator, ast.Call):
        decorator = decorator.func
    name = decorator.attr if isinstance(decorator, ast.Attribute) else getattr(decorator, "id", None)
    return name in ("cache", "lru_cache")


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_memos_take_only_int_parameters(path):
    loose = []
    for fn in ast.walk(_tree(path)):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)) and any(
                _is_memo(d) for d in fn.decorator_list):
            args = fn.args
            params = args.posonlyargs + args.args + args.kwonlyargs
            params += [p for p in (args.vararg, args.kwarg) if p is not None]
            loose += [f"{fn.name}({p.arg})" for p in params
                      if not (isinstance(p.annotation, ast.Name) and p.annotation.id == "int")]
    assert loose == []


def _names_lru_cache(node: ast.expr) -> bool:
    return (isinstance(node, ast.Name) and node.id == "lru_cache"
            or isinstance(node, ast.Attribute) and node.attr == "lru_cache")


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_lru_cache_names_its_maxsize(path):
    tree = _tree(path)
    sized = set()
    for call in ast.walk(tree):
        if isinstance(call, ast.Call) and _names_lru_cache(call.func):
            size = call.args[0] if call.args else next(
                (kw.value for kw in call.keywords if kw.arg == "maxsize"), None)
            if size is not None and not (isinstance(size, ast.Constant) and size.value is None):
                sized.add(id(call.func))
    unsized = [node.lineno for node in ast.walk(tree)
               if isinstance(node, ast.expr) and _names_lru_cache(node) and id(node) not in sized]
    assert unsized == []


# FieldDescriptor keeps its own __eq__ (which the benchmark tracer wraps),
# and FieldElement raises FieldMismatch across fields
OWN_EQUALITY = {"_Value", "FieldDescriptor", "FieldElement"}


def _class_body_names(cls: ast.ClassDef) -> set[str]:
    """Methods and class attributes the class body defines."""
    names = set()
    for node in cls.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names |= {t.id for t in targets if isinstance(t, ast.Name)}
    return names


def test_value_classes_declare_only_their_key():
    classes = [node for path in MODULES for node in ast.walk(_tree(path))
               if isinstance(node, ast.ClassDef)]
    values = {"_Value"}
    grown = True
    while grown:
        grown = False
        for cls in classes:
            bases = {b.id for b in cls.bases if isinstance(b, ast.Name)}
            if cls.name not in values and bases & values:
                values.add(cls.name)
                grown = True
    own = [cls.name for cls in classes if cls.name not in OWN_EQUALITY
           and {"__eq__", "__hash__"} & _class_body_names(cls)]
    slotless = [cls.name for cls in classes
                if cls.name in values and "__slots__" not in _class_body_names(cls)]
    assert (own, slotless) == ([], [])


def _io_sites(fn: ast.AST) -> list[int]:
    """Lines in fn that call print, read sys.stdout or sys.stderr, read
    the clock (time.*) or return an EXIT_* code."""
    lines = []
    for node in ast.walk(fn):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            hit = node.func.id == "print"
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            hit = node.value.id == "time" or (
                node.value.id == "sys" and node.attr in ("stdout", "stderr"))
        elif isinstance(node, ast.Return) and node.value is not None:
            hit = any(isinstance(n, ast.Name) and n.id.startswith("EXIT_")
                      for n in ast.walk(node.value))
        else:
            hit = False
        if hit:
            lines.append(node.lineno)
    return lines


def test_only_cli_main_does_io_timing_and_exit_codes():
    sites = [f"{path.name}:{fn.name}:{line}" for path in MODULES
             for fn in ast.walk(_tree(path))
             if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
             and (path.name, fn.name) != ("cli.py", "main")
             for line in _io_sites(fn)]
    assert sites == []


def test_one_genericity_gate():
    defined, raised = [], []
    for path in MODULES:
        for fn in ast.walk(_tree(path)):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                defined += [path.name] if fn.name == "_require_generic" else []
                raised += [f"{path.name}:{fn.name}" for node in ast.walk(fn)
                           if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                           and node.func.id == "NotGeneric"]
    assert (defined, raised) == (["arrangement.py"], ["arrangement.py:_require_generic"])


def _is_stub(fn: ast.FunctionDef) -> bool:
    """The body, past an optional docstring, is one raise NotImplementedError."""
    body = fn.body[1:] if ast.get_docstring(fn) is not None else fn.body
    if len(body) != 1 or not isinstance(body[0], ast.Raise) or body[0].exc is None:
        return False
    exc = body[0].exc
    exc = exc.func if isinstance(exc, ast.Call) else exc
    return isinstance(exc, ast.Name) and exc.id == "NotImplementedError"


def test_no_not_implemented_stubs():
    stubs = [f"{path.name}:{fn.name}:{fn.lineno}" for path in MODULES
             for fn in ast.walk(_tree(path))
             if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)) and _is_stub(fn)]
    assert stubs == []


def test_no_indented_json_dump():
    calls = [f"{path.name}:{node.lineno}" for path in MODULES
             for node in ast.walk(_tree(path))
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
             and node.func.attr in ("dump", "dumps")
             and isinstance(node.func.value, ast.Name) and node.func.value.id == "json"
             and any(kw.arg == "indent" for kw in node.keywords)]
    assert calls == []
