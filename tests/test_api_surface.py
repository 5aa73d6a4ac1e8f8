"""Every public module-level function and class of fmwarp has a caller,
every keyword parameter with a default is passed by one, and no module
holds state that a call changes.

A name or a parameter that only the tests use is API the program does not
need; it belongs in ``tests/helpers.py``. State that outlives a call
belongs to an object the caller holds, such as the run's ``Config``. The
checks read the source with ``ast``: a name counts as called when an
identifier spells it anywhere in ``src/fmwarp`` outside its own
definition, or in ``perfbench``.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Public names with no caller yet, each with the reason it stays.
ALLOWED = {
    "evaluation.pacf",  # ROADMAP item 9 calls it
    "nn.construct_timelag_lstm",  # ROADMAP item 9 calls it
}


def _identifiers(node) -> set[str]:
    """Every name, attribute and imported name spelled under ``node``."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, ast.alias):
            names.add(sub.name.rsplit(".", 1)[-1])
    return names


def _modules() -> list[tuple[str, bool, ast.Module]]:
    """(module, whether it is in src, parsed tree) of every file that may call fmwarp."""
    return [(path.stem, in_src, ast.parse(path.read_text(encoding="utf-8"), str(path)))
            for in_src, folder in ((True, ROOT / "src" / "fmwarp"), (False, ROOT / "perfbench"))
            for path in sorted(folder.glob("*.py"))]


def uncalled_public_names() -> set[str]:
    """``module.name`` of each public top-level def or class of ``src/fmwarp``
    that no other top-level statement of ``src/fmwarp`` or ``perfbench`` names."""
    statements = [(module, in_src, node, _identifiers(node))
                  for module, in_src, tree in _modules() for node in tree.body]
    return {
        f"{module}.{node.name}"
        for module, in_src, node, _ in statements
        if in_src and isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
        and not any(node.name in names for _, _, other, names in statements if other is not node)
    }


def _callee(node) -> str | None:
    return node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)


def unpassed_keyword_parameters() -> set[str]:
    """``module.function(parameter)`` of each parameter with a default of a
    top-level function or method of ``src/fmwarp`` that some call in
    ``src/fmwarp`` or ``perfbench`` makes, but that none of those calls passes.

    Calls are matched by the name of the callee alone, so a call passes its
    arguments to every function of that name. A call passes a parameter by
    name, by position (a method's own first parameter aside) or through
    ``*args`` or ``**kwargs``; a call of a class is a call of its
    ``__init__``. A function named as a value, not called, may be called with
    anything: ``_map(transfer.adapt, tasks, jobs)`` hides which of
    ``adapt``'s parameters the pipeline passes, so the check cannot see them.
    A class named as a value is taken as a type test, as in ``except`` and
    ``isinstance``. Names on ``ALLOWED`` are skipped.
    """
    modules = _modules()
    defs = []  # (qualified name, the callee name that calls it, node, whether a method)
    for module, in_src, tree in modules:
        for node in tree.body if in_src else ():
            members = node.body if isinstance(node, ast.ClassDef) else [node]
            for fn in members:
                if isinstance(fn, ast.FunctionDef) and f"{module}.{node.name}" not in ALLOWED:
                    if fn is node:
                        defs.append((f"{module}.{fn.name}", fn.name, fn, False))
                    else:
                        defs.append((f"{module}.{node.name}.{fn.name}",
                                     node.name if fn.name == "__init__" else fn.name, fn, True))
    # callee name -> [(positional count, None when spread, and keyword names)]
    calls, as_values = {}, set()
    for _, _, tree in modules:
        funcs = {id(call.func) for call in ast.walk(tree) if isinstance(call, ast.Call)}
        for sub in ast.walk(tree):
            if isinstance(sub, ast.Call) and _callee(sub.func):
                spread = (any(isinstance(a, ast.Starred) for a in sub.args)
                          or any(kw.arg is None for kw in sub.keywords))
                calls.setdefault(_callee(sub.func), []).append(
                    (None if spread else len(sub.args), {kw.arg for kw in sub.keywords}))
            elif (isinstance(sub, (ast.Name, ast.Attribute)) and isinstance(sub.ctx, ast.Load)
                  and id(sub) not in funcs):
                as_values.add(_callee(sub))
    unpassed = set()
    for qualname, callee, fn, is_method in defs:
        if callee not in calls or (fn.name != "__init__" and callee in as_values):
            continue
        positional = [a.arg for a in fn.args.posonlyargs + fn.args.args][int(is_method):]
        defaulted = positional[len(positional) - len(fn.args.defaults):] + [
            a.arg for a, d in zip(fn.args.kwonlyargs, fn.args.kw_defaults) if d is not None]
        for param in defaulted:
            if not any(count is None or param in names or param in positional[:count]
                       for count, names in calls[callee]):
                unpassed.add(f"{qualname}({param})")
    return unpassed


def test_every_public_function_and_class_has_a_caller_outside_the_tests():
    # An allowed name that gains a caller leaves ALLOWED, so the list stays exact.
    assert uncalled_public_names() == ALLOWED


def test_every_keyword_parameter_is_passed_by_a_caller_outside_the_tests():
    assert unpassed_keyword_parameters() == set()


CONTAINERS = (ast.Dict, ast.List, ast.Set, ast.DictComp, ast.ListComp, ast.SetComp)
MUTATORS = {"add", "append", "clear", "difference_update", "discard", "extend", "insert",
            "intersection_update", "pop", "popitem", "remove", "reverse", "setdefault", "sort",
            "symmetric_difference_update", "update"}


def _scope(fn) -> tuple[set[str], set[str]]:
    """The names a function binds itself (its parameters and the targets it
    stores to or deletes) and the names it declares ``global``, outside its
    nested functions and classes."""
    bound = {a.arg for a in ast.walk(fn.args) if isinstance(a, ast.arg)}
    declared = set()
    todo = list(fn.body) if isinstance(fn.body, list) else [fn.body]  # a lambda's is one
    while todo:
        node = todo.pop()
        if isinstance(node, ast.Global):
            declared.update(node.names)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, (ast.Store, ast.Del)):
            bound.add(node.id)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.add(node.name)
        elif not isinstance(node, ast.Lambda):
            todo.extend(ast.iter_child_nodes(node))
    return bound, declared


def mutated_module_state(folder: Path = ROOT / "src" / "fmwarp") -> set[str]:
    """``module.name`` of each module-level dict, list or set of the modules
    in ``folder`` that some statement there changes: by a mutating method
    call, by an item assigned or deleted, or in place. Every name that a
    function rebinds through ``global`` is reported too, whatever it holds.
    A module's containers are its top-level names bound to a display, a
    comprehension or a call of ``dict``, ``list`` or ``set``. They are
    reached by their name, unless a function binds that name itself, or
    through ``from fmwarp import module``."""
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"), str(path))
             for path in sorted(folder.glob("*.py"))}
    pairs = [(module, target, node.value)
             for module, tree in trees.items() for node in tree.body
             if isinstance(node, (ast.Assign, ast.AnnAssign))
             for target in (node.targets if isinstance(node, ast.Assign) else [node.target])]
    containers = set()
    while pairs:
        module, target, value = pairs.pop()
        if isinstance(target, ast.Tuple) and isinstance(value, ast.Tuple):
            pairs.extend((module, t, v) for t, v in zip(target.elts, value.elts))
        elif isinstance(target, ast.Name) and (
                isinstance(value, CONTAINERS) or (isinstance(value, ast.Call)
                and isinstance(value.func, ast.Name) and value.func.id in ("dict", "list", "set"))):
            containers.add((module, target.id))
    found = set()

    def visit(module, node, aliases, local):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            bound, declared = _scope(node)
            found.update(f"{module}.{name}" for name in bound & declared)
            local = local | (bound - declared)
        changed = None
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr in MUTATORS):
            changed = node.func.value
        elif isinstance(node, ast.Subscript) and isinstance(node.ctx, (ast.Store, ast.Del)):
            changed = node.value
        elif isinstance(node, ast.AugAssign):
            changed = node.target
        if isinstance(changed, ast.Name) and changed.id not in local:
            if (module, changed.id) in containers:
                found.add(f"{module}.{changed.id}")
        elif (isinstance(changed, ast.Attribute) and isinstance(changed.value, ast.Name)
              and (aliases.get(changed.value.id), changed.attr) in containers):
            found.add(f"{aliases[changed.value.id]}.{changed.attr}")
        for child in ast.iter_child_nodes(node):
            visit(module, child, aliases, local)

    for module, tree in trees.items():
        aliases = {alias.asname or alias.name: alias.name
                   for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                   and node.module == "fmwarp" for alias in node.names}
        visit(module, tree, aliases, frozenset())
    return found


def test_no_statement_changes_state_held_by_a_module(tmp_path):
    # A module-level store outlives every run in its process. First, the
    # check sees each way to change one:
    (tmp_path / "a.py").write_text(
        "CALLED, ITEM, DELETED, IN_PLACE, KEPT, SHADOWED = {}, [], {}, set(), {}, []\n"
        "COUNT = 0\n"
        "def f(SHADOWED):\n"
        "    global COUNT\n"
        "    COUNT += 1\n"
        "    CALLED.setdefault('k', 0)\n"
        "    ITEM[0:1] = [1]\n"
        "    del DELETED['k']\n"
        "    SHADOWED.append(KEPT.get('k'))\n"
        "    local = {}\n"
        "    local['k'] = 1\n")
    (tmp_path / "b.py").write_text(
        "from fmwarp import a as other\n"
        "def g():\n"
        "    other.IN_PLACE |= {1}\n")
    assert mutated_module_state(tmp_path) == {"a.CALLED", "a.ITEM", "a.DELETED", "a.IN_PLACE",
                                              "a.COUNT"}
    assert mutated_module_state() == set()
