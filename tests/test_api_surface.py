"""Every public module-level function and class of fmwarp has a caller, and
every keyword parameter with a default is passed by one.

A name or a parameter that only the tests use is API the program does not
need; it belongs in ``tests/helpers.py``. The checks read the source with
``ast``: a name counts as called when an identifier spells it anywhere in
``src/fmwarp`` outside its own definition, or in ``perfbench``.
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
