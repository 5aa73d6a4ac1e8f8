"""Every public module-level function and class of fmwarp has a caller.

A name that only the tests use is API the program does not need; it
belongs in ``tests/helpers.py``. The check reads the source with ``ast``:
a name counts as called when an identifier spells it anywhere in
``src/fmwarp`` outside its own definition, or in ``perfbench``.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Public names with no caller yet, each with the reason it stays.
ALLOWED = {
    "evaluation.pacf",  # ROADMAP item 8 calls it
    "nn.construct_timelag_lstm",  # ROADMAP item 8 calls it
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


def uncalled_public_names() -> set[str]:
    """``module.name`` of each public top-level def or class of ``src/fmwarp``
    that no other top-level statement of ``src/fmwarp`` or ``perfbench`` names."""
    statements = []  # (module, whether it is in src, top-level node, its identifiers)
    for in_src, folder in ((True, ROOT / "src" / "fmwarp"), (False, ROOT / "perfbench")):
        for path in sorted(folder.glob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
            statements += [(path.stem, in_src, node, _identifiers(node)) for node in tree.body]
    return {
        f"{module}.{node.name}"
        for module, in_src, node, _ in statements
        if in_src and isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
        and not any(node.name in names for _, _, other, names in statements if other is not node)
    }


def test_every_public_function_and_class_has_a_caller_outside_the_tests():
    # An allowed name that gains a caller leaves ALLOWED, so the list stays exact.
    assert uncalled_public_names() == ALLOWED
