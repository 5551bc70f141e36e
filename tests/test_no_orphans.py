"""No public top-level name in ``src/repro`` may be reached only by tests.

A name counts as used when some module under ``src/``, ``scripts/``,
``benchmarks/``, ``perfbench/`` or ``examples/`` refers to it outside its
own definition; a package ``__init__`` re-export is not a use, and neither
is a NumPy attribute of the same name (``np.ones`` does not call ``ones``).
"""

import ast
from pathlib import Path

from repro.api import PUBLIC_API

ROOT = Path(__file__).resolve().parents[1]
CALLER_DIRS = ("src", "scripts", "benchmarks", "perfbench", "examples")

ALLOWED = {
    # Tools the tests use: the gradient checker, the smallest model, and the
    # knob list that tests/test_public_api.py snapshots.
    "check_gradients", "TinyMLP", "knob_names",
    # Promised by README.md.
    "compose_truncated_accumulation", "Adam", "logging_to", "tracing",
    "collecting_metrics",
}


def _references(node, count_imports):
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute) and getattr(sub.value, "id", None) != "np":
            yield sub.attr
        elif isinstance(sub, ast.ImportFrom) and count_imports:
            yield from (alias.name for alias in sub.names)


def find_orphans():
    trees = {p: ast.parse(p.read_text()) for d in CALLER_DIRS for p in (ROOT / d).rglob("*.py")}
    used, defined = set(PUBLIC_API), set()
    for path, tree in trees.items():
        for node in tree.body:
            refs = set(_references(node, count_imports=path.name != "__init__.py"))
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                refs.discard(node.name)  # recursion is not a caller
                if path.is_relative_to(ROOT / "src" / "repro") and not node.name.startswith("_"):
                    defined.add(node.name)
            used |= refs
    return defined - used


def test_every_public_name_has_a_non_test_caller():
    orphans = find_orphans()
    assert not orphans - ALLOWED, f"reached only by tests: {sorted(orphans - ALLOWED)}"
    assert not ALLOWED - orphans, f"stale allowlist entries: {sorted(ALLOWED - orphans)}"
