"""Every top-level function and class in `src/seqpa` has a caller or a test."""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _referenced_names(tree):
    """The names a syntax tree reads: identifiers, attribute names and string
    constants (perfbench's HOOKS name the functions they wrap as strings)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value


def test_every_top_level_definition_is_referenced():
    trees = {path: ast.parse(path.read_text())
             for folder in ("src", "tests", "scripts", "perfbench")
             for path in sorted((ROOT / folder).rglob("*.py"))}
    counts = Counter(name for tree in trees.values() for name in _referenced_names(tree))
    unreferenced = []
    for path in sorted((ROOT / "src" / "seqpa").glob("*.py")):
        for node in trees[path].body:
            # a reference inside the definition itself (a recursive call) does not count
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and counts[node.name] == list(_referenced_names(node)).count(node.name)):
                unreferenced.append(f"{path.name}:{node.lineno} {node.name}")
    assert not unreferenced, f"defined but never referenced: {unreferenced}"
