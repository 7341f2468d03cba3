"""Every top-level function and class in `src/seqpa` has a caller or a test,
and every Python name the README puts in backticks is one the code defines
or reads."""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
# backticked README names the code reads from the standard library without
# spelling them: resource.RUSAGE_CHILDREN, for a worker's peak memory
README_STDLIB_NAMES = {"RUSAGE_CHILDREN"}


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


def _trees():
    return {path: ast.parse(path.read_text())
            for folder in ("src", "tests", "scripts", "perfbench")
            for path in sorted((ROOT / folder).rglob("*.py"))}


def test_every_top_level_definition_is_referenced():
    trees = _trees()
    counts = Counter(name for tree in trees.values() for name in _referenced_names(tree))
    unreferenced = []
    for path in sorted((ROOT / "src" / "seqpa").glob("*.py")):
        for node in trees[path].body:
            # a reference inside the definition itself (a recursive call) does not count
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and counts[node.name] == list(_referenced_names(node)).count(node.name)):
                unreferenced.append(f"{path.name}:{node.lineno} {node.name}")
    assert not unreferenced, f"defined but never referenced: {unreferenced}"


def test_readme_names_only_what_the_code_defines_or_reads():
    # a removal that leaves the README naming a deleted function fails here
    known = set(README_STDLIB_NAMES)
    for tree in _trees().values():
        known.update(_referenced_names(tree))
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                known.add(node.name)
            elif isinstance(node, (ast.arg, ast.keyword)) and node.arg:
                known.add(node.arg)
    text = re.sub(r"^```.*?^```", "", (ROOT / "README.md").read_text(), flags=re.M | re.S)
    spans = re.findall(r"`([^`]+)`", text)
    names = {part for span in spans if re.fullmatch(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)*", span)
             for part in span.split(".")}
    assert sorted(names - known) == []
