"""Every top-level function and class of `src/adaptls` is used somewhere.

A definition counts as used when a file under `src/`, `bench/` or
`scripts/` names it: as a name, as an attribute or in an import.  Tests do
not count, and neither do strings.  Dunder names (`__getattr__`) are looked
up by Python itself.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).parents[1]


def _trees(directory: str) -> dict[Path, ast.Module]:
    return {
        path: ast.parse(path.read_text(encoding="utf-8"), str(path))
        for path in sorted((ROOT / directory).rglob("*.py"))
    }


def _named(tree: ast.Module) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.rpartition(".")[2])
    return names


def test_every_top_level_definition_is_named():
    definitions = {
        node.name: path.relative_to(ROOT).as_posix()
        for path, tree in _trees("src").items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not (node.name.startswith("__") and node.name.endswith("__"))
    }
    named = set().union(*(_named(tree) for d in ("src", "bench", "scripts") for tree in _trees(d).values()))
    assert {name: path for name, path in definitions.items() if name not in named} == {}
