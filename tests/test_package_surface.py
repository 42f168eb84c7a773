"""Every definition in the package is used by the program, not by tests alone.

The program is `src/`, `scripts/` and `perfbench/`.  A definition is used
when its name appears there, outside the definition itself, as a name, an
attribute or an exact string constant (the benchmark tracer patches by
string).  Docstrings do not count; dunder names are exempt.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "delayfdtd"
PROGRAM = ("src", "scripts", "perfbench")
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _docstring_ids(tree):
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, *DEFINITIONS)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant):
                out.add(id(first.value))
    return out


def _scan(tree, found, enclosing=frozenset(), skip=None):
    """Append (name, ids of the definitions it sits in) for each reference under tree."""
    skip = _docstring_ids(tree) if skip is None else skip
    for node in ast.iter_child_nodes(tree):
        inner = enclosing | {id(node)} if isinstance(node, DEFINITIONS) else enclosing
        if isinstance(node, ast.Name):
            found.append((node.id, enclosing))
        elif isinstance(node, ast.Attribute):
            found.append((node.attr, enclosing))
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) and id(node) not in skip:
            found.append((node.value, enclosing))
        _scan(node, found, inner, skip)


def _definitions(tree, prefix):
    """(qualified name, node) of every function, class and method under tree."""
    for node in ast.iter_child_nodes(tree):
        name = prefix
        if isinstance(node, DEFINITIONS):
            name = f"{prefix}.{node.name}"
            yield name, node
        yield from _definitions(node, name)


def unused_definitions():
    # one parse per file: a reference knows its enclosing definitions by node id
    trees = {
        path: ast.parse(path.read_text(), str(path))
        for top in PROGRAM
        for path in sorted((ROOT / top).rglob("*.py"))
    }
    references = []
    for tree in trees.values():
        _scan(tree, references)
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        for qualname, node in _definitions(trees[path], path.stem):
            if node.name.startswith("__") and node.name.endswith("__"):
                continue
            if not any(name == node.name and id(node) not in where for name, where in references):
                unused.append(qualname)
    return unused


def test_every_package_definition_has_a_program_caller():
    assert unused_definitions() == []
