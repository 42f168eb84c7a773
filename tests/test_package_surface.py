"""Every definition and dataclass field in the package is used by the program.

The program is `src/` and `perfbench/`, not the tests.  A
definition is used when its name appears there, outside the definition
itself, as a name, an attribute or an exact string constant (the benchmark
tracer patches by string).  A dataclass field is read when its name appears
there as a loaded attribute or an exact string constant (`getattr` by a
listed name), other than in its own class's dunder methods: a field that
only `__post_init__` checks is not used.  Docstrings do not count; dunder
names are exempt.
"""

import ast
from functools import lru_cache
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "delayfdtd"
PROGRAM = ("src", "perfbench")
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
    """Append (name, node, ids of the definitions it sits in) for each reference under tree."""
    skip = _docstring_ids(tree) if skip is None else skip
    for node in ast.iter_child_nodes(tree):
        inner = enclosing | {id(node)} if isinstance(node, DEFINITIONS) else enclosing
        if isinstance(node, ast.Name):
            found.append((node.id, node, enclosing))
        elif isinstance(node, ast.Attribute):
            found.append((node.attr, node, enclosing))
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) and id(node) not in skip:
            found.append((node.value, node, enclosing))
        _scan(node, found, inner, skip)


def _definitions(tree, prefix):
    """(qualified name, node) of every function, class and method under tree."""
    for node in ast.iter_child_nodes(tree):
        name = prefix
        if isinstance(node, DEFINITIONS):
            name = f"{prefix}.{node.name}"
            yield name, node
        yield from _definitions(node, name)


@lru_cache(maxsize=None)
def _program():
    """(tree per program file, every reference in the program)."""
    # one parse per file: a reference knows its enclosing definitions by node id
    trees = {
        path: ast.parse(path.read_text(), str(path))
        for top in PROGRAM
        for path in sorted((ROOT / top).rglob("*.py"))
    }
    references = []
    for tree in trees.values():
        _scan(tree, references)
    return trees, references


def unused_definitions():
    trees, references = _program()
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        for qualname, node in _definitions(trees[path], path.stem):
            if node.name.startswith("__") and node.name.endswith("__"):
                continue
            if not any(name == node.name and id(node) not in where for name, _, where in references):
                unused.append(qualname)
    return unused


def test_every_package_definition_has_a_program_caller():
    assert unused_definitions() == []


# Fields that only tests read, kept on purpose, with the reason.
KEPT_FIELDS = {
    "analysis.EnergyTrace.metadata": "holds Scenario.digest, for the run manifest of ROADMAP item 8",
    "analysis.DecayCertificate.c_tilde": "acceptance criterion 7 reads it",
    "operator_lab.ResolventResult.V": "it is the resolvent's solution",
    "operators.Operators.Wq": "the Green-identity and assembly references read it (a view of Wq_pair[1])",
}


def _is_dataclass(decorator) -> bool:
    target = decorator.func if isinstance(decorator, ast.Call) else decorator
    return getattr(target, "id", getattr(target, "attr", None)) == "dataclass"


def unread_fields():
    trees, references = _program()
    reads = [
        (name, where)
        for name, node, where in references
        if isinstance(node, ast.Constant) or (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load))
    ]
    unread = []
    for path in sorted(PACKAGE.glob("*.py")):
        for cls in ast.walk(trees[path]):
            if not (isinstance(cls, ast.ClassDef) and any(map(_is_dataclass, cls.decorator_list))):
                continue
            own = {id(f) for f in cls.body if isinstance(f, DEFINITIONS) and f.name.startswith("__")}
            for stmt in cls.body:
                if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                    field = stmt.target.id
                    if not any(name == field and not own & where for name, where in reads):
                        unread.append(f"{path.stem}.{cls.name}.{field}")
    return unread


def test_every_dataclass_field_is_read_by_the_program():
    # an exemption whose field the program now reads, or that is gone, is listed too
    assert sorted(unread_fields()) == sorted(KEPT_FIELDS)
