"""Only ``core/relation.py`` writes a relation's ``_tuples``.

A column lookup (``Relation.lookup``) is dropped when a row is added, and
the only thing that says a row was added is the counter every adding
method of :class:`~repro.core.relation.Relation` bumps.  A module that
stored into ``_tuples`` itself would add rows the counter never saw, and
a selection would answer from a lookup that misses them.
"""

import ast
from pathlib import Path

_REPRO = Path(__file__).resolve().parents[1] / "src" / "repro"

#: Dict methods that change which keys a mapping holds.
_WRITERS = {"pop", "popitem", "update", "setdefault", "clear"}


def _is_tuples(node: ast.AST) -> bool:
    if isinstance(node, ast.Subscript):
        node = node.value
    return isinstance(node, ast.Attribute) and node.attr == "_tuples"


def _writes(tree: ast.AST):
    """Line numbers of every store, ``del`` or mutating call on ``_tuples``."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign, ast.Delete)):
            targets = getattr(node, "targets", None) or [node.target]
            if any(_is_tuples(target) for target in targets):
                yield node.lineno
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in _WRITERS
            and _is_tuples(node.func.value)
        ):
            yield node.lineno


def test_no_module_but_relation_writes_tuples():
    offenders = [
        f"{path.relative_to(_REPRO).as_posix()}:{line}"
        for path in sorted(_REPRO.rglob("*.py"))
        if path.relative_to(_REPRO).as_posix() != "core/relation.py"
        for line in _writes(ast.parse(path.read_text()))
    ]
    assert offenders == []


def test_the_check_sees_each_kind_of_write():
    source = "\n".join([
        "r._tuples = {}",
        "r._tuples[row] = stamp",
        "r._tuples[row] += 1",
        "del r._tuples[row]",
        "r._tuples.pop(row)",
        "r._tuples.update(other)",
        "x = r._tuples.get(row)",  # a read
        "merged.update(shard._tuples)",  # a read into another dict
    ])
    assert sorted(_writes(ast.parse(source))) == [1, 2, 3, 4, 5, 6]
