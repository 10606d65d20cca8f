"""Every library name has a caller outside the tests.

A top-level function or class of ``src/fibsite``, or a public method of
such a class, is live when something other than the tests names it: a
``.py`` file under ``src/`` (outside its own definition), ``demos/`` or
``perfbench/``, or an inline code span of README.md.  A name counts when it
appears as a ``Name``, an ``Attribute``, an import alias, or a string that
is an identifier (an ``__all__`` entry, a name in perfbench's ``TARGETS``).
A name only the tests reach belongs with the tests.  ``sampling`` is exempt:
its callers are the test and benchmark harnesses.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "fibsite"
EXEMPT = {"sampling.py"}
CODE_SPAN = re.compile(r"`([^`\n]+)`")
IDENTIFIER = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def _definitions(tree: ast.Module):
    """(name, line) of each top-level def and class, and each public method."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node.lineno
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) and not (
                    item.name.startswith("_")
                ):
                    yield f"{node.name}.{item.name}", item.lineno


def _references(node: ast.AST, inside: frozenset = frozenset()):
    """Names node mentions, except those of the definitions it sits in."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        inside = inside | {node.name}
    name = None
    if isinstance(node, ast.Name):
        name = node.id
    elif isinstance(node, ast.Attribute):
        name = node.attr
    elif isinstance(node, ast.alias):
        name = node.name.rpartition(".")[2]
    elif isinstance(node, ast.Constant) and isinstance(node.value, str):
        name = node.value if node.value.isidentifier() else None
    if name is not None and name not in inside:
        yield name
    for child in ast.iter_child_nodes(node):
        yield from _references(child, inside)


def _named_outside_tests() -> set[str]:
    files = sorted((ROOT / "src").rglob("*.py"))
    files += sorted((ROOT / "demos").rglob("*.py")) + sorted((ROOT / "perfbench").rglob("*.py"))
    named = set()
    for path in files:
        named.update(_references(ast.parse(path.read_text(), str(path))))
    readme = (ROOT / "README.md").read_text()
    for span in CODE_SPAN.findall(readme):
        named.update(IDENTIFIER.findall(span))
    return named


def test_every_library_name_has_a_caller_outside_the_tests():
    named = _named_outside_tests()
    unreached = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name in EXEMPT:
            continue
        for qualified, line in _definitions(ast.parse(path.read_text(), str(path))):
            if qualified.rpartition(".")[2] not in named:
                unreached.append(f"{path.name}:{line} {qualified}")
    assert not unreached, "named only by the tests (or by nobody):\n" + "\n".join(unreached)
