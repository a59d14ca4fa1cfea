"""Every name the package exports is one the package runs or its benchmark binds.

A name counts as read when a module of ``src/mimofusion`` other than
``__init__.py`` loads it, as a name or an attribute, outside the name's own
definition, or when a ``perfbench/*.py`` file names it.  A form that only the
tests read belongs in the tests.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "mimofusion"


def exported_names() -> list[str]:
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return [alias.asname or alias.name
            for node in tree.body if isinstance(node, ast.ImportFrom)
            for alias in node.names]


def package_reads() -> dict[str, set[tuple[str, int]]]:
    """{name: {(module, line)}} of every name or attribute a module loads."""
    reads: dict[str, set[tuple[str, int]]] = {}
    for path in PACKAGE.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                name = node.id
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                name = node.attr
            else:
                continue
            reads.setdefault(name, set()).add((path.name, node.lineno))
    return reads


def definitions() -> dict[str, tuple[str, int, int]]:
    """{name: (module, first line, last line)} of each top-level def and class."""
    spans = {}
    for path in PACKAGE.glob("*.py"):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                spans[node.name] = (path.name, node.lineno, node.end_lineno)
    return spans


def test_every_export_is_read_outside_its_definition():
    reads, spans = package_reads(), definitions()
    bench = "\n".join(path.read_text() for path in sorted((ROOT / "perfbench").glob("*.py")))
    unread = []
    for name in exported_names():
        module, first, last = spans.get(name, ("", 0, -1))
        outside = {(mod, line) for mod, line in reads.get(name, ())
                   if not (mod == module and first <= line <= last)}
        if not outside and not re.search(rf"\b{re.escape(name)}\b", bench):
            unread.append(name)
    assert not unread, f"exported but read only by tests: {unread}"
