#!/usr/bin/env python
"""List the functions, classes and methods in ``src/`` that only tests name.

A definition counts as reached when some code outside ``tests/`` spells
its name: an identifier, attribute, import, keyword argument or an
identifier-like string constant (``getattr``/registry lookups) in
``src/``, ``examples/``, ``benchmarks/`` or ``perfbench/``, or any word
of the CI workflows.  A name inside its own definition, a docstring and
an ``__all__`` list do not count, and a ``src/`` module that nothing
imports (found to a fixed point) reaches nothing.

Matching is by name, so a helper that shares its name with a live one
is missed; every listed entry is a candidate to read, not a verdict.

Run from the repository root:  python tools/find_unreached.py
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

ROOTS = ("src", "examples", "benchmarks", "perfbench")
STRING_NAME = re.compile(r"(?:^|[.:])([A-Za-z_]\w*)$")


def spelled(node: ast.AST):
    """The names ``node`` itself spells (not its children)."""
    if isinstance(node, ast.Name):
        return [node.id]
    if isinstance(node, ast.Attribute):
        return [node.attr]
    if isinstance(node, ast.alias):
        return node.name.split(".")
    if isinstance(node, ast.keyword) and node.arg:
        return [node.arg]
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return STRING_NAME.findall(node.value)
    return []


def not_uses(tree: ast.Module) -> set:
    """ids of docstring and ``__all__`` nodes, which are not uses."""
    skip = set()
    for node in ast.walk(tree):
        body = getattr(node, "body", None)
        if (isinstance(body, list) and body and isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant)):
            skip.add(id(body[0].value))
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            skip.update(id(n) for n in ast.walk(node.value))
    return skip


def definitions(path: Path, tree: ast.Module):
    """``(qualname, name, node)`` of top-level defs and their methods."""
    for top in tree.body:
        if isinstance(top, (ast.FunctionDef, ast.ClassDef)):
            yield top.name, top.name, top
        if isinstance(top, ast.ClassDef):
            for m in top.body:
                if isinstance(m, ast.FunctionDef) and not (
                    m.name.startswith("__") and m.name.endswith("__")
                ):
                    yield f"{top.name}.{m.name}", m.name, m


def module_name(path: Path) -> str:
    return ".".join(path.with_suffix("").parts[1:])


def main() -> None:
    files = {
        p: ast.parse(p.read_text())
        for root in ROOTS for p in sorted(Path(root).rglob("*.py"))
    }
    ci = "".join(p.read_text() for p in Path(".github").rglob("*.yml"))
    src = [p for p in files if p.parts[0] == "src"]

    dead: set = set()
    while True:
        imported = set()
        for p, tree in files.items():
            if p in dead:
                continue
            for n in ast.walk(tree):
                if isinstance(n, ast.ImportFrom) and n.module:
                    imported.add(n.module)
                    imported.update(f"{n.module}.{a.name}" for a in n.names)
                elif isinstance(n, ast.Import):
                    imported.update(a.name for a in n.names)
        new = {
            p for p in src
            if p.stem not in ("__init__", "__main__")
            and module_name(p) not in imported and module_name(p) not in ci
        }
        if new <= dead:
            break
        dead |= new

    uses: dict = {}
    for p, tree in files.items():
        if p in dead:
            continue
        skip = not_uses(tree)
        inside: dict = {}
        for _, name, node in definitions(p, tree):
            for n in ast.walk(node):
                inside.setdefault(id(n), set()).add(name)
        for n in ast.walk(tree):
            if id(n) in skip:
                continue
            for name in spelled(n):
                if name not in inside.get(id(n), ()):
                    uses[name] = uses.get(name, 0) + 1

    for p in sorted(dead):
        print(f"{p}: module imported by nothing outside tests/")
    for p in sorted(src):
        if p in dead:
            continue
        for qualname, name, _ in sorted(definitions(p, files[p])):
            if not uses.get(name) and not re.search(rf"\b{name}\b", ci):
                print(f"{p}:{qualname}")


if __name__ == "__main__":
    main()
