"""Fail on names imported in src/arcspace that their module never uses, and
on private functions and classes that no module there reads.

    python3 .github/check_imports.py

A stdlib stand-in for flake8's F401, so that CI needs no linter.  Each
module under src/arcspace is parsed with ``ast``; a name bound by an import
is reported unless the module reads it somewhere (a name, or the root of an
attribute chain, also inside a quoted annotation), lists it in ``__all__``,
or carries ``# noqa: F401`` on the import's first line or on the line of the
name.  ``from __future__`` imports and star imports are not checked.

A function or class defined at module level with a private name (one
leading underscore, not a dunder) is reported unless a module under
src/arcspace reads it: its own module as a name (also inside a quoted
annotation), another one by importing it from that module, or any one as an
attribute (``tpoly._substituted``).  A private helper moved to another module
and left behind is such a dead copy, even where the moved one keeps its name;
so is a definition that rebinds a name its module imports.
Exits 1 and prints ``path:line: name`` for each unused name.
"""

import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "arcspace"
NOQA = "# noqa: F401"


def _bound(node: ast.Import | ast.ImportFrom) -> list[tuple[str, int]]:
    """(name, line) of each name the import binds."""
    out = []
    for alias in node.names:
        if alias.name == "*":
            continue
        name = alias.asname or alias.name.split(".")[0]
        out.append((name, getattr(alias, "lineno", node.lineno)))
    return out


def _annotation_names(module: ast.Module) -> set[str]:
    """Names read inside quoted annotations."""
    names = set()
    for node in ast.walk(module):
        annotations = []
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            annotations = [a.annotation for a in (*args.posonlyargs, *args.args,
                                                  *args.kwonlyargs, args.vararg, args.kwarg)
                           if a is not None]
            annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations = [node.annotation]
        for annotation in annotations:
            for sub in ast.walk(annotation) if annotation is not None else ():
                if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                    try:
                        parsed = ast.parse(sub.value, mode="eval")
                    except SyntaxError:
                        continue
                    names |= {n.id for n in ast.walk(parsed) if isinstance(n, ast.Name)}
    return names


def _exported(module: ast.Module) -> set[str]:
    for node in module.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return {e.value for e in getattr(node.value, "elts", ())
                    if isinstance(e, ast.Constant)}
    return set()


def unused_imports(path: Path) -> list[tuple[int, str]]:
    text = path.read_text(encoding="utf-8")
    lines = text.splitlines()
    module = ast.parse(text, str(path))
    imported = []
    for node in ast.walk(module):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            first = lines[node.lineno - 1]
            imported += [(name, line) for name, line in _bound(node)
                         if NOQA not in first and NOQA not in lines[line - 1]]
    used = {n.id for n in ast.walk(module) if isinstance(n, ast.Name)}
    used |= _annotation_names(module) | _exported(module)
    return [(line, name) for name, line in imported if name not in used]


def _private_definitions(module: ast.Module) -> list[tuple[int, str]]:
    """(line, name) of each module-level private function and class."""
    return [(node.lineno, node.name) for node in module.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and node.name.startswith("_") and not node.name.endswith("__")]


def _dotted(path: Path) -> str:
    parts = path.relative_to(SRC.parent).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def _source(node: ast.ImportFrom, path: Path) -> str:
    """The dotted name of the module an import from `path` reads."""
    if not node.level:
        return node.module or ""
    package = _dotted(path).split(".")
    if path.name != "__init__.py":
        package.pop()
    base = package[:len(package) - node.level + 1]
    return ".".join(base + ([node.module] if node.module else []))


def unread_private_definitions(paths: list[Path]) -> list[tuple[Path, int, str]]:
    """Private definitions that neither their own module reads as a name nor
    any module imports from theirs or reads as an attribute, and those that
    rebind a name their module imports."""
    modules = {path: ast.parse(path.read_text(encoding="utf-8"), str(path)) for path in paths}
    imported, attributes = set(), set()
    for path, module in modules.items():
        for node in ast.walk(module):
            if isinstance(node, ast.ImportFrom):
                imported |= {(_source(node, path), alias.name) for alias in node.names}
            elif isinstance(node, ast.Attribute):
                attributes.add(node.attr)
    out = []
    for path, module in modules.items():
        own = {n.id for n in ast.walk(module) if isinstance(n, ast.Name)}
        own |= _annotation_names(module)
        # a definition that rebinds a name the module imports hides the import
        rebound = {name for node in ast.walk(module) if isinstance(node, ast.ImportFrom)
                    for name, _ in _bound(node)}
        for line, name in _private_definitions(module):
            if name in rebound:
                out.append((path, line, f"{name} rebinds an imported name"))
            elif name not in own | attributes and (_dotted(path), name) not in imported:
                out.append((path, line, f"{name} defined but never read"))
    return out


def main() -> int:
    paths = sorted(SRC.rglob("*.py"))
    problems = [f"{path.relative_to(ROOT)}:{line}: {name} imported but unused"
                for path in paths for line, name in unused_imports(path)]
    problems += [f"{path.relative_to(ROOT)}:{line}: {what}"
                 for path, line, what in unread_private_definitions(paths)]
    print("\n".join(problems) or "no unused imports or private definitions")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
