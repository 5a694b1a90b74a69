"""Fail on names imported in src/arcspace that their module never uses.

    python3 .github/check_imports.py

A stdlib stand-in for flake8's F401, so that CI needs no linter.  Each
module under src/arcspace is parsed with ``ast``; a name bound by an import
is reported unless the module reads it somewhere (a name, or the root of an
attribute chain, also inside a quoted annotation), lists it in ``__all__``,
or carries ``# noqa: F401`` on the import's first line or on the line of the
name.  ``from __future__`` imports and star imports are not checked.  Exits 1
and prints ``path:line: name`` for each unused name.
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


def main() -> int:
    problems = [f"{path.relative_to(ROOT)}:{line}: {name} imported but unused"
                for path in sorted(SRC.rglob("*.py"))
                for line, name in unused_imports(path)]
    print("\n".join(problems) or "no unused imports")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
