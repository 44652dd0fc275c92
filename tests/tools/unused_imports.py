"""``python tests/tools/unused_imports.py``: print each module-level import
under ``src/repro`` that its module never uses, exit 1 if there is any.
``__init__.py`` files import to re-export and are skipped.  A name is used
if the module reads it or spells it in a string that parses as an
expression (a quoted annotation, an ``__all__`` entry)."""

import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"


def unused_imports(path: Path):
    tree = ast.parse(path.read_text(), str(path))
    imported = {
        alias.asname or alias.name.split(".")[0]: node.lineno
        for node in tree.body
        if isinstance(node, (ast.Import, ast.ImportFrom))
        and getattr(node, "module", None) != "__future__"
        for alias in node.names
    }
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                quoted = ast.parse(node.value.strip(), mode="eval")
            except SyntaxError:
                continue
            used.update(n.id for n in ast.walk(quoted) if isinstance(n, ast.Name))
    return sorted((line, name) for name, line in imported.items() if name not in used)


if __name__ == "__main__":
    paths = [p for p in sorted(SRC.rglob("*.py")) if p.name != "__init__.py"]
    found = [f"{p}:{line}: {name}" for p in paths for line, name in unused_imports(p)]
    print("\n".join(found) or "no unused imports")
    sys.exit(1 if found else 0)
