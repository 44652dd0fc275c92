"""``python tests/tools/unreferenced.py``: print each module-level function
or class, and each non-dunder method, under ``src/repro`` whose name is an
identifier-shaped word nowhere but in its own definition — counted over
the code, strings and comments of ``src/``, ``tests/``, ``examples/``,
``bench/*.py`` and ``benchmarks/`` — and exit 1 if there is any."""

import ast
import re
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def definitions(path: Path):
    """(line, qualified name) of every definition the scan checks."""
    for node in ast.parse(path.read_text(), str(path)).body:
        if not isinstance(node, DEFS):
            continue
        yield node.lineno, node.name
        if isinstance(node, ast.ClassDef):
            for member in node.body:
                if isinstance(member, DEFS[:2]) and not member.name.startswith("__"):
                    yield member.lineno, f"{node.name}.{member.name}"


if __name__ == "__main__":
    scanned = [*(ROOT / "bench").glob("*.py")] + [
        path for top in ("src", "tests", "examples", "benchmarks")
        for path in (ROOT / top).rglob("*.py")
    ]
    words = Counter()
    for path in scanned:
        words.update(re.findall(r"[A-Za-z_][A-Za-z0-9_]*", path.read_text()))
    found = [
        f"{path.relative_to(ROOT)}:{line}: {name}"
        for path in sorted((ROOT / "src" / "repro").rglob("*.py"))
        for line, name in definitions(path)
        if words[name.rsplit(".", 1)[-1]] == 1
    ]
    print("\n".join(found) or "no unreferenced definitions")
    sys.exit(1 if found else 0)
