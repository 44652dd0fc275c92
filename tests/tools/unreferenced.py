"""``python tests/tools/unreferenced.py``: print each module-level function
or class, and each non-dunder method, under ``src/repro`` that no product
code uses, and exit 1 if there is any outside ``KEPT``.

Product code is ``src/``, ``bench/*.py`` and ``examples/``; ``tests/`` is
not, so a helper that only its own tests call counts as unused.  A use is
a name read (``f``), an attribute (``x.f``), a keyword argument (``f=``)
or an identifier-shaped word in a string constant, so the dotted paths in
``bench/layers.py`` count.  An import, an ``__all__`` entry and a
docstring are not uses: they name a definition without running it."""

import ast
import re
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
WORD = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")

#: Definitions no product code uses, kept on purpose, each with the reason.
KEPT = {
    "forget_worlds": "the tests' clean-world reset (ROADMAP 1(b)'s cold reading)",
    "UdpEndpoint.connection_made": "asyncio's DatagramProtocol calls it",
    "UdpEndpoint.datagram_received": "asyncio's DatagramProtocol calls it",
    "_SeedWords.generate_state": "numpy's SeedSequence protocol calls it",
    "CNAMERdata": "its decorator registers it for the decoder",
    "PTRRdata": "its decorator registers it for the decoder",
    "CaptureView.to_rows": "the row-by-row reference of the columnar capture",
    "provider_group_concentration": "the whole-view reference of the folded "
    "concentration aggregator",
    "ZipfSampler.probability": "the closed-form reference of the sampler",
    "SimClock": "the stepped clock the service tests substitute",
}


def _not_uses(tree):
    """The ids of the string constants that name without using: each
    docstring, and each ``__all__`` entry."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, *DEFS)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant):
                yield id(first.value)
        elif isinstance(node, ast.Assign) and getattr(node.targets[0], "id", "") == "__all__":
            yield from map(id, ast.walk(node.value))


def uses(tree) -> Counter:
    """How often each name is used in ``tree``."""
    skipped = set(_not_uses(tree))
    counted = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            counted[node.id] += 1
        elif isinstance(node, ast.Attribute):
            counted[node.attr] += 1
        elif isinstance(node, ast.keyword) and node.arg is not None:
            counted[node.arg] += 1
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and id(node) not in skipped):
            counted.update(WORD.findall(node.value))
    return counted


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
        path for top in ("src", "examples") for path in (ROOT / top).rglob("*.py")
    ]
    used = Counter()
    for path in scanned:
        used.update(uses(ast.parse(path.read_text(), str(path))))
    found = [
        f"{path.relative_to(ROOT)}:{line}: {name}"
        for path in sorted((ROOT / "src" / "repro").rglob("*.py"))
        for line, name in definitions(path)
        if not used[name.rsplit(".", 1)[-1]] and name not in KEPT
    ]
    print("\n".join(found) or "no unreferenced definitions")
    sys.exit(1 if found else 0)
