"""``python tests/tools/unset_fields.py``: print each field of a settings
dataclass under ``src/repro`` — one named ``*Config``, ``*Behavior`` or
``*Spec``, plus ``DatasetDescriptor`` and ``FaultPlan`` — that no code
under ``src/``, ``bench/*.py`` or ``examples/`` sets, and exit 1 if there
is any.  A field is set when a call to its class passes it by keyword or
by position, when a ``replace`` call passes it by keyword, or when it is
assigned as an attribute.  A value with one setting is a module constant,
not a field.  ``KEPT`` names the fields that stay unset on purpose."""

import ast
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
CHECKED = re.compile(r".*(Config|Behavior|Spec)$|DatasetDescriptor$|FaultPlan$")

#: Unset fields kept on purpose, each with the reason.
KEPT = {
    "ResolverBehavior.serve_stale": "feeds the resolver.retry.stale_served "
    "counters the oracle digests (ROADMAP items 6 and 3)",
}


def _name(node) -> str:
    """The called name: ``f`` of ``f(...)`` or of ``x.f(...)``."""
    return node.id if isinstance(node, ast.Name) else getattr(node, "attr", "")


def settings_classes(tree):
    """(name, [(line, field)]) of every checked dataclass in ``tree``."""
    for node in ast.walk(tree):
        if not (isinstance(node, ast.ClassDef) and CHECKED.match(node.name)):
            continue
        if not any(_name(getattr(d, "func", d)) == "dataclass" for d in node.decorator_list):
            continue
        fields = [
            (member.lineno, member.target.id)
            for member in node.body
            if isinstance(member, ast.AnnAssign) and isinstance(member.target, ast.Name)
            and "ClassVar" not in ast.unparse(member.annotation)
            and not (isinstance(member.value, ast.Call) and any(
                k.arg == "init" and getattr(k.value, "value", True) is False
                for k in member.value.keywords))
        ]
        yield node.name, fields


def setters(tree):
    """(class or None, field name or position) of every setting in ``tree``;
    ``None`` for a ``replace`` keyword or an attribute assignment, which may
    set the field of any class."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            called = _name(node.func)
            owner = None if called in ("replace", "dc_replace") else called
            for position, arg in enumerate(node.args):
                if owner and not isinstance(arg, ast.Starred):
                    yield owner, position
            for keyword in node.keywords:
                if keyword.arg is not None:
                    yield owner, keyword.arg
        elif isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Attribute):
                    yield None, target.attr


if __name__ == "__main__":
    scanned = [*(ROOT / "bench").glob("*.py")] + [
        path for top in ("src", "examples") for path in (ROOT / top).rglob("*.py")
    ]
    set_by = set()
    for path in scanned:
        set_by.update(setters(ast.parse(path.read_text(), str(path))))
    found = []
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        for cls, fields in settings_classes(ast.parse(path.read_text(), str(path))):
            for position, (line, field) in enumerate(fields):
                if ({(cls, field), (cls, position), (None, field)} & set_by
                        or f"{cls}.{field}" in KEPT):
                    continue
                found.append(f"{path.relative_to(ROOT)}:{line}: {cls}.{field}")
    print("\n".join(found) or "no unset fields")
    sys.exit(1 if found else 0)
