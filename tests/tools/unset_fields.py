"""``python tests/tools/unset_fields.py``: print each setting under
``src/repro`` that no code under ``src/``, ``bench/*.py`` or ``examples/``
sets, and exit 1 if there is any.  A setting is

* a field of a settings dataclass — one named ``*Config``, ``*Behavior``
  or ``*Spec``, plus ``DatasetDescriptor`` and ``FaultPlan``; or
* a defaulted parameter of any function or method (the ``self`` / ``cls``
  of a method aside).

A field is set when a call to its class passes it by keyword or by
position, when a ``replace`` call passes it by keyword, or when it is
assigned as an attribute.  A parameter is set when a call to its function
— matched by name: ``f(...)`` or ``x.f(...)``, and the class's name for
``__init__`` — passes it by keyword or by position.  A value with one
setting is a module constant, not a field or a keyword.  ``KEPT`` names
the settings that stay unset on purpose."""

import ast
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
CHECKED = re.compile(r".*(Config|Behavior|Spec)$|DatasetDescriptor$|FaultPlan$")

#: Unset settings kept on purpose, each with the reason.
KEPT = {
    "ResolverBehavior.serve_stale": "feeds the resolver.retry.stale_served "
    "counters the oracle digests (ROADMAP items 6 and 3)",
    "WallClock.__init__(epoch_anchor)": "tests pin the anchor to read a "
    "fake monotonic clock as fixed wall times",
    "WallClock.__init__(monotonic)": "tests substitute a fake monotonic clock",
    "DnsService.__init__(clock)": "tests substitute a SimClock for the wall clock",
    "configure_logging(stream)": "tests capture the log lines in a buffer "
    "instead of stderr",
    "EnvironmentCache.__init__(capacity)": "capacity 0 is the reference path "
    "(nothing parked) that tests compare the shared world stores against",
    "_SeedWords.generate_state(dtype)": "numpy's SeedSequence protocol "
    "declares it; numpy's generators call it",
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


def _functions(body, owner=None):
    """(owner class or None, function) of every function defined in
    ``body``, nested ones included."""
    for node in body:
        if isinstance(node, ast.ClassDef):
            yield from _functions(node.body, node)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield owner, node
            yield from _functions(node.body)
        else:
            for field in ("body", "orelse", "finalbody", "handlers"):
                yield from _functions(getattr(node, field, ()), owner)


def defaulted_parameters(tree):
    """(line, label, called name, {position or keyword}) of every defaulted
    parameter of a function or method in ``tree``; a call sets it when it
    passes one of the positions or keywords."""
    for owner, node in _functions(tree.body):
        decorators = {_name(getattr(d, "func", d)) for d in node.decorator_list}
        args = node.args
        positional = args.posonlyargs + args.args
        if owner is not None and "staticmethod" not in decorators:
            positional = positional[1:]
        called = owner.name if owner is not None and node.name == "__init__" else node.name
        label = f"{owner.name}.{node.name}" if owner is not None else node.name
        first_default = len(positional) - len(args.defaults)
        for position, arg in enumerate(positional):
            if position >= first_default:
                ways = {arg.arg} if arg in args.args else set()
                yield arg.lineno, f"{label}({arg.arg})", called, ways | {position}
        for arg, default in zip(args.kwonlyargs, args.kw_defaults):
            if default is not None:
                yield arg.lineno, f"{label}({arg.arg})", called, {arg.arg}


def setters(tree):
    """(class or function name or None, field name or position) of every
    setting in ``tree``; ``None`` for a ``replace`` keyword or an attribute
    assignment, which may set the field of any class."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            called = _name(node.func)
            owner = None if called in ("replace", "dc_replace") else called
            for position, arg in enumerate(node.args):
                if isinstance(arg, ast.Starred):
                    break
                if owner:
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
        tree = ast.parse(path.read_text(), str(path))
        where = path.relative_to(ROOT)
        for cls, fields in settings_classes(tree):
            for position, (line, field) in enumerate(fields):
                if ({(cls, field), (cls, position), (None, field)} & set_by
                        or f"{cls}.{field}" in KEPT):
                    continue
                found.append(f"{where}:{line}: {cls}.{field}")
        for line, label, called, ways in defaulted_parameters(tree):
            if {(called, way) for way in ways} & set_by or label in KEPT:
                continue
            found.append(f"{where}:{line}: {label}")
    print("\n".join(found) or "no unset settings")
    sys.exit(1 if found else 0)
