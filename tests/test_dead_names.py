"""Every public module-level function and class in ``billnet``, and every
public method and property of its classes, has a caller.

A name counts as used when code in ``src/billnet``, ``tools/`` or
``perfbench/`` refers to it: by name inside its own module (outside its own
definition), through an import from its module, as an attribute of a name
bound to its module, or, in ``tools/`` and ``perfbench/``, as a string (the
benchmark's tracer looks wrap points up by name).  A class member counts as
used when that code reads an attribute of its name, on any object, or names
it in such a string.  Tests do not count: code that only a test calls is
deleted together with its test.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "billnet"

# name -> why it stays without a caller in the scanned trees; an entry
# leaves the list once it gains one
ALLOWED = {
    "autodiff.sum_all": "the reducer the tape's gradient checks build their scalar losses with",
    "model.ParamReport.total_weight_bits": "ROADMAP item 6's per-stage budget report",
    "model.ParamReport.total_bookkeeping_bits": "ROADMAP item 6's per-stage budget report",
}


def _public_defs(tree):
    """Public module-level names, and ``Class.member`` for each public
    method or property of a module-level class."""
    defs = (ast.FunctionDef, ast.ClassDef)
    names = {s.name for s in tree.body if isinstance(s, defs) and not s.name.startswith("_")}
    return names | {
        f"{c.name}.{f.name}"
        for c in tree.body
        if isinstance(c, ast.ClassDef) and c.name in names
        for f in c.body
        if isinstance(f, ast.FunctionDef) and not f.name.startswith("_")
    }


def _module_aliases(tree, modules):
    """Local names bound to a ``billnet`` module, e.g. ``ad`` -> ``autodiff``."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module in (None, "billnet"):
            for a in node.names:
                if a.name in modules:
                    out[a.asname or a.name] = a.name
    return out


def _uses(path, modules):
    """The (module, name) pairs ``path`` imports or reaches as attributes,
    every attribute name it reads, its string constants, and the names it
    reads outside the definition that binds them."""
    tree = ast.parse(path.read_text())
    aliases = _module_aliases(tree, modules)
    used, strings, attrs = set(), set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module:
            mod = node.module.removeprefix("billnet.")
            if mod in modules:
                used.update((mod, a.name) for a in node.names)
        elif isinstance(node, ast.Attribute):
            attrs.add(node.attr)
            if isinstance(node.value, ast.Name) and node.value.id in aliases:
                used.add((aliases[node.value.id], node.attr))
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            strings.add(node.value)
    local = {
        n.id
        for stmt in tree.body
        for n in ast.walk(stmt)
        if isinstance(n, ast.Name) and n.id != getattr(stmt, "name", None)
    }
    return used, strings, local, attrs


def dead_names():
    """Every public name without a caller, allowlisted or not."""
    files = {p.stem: p for p in sorted(PACKAGE.glob("*.py"))}
    modules = set(files)
    defs = {m: _public_defs(ast.parse(p.read_text())) for m, p in files.items()}
    used, strings, attrs = set(), set(), set()
    for path in [*files.values(), *(ROOT / "tools").glob("*.py"), *(ROOT / "perfbench").glob("*.py")]:
        u, s, local, a = _uses(path, modules)
        used |= u
        attrs |= a
        if path.parent == PACKAGE:
            used |= {(path.stem, name) for name in local}
        else:
            strings |= s

    def called(module, name):
        cls, _, member = name.rpartition(".")
        if cls:
            return member in attrs or member in strings
        return (module, name) in used or name in strings

    return sorted(
        f"{m}.{name}"
        for m, names in defs.items()
        for name in names
        if not called(m, name)
    )


def test_every_public_name_has_a_caller():
    assert [name for name in dead_names() if name not in ALLOWED] == []


def test_allowlisted_names_still_have_no_caller():
    assert [name for name in ALLOWED if name not in dead_names()] == []


def test_allowlist_names_existing_definitions():
    for entry in ALLOWED:
        module, name = entry.split(".", 1)
        assert name in _public_defs(ast.parse((PACKAGE / f"{module}.py").read_text())), entry
