"""Every name a src module imports is used in that module; the package's
``__init__.py`` only re-exports, so it is exempt.  Every top-level
function and class of src has a caller: src refers to it outside its own
definition, ``__init__.py`` re-exports it, or the benchmark's tracer
names it."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "eqhom"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
TRACER = ROOT / "bench" / "traced.py"


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


def test_unused_imports_are_found():
    assert unused_imports("import os\nfrom a import b, c as d\nprint(d)\n") == [
        "line 1: os", "line 2: b"]
    assert unused_imports("from __future__ import annotations\nimport os.path\nos\n") == []


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_src_module_uses_every_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def _names(node, strings: bool = False) -> set[str]:
    """The names ``node`` mentions: loads, attributes and imports, and
    string constants when ``strings`` (a docstring is no caller)."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif isinstance(sub, ast.alias):
            out.add(sub.asname or sub.name)
        elif strings and isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            out.add(sub.value)
    return out


def uncalled_definitions(modules: dict[str, str], init: str, tracer: str) -> list[str]:
    """``module.name`` of each top-level def or class in ``modules`` (name
    to source) that no module mentions outside its own definition and
    that neither ``init`` re-exports nor ``tracer`` names."""
    defined, used = [], _names(ast.parse(init)) | _names(ast.parse(tracer), strings=True)
    for module, source in modules.items():
        for node in ast.parse(source).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.append(f"{module}.{node.name}")
                used |= _names(node) - {node.name}
            else:
                used |= _names(node)
    return [d for d in defined if d.rsplit(".", 1)[1] not in used]


def test_uncalled_definitions_are_found():
    modules = {"a": "def f():\n    return f()\n\ndef g():\n    pass\n\nclass C:\n    pass\n",
               "b": '"""C and f."""\nfrom .a import g\n\ndef h():\n    return g()\n\nX = h\n'}
    assert uncalled_definitions(modules, "", "") == ["a.f", "a.C"]
    assert uncalled_definitions(modules, "from .a import C\n", "TIMED = [(a, 'f')]\n") == []


def test_every_src_definition_has_a_caller():
    modules = {p.stem: p.read_text(encoding="utf-8") for p in MODULES}
    assert uncalled_definitions(modules, (SRC / "__init__.py").read_text(encoding="utf-8"),
                                TRACER.read_text(encoding="utf-8")) == []
