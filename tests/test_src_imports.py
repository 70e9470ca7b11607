"""Every name a src module imports is used in that module; the package's
``__init__.py`` only re-exports, so it is exempt.  Every top-level
function, class and assigned name of src (dunder names aside) has a
reader: src reads it outside its own definition, ``__init__.py``
re-exports it, or the benchmark's tracer names it.  A text command
loads none of the heavy standard modules that start-up once paid for."""

import ast
import os
import subprocess
import sys
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
    """The names ``node`` reads: loads, attributes and imports, and
    string constants when ``strings`` (a docstring is no caller)."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif isinstance(sub, ast.alias):
            out.add(sub.asname or sub.name)
        elif strings and isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            out.add(sub.value)
    return out


def _defines(node) -> list[str]:
    """The names a top-level statement defines: a def or class, or the
    names an assignment stores, dunder names aside."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, (ast.Assign, ast.AnnAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        return [sub.id for t in targets for sub in ast.walk(t)
                if isinstance(sub, ast.Name) and not sub.id.startswith("__")]
    return []


def uncalled_definitions(modules: dict[str, str], init: str, tracer: str) -> list[str]:
    """``module.name`` of each top-level def, class or assigned name in
    ``modules`` (name to source) that no module reads outside its own
    definition and that neither ``init`` re-exports nor ``tracer`` names."""
    defined, used = [], _names(ast.parse(init)) | _names(ast.parse(tracer), strings=True)
    for module, source in modules.items():
        for node in ast.parse(source).body:
            names = _defines(node)
            defined += [f"{module}.{name}" for name in names]
            used |= _names(node) - set(names)
    return [d for d in defined if d.rsplit(".", 1)[1] not in used]


def test_uncalled_definitions_are_found():
    modules = {"a": "def f():\n    return f()\n\ndef g():\n    pass\n\nclass C:\n    pass\n",
               "b": '"""C and f."""\nfrom .a import g\n\ndef h():\n    return g()\n\nX = h\n'}
    assert uncalled_definitions(modules, "", "") == ["a.f", "a.C", "b.X"]
    assert uncalled_definitions(modules, "from .a import C\n",
                                "TIMED = [(a, 'f'), (b, 'X')]\n") == []
    # a store reads nothing, not even a local's of the same name
    modules = {"c": "__all__ = ['Y']\nY = 1\nZ: int = Y\nW, V = Z, 2\n"
                    "def k():\n    W = 3\n    return V\n"}
    assert uncalled_definitions(modules, "", "TIMED = [(c, 'k')]\n") == ["c.W"]


def test_every_src_definition_has_a_caller():
    modules = {p.stem: p.read_text(encoding="utf-8") for p in MODULES}
    assert uncalled_definitions(modules, (SRC / "__init__.py").read_text(encoding="utf-8"),
                                TRACER.read_text(encoding="utf-8")) == []


# dataclasses pulls in inspect, ast, dis and tokenize; json is for --json alone;
# annotations need no typing
STARTUP_FREE = ("dataclasses", "inspect", "ast", "json", "pathlib", "typing")


def test_a_text_command_loads_no_dataclasses_inspect_ast_or_json():
    script = ("import sys\n"
              "import eqhom.cli\n"
              "code = eqhom.cli.cli_dispatch(['monoid', 'homology', sys.argv[1], '--max-dim', '2'])\n"
              f"print(code, [m for m in {STARTUP_FREE!r} if m in sys.modules])\n")
    # -S: no site, whose imports are the environment's, not eqhom's
    proc = subprocess.run([sys.executable, "-S", "-c", script, str(ROOT / "tests" / "data" / "s3.srs")],
                          env={**os.environ, "PYTHONPATH": str(SRC.parent)},
                          capture_output=True, text=True, timeout=60)
    assert proc.stderr == ""
    assert proc.stdout.splitlines() == ["H_0: Z", "H_1: Z/2", "H_2: 0", "0 []"]
