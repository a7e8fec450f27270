"""Static checks: no module of the package imports a name it never uses,
no private module-level name is left without a reference, and no exported
name is called only by the tests.

Stands in for a linter's unused-import and dead-code rules with the
standard library alone.  An import counts as used when the module body
refers to it or lists it in ``__all__``; everything ``__init__`` imports is
a re-export.  A private name (``_name``) counts as used when some module of
the package reads it; the tests do not count.  An exported name counts as
called when a package module other than ``__init__`` reads it, or a
benchmark or script module imports or reads it.  One more check imports the
CLI in a fresh interpreter: it must load numpy and no scipy.
"""

import ast
import inspect
import os
import subprocess
import sys
from pathlib import Path

import netgreeks

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "netgreeks"


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in used)


def dead_private_names(sources: dict[str, str]) -> list[str]:
    """Module-level _name functions, classes and constants no module reads."""
    defined, read = [], set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            defined.extend((module, name, node.lineno) for name in names
                           if name.startswith("_") and not name.startswith("__"))
        read |= _read_names(tree, imports=True)
    return [f"{module}:{name} (line {line})" for module, name, line in defined
            if name not in read]


def _read_names(tree: ast.AST, imports: bool) -> set[str]:
    """Names a module reads (Name loads, attributes), and with imports the names it imports."""
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif imports and isinstance(node, ast.ImportFrom):
            read.update(alias.name for alias in node.names)
    return read


def exports_without_callers(exports, package: dict[str, str], outside: dict[str, str]) -> list[str]:
    """Exported names that no package module but __init__ reads and no outside module uses."""
    read = set()
    for module, source in package.items():
        if module != "__init__.py":
            read |= _read_names(ast.parse(source), imports=False)
    for source in outside.values():
        read |= _read_names(ast.parse(source), imports=True)
    return sorted(name for name in exports if name not in read)


def test_checker_flags_unused_and_keeps_used_names():
    src = ("from dataclasses import dataclass, field\nimport numpy as np\n"
           "import os.path\n__all__ = ['field']\nx = np.zeros(1)\n")
    assert unused_imports(src) == ["dataclass (line 1)", "os (line 3)"]


def test_no_unused_imports_in_package():
    modules = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
    assert len(modules) >= 10
    unused = {path.name: found for path in modules
              if (found := unused_imports(path.read_text()))}
    assert not unused, f"unused imports: {unused}"


def test_dead_name_checker_flags_unread_private_names():
    sources = {
        "a.py": ("_LIMIT = 3\n_SPARE = 4\n"
                 "def _used(x):\n    return x + _LIMIT\n"
                 "def _unused():\n    pass\n"
                 "class _Gone:\n    pass\n"
                 "def public():\n    return _used(1)\n"),
        "b.py": "from .a import _imported\nimport a\nx = a._by_attribute\n",
        "c.py": "def _imported():\n    pass\ndef _by_attribute():\n    pass\n",
    }
    assert dead_private_names(sources) == [
        "a.py:_SPARE (line 2)", "a.py:_unused (line 5)", "a.py:_Gone (line 7)"]


def test_no_dead_private_names_in_package():
    sources = {path.name: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    dead = dead_private_names(sources)
    assert not dead, f"private names nothing in the package reads: {dead}"


def test_export_checker_flags_names_only_tests_read():
    package = {
        "__init__.py": ("from .a import called, by_attribute, scripted, by_script_attribute, "
                        "only_imported, only_reexported\nx = only_reexported\n"),
        "a.py": ("def called():\n    pass\ndef by_attribute():\n    pass\n"
                 "def only_imported():\n    pass\nclass only_reexported:\n    pass\n"
                 "y = called()\n"),
        "b.py": "from . import a\nfrom .a import only_imported\nz = a.by_attribute\n",
    }
    outside = {"run.py": "from netgreeks.a import scripted\nimport netgreeks\n"
                         "netgreeks.by_script_attribute()\n"}
    exports = ["called", "by_attribute", "scripted", "by_script_attribute",
               "only_imported", "only_reexported"]
    assert exports_without_callers(exports, package, outside) == [
        "only_imported", "only_reexported"]


def test_every_export_has_a_caller_outside_tests():
    # the names scripts/src_size.py counts: public, non-module attributes
    exports = [name for name, value in vars(netgreeks).items()
               if not name.startswith("_") and not inspect.ismodule(value)]
    package = {path.name: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    outside = {str(path): path.read_text() for folder in ("perfbench", "scripts")
               for path in sorted((ROOT / folder).glob("*.py"))}
    assert len(exports) >= 30 and len(outside) >= 5
    unused = exports_without_callers(exports, package, outside)
    assert not unused, f"exported names only the tests call: {unused}"


def test_cli_import_loads_no_scipy():
    # numpy is the one runtime dependency; scipy is the tests' oracle
    code = ("import sys, netgreeks.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          cwd=ROOT, env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)}, check=True)
    assert proc.stdout.strip() == "[]"
