"""Static checks: no module of the package imports a name it never uses,
and no private module-level name is left without a reference.

Stands in for a linter's unused-import and dead-code rules with the
standard library alone.  An import counts as used when the module body
refers to it or lists it in ``__all__``; everything ``__init__`` imports is
a re-export.  A private name (``_name``) counts as used when some module of
the package reads it; the tests do not count.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "netgreeks"


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
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(alias.name for alias in node.names)
    return [f"{module}:{name} (line {line})" for module, name, line in defined
            if name not in read]


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
