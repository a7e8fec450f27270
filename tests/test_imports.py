"""Static check: no module of the package imports a name it never uses.

Stands in for a linter's unused-import rule with the standard library
alone.  A name counts as used when the module body refers to it or lists it
in ``__all__``; everything ``__init__`` imports is a re-export.
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
