"""No module imports a name it never uses.

A package ``__init__.py`` exists to re-export names, so it is exempt, as is
any name a module lists in ``__all__``.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
SCANNED = ("src", "tests", "demos", "tools")


def unused_imports(source):
    """(line, name) of every imported name the source never reads."""
    tree = ast.parse(source)
    imported = {}
    exported = set()
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            exported.update(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in imported.items()
                  if name not in used | exported)


def test_the_scan_finds_an_unused_import():
    source = ("import os\nimport numpy.linalg\nfrom math import pi, tau as t\n"
              "__all__ = ['pi']\nprint(numpy.linalg)\n")
    assert unused_imports(source) == [(1, "os"), (3, "t")]


def test_no_module_imports_an_unused_name():
    files = sorted(path for top in SCANNED for path in (ROOT / top).rglob("*.py")
                   if path.name != "__init__.py")
    assert len(files) > 20
    unused = [f"{path.relative_to(ROOT)}:{line} {name}"
              for path in files
              for line, name in unused_imports(path.read_text(encoding="utf-8"))]
    assert unused == []
