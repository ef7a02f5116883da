"""No module of the package imports a name at module level it never uses."""

import ast
from pathlib import Path

import ncbundles

PACKAGE = Path(ncbundles.__file__).resolve().parent


def unused_imports(source):
    """Names bound by module-level imports and never read in source.

    Names listed in __all__ and `from __future__` imports are exempt.
    """
    tree = ast.parse(source)
    bound = {}
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            exported.update(ast.literal_eval(node.value))
    used = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in bound.items()
                  if name not in used and name not in exported)


def test_detector_sees_unused_and_exempt_names():
    source = ("from __future__ import annotations\n"
              "import os, sys\n"
              "from fractions import Fraction\n"
              "from .ring import Monomial as M\n"
              "__all__ = ['sys']\n"
              "print(os.sep)\n")
    assert unused_imports(source) == [(3, "Fraction"), (4, "M")]


def test_no_unused_module_level_imports():
    found = {path.name: unused_imports(path.read_text(encoding="utf-8"))
             for path in sorted(PACKAGE.glob("*.py"))}
    assert not {name: hits for name, hits in found.items() if hits}
