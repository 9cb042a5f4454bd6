"""Source checks that need no linter: every module of the package uses what
it imports."""

import ast
import glob
import os

import dnbrackets


def _unused_imports(source: str, name: str) -> list:
    """The names that source imports and never reads; a name listed in
    __all__ counts as read, and a from __future__ import is no name."""
    tree = ast.parse(source, name)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used.update(ast.literal_eval(node.value))
    return [f"{name}:{line} imports {n} and never uses it" for n, line in imported.items() if n not in used]


def test_no_module_imports_a_name_it_never_uses():
    """No module under the package imports a name it never uses; the check
    itself finds the two unused names of a sample source."""
    sample = "from .scalar import _pack, _unpack\nimport os, sys\n__all__ = ['sys']\nprint(_unpack)\n"
    assert _unused_imports(sample, "m.py") == ["m.py:1 imports _pack and never uses it",
                                               "m.py:2 imports os and never uses it"]
    package = os.path.dirname(dnbrackets.__file__)
    bad = []
    for path in sorted(glob.glob(os.path.join(package, "*.py"))):
        with open(path, encoding="utf-8") as fh:
            bad += _unused_imports(fh.read(), os.path.basename(path))
    assert bad == []
