"""Every import in the package is used.

Each module under `src/` is parsed with `ast`; a name an import binds must
be read somewhere in that module, be listed in its `__all__`, or sit on a
line marked `# noqa: F401`.
"""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"
MODULES = sorted(SRC.rglob("*.py"))


def unused_imports(path: pathlib.Path) -> list:
    """(line, name) of each import in `path` that nothing reads."""
    text = path.read_text(encoding="utf-8")
    lines = text.splitlines()
    tree = ast.parse(text, filename=str(path))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used |= set(ast.literal_eval(node.value))
    unused = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if "# noqa: F401" in lines[node.lineno - 1]:
            continue
        for alias in node.names:
            bound = alias.asname or alias.name.split(".")[0]
            if bound not in used:
                unused.append((node.lineno, bound))
    return unused


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(SRC)))
def test_no_unused_imports(path):
    assert unused_imports(path) == []


def test_flags_an_unused_import(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text("import json\nimport math  # noqa: F401\n"
                    "from os import path, sep\n__all__ = ['sep']\n")
    assert unused_imports(path) == [(1, "json"), (3, "path")]
