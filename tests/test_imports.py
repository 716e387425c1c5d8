"""Every import and every definition in the package is used.

Each module under `src/` is parsed with `ast`; a name an import binds must
be read somewhere in that module, be listed in its `__all__`, or sit on a
line marked `# noqa: F401`. A function, method or class that a module
defines (dunders aside) must have its name appear somewhere besides its
definitions, in `src/`, `tests/` or `perfbench/`.
"""

import ast
import collections
import pathlib
import re

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
MODULES = sorted(SRC.rglob("*.py"))
# every Python file whose text may use a definition under src/
READERS = sorted(path for top in ("src", "tests", "perfbench")
                 for path in (ROOT / top).rglob("*.py"))


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


def orphans(modules: list, readers: list) -> list:
    """(file name, line, name) of each function, method or class defined
    in `modules` whose name appears in the text of `readers` no more often
    than it is defined there; dunder names are exempt."""
    defs = [(path.name, node.lineno, node.name)
            for path in modules
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and not (node.name.startswith("__") and node.name.endswith("__"))]
    words = collections.Counter(
        word for path in readers
        for word in re.findall(r"[A-Za-z_]\w*", path.read_text(encoding="utf-8")))
    defined = collections.Counter(name for _, _, name in defs)
    return [d for d in defs if words[d[2]] <= defined[d[2]]]


def test_no_orphan_definitions():
    assert orphans(MODULES, READERS) == []


def test_flags_an_orphan(tmp_path):
    mod, reader = tmp_path / "mod.py", tmp_path / "reader.py"
    mod.write_text("class Kept:\n    def __repr__(self):\n        return 'x'\n\n"
                   "    def orphan(self):\n        pass\n\n\ndef used():\n    pass\n")
    reader.write_text("from mod import Kept, used\n")
    assert orphans([mod], [mod, reader]) == [("mod.py", 5, "orphan")]
