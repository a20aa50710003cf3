"""The package root exposes exactly the Library API that the README shows."""

import ast
import types
from pathlib import Path

import anticirculant
from anticirculant import Status

README = Path(__file__).resolve().parent.parent / "README.md"


def _library_block() -> ast.Module:
    section = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    return ast.parse(section.split("```python\n", 1)[1].split("```", 1)[0])


def test_readme_library_block_runs_on_the_package_root():
    tree = _library_block()
    names = {
        alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.module == "anticirculant"
        for alias in node.names
    }
    # dir() also lists the names the package resolves on first access
    public = {
        name for name in dir(anticirculant)
        if not name.startswith("_")
        and not isinstance(getattr(anticirculant, name), types.ModuleType)
    }
    assert public == names | {"Status", "Verdict"}

    *body, last = tree.body
    namespace: dict = {}
    exec(compile(ast.Module(body, type_ignores=[]), str(README), "exec"), namespace)
    assert namespace["verdict"].status is Status.PSD
    uncovered = eval(compile(ast.Expression(last.value), str(README), "eval"), namespace)
    assert uncovered.status is Status.UNCOVERED
    assert isinstance(anticirculant.__version__, str)
