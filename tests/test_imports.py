"""Every module-level import in the package is used.

No lint tool runs in CI, so this is the unused-import check: a deletion
that leaves an import behind fails here. Exempt are the names
`__init__.py` re-exports through `__all__`, and the names imported on a
line marked `noqa: F401`, which a tool may patch at that module.
"""

import ast
from pathlib import Path

import pytest

import causalsim

PACKAGE = Path(causalsim.__file__).parent


def unused_imports(path: Path) -> list[str]:
    """The names `path` imports at module level and never reads."""
    source = path.read_text()
    lines = source.splitlines()
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in tree.body:
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        for alias in node.names:
            if "noqa: F401" not in lines[alias.lineno - 1]:
                imported[alias.asname or alias.name.partition(".")[0]] = alias.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return [f"{path.name}:{line} {name}" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("name", sorted(p.name for p in PACKAGE.glob("*.py")))
def test_every_module_level_import_is_used(name):
    assert unused_imports(PACKAGE / name) == []


def test_an_unused_import_is_found(tmp_path):
    path = tmp_path / "probe.py"
    path.write_text(
        "from __future__ import annotations\n"
        "import os.path\n"
        "import json as j\n"
        "from typing import (\n"
        "    Any,\n"
        "    Optional,\n"
        ")\n"
        "from re import compile  # noqa: F401\n"
        "from itertools import chain\n"
        "__all__ = ['chain']\n"
        "def f(x: Optional[int]) -> None:\n"
        "    return os.path.join('a')\n"
    )
    assert unused_imports(path) == ["probe.py:3 j", "probe.py:5 Any"]
