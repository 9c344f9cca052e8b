"""Every imported name is read somewhere in the file that imports it.

The scan covers ``src/``, ``tests/`` and ``perfbench/``; it only reads the
files.  ``from __future__`` imports, which bind no name, and the re-exports
of ``eos/__init__.py`` are excepted.  ``import a.b`` binds ``a`` and counts
as read when the file reads ``a.b``.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# Names this module imports so that importers find them on it.
RE_EXPORTS = Path("src/eos/__init__.py")


def _dotted(node: ast.expr) -> str | None:
    """``a.b.c`` for a chain of attribute reads on a name, else None."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    return ".".join([node.id, *reversed(parts)])


def unread_imports(source: str) -> list[str]:
    """The names ``source`` imports and never reads, in import order."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.asname or alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [alias.asname or alias.name for alias in node.names if alias.name != "*"]
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load):
            name = _dotted(node)
            while name:
                read.add(name)
                name = name.rpartition(".")[0]
    return [name for name in imported if name not in read]


def test_every_imported_name_is_read():
    unread = {}
    for folder in ("src", "tests", "perfbench"):
        for path in sorted((ROOT / folder).rglob("*.py")):
            relative = path.relative_to(ROOT)
            if relative != RE_EXPORTS and (names := unread_imports(path.read_text("utf-8"))):
                unread[str(relative)] = names
    assert unread == {}


def test_an_unread_import_is_found():
    source = "import os\nimport eos.core\nfrom math import pi, tau\nprint(pi, eos)\n"
    assert unread_imports(source) == ["os", "eos.core", "tau"]
