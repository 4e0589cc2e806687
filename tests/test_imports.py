"""Every import in the package and in the tests is used.

The package's `__init__.py` is exempt: its imports are re-exports.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _unused_imports(source: str) -> list[str]:
    """Names an import binds that no expression of the module reads."""
    tree = ast.parse(source)
    bound: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in bound.items() if name not in read]


def test_unused_import_scan_flags_only_unread_names():
    source = "import os\nimport os.path as osp\nfrom sys import argv, exit\nexit(osp.sep)\n"
    assert _unused_imports(source) == ["os (line 1)", "argv (line 3)"]


def test_no_unused_imports():
    unused = [
        f"{path.relative_to(ROOT)}: {name}"
        for folder in (ROOT / "src" / "modisac", ROOT / "tests")
        for path in sorted(folder.glob("*.py"))
        if path.name != "__init__.py"
        for name in _unused_imports(path.read_text())
    ]
    assert unused == []
