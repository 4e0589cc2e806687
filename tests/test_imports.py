"""Every import in the package and in the tests is used, and importing
`modisac.harness` loads every layer module but not the YAML parser or the
process pool."""

import ast
import os
import subprocess
import sys
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
        for name in _unused_imports(path.read_text())
    ]
    assert unused == []


def test_harness_import_loads_every_layer():
    # perfbench's tracer looks each layer up in sys.modules after importing
    # modisac.harness alone; the package __init__ imports nothing
    code = "import sys, modisac.harness; print(' '.join(sorted(sys.modules)))"
    path = os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])
    out = subprocess.run(
        [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=path),
        capture_output=True, text=True, check=True,
    ).stdout.split()
    layers = ("geometry", "channel", "beamform", "opt_manifold", "opt_sdr", "music", "harness")
    assert [layer for layer in layers if f"modisac.{layer}" not in out] == []
    # a config given as a file loads yaml, and MODISAC_WORKERS > 1 the pool
    assert [name for name in ("yaml", "concurrent.futures.process") if name in out] == []
