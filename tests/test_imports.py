"""Every module of the package and of the tests reads each name it imports."""

import ast
from pathlib import Path

_ROOT = Path(__file__).resolve().parents[1]


def _unused_imports(source: str) -> list[str]:
    """Names an import binds that the module never reads, except on lines
    marked `noqa: F401`, which re-export on purpose."""
    lines = source.splitlines()
    bound = {}
    tree = ast.parse(source)
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if (isinstance(node, (ast.Import, ast.ImportFrom))
                and "noqa: F401" not in lines[node.lineno - 1]):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in bound.items()
            if name not in read]


def test_no_unused_imports():
    assert _unused_imports("import os.path\nfrom a import b as c, d\nd()\n") \
        == ["os (line 1)", "c (line 2)"]
    files = [*(_ROOT / "src" / "primeorbits").glob("*.py"),
             *(_ROOT / "tests").glob("*.py")]
    assert len(files) > 10
    unused = {path.name: names for path in sorted(files)
              if (names := _unused_imports(path.read_text()))}
    assert unused == {}
