"""Every module of the package and of the tests reads each name it imports,
every top-level name of the package is read somewhere: in src,
perfbench or scripts, or, for the listed test-only names, in tests
alone, and every field of a package class is read as an attribute."""

import ast
import re
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


_DOTTED = re.compile(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)*")


def _defined(tree: ast.Module):
    """(index of the top-level statement, name) for each function, class
    and constant a module defines at top level."""
    for i, node in enumerate(tree.body):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield i, node.name
        targets = (node.targets if isinstance(node, ast.Assign)
                   else [node.target] if isinstance(node, ast.AnnAssign) else [])
        for target in targets:
            for name in ast.walk(target):
                if isinstance(name, ast.Name):
                    yield i, name.id


def _reads(node: ast.AST, names: bool = True) -> set[str]:
    """Names read under node: attributes and string constants that spell a
    dotted name, as the tracer's targets do, and unless names is False,
    loaded names and imported names."""
    out = set()
    for sub in ast.walk(node):
        if (names and isinstance(sub, ast.Name)
                and not isinstance(sub.ctx, ast.Store)):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif names and isinstance(sub, ast.alias):
            out.add(sub.name.split(".")[-1])
        elif (isinstance(sub, ast.Constant) and isinstance(sub.value, str)
              and _DOTTED.fullmatch(sub.value)):
            out.update(sub.value.split("."))
    return out


def _unread_names(sources: dict[str, str], package: set[str]) -> list[str]:
    """Top-level names of the package's modules that no statement reads,
    other than the one defining them."""
    trees = {path: ast.parse(text) for path, text in sources.items()}
    reads = {(path, i): _reads(node) for path, tree in trees.items()
             for i, node in enumerate(tree.body)}
    return [f"{path}: {name}" for path in sorted(package)
            for i, name in _defined(trees[path])
            if not any(name in names for key, names in reads.items()
                       if key != (path, i))]


# top-level names that only tests read: the zero sums' pieces that
# criterion 07 calibrates, and the ES kernel's shape parameter, from which
# the tests re-derive the shipped fits _PSI_INV and _ES_CHEB
_TEST_ONLY = {
    "src/primeorbits/zeta.py: zero_power_sum",
    "src/primeorbits/zeta.py: theta3_default",
    "src/primeorbits/zeta.py: _ES_BETA",
}


def test_no_unread_top_level_names():
    # every top-level name is read somewhere; one that no statement in src,
    # perfbench or scripts reads is listed in _TEST_ONLY, and every listed
    # name is still read by tests alone
    assert _unread_names(
        {"m.py": "def f():\n    return f()\nX = 1\ndef g():\n    return X\n",
         "t.py": "TARGETS = (('m', 'g'),)\n"}, {"m.py"}) == ["m.py: f"]
    package = sorted((_ROOT / "src" / "primeorbits").glob("*.py"))
    files = [*package,
             *(p for d in ("tests", "perfbench", "scripts")
               for p in (_ROOT / d).glob("*.py"))]
    assert len(package) > 5
    sources = {str(p.relative_to(_ROOT)): p.read_text() for p in files}
    names = {str(p.relative_to(_ROOT)) for p in package}
    assert _unread_names(sources, names) == []
    program = {path: text for path, text in sources.items()
               if not path.startswith("tests")}
    assert set(_unread_names(program, names)) == _TEST_ONLY


def _unread_fields(sources: dict[str, str], package: set[str]) -> list[str]:
    """Annotated fields of the package's classes whose name no attribute
    or dotted-name string in any source reads; a plain name does not
    count, since a field is only read off its record."""
    reads = set().union(*(_reads(ast.parse(text), names=False)
                          for text in sources.values()))
    return [f"{path}: {node.name}.{stmt.target.id}" for path in sorted(package)
            for node in ast.walk(ast.parse(sources[path]))
            if isinstance(node, ast.ClassDef)
            for stmt in node.body
            if isinstance(stmt, ast.AnnAssign)
            and isinstance(stmt.target, ast.Name)
            and stmt.target.id not in reads]


def test_no_unread_record_fields():
    assert _unread_fields(
        {"m.py": "class R:\n    a: int\n    b: int\n    c: int = 0\n"
                 "    def f(self):\n        return self.a\n",
         "t.py": "b = 1\nprint(b, 'r.c')\n"}, {"m.py"}) == ["m.py: R.b"]
    # this file is left out: its toy sources' names ('m.py') read no record
    package = sorted((_ROOT / "src" / "primeorbits").glob("*.py"))
    files = [*package,
             *(p for d in ("tests", "perfbench", "scripts")
               for p in (_ROOT / d).glob("*.py")
               if p != Path(__file__).resolve())]
    sources = {str(p.relative_to(_ROOT)): p.read_text() for p in files}
    names = {str(p.relative_to(_ROOT)) for p in package}
    assert _unread_fields(sources, names) == []
