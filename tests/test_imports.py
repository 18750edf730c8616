"""Every module of the package and of the tests reads each name it imports,
every top-level name of the package is read somewhere: in src,
perfbench or scripts, or, for the listed test-only names, in tests
alone, and every field, method and property of a package class is read
as an attribute."""

import ast
import importlib
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


def _members(source: str):
    """(class name, member name, is a method) for each annotated field and
    each method or property but the dunders of the source's classes."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ClassDef):
            for stmt in node.body:
                if (isinstance(stmt, ast.AnnAssign)
                        and isinstance(stmt.target, ast.Name)):
                    yield node.name, stmt.target.id, False
                elif (isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
                      and not (stmt.name.startswith("__")
                               and stmt.name.endswith("__"))):
                    yield node.name, stmt.name, True


def _library_hook(path: str, cls: str, name: str) -> bool:
    """Whether a package class's method overrides one of a base outside the
    package, which that base calls (cli._Parser.error, argparse's)."""
    if not path.startswith("src/primeorbits/"):
        return False
    module = importlib.import_module("primeorbits." + Path(path).stem)
    klass = getattr(module, cls, None)
    return klass is not None and any(
        name in vars(base) for base in klass.__mro__[1:]
        if not base.__module__.startswith("primeorbits"))


def _unread_members(sources: dict[str, str], package: set[str],
                    methods: bool) -> list[str]:
    """Fields (or, with methods, methods and properties) of the package's
    classes whose name no attribute or dotted-name string in any source
    reads; a plain name does not count, since a member is only read off
    its record.  A method that overrides a library base's is read there."""
    reads = set().union(*(_reads(ast.parse(text), names=False)
                          for text in sources.values()))
    return [f"{path}: {cls}.{name}" for path in sorted(package)
            for cls, name, is_method in _members(sources[path])
            if is_method == methods and name not in reads
            and not (methods and _library_hook(path, cls, name))]


def _member_sources() -> tuple[dict[str, str], set[str]]:
    """Every source but this file, whose toy sources' names ('m.py') read
    no record, and the package's paths among them."""
    package = sorted((_ROOT / "src" / "primeorbits").glob("*.py"))
    files = [*package,
             *(p for d in ("tests", "perfbench", "scripts")
               for p in (_ROOT / d).glob("*.py")
               if p != Path(__file__).resolve())]
    sources = {str(p.relative_to(_ROOT)): p.read_text() for p in files}
    return sources, {str(p.relative_to(_ROOT)) for p in package}


def test_no_unread_record_fields():
    assert _unread_members(
        {"m.py": "class R:\n    a: int\n    b: int\n    c: int = 0\n"
                 "    def f(self):\n        return self.a\n",
         "t.py": "b = 1\nprint(b, 'r.c')\n"}, {"m.py"}, False) == ["m.py: R.b"]
    assert _unread_members(*_member_sources(), False) == []


# methods that only tests read: criterion 08 reads the trend predicate
# that the ergodic report no longer runs
_TEST_ONLY_METHODS = {"src/primeorbits/ergodic.py: OscillationReport.trend_violations"}


def test_no_unread_methods():
    # every method and property but the dunders is read off some object;
    # one that no src, perfbench or scripts source reads is listed above
    toy = ("class R:\n    def __len__(self):\n        return 0\n"
           "    def f(self):\n        return self.g()\n"
           "    def g(self):\n        return 1\n"
           "    @property\n    def p(self):\n        return 2\n"
           "    def q(self):\n        return 3\n")
    assert _unread_members({"m.py": toy, "t.py": "q = 1\nprint(R().p)\n"},
                           {"m.py"}, True) == ["m.py: R.f", "m.py: R.q"]
    assert _library_hook("src/primeorbits/cli.py", "_Parser", "error")
    assert not _library_hook("src/primeorbits/ergodic.py", "OscillationReport",
                             "trend_violations")
    sources, names = _member_sources()
    assert _unread_members(sources, names, True) == []
    program = {path: text for path, text in sources.items()
               if not path.startswith("tests")}
    assert set(_unread_members(program, names, True)) == _TEST_ONLY_METHODS
