"""The runtime package holds only what it runs, on the standard library.

A definition counts as used when its name occurs as a word in the Python
sources of src/ or in tests/test_acceptance.py more often than it is
defined.  Unit tests and bench/ do not count: a helper that only a unit
test calls is a test-side reference and lives in tests/reference.py.
Dunder names are exempt: Python calls them itself.

Every import of the package is relative or names a standard-library
module.  Under pytest, tests/ is on sys.path, so an import of test code
from src/ would pass here and then fail for a user.
"""

import ast
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "singjack"


def _corpus():
    files = sorted((ROOT / "src").rglob("*.py"))
    files.append(ROOT / "tests" / "test_acceptance.py")
    return "\n".join(p.read_text(encoding="utf-8") for p in files)


def _trees():
    for path in sorted(PACKAGE.glob("*.py")):
        yield path, ast.parse(path.read_text(encoding="utf-8"),
                              filename=str(path))


def _definitions():
    out = []
    for path, tree in _trees():
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                if not (node.name.startswith("__")
                        and node.name.endswith("__")):
                    out.append((node.name, "%s:%d" % (path.name, node.lineno)))
    return out


def test_every_definition_has_a_caller():
    words = re.findall(r"\w+", _corpus())
    uses = {}
    for w in words:
        uses[w] = uses.get(w, 0) + 1
    defs = _definitions()
    n_defs = {}
    for name, _ in defs:
        n_defs[name] = n_defs.get(name, 0) + 1
    dead = sorted("%s (%s)" % (name, where) for name, where in defs
                  if uses.get(name, 0) <= n_defs[name])
    assert not dead, "no caller for: " + ", ".join(dead)


def test_runtime_imports_only_the_standard_library():
    foreign = []
    for path, tree in _trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            foreign += ["%s:%d %s" % (path.name, node.lineno, name)
                        for name in names
                        if name.split(".")[0] not in sys.stdlib_module_names]
    assert not foreign, "not standard library: " + ", ".join(foreign)
