"""Every function, class and method of the package has a caller.

A definition counts as used when its name occurs as a word anywhere in the
Python sources of src/, tests/ or bench/, or in pyproject.toml, more often
than it is defined.  Dunder names are exempt: Python calls them itself.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "singjack"


def _corpus():
    files = [p for d in ("src", "tests", "bench")
             for p in sorted((ROOT / d).rglob("*.py"))]
    files.append(ROOT / "pyproject.toml")
    return "\n".join(p.read_text(encoding="utf-8") for p in files)


def _definitions():
    out = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
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
