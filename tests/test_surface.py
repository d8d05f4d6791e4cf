"""Every public name has a caller outside the test suite.

A name a module lists in `__all__` must be read somewhere other than
`tests/`: in the package (not counting its own definition), in a demo,
in the benchmark harness or in README's library tour.  Only Python
code counts, read with `ast`, so a name that appears in a docstring,
a comment or a string (an argv, a `getattr` table) is not a caller.
A bare name counts only where it resolves to module scope: a name that
an enclosing function, lambda or comprehension binds (a parameter, an
assignment or for target, a nested def) is not a read of the module's
name, while a free name read inside a function is.  Scopes are resolved
by the stdlib `symtable`, the compiler's own analysis.  Attributes still
match by spelling, so `x.plus` counts as a read of every `plus`.
The few test-only names that stay are listed in KEPT with the reason.
"""

from __future__ import annotations

import ast
import importlib
import re
import symtable
from pathlib import Path

import statetrees

PACKAGE = Path(statetrees.__file__).parent
ROOT = PACKAGE.parents[1]

KEPT = {
    "formulas.polys_close": "tests/test_acceptance.py imports it, and that file stays as it is",
    "rank.random_partition": "the tree-rank certificate and graph-state experiments will draw with it",
    "rank.restriction_matrix": "the tree-rank certificate and graph-state experiments will read it",
    "trees.qubit_mask": "the reference compiler in test_circuits.py and the fold table in "
                        "test_sharing.py read it; deleting it moves its 3 lines into the tests",
    "trees.l2_distance2": "the approximate tree-rank certificate will measure a tree's "
                          "distance to its target with it",
    "trees.eps_to_delta": "the approximate tree-rank certificate will turn a fidelity "
                          "into its distance bound with it",
    "trees.restrict": "the package __init__ exports it, and the tree-rank certificate will "
                      "restrict trees with it",
    "rank.rank_exact": "perfbench/spans.py traces it by name (TRACED), and Tracer.install "
                       "looks it up with getattr and no default",
}


def _read_names(code: str) -> set[str]:
    """Names a piece of code reads from module scope, and every attribute
    it reads.  A top-level def, class or assignment does not read the name
    it defines, and an import reads nothing."""
    out: set[str] = set()
    for stmt in ast.parse(code).body:
        if isinstance(stmt, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            own = {stmt.name}
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            own = {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
        else:
            own = set()
        out |= {n.attr for n in ast.walk(stmt) if isinstance(n, ast.Attribute)}
        tables = [symtable.symtable(ast.unparse(stmt), "<stmt>", "exec")]
        while tables:
            table = tables.pop()
            tables += table.get_children()
            out |= {s.get_name() for s in table.get_symbols()
                    if s.is_referenced() and s.is_global() and s.get_name() not in own}
    return out


def _readers() -> dict[str, set[str]]:
    """Source label -> the names it reads."""
    sources = {f"statetrees/{p.name}": p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    for folder in ("demos", "perfbench"):
        sources |= {f"{folder}/{p.name}": p.read_text() for p in sorted((ROOT / folder).glob("*.py"))}
    blocks = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    sources |= {f"README.md block {i}": b for i, b in enumerate(blocks)}
    return {label: _read_names(code) for label, code in sources.items()}


def _public_names() -> list[str]:
    """module.name for every name in a module's __all__."""
    out = []
    for p in sorted(PACKAGE.glob("[!_]*.py")):
        module = importlib.import_module(f"statetrees.{p.stem}")
        out += [f"{p.stem}.{name}" for name in getattr(module, "__all__", ())]
    return out


def test_every_public_name_has_a_caller_outside_the_tests():
    read = set().union(*_readers().values())
    test_only = {qual for qual in _public_names() if qual.split(".")[1] not in read}
    unlisted = sorted(test_only - set(KEPT))
    assert not unlisted, f"public names only the tests call: {unlisted}"
    # a kept name that gained a caller leaves the list
    stale = sorted(set(KEPT) - test_only)
    assert not stale, f"kept names that have a caller now: {stale}"


def test_the_readers_see_what_they_should():
    readers = _readers()
    assert "README.md block 0" in readers and "mots_coset" in readers["README.md block 0"]
    names = _read_names("from x import a\ndef f():\n    return f() + g\nclass C:\n    h = C\nk = 1\nm = k\n")
    assert names == {"g", "k"}
    # a name in a string or docstring is not a read
    assert _read_names('def f():\n    """calls g"""\n    return getattr(x, "h")\n') == {"getattr", "x"}
    # a name that an enclosing function, lambda or comprehension binds is
    # not a read of the module's name
    assert _read_names("def f(plus):\n    return plus\n") == set()
    assert _read_names("def f():\n    plus = 1\n    return plus\n") == set()
    assert _read_names("def f():\n    for plus in y:\n        z(plus)\n") == {"y", "z"}
    assert _read_names("def f():\n    def plus():\n        pass\n    return plus()\n") == set()
    assert _read_names("g = lambda plus: plus\n") == set()
    assert _read_names("def f():\n    return [plus for plus in y]\n") == {"y"}
    assert _read_names("def f(plus):\n    def g():\n        return plus\n    return g\n") == set()
    # a free name read inside a function is a read
    assert _read_names("def f():\n    def g():\n        return plus\n    return g\n") == {"plus"}
