"""The package walks deep inputs with explicit stacks.

A function that can reach itself through calls recurses once per nesting
level, so a deep enough input ends in RecursionError.  Only walks whose
depth is bounded by a small parameter may recurse.
"""

from __future__ import annotations

import ast
from pathlib import Path

import statetrees

ALLOWED = {
    # each piece holds at most 2/3 of its parent's leaves: depth O(log size)
    "formulas._balance",
    # halves the variable range at each level: depth O(log k)
    "formulas.build_threshold_formula.rec",
    # halve the qubits at each level: depth O(log n)
    "builders._halving.leaves",
    "builders._halving.node",
    "builders._segment_counts",
    # splits the column set at each level: depth <= n <= MAX_N
    "mots._build_witness.build",
    # fewer qubits or a smaller support at each level, under its max_n cap
    "mots.mots_bruteforce.rec",
}


def _call_graph(tree: ast.Module, module: str) -> dict[str, set[str]]:
    """Qualified function name -> the same-module functions it calls.

    A bare name resolves to a function defined in an enclosing function
    body, innermost first, or else at module level.  A call `self.name(...)`
    in a method, where `self` is the method's first parameter, resolves to
    the method `name` of the same class; so does one in a function nested
    in that method.  Calls made inside a nested function belong to the
    nested function.
    """
    defs: dict[str, dict[str, str]] = {}  # scope -> {name: qualified name of a function defined there}
    # function, its enclosing scopes, (its class, the name of self) if it is in a method, its node
    bodies: list[tuple[str, list[str], tuple[str, str] | None, ast.AST]] = []
    todo: list[tuple[ast.AST, str, list[str], tuple[str, str] | None, bool]] = [
        (node, module, [module], None, False) for node in tree.body]
    while todo:
        node, scope, chain, method, in_class = todo.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            name = f"{scope}.{node.name}"
            defs.setdefault(scope, {})[node.name] = name
            params = node.args.posonlyargs + node.args.args
            if in_class:
                method = (scope, params[0].arg) if params else None
            elif method is not None and method[1] in {a.arg for a in params}:
                method = None  # the nested function rebinds self
            bodies.append((name, chain + [name], method, node))
            todo += [(child, name, chain + [name], method, False) for child in node.body]
        elif isinstance(node, ast.ClassDef):
            # methods are called as attributes, never by a bare name
            todo += [(child, f"{scope}.{node.name}", chain[:1], None, True) for child in node.body]
        else:
            todo += [(child, scope, chain, method, in_class) for child in ast.iter_child_nodes(node)]
    graph: dict[str, set[str]] = {}
    for name, chain, method, node in bodies:
        calls = graph.setdefault(name, set())
        todo = list(ast.iter_child_nodes(node))
        while todo:
            sub = todo.pop()
            if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            if isinstance(sub, ast.Call) and isinstance(sub.func, ast.Name):
                target = next((defs[s][sub.func.id] for s in reversed(chain)
                               if sub.func.id in defs.get(s, {})), None)
                if target is not None:
                    calls.add(target)
            elif (isinstance(sub, ast.Call) and isinstance(sub.func, ast.Attribute)
                  and method is not None and isinstance(sub.func.value, ast.Name)
                  and sub.func.value.id == method[1] and sub.func.attr in defs.get(method[0], {})):
                calls.add(defs[method[0]][sub.func.attr])
            todo += ast.iter_child_nodes(sub)
    return graph


def _on_cycles(graph: dict[str, set[str]]) -> set[str]:
    """The functions that can reach themselves."""
    found = set()
    for start in graph:
        seen, todo = set(), list(graph[start])
        while todo:
            f = todo.pop()
            if f == start:
                found.add(start)
                break
            if f not in seen:
                seen.add(f)
                todo += graph.get(f, ())
    return found


def _recursive() -> set[str]:
    src = Path(statetrees.__file__).parent
    found: set[str] = set()
    for path in sorted(src.glob("*.py")):
        found |= _on_cycles(_call_graph(ast.parse(path.read_text()), path.stem))
    return found


def test_no_function_calls_itself():
    assert _recursive() == ALLOWED


def test_the_guard_sees_self_calls_and_cycles():
    graph = _call_graph(ast.parse(
        "def a():\n    b()\n"
        "def b():\n    a()\n"
        "def c():\n    def d():\n        d()\n    d()\n"
        "def e():\n    def a():\n        pass\n    a()\n"
        "class K:\n    def m(self):\n        m()\n"), "mod")
    assert _on_cycles(graph) == {"mod.a", "mod.b", "mod.c.d"}


def test_the_guard_sees_method_calls_through_self():
    graph = _call_graph(ast.parse(
        "class K:\n"
        "    def m(self):\n        self.m()\n"
        "    def a(this):\n        this.b()\n"
        "    def b(self):\n        def inner():\n            self.a()\n        inner()\n"
        "    def c(self):\n        other.c()\n"
        "    def d(self):\n        def inner(self):\n            self.d()\n        inner(0)\n"
        "class L:\n    def m(self):\n        self.n()\n    def n(self):\n        K().m()\n"), "mod")
    assert _on_cycles(graph) == {"mod.K.m", "mod.K.a", "mod.K.b", "mod.K.b.inner"}
