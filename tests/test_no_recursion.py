"""Tree, formula and DSL code walks deep inputs with explicit stacks.

A function that calls itself by name recurses once per nesting level, so
a deep enough input ends in RecursionError.  Only walks whose depth is
logarithmic in the input size may recurse.
"""

from __future__ import annotations

import ast
from pathlib import Path

import statetrees

MODULES = ("trees.py", "dsl.py", "formulas.py")

ALLOWED = {
    # each piece holds at most 2/3 of its parent's leaves: depth O(log size)
    "formulas._balance",
    # halves the variable range at each level: depth O(log k)
    "formulas.build_threshold_formula.rec",
}


def _self_calls(tree: ast.Module, module: str) -> list[str]:
    found = []
    todo = [(node, module) for node in tree.body]
    while todo:
        node, scope = todo.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = f"{scope}.{node.name}"
            if any(isinstance(call, ast.Call) and isinstance(call.func, ast.Name)
                   and call.func.id == node.name for call in ast.walk(node)):
                found.append(scope)
        elif isinstance(node, ast.ClassDef):
            scope = f"{scope}.{node.name}"
        todo += [(child, scope) for child in ast.iter_child_nodes(node)]
    return sorted(found)


def test_no_function_calls_itself():
    src = Path(statetrees.__file__).parent
    found = []
    for name in MODULES:
        found += _self_calls(ast.parse((src / name).read_text()), name.removesuffix(".py"))
    assert sorted(found) == sorted(ALLOWED)
