"""Small AST helpers shared by the analysis rules (stdlib only)."""

from __future__ import annotations

import ast
from typing import Dict, Iterator, Optional, Tuple


def dotted_name(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain, else ``None``.

    Call results inside the chain (``x().y``) end the chain: the helper
    answers "what static name does this expression spell", nothing more.
    """
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def call_name(node: ast.Call) -> Optional[str]:
    """Dotted name of a call's callee, else ``None``."""
    return dotted_name(node.func)


def build_parent_map(tree: ast.AST) -> Dict[ast.AST, ast.AST]:
    """child -> parent for every node of *tree*."""
    parents: Dict[ast.AST, ast.AST] = {}
    for parent in ast.walk(tree):
        for child in ast.iter_child_nodes(parent):
            parents[child] = parent
    return parents


def enclosing_calls(
    node: ast.AST, parents: Dict[ast.AST, ast.AST]
) -> Iterator[ast.Call]:
    """Call nodes the expression *node* sits inside, innermost first.

    Stops at the enclosing statement: a wrapping call in a *different*
    statement cannot reorder this expression's result.
    """
    current = parents.get(node)
    while current is not None and not isinstance(current, ast.stmt):
        if isinstance(current, ast.Call):
            yield current
        current = parents.get(current)


def self_attribute_chain(node: ast.AST) -> Optional[Tuple[str, ...]]:
    """Attribute names of a ``self.a.b...`` chain (outermost last).

    ``self.cache`` -> ``("cache",)``; ``self._scratch.state`` ->
    ``("_scratch", "state")``; anything not rooted at the name ``self``
    (including subscripted roots) -> ``None``.
    """
    parts = []
    while True:
        if isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        elif isinstance(node, ast.Subscript):
            node = node.value
        elif isinstance(node, ast.Name):
            if node.id == "self" and parts:
                return tuple(reversed(parts))
            return None
        else:
            return None


def string_constants(tree: ast.AST) -> Iterator[str]:
    """Every string literal below *tree* (f-string fragments included)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value


def decorator_names(node: ast.AST) -> Iterator[str]:
    """Dotted names of a class/function's decorators (call or bare)."""
    for decorator in getattr(node, "decorator_list", []):
        if isinstance(decorator, ast.Call):
            decorator = decorator.func
        name = dotted_name(decorator)
        if name is not None:
            yield name


def is_dataclass_def(node: ast.ClassDef) -> bool:
    """Whether the class is decorated with ``@dataclass`` (any spelling)."""
    return any(
        name.split(".")[-1] == "dataclass" for name in decorator_names(node)
    )


def class_methods(node: ast.ClassDef) -> Dict[str, ast.FunctionDef]:
    """Directly defined methods of a class body, by name."""
    return {
        stmt.name: stmt
        for stmt in node.body
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
    }
