"""Shared-state concurrency rule for the thread-facing parts of the tree.

The scoring server runs library code on worker threads, and the first
registry lookup may come from one of them, so any state shared across
calls is a data race waiting for a scheduler to expose it.  Within modules
that are concurrency-relevant — they import ``threading``/
``concurrent.futures`` or live under the serving package — this rule
flags the shared-mutable-state idioms:

* module-level mutable containers (a dict/list/set at import scope is
  visible to every thread);
* ``global`` rebinding outside a ``with <lock>`` block;
* instance-attribute writes outside ``__init__`` that are neither routed
  through a ``threading.local()`` attribute (per-thread state) nor inside
  a ``with <lock>`` block.

The sanctioned patterns — locks, thread-locals — pass structurally;
everything else needs a reasoned ``# repro: allow[concurrency-shared-state]``
waiver explaining why the write is safe (e.g. parent-thread-only, or
idempotent same-value initialisation).
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, Set

from ..astutil import (
    build_parent_map,
    call_name,
    class_methods,
    dotted_name,
    self_attribute_chain,
)
from ..findings import Finding
from ..project import AnalysisProject, SourceModule
from ..registry import ANALYSIS_RULES, AnalysisRule

#: Calls whose result is a shared mutable container.
_MUTABLE_FACTORIES = {
    "list", "dict", "set", "defaultdict", "deque", "OrderedDict", "Counter",
}

#: Methods where instance state is expected to be (re)built wholesale.
_SETUP_METHODS = {"__init__", "__post_init__", "__new__", "__setstate__", "__getstate__"}


def _in_scope(module: SourceModule) -> bool:
    """Concurrency-relevant: threads are imported or the module serves."""
    if "/serve/" in f"/{module.rel}":
        return True
    for node in ast.walk(module.tree):
        if isinstance(node, ast.Import):
            if any(alias.name.split(".")[0] in ("threading", "concurrent")
                   for alias in node.names):
                return True
        elif isinstance(node, ast.ImportFrom):
            if node.module and node.module.split(".")[0] in ("threading", "concurrent"):
                return True
    return False


def _is_mutable_value(node: ast.AST) -> bool:
    if isinstance(node, (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        name = call_name(node)
        return name is not None and name.split(".")[-1] in _MUTABLE_FACTORIES
    return False


def _lock_guarded(node: ast.AST, parents: Dict[ast.AST, ast.AST]) -> bool:
    """Whether *node* sits inside a ``with <something lock-ish>:`` block."""
    current = parents.get(node)
    while current is not None:
        if isinstance(current, (ast.With, ast.AsyncWith)):
            for item in current.items:
                expr = item.context_expr
                if isinstance(expr, ast.Call):
                    expr = expr.func
                name = dotted_name(expr) or ""
                if "lock" in name.lower():
                    return True
        current = parents.get(current)
    return False


def _thread_local_attrs(node: ast.ClassDef) -> Set[str]:
    """Attributes assigned ``threading.local()`` in the class's __init__."""
    attrs: Set[str] = set()
    init = class_methods(node).get("__init__")
    if init is None:
        return attrs
    for stmt in ast.walk(init):
        if isinstance(stmt, ast.Assign) and isinstance(stmt.value, ast.Call):
            name = call_name(stmt.value) or ""
            if name.split(".")[-1] == "local" and "local" in name:
                for target in stmt.targets:
                    chain = self_attribute_chain(target)
                    if chain is not None and len(chain) == 1:
                        attrs.add(chain[0])
    return attrs


@ANALYSIS_RULES.register("concurrency-shared-state")
class SharedStateRule(AnalysisRule):
    """Unguarded shared mutable state in thread-facing modules."""

    def check(self, project: AnalysisProject) -> Iterator[Finding]:
        for module in project.modules:
            if _in_scope(module):
                yield from self._check_module(module)

    def _check_module(self, module: SourceModule) -> Iterator[Finding]:
        parents = build_parent_map(module.tree)
        yield from self._check_module_level(module)
        yield from self._check_globals(module, parents)
        for node in ast.walk(module.tree):
            if isinstance(node, ast.ClassDef):
                yield from self._check_class(module, node, parents)

    # ------------------------------------------------------------------ ---
    def _check_module_level(self, module: SourceModule) -> Iterator[Finding]:
        for stmt in module.tree.body:
            if not isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                continue
            value = stmt.value
            if value is None or not _is_mutable_value(value):
                continue
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            for target in targets:
                if isinstance(target, ast.Name) and not (
                    target.id.startswith("__") and target.id.endswith("__")
                ):
                    yield Finding(
                        rule=self.rule_id,
                        path=module.rel,
                        line=stmt.lineno,
                        message=(
                            f"module-level mutable {target.id} is shared "
                            f"across threads"
                        ),
                        hint="guard mutation with a lock, make it immutable, "
                             "or waive with a reason if read-only after import",
                    )

    def _check_globals(
        self, module: SourceModule, parents: Dict[ast.AST, ast.AST]
    ) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Global):
                continue
            function = parents.get(node)
            while function is not None and not isinstance(
                function, (ast.FunctionDef, ast.AsyncFunctionDef)
            ):
                function = parents.get(function)
            if function is None:
                continue
            declared = set(node.names)
            for stmt in ast.walk(function):
                if not isinstance(stmt, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                    continue
                targets = (
                    stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                )
                for target in targets:
                    if (
                        isinstance(target, ast.Name)
                        and target.id in declared
                        and not _lock_guarded(stmt, parents)
                    ):
                        yield Finding(
                            rule=self.rule_id,
                            path=module.rel,
                            line=stmt.lineno,
                            message=(
                                f"unguarded write to global {target.id} in "
                                f"{function.name}()"
                            ),
                            hint="hold a module lock around the check-and-set",
                        )

    def _check_class(
        self,
        module: SourceModule,
        node: ast.ClassDef,
        parents: Dict[ast.AST, ast.AST],
    ) -> Iterator[Finding]:
        thread_locals = _thread_local_attrs(node)
        for name, method in class_methods(node).items():
            if name in _SETUP_METHODS:
                continue
            for stmt in ast.walk(method):
                if not isinstance(stmt, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                    continue
                targets = (
                    stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                )
                for target in targets:
                    chain = self_attribute_chain(target)
                    if chain is None:
                        continue
                    if chain[0] in thread_locals and len(chain) > 1:
                        continue  # the threading.local() scratch idiom
                    if _lock_guarded(stmt, parents):
                        continue
                    yield Finding(
                        rule=self.rule_id,
                        path=module.rel,
                        line=stmt.lineno,
                        message=(
                            f"unguarded write to self.{'.'.join(chain)} in "
                            f"{node.name}.{name}() of a thread-facing module"
                        ),
                        hint="guard with a lock or route through a "
                             "threading.local(); waive with a reason if the "
                             "write is parent-thread-only or idempotent",
                    )
