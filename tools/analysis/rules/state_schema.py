"""State-schema completeness: ``to_state`` must capture the whole object.

Fitted artifacts round-trip through JSON (``to_state`` / ``from_state``) and
the round-trip is gated bitwise in tests — but a *new* ``__init__``
attribute that ``to_state`` forgets silently survives only in memory and is
reset on reload.  This rule statically cross-checks, per class defining
``to_state``:

* every ``self.<attr>`` assigned in ``__init__`` (private ``_underscore``
  names excluded) is read somewhere in ``to_state``, transitively through
  same-class ``self.method()`` calls (so ``param_state``-style helpers
  count);
* every top-level state key — string keys of returned dict literals plus
  ``state["key"] = ...`` subscript stores, again transitively — appears as a
  string literal in ``from_state``, so the reader knows about every key the
  writer emits.

Deliberately ephemeral attributes (caches) carry a reasoned
``# repro: allow[state-schema]`` waiver on the ``__init__`` assignment line.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Set

from ..astutil import (
    class_methods,
    self_attribute_chain,
    string_constants,
)
from ..findings import Finding
from ..project import AnalysisProject
from ..registry import ANALYSIS_RULES, AnalysisRule

#: State keys every serializer emits as format/dispatch markers, checked by
#: shared helpers (expect_state_type) rather than each from_state.
_MARKER_KEYS = {"type", "format"}


def _init_attr_lines(init: ast.FunctionDef) -> Dict[str, int]:
    """Public ``self.X = ...`` assignments of ``__init__``: name -> line."""
    attrs: Dict[str, int] = {}
    for node in ast.walk(init):
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                chain = self_attribute_chain(target)
                if chain is not None and len(chain) == 1 and not chain[0].startswith("_"):
                    attrs.setdefault(chain[0], node.lineno)
    return attrs


def _reachable_methods(
    methods: Dict[str, ast.FunctionDef], start: str
) -> List[ast.FunctionDef]:
    """*start* plus every same-class method reachable via self.m() calls."""
    seen: Set[str] = set()
    queue = [start]
    reached: List[ast.FunctionDef] = []
    while queue:
        name = queue.pop()
        if name in seen or name not in methods:
            continue
        seen.add(name)
        method = methods[name]
        reached.append(method)
        for node in ast.walk(method):
            if isinstance(node, ast.Call):
                chain = self_attribute_chain(node.func)
                if chain is not None and len(chain) == 1:
                    queue.append(chain[0])
    return reached


def _attr_reads(bodies: List[ast.FunctionDef]) -> Set[str]:
    reads: Set[str] = set()
    for body in bodies:
        for node in ast.walk(body):
            if isinstance(node, ast.Attribute):
                chain = self_attribute_chain(node)
                if chain is not None:
                    reads.add(chain[0])
    return reads


def _state_keys(bodies: List[ast.FunctionDef]) -> Set[str]:
    """Top-level keys the serializer emits: returned dict literals plus
    ``<name>["key"] = ...`` subscript stores (nested dicts excluded)."""
    keys: Set[str] = set()
    for body in bodies:
        for node in ast.walk(body):
            if isinstance(node, ast.Return) and isinstance(node.value, ast.Dict):
                for key in node.value.keys:
                    if isinstance(key, ast.Constant) and isinstance(key.value, str):
                        keys.add(key.value)
            elif isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                targets = (
                    node.targets if isinstance(node, ast.Assign) else [node.target]
                )
                for target in targets:
                    if (
                        isinstance(target, ast.Subscript)
                        and isinstance(target.slice, ast.Constant)
                        and isinstance(target.slice.value, str)
                    ):
                        keys.add(target.slice.value)
    return keys


@ANALYSIS_RULES.register("state-schema")
class StateSchemaRule(AnalysisRule):
    """to_state must cover all __init__ attributes; from_state all keys."""

    def check(self, project: AnalysisProject) -> Iterator[Finding]:
        for module in project.modules:
            for node in ast.walk(module.tree):
                if isinstance(node, ast.ClassDef):
                    yield from self._check_class(module, node)

    def _check_class(self, module, node: ast.ClassDef) -> Iterator[Finding]:
        methods = class_methods(node)
        to_state = methods.get("to_state")
        if to_state is None:
            return
        writer_bodies = _reachable_methods(methods, "to_state")

        init = methods.get("__init__")
        if init is not None:
            reads = _attr_reads(writer_bodies)
            for attr, line in sorted(_init_attr_lines(init).items()):
                if attr not in reads:
                    yield Finding(
                        rule=self.rule_id,
                        path=module.rel,
                        line=line,
                        message=(
                            f"{node.name}.{attr} is set in __init__ but never "
                            f"read by to_state"
                        ),
                        hint="serialize the attribute (or waive it with a "
                             "reasoned allow comment if it is ephemeral)",
                    )

        from_state = methods.get("from_state")
        if from_state is None:
            yield Finding(
                rule=self.rule_id,
                path=module.rel,
                line=to_state.lineno,
                message=f"{node.name} defines to_state but no from_state",
                hint="add a from_state classmethod so the state round-trips",
            )
            return
        reader_bodies = _reachable_methods(methods, "from_state")
        known: Set[str] = set()
        for body in reader_bodies:
            known.update(string_constants(body))
        for key in sorted(_state_keys(writer_bodies) - _MARKER_KEYS):
            if key not in known:
                yield Finding(
                    rule=self.rule_id,
                    path=module.rel,
                    line=to_state.lineno,
                    message=(
                        f"{node.name}.to_state emits key {key!r} that "
                        f"from_state never reads"
                    ),
                    hint="consume the key in from_state (a dropped key is "
                         "silent data loss on reload)",
                )
