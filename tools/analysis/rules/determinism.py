"""Determinism rules: one seed must drive everything.

The library's headline contract is that a config (and therefore a single
seed) produces bitwise-identical results — across backends, machines and
re-runs.  These rules flag the constructs that silently break that:

* ``det-listdir``   — filesystem enumeration order is OS-dependent; every
  ``os.listdir``/``glob``/``iterdir`` walk must be wrapped in ``sorted()``
  (or an order-neutral reduction);
* ``det-set-order`` — ``set``/``frozenset`` iteration order depends on the
  per-process hash seed; a set flowing into ordered output (a loop, a
  ``list``/``tuple``/``enumerate`` call, a ``join``) must be sorted first;
* ``det-wallclock`` — wall-clock reads belong in the provenance/timing
  seams only (store sidecars, report timings), never in computed results;
* ``det-rng``       — randomness must come from the derived-seed helpers
  (:mod:`repro.utils.rng`); the stdlib ``random`` module, the legacy
  ``np.random.*`` global state and seedless generator construction are all
  process-global or nondeterministic;
* ``det-hash``      — builtin ``hash()`` on strings is salted per process
  (``PYTHONHASHSEED``); use :mod:`hashlib` or the store's canonical keys.

Sites inside the sanctioned seams carry explicit
``# repro: allow[...] -- reason`` waivers, so the exemptions are visible,
reasoned and audited (an unused waiver is itself a finding).
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional, Set

from ..astutil import (
    build_parent_map,
    call_name,
    enclosing_calls,
)
from ..findings import Finding
from ..project import AnalysisProject, SourceModule
from ..registry import ANALYSIS_RULES, AnalysisRule

#: Wrappers that erase enumeration order (or reduce to an order-free value).
_ORDER_NEUTRAL = {
    "sorted", "len", "set", "frozenset", "sum", "min", "max", "any", "all",
}

#: Bare / dotted callables that enumerate the filesystem.
_FS_WALK_DOTTED = {"os.listdir", "os.scandir", "glob.glob", "glob.iglob"}
_FS_WALK_METHODS = {"glob", "rglob", "iterdir"}

#: Wall-clock reads: ``<module>.<func>`` suffixes and seamless bare names.
_WALLCLOCK_SUFFIXES = {
    ("time", "time"), ("time", "time_ns"),
    ("time", "monotonic"), ("time", "monotonic_ns"),
    ("time", "perf_counter"), ("time", "perf_counter_ns"),
    ("datetime", "now"), ("datetime", "utcnow"), ("datetime", "today"),
    ("date", "today"),
}
_WALLCLOCK_BARE = {
    "perf_counter", "perf_counter_ns", "monotonic", "monotonic_ns", "time_ns",
}


def _is_order_neutral(node: ast.AST, parents) -> bool:
    """Whether the expression's enumeration order is erased by a wrapper."""
    for call in enclosing_calls(node, parents):
        name = call_name(call)
        if name is not None and name.split(".")[-1] in _ORDER_NEUTRAL:
            return True
    return False


class _PerModuleRule(AnalysisRule):
    """Base for rules that inspect each analyzed module independently."""

    def check(self, project: AnalysisProject) -> Iterator[Finding]:
        for module in project.modules:
            yield from self.check_module(module)

    def check_module(self, module: SourceModule) -> Iterator[Finding]:
        raise NotImplementedError

    def finding(self, module: SourceModule, node: ast.AST, message: str, hint: str = "") -> Finding:
        return Finding(
            rule=self.rule_id,
            path=module.rel,
            line=getattr(node, "lineno", 1),
            message=message,
            hint=hint,
        )


@ANALYSIS_RULES.register("det-listdir")
class UnsortedWalkRule(_PerModuleRule):
    """Filesystem enumeration (listdir/glob/iterdir) must be sorted."""

    def check_module(self, module: SourceModule) -> Iterator[Finding]:
        parents = build_parent_map(module.tree)
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            name = call_name(node)
            is_walk = name in _FS_WALK_DOTTED or (
                isinstance(node.func, ast.Attribute)
                and node.func.attr in _FS_WALK_METHODS
            )
            if not is_walk or _is_order_neutral(node, parents):
                continue
            shown = name or node.func.attr
            yield self.finding(
                module,
                node,
                f"filesystem enumeration {shown}() has OS-dependent order",
                hint="wrap it in sorted(...)",
            )


@ANALYSIS_RULES.register("det-set-order")
class SetOrderRule(_PerModuleRule):
    """set/frozenset iteration must not flow into ordered output."""

    _CONSUMERS = {"list", "tuple", "enumerate", "iter", "next", "zip", "map"}

    def check_module(self, module: SourceModule) -> Iterator[Finding]:
        # One scope per function (plus the module body): set-valued names
        # are tracked with one level of local dataflow, no aliasing.
        for scope in self._scopes(module.tree):
            yield from self._check_scope(module, scope)

    @staticmethod
    def _scopes(tree: ast.AST):
        yield tree
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                yield node

    def _check_scope(self, module: SourceModule, scope: ast.AST) -> Iterator[Finding]:
        set_vars: Set[str] = set()
        statements = [
            node for node in ast.walk(scope)
            if node is not scope
            and not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
        ]
        for node in statements:
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                target = node.targets[0]
                if isinstance(target, ast.Name):
                    if self._is_set_expr(node.value, set_vars):
                        set_vars.add(target.id)
                    else:
                        set_vars.discard(target.id)
        for node in statements:
            yield from self._check_node(module, node, set_vars)

    def _check_node(
        self, module: SourceModule, node: ast.AST, set_vars: Set[str]
    ) -> Iterator[Finding]:
        if isinstance(node, (ast.For, ast.AsyncFor)):
            if self._is_set_expr(node.iter, set_vars):
                yield self.finding(
                    module, node,
                    "iterating a set has arbitrary, hash-seed-dependent order",
                    hint="iterate sorted(...) instead",
                )
        elif isinstance(node, ast.comprehension):
            if self._is_set_expr(node.iter, set_vars):
                yield self.finding(
                    module, node.iter,
                    "comprehension over a set has arbitrary order",
                    hint="iterate sorted(...) instead",
                )
        elif isinstance(node, ast.Call):
            name = call_name(node)
            if (
                name in self._CONSUMERS
                and node.args
                and self._is_set_expr(node.args[0], set_vars)
            ):
                yield self.finding(
                    module, node,
                    f"{name}() over a set produces arbitrary order",
                    hint="apply sorted(...) first",
                )
            elif (
                isinstance(node.func, ast.Attribute)
                and node.func.attr == "join"
                and node.args
                and self._is_set_expr(node.args[0], set_vars)
            ):
                yield self.finding(
                    module, node,
                    "join() over a set concatenates in arbitrary order",
                    hint="join sorted(...) instead",
                )

    def _is_set_expr(self, node: ast.AST, set_vars: Set[str]) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Call) and call_name(node) in ("set", "frozenset"):
            return True
        if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.Sub, ast.BitOr, ast.BitAnd, ast.BitXor)
        ):
            return self._is_set_expr(node.left, set_vars) or self._is_set_expr(
                node.right, set_vars
            )
        if isinstance(node, ast.Name):
            return node.id in set_vars
        return False


@ANALYSIS_RULES.register("det-wallclock")
class WallClockRule(_PerModuleRule):
    """Wall-clock reads outside the provenance/timing seams."""

    def check_module(self, module: SourceModule) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            name = self._wallclock_name(node)
            if name is not None:
                yield self.finding(
                    module, node,
                    f"wall-clock read {name}() makes results time-dependent",
                    hint="keep wall-clock out of computed results; waive "
                         "provenance/timing sites with a reasoned allow comment",
                )

    @staticmethod
    def _wallclock_name(node: ast.Call) -> Optional[str]:
        name = call_name(node)
        if name is None:
            return None
        parts = name.split(".")
        if len(parts) == 1:
            return name if name in _WALLCLOCK_BARE else None
        if (parts[-2], parts[-1]) in _WALLCLOCK_SUFFIXES:
            return name
        return None


@ANALYSIS_RULES.register("det-rng")
class UnseededRngRule(_PerModuleRule):
    """Randomness outside the derived-seed helpers of repro.utils.rng."""

    def check_module(self, module: SourceModule) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            name = call_name(node)
            if name is None:
                continue
            parts = name.split(".")
            if parts[0] == "random" and len(parts) > 1:
                yield self.finding(
                    module, node,
                    f"stdlib {name}() uses the process-global RNG",
                    hint="derive a numpy Generator via repro.utils.rng",
                )
            elif len(parts) >= 3 and parts[0] in ("np", "numpy") and parts[1] == "random":
                tail = parts[2]
                if tail in ("default_rng", "Generator", "SeedSequence", "RandomState"):
                    if not node.args and not node.keywords:
                        yield self.finding(
                            module, node,
                            f"{name}() without a seed is nondeterministic",
                            hint="pass a seed derived from the experiment seed",
                        )
                else:
                    yield self.finding(
                        module, node,
                        f"legacy {name}() draws from numpy's global RNG state",
                        hint="use a seeded np.random.default_rng(...) generator",
                    )
            elif name == "default_rng" and not node.args and not node.keywords:
                yield self.finding(
                    module, node,
                    "default_rng() without a seed is nondeterministic",
                    hint="pass a seed derived from the experiment seed",
                )


@ANALYSIS_RULES.register("det-hash")
class BuiltinHashRule(_PerModuleRule):
    """Builtin hash() is salted per process (PYTHONHASHSEED)."""

    def check_module(self, module: SourceModule) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "hash"
            ):
                yield self.finding(
                    module, node,
                    "builtin hash() is salted per process for strings",
                    hint="use hashlib (see repro.store.keys) for stable digests",
                )
