"""Every exported name is something the program uses.

A name in the ``__all__`` of a ``repro`` module must appear outside its own
definition in ``src`` (re-exports in ``__init__.py`` files do not count), or
in ``scripts``, ``examples``, ``perfbench`` or ``benchmarks``.  A helper that
only tests call is not part of the program: it is deleted with its tests, or
at least not exported.  The scan is syntactic: a name counts where it is
loaded, imported, read as an attribute, or spelled out as a whole string
(``perfbench/ledger.py`` names its wrapped targets that way).
"""

from __future__ import annotations

import ast
import functools
import re
from pathlib import Path
from typing import Dict, Iterator, List, Set, Tuple

REPO = Path(__file__).resolve().parents[1]
SRC = REPO / "src" / "repro"
PROGRAM_DIRS = ("scripts", "examples", "perfbench", "benchmarks")

#: Exported for the tests alone, on purpose.  The general cost-based rule of
#: eqs. (4)-(8) and its two inputs are the oracle of the two rules the
#: program runs: ML is ``cost_based_rule`` with ``inverse_prior_costs``
#: (eq. (7)), and Bayes is the ML rule under ``uniform_priors``.
ORACLE_ONLY = {"cost_based_rule", "inverse_prior_costs", "uniform_priors"}

_DOTTED = re.compile(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)*")


@functools.lru_cache(maxsize=None)
def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), str(path))


def _is_all(node: ast.AST) -> bool:
    return isinstance(node, ast.Assign) and any(
        isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
    )


def _exports(tree: ast.Module) -> List[str]:
    """The names of a module's ``__all__``, with ``*NAME`` entries resolved
    to the module-level tuple or list they unpack."""
    constants: Dict[str, ast.AST] = {
        target.id: node.value
        for node in tree.body
        if isinstance(node, ast.Assign)
        for target in node.targets
        if isinstance(target, ast.Name)
    }

    def names(value: ast.AST) -> Iterator[str]:
        for element in getattr(value, "elts", ()):
            if isinstance(element, ast.Constant):
                yield element.value
            elif isinstance(element, ast.Starred) and isinstance(element.value, ast.Name):
                yield from names(constants[element.value.id])

    return [name for node in tree.body if _is_all(node) for name in names(node.value)]


def _registered(node: ast.AST) -> bool:
    """Whether a definition is decorated with a registry's ``register(...)``:
    the program reaches it through the registry, by its entry name."""
    return any(
        isinstance(decorator, ast.Call)
        and isinstance(decorator.func, ast.Attribute)
        and decorator.func.attr == "register"
        for decorator in getattr(node, "decorator_list", ())
    )


def _definitions() -> Dict[str, Set[Tuple[Path, int, int]]]:
    """Where each module-level name of ``src`` is defined: (file, first, last line)."""
    spans: Dict[str, Set[Tuple[Path, int, int]]] = {}
    for path in sorted(SRC.rglob("*.py")):
        for node in _parse(path).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined = [target.id for target in targets if isinstance(target, ast.Name)]
            else:
                continue
            first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
            for name in defined:
                spans.setdefault(name, set()).add((path, first, node.end_lineno))
    return spans


def _uses(tree: ast.Module) -> Iterator[Tuple[str, int]]:
    """(name, line) of every use of a name in a module, ``__all__`` excluded."""
    skipped = {id(node) for top in tree.body if _is_all(top) for node in ast.walk(top)}
    for node in ast.walk(tree):
        if id(node) in skipped:
            continue
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                yield alias.name, node.lineno
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if _DOTTED.fullmatch(node.value):
                for part in node.value.split("."):
                    yield part, node.lineno


def _used_names() -> Set[str]:
    definitions = _definitions()
    program_files = [path for path in SRC.rglob("*.py") if path.name != "__init__.py"]
    for directory in PROGRAM_DIRS:
        program_files.extend((REPO / directory).rglob("*.py"))
    used = {
        node.name
        for path in SRC.rglob("*.py")
        for node in _parse(path).body
        if _registered(node)
    }
    for path in sorted(program_files):
        for name, line in _uses(_parse(path)):
            own = any(
                where == path and first <= line <= last
                for where, first, last in definitions.get(name, ())
            )
            if not own:
                used.add(name)
    return used


def test_every_exported_name_is_used_by_the_program():
    used = _used_names()
    unused = sorted(
        f"{path.relative_to(REPO)}: {name}"
        for path in sorted(SRC.rglob("*.py"))
        for name in _exports(_parse(path))
        if name not in used and name not in ORACLE_ONLY
    )
    assert not unused, "exported but used only by tests:\n" + "\n".join(unused)


def test_oracle_allowlist_is_exported_and_not_otherwise_used():
    """The allowlist holds only names that need it."""
    exported = {name for path in SRC.rglob("*.py") for name in _exports(_parse(path))}
    assert ORACLE_ONLY <= exported
    assert not ORACLE_ONLY & _used_names()
