"""Everything ``src`` defines is something the program uses.

A name in the ``__all__`` of a ``repro`` module, and every module-level
function, class and method in ``src/repro``, must be reached from the
program: from ``src`` itself, or from ``scripts``, ``examples``,
``perfbench`` or ``benchmarks``.  A helper that only tests call is not part
of the program: it is deleted with its tests.

The scan is syntactic: a name counts where it is loaded, read as an
attribute, imported under another name, or spelled out as a whole string
(``perfbench/ledger.py`` names its wrapped targets that way).  Use is
transitive: a use inside a definition counts only once that definition is
itself used, so a helper that only a dead helper calls is dead too.  Uses
in the other program directories, and at the top level of a ``src`` module,
are the roots.  Dunders, registry-registered definitions and the overrides
the standard library calls back (``STDLIB_CALLBACKS``) count as used.
"""

from __future__ import annotations

import ast
import functools
import re
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Set, Tuple

REPO = Path(__file__).resolve().parents[1]
SRC = REPO / "src" / "repro"
PROGRAM_DIRS = ("scripts", "examples", "perfbench", "benchmarks")

#: Defined for the tests alone, on purpose.  The general cost-based rule of
#: eqs. (4)-(8) and its two inputs are the oracle of the two rules the
#: program runs: ML is ``cost_based_rule`` with ``inverse_prior_costs``
#: (eq. (7)), and Bayes is the ML rule under ``uniform_priors``.
#: ``read_ppm`` reads back what ``write_ppm`` writes, the round trip that
#: checks the writer.
ORACLE_ONLY = {"cost_based_rule", "inverse_prior_costs", "uniform_priors", "read_ppm"}

#: Methods the standard library calls on a subclass by name
#: (``http.server`` handlers, ``socketserver`` servers).
STDLIB_CALLBACKS = {"do_GET", "do_POST", "log_message", "process_request", "handle_error"}

_DOTTED = re.compile(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)*")


@functools.lru_cache(maxsize=None)
def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), str(path))


def _src_files() -> List[Path]:
    return sorted(SRC.rglob("*.py"))


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


def _is_def(node: ast.AST) -> bool:
    return isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))


def _defined_nodes(path: Path) -> Iterator[Tuple[str, ast.AST]]:
    """(qualified name, node) of every module-level function and class of a
    ``src`` module and every method of its module-level classes."""
    for node in _parse(path).body:
        if _is_def(node):
            yield node.name, node
            if isinstance(node, ast.ClassDef):
                for member in node.body:
                    if isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        yield f"{node.name}.{member.name}", member


def _names_used(node: ast.AST, in_init: bool) -> Iterator[str]:
    """The names one AST node uses.  An import uses a name only when it
    renames it (``from m import a as b``: later loads read ``b``), and the
    imports of an ``__init__.py`` are re-exports, not uses."""
    if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
        yield node.id
    elif isinstance(node, ast.Attribute):
        yield node.attr
    elif isinstance(node, ast.ImportFrom) and not in_init:
        for alias in node.names:
            if alias.asname is not None:
                yield alias.name
    elif isinstance(node, ast.Constant) and isinstance(node.value, str):
        if _DOTTED.fullmatch(node.value):
            yield from node.value.split(".")


def _uses(path: Path) -> Iterator[Tuple[str, Optional[str]]]:
    """(name, owner) of every use of a name in a module, ``__all__``
    excluded.  The owner is the qualified name of the module-level function
    or class, or method, the use sits in, or None at the top level."""
    tree = _parse(path)
    in_init = path.name == "__init__.py"

    def walk(node: ast.AST, owner: Optional[str]) -> Iterator[Tuple[str, Optional[str]]]:
        for name in _names_used(node, in_init):
            yield name, owner
        for child in ast.iter_child_nodes(node):
            yield from walk(child, owner)

    for top in tree.body:
        if _is_all(top):
            continue
        if not _is_def(top):
            yield from walk(top, None)
            continue
        for child in ast.iter_child_nodes(top):
            method = isinstance(top, ast.ClassDef) and isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef)
            )
            yield from walk(child, f"{top.name}.{child.name}" if method else top.name)


def _always_used(qualname: str, node: ast.AST) -> bool:
    """Dunders, registry entries and standard-library callbacks."""
    return (
        (node.name.startswith("__") and node.name.endswith("__"))
        or _registered(node)
        or ("." in qualname and node.name in STDLIB_CALLBACKS)
    )


@functools.lru_cache(maxsize=None)
def _used_names() -> frozenset:
    """Every name the program uses: the roots, then, until nothing changes,
    the names used inside every definition whose own name is used (a method
    also needs its class used)."""
    used: Set[str] = set()
    inside: Dict[Tuple[Path, str], Set[str]] = {}
    for path in _src_files():
        for qualname, node in _defined_nodes(path):
            inside[(path, qualname)] = set()
            if _always_used(qualname, node):
                used.add(node.name)
        for name, owner in _uses(path):
            if owner is None:
                used.add(name)
            else:
                inside[(path, owner)].add(name)
    for directory in PROGRAM_DIRS:
        for path in sorted((REPO / directory).rglob("*.py")):
            used.update(
                alias.name
                for node in ast.walk(_parse(path))
                if isinstance(node, ast.ImportFrom)
                for alias in node.names
            )
            used.update(name for name, _ in _uses(path))

    live: Set[Tuple[Path, str]] = set()
    while True:
        grown = {
            key for key in inside
            if key not in live and all(part in used for part in key[1].split("."))
        }
        if not grown:
            return frozenset(used)
        live |= grown
        for key in grown:
            used |= inside[key]


def _unused(names: Iterator[Tuple[Path, str]]) -> List[str]:
    used = _used_names()
    return sorted(
        f"{path.relative_to(REPO)}: {qualname}"
        for path, qualname in names
        if qualname.rsplit(".", 1)[-1] not in used
        and qualname.rsplit(".", 1)[-1] not in ORACLE_ONLY
    )


def test_every_exported_name_is_used_by_the_program():
    unused = _unused((path, name) for path in _src_files() for name in _exports(_parse(path)))
    assert not unused, "exported but used only by tests:\n" + "\n".join(unused)


def test_every_definition_is_used_by_the_program():
    unused = _unused(
        (path, qualname) for path in _src_files() for qualname, _ in _defined_nodes(path)
    )
    assert not unused, "defined but used only by tests:\n" + "\n".join(unused)


def test_oracle_allowlist_is_exported_and_not_otherwise_used():
    """The allowlist holds only names that need it: each is a module-level
    function of ``src`` that the program does not reach."""
    defined = {
        qualname for path in _src_files() for qualname, _ in _defined_nodes(path)
    }
    assert ORACLE_ONLY <= defined
    assert not ORACLE_ONLY & _used_names()
