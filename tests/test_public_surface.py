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
are the roots.  Dunders and the overrides the standard library calls back
(``STDLIB_CALLBACKS``) count as used.
There are no other exceptions: the oracles the tests compare the program
against live under ``tests/reference/``.

The converse holds for those oracles: each module-level function and class
under ``tests/reference/`` must be imported by name by a test, or used by an
oracle that is, so no oracle outlives the parity test that needs it.
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
TESTS = REPO / "tests"

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
    """Dunders and standard-library callbacks."""
    return (
        (node.name.startswith("__") and node.name.endswith("__"))
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
    )


def test_every_exported_name_is_used_by_the_program():
    unused = _unused((path, name) for path in _src_files() for name in _exports(_parse(path)))
    assert not unused, "exported but used only by tests:\n" + "\n".join(unused)


def test_every_definition_is_used_by_the_program():
    unused = _unused(
        (path, qualname) for path in _src_files() for qualname, _ in _defined_nodes(path)
    )
    assert not unused, "defined but used only by tests:\n" + "\n".join(unused)


def _reference_imports(tree: ast.Module) -> Iterator[Tuple[str, str]]:
    """(module, name) of every ``from reference.<module> import <name>``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("reference."):
            module = node.module.split(".", 1)[1]
            for alias in node.names:
                yield module, alias.name


def _unreached_oracles(tests: Path) -> List[str]:
    """Definitions under ``<tests>/reference`` that no test imports, neither
    directly nor through an oracle that uses them."""
    reference = tests / "reference"
    modules = {
        path.stem: _parse(path) for path in sorted(reference.glob("*.py"))
        if path.name != "__init__.py"
    }
    reached: Set[Tuple[str, str]] = set()
    for path in sorted(tests.rglob("*.py")):
        if reference not in path.parents:
            reached.update(_reference_imports(_parse(path)))
    defined = {
        (module, node.name): node
        for module, tree in modules.items()
        for node in tree.body
        if _is_def(node)
    }
    pending = sorted(reached & set(defined))
    while pending:
        module, name = pending.pop()
        imported = {alias: (source, alias) for source, alias in _reference_imports(modules[module])}
        for child in ast.walk(defined[(module, name)]):
            if isinstance(child, ast.Name):
                key = imported.get(child.id, (module, child.id))
                if key in defined and key not in reached:
                    reached.add(key)
                    pending.append(key)
    return sorted(
        f"{reference.name}/{module}.py: {name}"
        for module, name in defined
        if (module, name) not in reached
    )


def test_every_oracle_is_imported_by_a_test():
    unreached = _unreached_oracles(TESTS)
    assert not unreached, "oracle imported by no test:\n" + "\n".join(unreached)


def test_oracle_check_flags_only_the_orphan(tmp_path):
    """An oracle no test imports is flagged; one a test imports, and the
    helper only that oracle calls, are not."""
    (tmp_path / "reference").mkdir()
    (tmp_path / "reference" / "__init__.py").write_text("")
    (tmp_path / "reference" / "seed.py").write_text(
        "def _helper(x):\n    return x\n\n\n"
        "def _reference_bar(x):\n    return _helper(x)\n\n\n"
        "def _reference_foo(x):\n    return x\n"
    )
    (tmp_path / "test_bar.py").write_text("from reference.seed import _reference_bar\n")
    assert _unreached_oracles(tmp_path) == ["reference/seed.py: _reference_foo"]
