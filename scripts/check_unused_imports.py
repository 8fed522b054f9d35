"""Report imported names that a module never uses (a stdlib stand-in for pyflakes).

Usage (from the repository root)::

    python scripts/check_unused_imports.py src tests

Scans every ``*.py`` file under the given paths with the ``ast`` module.  An
imported name counts as used when it appears as a name anywhere in the
module or is listed in ``__all__``; ``from __future__`` imports and import
statements marked ``# noqa`` (deliberate side-effect imports) are skipped.
Prints ``path:line: name`` per hit and exits 1 if there is any.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path
from typing import Iterator, List, Tuple


def _imports(tree: ast.Module, lines: List[str]) -> Iterator[Tuple[str, int]]:
    """(bound name, line) of every import outside ``__future__`` and ``# noqa``."""
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if any("# noqa" in lines[index - 1] for index in (node.lineno, node.end_lineno)):
            continue
        for alias in node.names:
            if alias.name != "*":
                yield (alias.asname or alias.name).split(".")[0], node.lineno


def unused_imports(path: Path) -> List[Tuple[int, str]]:
    """(line, name) of every import of *path* that the module never uses."""
    source = path.read_text()
    tree = ast.parse(source, str(path))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            used |= {
                constant.value
                for constant in ast.walk(node.value)
                if isinstance(constant, ast.Constant)
            }
    return sorted(
        (line, name) for name, line in _imports(tree, source.splitlines()) if name not in used
    )


def main(argv: List[str]) -> int:
    hits = 0
    for root in argv or ["src", "tests"]:
        for path in sorted(Path(root).rglob("*.py")):
            for line, name in unused_imports(path):
                print(f"{path}:{line}: {name!r} imported but unused")
                hits += 1
    return 1 if hits else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
