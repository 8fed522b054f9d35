"""What the analyzer looks at: parsed source and config JSONs.

An :class:`AnalysisProject` is the shared input of every rule: the modules
under the *analyzed* paths (findings are reported against these) and the
example config JSONs (context for the dotted-override contract).
Everything is collected in sorted order so reports are deterministic, and
files that fail to parse become ``parse-error`` findings instead of crashing
the run.
"""

from __future__ import annotations

import ast
import json
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from .findings import Finding
from .suppressions import SuppressionSet

#: Directory names that mark a repository root when inferring context.
_ROOT_MARKERS = ("tests", ".git", "pytest.ini")


class SourceModule:
    """One parsed Python file: AST, raw text and its suppression set."""

    def __init__(self, path: Path, rel: str, text: str, tree: ast.AST) -> None:
        self.path = path
        self.rel = rel
        self.text = text
        self.tree = tree
        self.suppressions = SuppressionSet.from_source(text)

    def __repr__(self) -> str:
        return f"SourceModule({self.rel!r})"


class AnalysisProject:
    """All parsed inputs of one analyzer run."""

    def __init__(
        self,
        root: Path,
        modules: List[SourceModule],
        config_files: List[Tuple[str, object]],
        parse_failures: List[Finding],
    ) -> None:
        self.root = root
        self.modules = modules
        self.config_files = config_files
        self.parse_failures = parse_failures

    # ------------------------------------------------------------------ ---
    @classmethod
    def from_paths(
        cls,
        paths: Sequence[str],
        configs_dir: Optional[str] = None,
    ) -> "AnalysisProject":
        """Load the analyzed tree plus its config context.

        *paths* are files or directories to analyze.  The repository root is
        inferred by walking up from the first path until a directory with a
        ``tests`` tree (or ``.git``/``pytest.ini``) appears; ``configs_dir``
        overrides the derived default ``<root>/examples/configs``.  A
        missing default directory silently disables the rule that needs it —
        analyzing a single file must not fail because it has no configs —
        but an explicit ``configs_dir`` that is not a directory raises
        :class:`NotADirectoryError`.
        """
        resolved = [Path(p).resolve() for p in paths]
        for path in resolved:
            if not path.exists():
                raise FileNotFoundError(f"no such file or directory: {path}")
        root = _infer_root(resolved[0])

        parse_failures: List[Finding] = []
        modules = _load_tree(_collect_py_files(resolved), root, parse_failures)

        configs_path = (
            Path(configs_dir).resolve() if configs_dir else root / "examples" / "configs"
        )
        if configs_dir and not configs_path.is_dir():
            raise NotADirectoryError(f"--configs: not a directory: {configs_path}")
        config_files: List[Tuple[str, object]] = []
        if configs_path.is_dir():
            for json_path in sorted(configs_path.rglob("*.json")):
                rel = _relative(json_path, root)
                try:
                    config_files.append((rel, json.loads(json_path.read_text())))
                except (OSError, ValueError) as exc:
                    parse_failures.append(
                        Finding(
                            rule="parse-error",
                            path=rel,
                            line=1,
                            message=f"cannot parse config JSON: {exc}",
                        )
                    )
        return cls(
            root=root,
            modules=modules,
            config_files=config_files,
            parse_failures=parse_failures,
        )


def _infer_root(start: Path) -> Path:
    """Nearest ancestor that looks like a repository root."""
    candidate = start if start.is_dir() else start.parent
    for _ in range(8):
        if any((candidate / marker).exists() for marker in _ROOT_MARKERS):
            return candidate
        if candidate.parent == candidate:
            break
        candidate = candidate.parent
    return start if start.is_dir() else start.parent


def _relative(path: Path, root: Path) -> str:
    try:
        return path.relative_to(root).as_posix()
    except ValueError:
        return path.as_posix()


def _collect_py_files(paths: List[Path]) -> List[Path]:
    """All Python files under the analyzed paths, sorted and de-duplicated."""
    seen: Dict[Path, None] = {}
    for path in paths:
        if path.is_dir():
            for file_path in sorted(path.rglob("*.py")):
                seen.setdefault(file_path, None)
        elif path.suffix == ".py":
            seen.setdefault(path, None)
    return sorted(seen)


def _load_tree(files: List[Path], root: Path, failures: List[Finding]) -> List[SourceModule]:
    modules: List[SourceModule] = []
    for file_path in files:
        rel = _relative(file_path, root)
        try:
            text = file_path.read_text()
            tree = ast.parse(text, filename=rel)
        except (OSError, SyntaxError, ValueError) as exc:
            failures.append(
                Finding(
                    rule="parse-error",
                    path=rel,
                    line=getattr(exc, "lineno", 1) or 1,
                    message=f"cannot parse: {exc}",
                )
            )
            continue
        modules.append(SourceModule(file_path, rel, text, tree))
    return modules
