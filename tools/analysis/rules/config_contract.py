"""Config-contract rules: every knob must exist, every field must matter.

Two complementary checks keep the declarative config layer honest:

* ``config-field-unread`` — a ``*Config`` dataclass field nobody reads is a
  knob that silently does nothing; every field must be consumed somewhere
  outside the class's own ``validate``/``__post_init__``.
* ``config-override-path`` — dotted override paths in the example config
  JSONs (sweep ``grid`` keys) and the section/field keys of experiment
  config documents must resolve to real dataclass fields, statically.  A
  typo in a sweep grid otherwise only fails at run time, deep inside the
  driver.

Both rules are driven purely by the dataclass ASTs, so they stay in sync
with the config schema by construction.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, Optional, Set, Tuple

from ..astutil import (
    dotted_name,
    is_dataclass_def,
    class_methods,
)
from ..findings import Finding
from ..project import AnalysisProject
from ..registry import ANALYSIS_RULES, AnalysisRule

#: Methods whose self.<field> reads do not count as consumption: a field
#: only checked by its own class is still a knob nobody acts on.
_SELF_CHECK_METHODS = {"validate", "__post_init__"}


def _dataclass_fields(node: ast.ClassDef) -> Dict[str, Optional[str]]:
    """field name -> annotation dotted name (None for non-name annotations)."""
    fields: Dict[str, Optional[str]] = {}
    for stmt in node.body:
        if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
            if stmt.target.id.startswith("_"):
                continue
            fields[stmt.target.id] = dotted_name(stmt.annotation)
    return fields


def _field_lines(node: ast.ClassDef) -> Dict[str, int]:
    return {
        stmt.target.id: stmt.lineno
        for stmt in node.body
        if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
    }


def _collect_dataclasses(project: AnalysisProject):
    """(module, ClassDef) for every dataclass in the analyzed tree."""
    for module in project.modules:
        for node in ast.walk(module.tree):
            if isinstance(node, ast.ClassDef) and is_dataclass_def(node):
                yield module, node


@ANALYSIS_RULES.register("config-field-unread")
class ConfigFieldUnreadRule(AnalysisRule):
    """Every *Config dataclass field must be consumed somewhere."""

    def check(self, project: AnalysisProject) -> Iterator[Finding]:
        config_classes = [
            (module, node)
            for module, node in _collect_dataclasses(project)
            if node.name.endswith("Config")
        ]
        if not config_classes:
            return
        consumed = self._consumed_names(project, {n.name for _, n in config_classes})
        for module, node in config_classes:
            lines = _field_lines(node)
            for field_name in _dataclass_fields(node):
                if field_name not in consumed:
                    yield Finding(
                        rule=self.rule_id,
                        path=module.rel,
                        line=lines[field_name],
                        message=(
                            f"config field {node.name}.{field_name} is never "
                            f"read outside its own validation"
                        ),
                        hint="wire the field into the code it configures, "
                             "or delete the dead knob",
                    )

    @staticmethod
    def _consumed_names(
        project: AnalysisProject, config_class_names: Set[str]
    ) -> Set[str]:
        """Names that count as consumption: attribute loads outside the
        config classes' own validation methods, plus string literals
        (registry keys, ``_SECTIONS``-style maps, dotted override paths)."""
        consumed: Set[str] = set()
        for module in project.modules:
            skip_bodies = set()
            for node in ast.walk(module.tree):
                if (
                    isinstance(node, ast.ClassDef)
                    and node.name in config_class_names
                ):
                    for name, method in class_methods(node).items():
                        if name in _SELF_CHECK_METHODS:
                            skip_bodies.update(ast.walk(method))
            for node in ast.walk(module.tree):
                if node in skip_bodies:
                    continue
                if isinstance(node, ast.Attribute) and isinstance(
                    node.ctx, ast.Load
                ):
                    consumed.add(node.attr)
                elif isinstance(node, ast.Constant) and isinstance(
                    node.value, str
                ):
                    # "meta_models.classifiers" consumes both components.
                    consumed.update(node.value.split("."))
        return consumed


@ANALYSIS_RULES.register("config-override-path")
class OverridePathRule(AnalysisRule):
    """Dotted override paths and config-document keys must resolve."""

    def check(self, project: AnalysisProject) -> Iterator[Finding]:
        schema = self._schema(project)
        if schema is None:
            # No ExperimentConfig dataclass in the analyzed tree: nothing
            # to resolve the JSON documents against.
            return
        by_name, root_class = schema
        for rel, payload in project.config_files:
            if not isinstance(payload, dict):
                continue
            if isinstance(payload.get("grid"), dict):
                yield from self._check_sweep(rel, payload, by_name, root_class)
            elif "kind" in payload:
                yield from self._check_experiment(rel, payload, by_name, root_class)

    # ------------------------------------------------------------------ ---
    def _schema(
        self, project: AnalysisProject
    ) -> Optional[Tuple[Dict[str, Dict[str, Optional[str]]], str]]:
        by_name: Dict[str, Dict[str, Optional[str]]] = {}
        for _, node in _collect_dataclasses(project):
            by_name[node.name] = _dataclass_fields(node)
        if "ExperimentConfig" not in by_name:
            return None
        return by_name, "ExperimentConfig"

    def _resolve(
        self,
        path: str,
        by_name: Dict[str, Dict[str, Optional[str]]],
        root_class: str,
    ) -> Optional[str]:
        """None if the dotted path resolves, else the offending prefix."""
        current = root_class
        parts = path.split(".")
        for depth, part in enumerate(parts):
            fields = by_name.get(current)
            if fields is None or part not in fields:
                return ".".join(parts[: depth + 1])
            annotation = fields[part]
            current = annotation if annotation in by_name else ""
        return None

    def _check_sweep(
        self, rel, payload, by_name, root_class
    ) -> Iterator[Finding]:
        for path in sorted(payload["grid"]):
            bad = self._resolve(str(path), by_name, root_class)
            if bad is not None:
                yield Finding(
                    rule=self.rule_id,
                    path=rel,
                    line=1,
                    message=(
                        f"sweep grid path {path!r} does not resolve "
                        f"(no such field {bad!r})"
                    ),
                    hint=f"fix the dotted path against {root_class}",
                )
        base = payload.get("base")
        if isinstance(base, dict):
            yield from self._check_experiment(rel, base, by_name, root_class)

    def _check_experiment(
        self, rel, payload, by_name, root_class
    ) -> Iterator[Finding]:
        root_fields = by_name[root_class]
        for key, value in sorted(payload.items()):
            if key not in root_fields:
                yield Finding(
                    rule=self.rule_id,
                    path=rel,
                    line=1,
                    message=f"unknown config key {key!r} in {root_class} document",
                    hint=f"valid keys: {', '.join(sorted(root_fields))}",
                )
                continue
            section_class = root_fields[key]
            if section_class in by_name and isinstance(value, dict):
                section_fields = by_name[section_class]
                for sub_key in sorted(value):
                    if sub_key not in section_fields:
                        yield Finding(
                            rule=self.rule_id,
                            path=rel,
                            line=1,
                            message=(
                                f"unknown field {key}.{sub_key} "
                                f"({section_class} has no field {sub_key!r})"
                            ),
                            hint=f"valid fields: {', '.join(sorted(section_fields))}",
                        )
