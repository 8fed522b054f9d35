"""The string-keyed rule registry.

Rules self-register at import time with the same decorator idiom the
experiment components of ``repro.api.registry`` use::

    from .registry import ANALYSIS_RULES, AnalysisRule

    @ANALYSIS_RULES.register("det-wallclock")
    class WallClockRule(AnalysisRule):
        '''Wall-clock reads outside the provenance/timing seams.'''
        ...

It is a registry of its own (not ``repro.api.registry.Registry``) on
purpose: the analyzer is stdlib-only and imports nothing from ``repro``, so
it can lint a tree whose dependencies are broken.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Tuple, Type

from .findings import Finding
from .project import AnalysisProject


class AnalysisRule:
    """Base class of all analysis rules.

    Subclasses set ``rule_id`` (done by the registration decorator), provide
    a docstring whose first line is the CLI description, and implement
    :meth:`check` yielding :class:`Finding` objects against
    ``project.modules``.
    """

    rule_id: str = ""

    def check(self, project: AnalysisProject) -> Iterator[Finding]:
        raise NotImplementedError

    @classmethod
    def describe(cls) -> str:
        doc = cls.__doc__ or ""
        return doc.strip().splitlines()[0] if doc.strip() else cls.__name__


class RuleRegistry:
    """String-keyed collection of rule classes, listed in id order."""

    def __init__(self) -> None:
        self._entries: Dict[str, Type[AnalysisRule]] = {}
        self._loaded = False

    def register(self, rule_id: str):
        """Class decorator registering a rule under *rule_id*."""
        if not isinstance(rule_id, str) or not rule_id:
            raise TypeError("rule ids must be non-empty strings")

        def _add(rule_cls: Type[AnalysisRule]) -> Type[AnalysisRule]:
            if rule_id in self._entries:
                raise ValueError(f"analysis rule {rule_id!r} is already registered")
            rule_cls.rule_id = rule_id
            self._entries[rule_id] = rule_cls
            return rule_cls

        return _add

    def items(self) -> List[Tuple[str, Type[AnalysisRule]]]:
        """``(rule id, rule class)`` of every registered rule, by id."""
        self._load()
        return sorted(self._entries.items())

    def _load(self) -> None:
        """Import the built-in rule modules (self-registration on import)."""
        if self._loaded:
            return
        self._loaded = True
        from . import rules  # noqa: F401  (registers the built-ins)


#: The rule registry; built-in rules register on first lookup.
ANALYSIS_RULES = RuleRegistry()
