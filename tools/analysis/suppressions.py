"""Per-line suppression comments: ``# repro: allow[rule-id] -- reason``.

A suppression silences the named rule(s) on its own line only, and the
reason after ``--`` is mandatory: an allow comment is a written waiver of a
library invariant, so it must say *why* the line is exempt.  Several ids can
share one comment (``allow[det-wallclock, det-rng]``).  Both failure modes
are findings in their own right: a malformed or reason-less comment raises
``malformed-suppression`` and a suppression that silenced nothing raises
``unused-suppression`` — so waivers cannot rot silently.

Comments are found with :mod:`tokenize`, not substring search, so a string
literal containing ``# repro:`` never counts as a directive.
"""

from __future__ import annotations

import io
import re
import tokenize
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Set, Tuple

from .findings import META_RULES, Finding

#: Anything after the ``repro:`` comment marker is a directive and must
#: parse completely (this sentence avoids spelling the marker itself).
_DIRECTIVE_RE = re.compile(r"#\s*repro:\s*(?P<body>.*)$")
_ALLOW_RE = re.compile(
    r"^allow\[(?P<ids>[^\]]*)\]\s*(?:--\s*(?P<reason>\S.*))?$"
)


@dataclass
class Suppression:
    """One parsed allow comment."""

    line: int
    rules: Tuple[str, ...]
    reason: str
    used: Set[str] = field(default_factory=set)


class SuppressionSet:
    """All suppression directives of one source file, with usage tracking."""

    def __init__(self) -> None:
        self._by_line: Dict[int, Suppression] = {}
        self._malformed: List[Tuple[int, str]] = []

    @classmethod
    def from_source(cls, text: str) -> "SuppressionSet":
        """Parse every ``# repro:`` comment of *text*.

        Tokenization errors are ignored here: a file that does not tokenize
        does not parse either, and the engine reports that as a single
        ``parse-error`` finding instead.
        """
        out = cls()
        reader = io.StringIO(text).readline
        try:
            tokens = list(tokenize.generate_tokens(reader))
        except (tokenize.TokenError, IndentationError, SyntaxError):
            return out
        for token in tokens:
            if token.type != tokenize.COMMENT:
                continue
            match = _DIRECTIVE_RE.search(token.string)
            if match is None:
                continue
            out._add_directive(token.start[0], match.group("body").strip())
        return out

    def _add_directive(self, line: int, body: str) -> None:
        match = _ALLOW_RE.match(body)
        if match is None:
            self._malformed.append(
                (line, f"unrecognised repro directive {body!r}")
            )
            return
        ids = tuple(
            part.strip() for part in match.group("ids").split(",") if part.strip()
        )
        reason = (match.group("reason") or "").strip()
        if not ids:
            self._malformed.append((line, "allow[] names no rule ids"))
            return
        meta = [rule_id for rule_id in ids if rule_id in META_RULES]
        if meta:
            self._malformed.append(
                (line, f"rule {meta[0]!r} cannot be suppressed with an allow "
                       f"comment; fix what it reports instead")
            )
            return
        if not reason:
            self._malformed.append(
                (line, f"allow[{', '.join(ids)}] is missing its '-- reason'")
            )
            return
        self._by_line[line] = Suppression(line=line, rules=ids, reason=reason)

    # ------------------------------------------------------------------ ---
    def suppresses(self, rule_id: str, line: int) -> bool:
        """True (and marked used) when *rule_id* is allowed on *line*."""
        if rule_id in META_RULES:
            return False
        suppression = self._by_line.get(line)
        if suppression is None or rule_id not in suppression.rules:
            return False
        suppression.used.add(rule_id)
        return True

    def leftover_findings(self, path: str) -> Iterator[Finding]:
        """Findings for malformed directives and unused suppressions."""
        for line, message in self._malformed:
            yield Finding(
                rule="malformed-suppression",
                path=path,
                line=line,
                message=message,
                hint="write '# repro: allow[rule-id] -- reason'",
            )
        for line in sorted(self._by_line):
            suppression = self._by_line[line]
            for rule_id in suppression.rules:
                if rule_id not in suppression.used:
                    yield Finding(
                        rule="unused-suppression",
                        path=path,
                        line=line,
                        message=(
                            f"suppression allow[{rule_id}] matched no finding"
                        ),
                        hint="delete the stale allow comment",
                    )
