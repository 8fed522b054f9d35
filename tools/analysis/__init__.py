"""Static enforcement of the library's behavioural contracts.

Every guarantee this reproduction makes — one seed driving all randomness,
content-address keys that only change when behaviour changes, deterministic
``to_state``/``from_state`` round-trips — is otherwise enforced dynamically,
by tests that must happen to exercise the offending line.  This package is
the static half of that enforcement: an AST-based linter with a string-keyed
rule registry, run from the repository root as
``python -m tools.analysis src/repro tools/analysis``.  It is a repository
tool, not part of the ``repro`` program: it is stdlib-only and imports
nothing from ``repro``, so it can lint a tree whose dependencies are broken.

Rule families (see ``python -m tools.analysis --list-rules``):

* **determinism** — unsorted directory walks, set iteration flowing into
  ordered output, wall-clock reads, unseeded RNG construction and builtin
  ``hash()`` outside the derived-seed / provenance seams;
* **registry/config contract** — every ``*Config`` dataclass field must be
  consumed somewhere, and dotted override keys in sweep grids / example
  configs must resolve to real fields;
* **state-schema** — classes defining ``to_state`` must cover every
  ``__init__``-assigned attribute and round-trip through ``from_state``;
* **shared-state concurrency** — mutable state reachable from thread-pool
  worker code must be lock-guarded or thread-local.

Findings are suppressed per line with ``# repro: allow[rule-id] -- reason``
(the reason is mandatory and unused suppressions are themselves findings).
There is no baseline file: a finding is fixed or waived on its own line.
"""

from .engine import AnalysisResult, run_analysis
from .findings import Finding
from .project import AnalysisProject
from .registry import ANALYSIS_RULES, AnalysisRule

__all__ = [
    "ANALYSIS_RULES",
    "AnalysisProject",
    "AnalysisResult",
    "AnalysisRule",
    "Finding",
    "run_analysis",
]
