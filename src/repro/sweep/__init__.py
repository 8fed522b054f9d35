"""Declarative sweep driver over the unified experiment API.

A sweep is a base :class:`~repro.api.config.ExperimentConfig` plus a grid of
values over dotted config fields (``meta_models.classifiers``,
``extraction.connectivity``, ``seed``, ...).  The driver expands the grid
deterministically, runs every point through the existing
:class:`~repro.api.runner.Runner` (any execution backend) with
content-addressed result caching (:mod:`repro.store`) on by default, and
emits a summary table plus a structural diff of the per-point deterministic
report payloads against the first point.

CLI: ``python -m repro sweep sweep.json [--no-cache] [--backend NAME]``.

Modules:

* :mod:`repro.sweep.config` — :class:`SweepConfig` / :class:`SweepPoint`
  (declarative grid, deterministic expansion, JSON loading);
* :mod:`repro.sweep.driver` — :func:`run_sweep`, :class:`SweepResult`;
* :mod:`repro.sweep.diff`   — :func:`structural_diff` over report payloads.
"""

from repro.sweep.config import SweepConfig, SweepPoint
from repro.sweep.diff import structural_diff, summarize_diff
from repro.sweep.driver import SweepPointResult, SweepResult, run_sweep

__all__ = [
    "SweepConfig",
    "SweepPoint",
    "SweepPointResult",
    "SweepResult",
    "run_sweep",
    "structural_diff",
    "summarize_diff",
]
