"""Content-addressed result store (cache) for experiment results.

Because every :class:`~repro.api.runner.ExperimentReport` and every stage-1
shard payload is a pure, bitwise-deterministic function of its
:class:`~repro.api.config.ExperimentConfig`, results can be cached by a
stable hash of the config and reused across runs and sweeps: a re-run of an
unchanged config becomes an O(lookup) read, and a sweep that only changes
protocol-side fields (e.g. the meta-model) reuses every extraction shard.

Two layers:

* :mod:`repro.store.keys` — canonical config hashing (stable JSON
  canonicalisation + code-version salt) for the five memos: whole reports,
  the serving model, stage-1 shards (scoped to the fields that influence
  the shard, plus the index range), the decision priors and every
  meta-model fit (:mod:`repro.store.fits`).
* :mod:`repro.store.store` — the filesystem store: atomic temp-file+rename
  writes, provenance sidecars (timestamps live outside the hashed payload),
  digest-verified self-healing reads, eviction helpers, and
  :meth:`~repro.store.store.ResultStore.get_or_compute` — the one caching
  route every memo goes through (single-flight claims, best-effort writes,
  stale payloads recomputed).

Wire-up: ``Runner(store=ResultStore())`` memoises whole reports, serving
models, priors and fits, and hands the store to the stage-1 walk for
per-shard caching; the sweep driver (:mod:`repro.sweep`) does this by
default.  Cached results are bitwise identical to fresh ones — enforced by
``tests/test_store.py`` and ``benchmarks/bench_sweep_cache.py``.
"""

from repro.store.fits import FitCache
from repro.store.keys import (
    CACHE_FORMAT,
    canonical_json,
    content_key,
    model_key,
    model_payload,
    priors_key,
    report_key,
    shard_key,
    stage1_payload,
    version_salt,
)
from repro.store.store import (
    CACHE_DIR_ENV,
    ResultStore,
    StoreError,
    default_cache_root,
)

__all__ = [
    "CACHE_DIR_ENV",
    "CACHE_FORMAT",
    "FitCache",
    "ResultStore",
    "StoreError",
    "canonical_json",
    "content_key",
    "default_cache_root",
    "model_key",
    "model_payload",
    "priors_key",
    "report_key",
    "shard_key",
    "stage1_payload",
    "version_salt",
]
