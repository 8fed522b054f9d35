"""Canonical cache keys for experiment results.

Every result this library produces is a pure function of its
:class:`~repro.api.config.ExperimentConfig` (two runs of the same config are
bitwise identical), which makes results *content-addressable*: a stable hash
of the config identifies the result.  This module derives those hashes.

Three properties make the keys safe:

* **Canonical serialisation** — :func:`canonical_json` renders a config dict
  with sorted keys, no whitespace and no NaN/Infinity, so dict ordering and
  formatting never change the key.
* **Code-version salt** — every key mixes in :data:`repro.version.__version__`
  plus a cache-format revision (:data:`CACHE_FORMAT`), so upgrading the
  library (which may legitimately change the numbers) invalidates every old
  entry instead of serving stale results.
* **Scoped shard keys** — whole-report keys (:func:`report_key`) cover the
  *entire* config (any field change → new key), while per-shard keys
  (:func:`shard_key`) cover only the fields that can influence the shard's
  stage-1 payload (:func:`stage1_payload`).  Fields that are documented
  bit-neutral (the execution section: backend and worker count) and fields only
  consumed by the parent-side evaluation protocol (meta-model lists,
  resampling parameters) are excluded — that is what lets a sweep that only
  changes the meta-model reuse every extraction shard.

Timestamps and other provenance never enter a key; they live in the store's
index sidecars (:mod:`repro.store.store`), outside the hashed payload.
"""

from __future__ import annotations

import hashlib
import json
from typing import Dict, Tuple

from repro.version import __version__

#: Revision of the cached payload layout.  Bump when the meaning or encoding
#: of stored payloads changes without a library version bump.
#: Revision 2: stage-1 shard keys gained the network ``dump_root`` field
#: (disk-served softmax dumps determine the extracted payload).
#: Revision 3: logistic meta-models are fitted by damped Newton instead of
#: early-stopped gradient descent; fit and report keys hash the model
#: parameters but not the solver, so older fits and Table I reports are stale.
#: Revision 4: a time-dynamic stage-1 shard holds each sequence's metrics
#: datasets and tracks only (no per-frame segmentations, no tracker), so an
#: older shard would unpickle into the old shape.
CACHE_FORMAT = 4


def version_salt() -> str:
    """The code-version salt mixed into every cache key."""
    return f"repro-{__version__}-fmt{CACHE_FORMAT}"


def canonical_json(payload: object) -> str:
    """Deterministic JSON rendering of a plain payload.

    Sorted keys, compact separators, ASCII-only and ``allow_nan=False`` so
    two semantically equal payloads always render to the identical string
    (NaN would also break the JSON round-trip of stored reports).
    """
    return json.dumps(
        payload, sort_keys=True, separators=(",", ":"), ensure_ascii=True,
        allow_nan=False,
    )


def content_key(tag: str, payload: object) -> str:
    """SHA-256 hex key of a payload under a namespace *tag*.

    The tag keeps differently-shaped payloads (whole reports vs. shards)
    from ever colliding even if their canonical JSON coincided.
    """
    material = "\n".join((version_salt(), tag, canonical_json(payload)))
    return hashlib.sha256(material.encode("ascii")).hexdigest()


def report_key(config_dict: Dict[str, object]) -> str:
    """Cache key of a whole :class:`ExperimentReport`.

    Covers the complete config dict: *any* field change — including
    bit-neutral ones like the execution backend — produces a new key.  That
    is deliberately conservative for the top-level entry point; the
    aggressive reuse happens at shard granularity (:func:`shard_key`).
    """
    return content_key("report", config_dict)


def stage1_payload(config_dict: Dict[str, object]) -> Dict[str, object]:
    """The subset of a config that determines its stage-1 shard payloads.

    Stage 1 is the dataset walk (metric extraction / sequence processing /
    per-sample rule comparison); the evaluation protocols run in the parent
    on the merged result.  Per kind:

    * ``metaseg`` — the extracted :class:`MetricsDataset` depends on the data
      substrate, the network profile (+ overrides) and the segment
      connectivity.  Meta-model and evaluation settings are protocol-side.
    * ``timedynamic`` — sequence metrics additionally depend on the reference
      network (pseudo ground truth) and on ``meta_models.feature_group``
      (it selects the base features tracked over time).
    * ``decision`` — per-sample rule results depend on the data substrate,
      the network, the rule list with their strengths, and the category
      (which also determines the priors fitted in the parent).

    The execution section (backend, worker count) is excluded: it is
    bit-neutral by the library-wide contract (enforced by the parity tests
    of ``tests/test_api_execution.py``).
    """
    kind = config_dict["kind"]
    network = config_dict["network"]
    payload: Dict[str, object] = {
        "kind": kind,
        "seed": config_dict["seed"],
        "data": config_dict["data"],
        "network": {
            "profile": network["profile"],
            "overrides": network["overrides"],
            # Which dump tree a disk-served profile reads determines the
            # numbers; the mmap flag does not (bit-neutral access mode).
            "dump_root": network.get("dump_root", ""),
        },
    }
    if kind == "metaseg":
        payload["connectivity"] = config_dict["extraction"]["connectivity"]
    elif kind == "timedynamic":
        payload["network"]["reference_profile"] = network["reference_profile"]
        payload["feature_group"] = config_dict["meta_models"]["feature_group"]
    elif kind == "decision":
        evaluation = config_dict["evaluation"]
        payload["evaluation"] = {
            "rules": evaluation["rules"],
            "strengths": evaluation["strengths"],
            "category": evaluation["category"],
        }
    else:
        raise ValueError(f"unknown experiment kind {kind!r}")
    return payload


def shard_key(config_dict: Dict[str, object], start: int, stop: int) -> str:
    """Cache key of one stage-1 shard: (stage-1 config subset, index range)."""
    index_range: Tuple[int, int] = (int(start), int(stop))
    return content_key(
        "shard", {"stage1": stage1_payload(config_dict), "range": index_range}
    )


def model_payload(config_dict: Dict[str, object]) -> Dict[str, object]:
    """The subset of a metaseg config that determines a fitted serving model.

    ``Runner.fit`` trains the *first* registered classifier/regressor of the
    config on the full extracted dataset, so the model identity is the
    stage-1 payload (what was extracted) plus the fit-side fields (which
    families and penalties were trained).  Protocol-only fields (``n_runs``,
    ``train_fraction``, execution backend) are excluded: they cannot change
    the fitted artifact.
    """
    if config_dict["kind"] != "metaseg":
        raise ValueError(
            f"fitted serving models require kind 'metaseg', got {config_dict['kind']!r}"
        )
    meta = config_dict["meta_models"]
    return {
        "stage1": stage1_payload(config_dict),
        "fit": {
            "classifier": meta["classifiers"][0],
            "regressor": meta["regressors"][0],
            "classification_penalty": meta["classification_penalty"],
            "regression_penalty": meta["regression_penalty"],
            "feature_group": meta["feature_group"],
            "model_params": meta["model_params"],
        },
    }


def model_key(config_dict: Dict[str, object]) -> str:
    """Cache key of a fitted serving model (:class:`repro.api.fitted.FittedModel`)."""
    return content_key("model", model_payload(config_dict))


def priors_key(config_dict: Dict[str, object]) -> str:
    """Cache key of the fitted decision priors of a decision config.

    The prior estimator consumes only the training *labels*, so the key
    deliberately excludes the rule list, strengths and category: a sweep over
    decision rules on a fixed data substrate reuses one priors fit.  The
    network section is still included (conservative: it travels with the data
    substrate in the resolved experiment).
    """
    if config_dict["kind"] != "decision":
        raise ValueError(
            f"priors keys require kind 'decision', got {config_dict['kind']!r}"
        )
    network = config_dict["network"]
    return content_key(
        "priors",
        {
            "kind": "decision",
            "seed": config_dict["seed"],
            "data": config_dict["data"],
            "network": {
                "profile": network["profile"],
                "overrides": network["overrides"],
                "dump_root": network.get("dump_root", ""),
            },
        },
    )
