"""Tests for the content-addressed result store (repro.store).

Covers the canonical hashing layer (key stability and sensitivity, version
salting, stage-1 scoping), the filesystem store (atomic round trips,
eviction, self-healing on corrupted or truncated entries) and the cache
integration (whole-report memoisation in the Runner, per-shard caching in
the process backend) — including the headline contract: cached results are
bitwise identical to freshly computed ones, for all three experiment kinds.
"""

import copy
import itertools
import json
import os
import time
from pathlib import Path

import numpy as np
import pytest

from repro.api.config import (
    DataConfig,
    EvalConfig,
    ExecutionConfig,
    ExperimentConfig,
    MetaModelConfig,
)
from repro.api.kinds import KINDS
from repro.api.runner import Runner
from repro.obs import METRICS
from repro.store import (
    FitCache,
    ResultStore,
    StoreError,
    canonical_json,
    default_cache_root,
    model_key,
    priors_key,
    report_key,
    shard_key,
    stage1_payload,
)
from repro.store import keys as store_keys

TINY_HEIGHT = 48
TINY_WIDTH = 96


def metaseg_config(seed: int = 5, **eval_kwargs) -> ExperimentConfig:
    return ExperimentConfig(
        kind="metaseg",
        name="store-tiny",
        seed=seed,
        data=DataConfig(dataset="cityscapes_like", n_val=4,
                        height=TINY_HEIGHT, width=TINY_WIDTH),
        evaluation=EvalConfig(n_runs=2, **eval_kwargs),
    )


def timedynamic_config(seed: int = 5) -> ExperimentConfig:
    return ExperimentConfig(
        kind="timedynamic",
        seed=seed,
        data=DataConfig(dataset="kitti_like", n_sequences=2, n_frames=6,
                        labeled_stride=2, height=TINY_HEIGHT, width=TINY_WIDTH),
        meta_models=MetaModelConfig(
            classifiers=["gradient_boosting"],
            regressors=["gradient_boosting"],
            classification_penalty=1e-3,
            regression_penalty=1e-3,
            model_params={"gradient_boosting": {"n_estimators": 8, "max_depth": 2,
                                                "max_features": "sqrt"}},
        ),
        evaluation=EvalConfig(n_runs=1, n_frames_list=[0, 1], compositions=["R"]),
    )


def decision_config(seed: int = 5) -> ExperimentConfig:
    return ExperimentConfig(
        kind="decision",
        seed=seed,
        data=DataConfig(dataset="cityscapes_like", n_train=4, n_val=3,
                        height=TINY_HEIGHT, width=TINY_WIDTH),
        evaluation=EvalConfig(rules=["bayes", "ml"]),
    )


# ---------------------------------------------------------------- keys layer


class TestCanonicalKeys:
    def test_canonical_json_is_order_independent(self):
        a = {"b": [1, 2], "a": {"y": 1.5, "x": None}}
        b = {"a": {"x": None, "y": 1.5}, "b": [1, 2]}
        assert canonical_json(a) == canonical_json(b)

    def test_canonical_json_rejects_nan(self):
        with pytest.raises(ValueError):
            canonical_json({"x": float("nan")})

    def test_report_key_stable_across_dict_reordering(self):
        config = metaseg_config().to_dict()
        reordered = json.loads(json.dumps(config, sort_keys=True))
        shuffled = dict(reversed(list(reordered.items())))
        assert report_key(config) == report_key(shuffled)

    def test_report_key_changes_for_any_field(self):
        base = metaseg_config().to_dict()
        keys = {report_key(base)}
        mutations = [
            ("seed", 6),
            ("name", "other"),
            ("kind", "decision"),
            (("data", "n_val"), 5),
            (("data", "height"), 64),
            (("network", "profile"), "xception65"),
            (("extraction", "connectivity"), 4),
            (("execution", "backend"), "process"),
            (("execution", "backend"), "thread"),
            (("execution", "workers"), 2),
            (("meta_models", "classifiers"), ["gradient_boosting"]),
            (("meta_models", "classification_penalty"), 2.0),
            (("evaluation", "n_runs"), 3),
            (("evaluation", "train_fraction"), 0.7),
        ]
        for field, value in mutations:
            mutated = copy.deepcopy(base)
            if isinstance(field, tuple):
                mutated[field[0]][field[1]] = value
            else:
                mutated[field] = value
            keys.add(report_key(mutated))
        assert len(keys) == len(mutations) + 1

    def test_version_salt_invalidates_keys(self, monkeypatch):
        config = metaseg_config().to_dict()
        before = report_key(config)
        monkeypatch.setattr(store_keys, "__version__", "999.0.0")
        assert report_key(config) != before

    def test_cache_format_invalidates_keys(self, monkeypatch):
        config = metaseg_config().to_dict()
        before = report_key(config)
        monkeypatch.setattr(store_keys, "CACHE_FORMAT", store_keys.CACHE_FORMAT + 1)
        assert report_key(config) != before


#: Keys of the checked-in ``examples/configs/*_small.json`` configs.  A
#: refactor must not move them (that would silently invalidate every store);
#: an intentional ``CACHE_FORMAT`` or library version bump updates them in
#: the same change.
PINNED_KEYS = {
    "metaseg_small": {
        "report": "63275a75af6e8d63bcded8a7bdba1ad683aa305d9375cb20b7e8cc9c0dbf16c8",
        "shard": "8ef3654a11d563db8bcc38f44ba5efd935f253ea6ec19537d3f1efbd436220fe",
        "model": "75c6b1db323f52e0fdc474bf3ed8795a56c96c3e6c5f218fe204eb85fd3af4f6",
    },
    "timedynamic_small": {
        "report": "7d323739fb2413e932e167c09e1e7d4ec86b77ebf1d6e574d064cc17e714664b",
        "shard": "04ebbe1bb3a9273645e951246111ce4953f3c69a8e08598157fe1cff7cc08400",
    },
    "decision_small": {
        "report": "aa3b52ee25e58e5b0880a06e8104aaf80304e863f7f12ed75475659fc70ad88a",
        "shard": "b12ddb6ebedbfe224e9212cde659725bb699584bc19efb277ee67e6e0051d9fd",
        "priors": "7417110520778134d7cc7de0f1521abef892619709d88c91d46f8671d9a4ecca",
    },
}


#: Fit keys of the first resampling split, in protocol order: Table I's
#: logistic penalized, unpenalized and entropy-only classifiers, then its
#: linear and entropy-only regressors; Table II's gradient-boosting
#: classifier and regressor (composition R, no previous frames).
PINNED_FIT_KEYS = {
    "metaseg_small": [
        "9673b43e509bf3a0e42df3221a02048733b4ad46c74ee3a7a0a067e36fd3115a",
        "d0106ec096757fad899cdaa56f7d4920b6fa7ab75ec6fb8967fb2db1bd6970e0",
        "2966fab382b8c3d88b6aa79ee00d051a66897123260ad2ceb50a7f6b17a3ecdd",
        "6c908713758683db6fcc4e241657901133e7a9441659286d6d78d07ca367d89b",
        "73cea537cbb95e418839f4728b59e8bb1acbbfcf842330f489d46c1ad7c987bb",
    ],
    "timedynamic_small": [
        "ac05e0401ef24491fca2225db1dc05bb8540a4439a6cabf78685abd2974f81ea",
        "a0f39a7eeb7008698507b50274de1a70964bf1665dcc50b1916e95d5dfd38685",
    ],
}


def example_config(name: str) -> ExperimentConfig:
    path = Path(__file__).resolve().parent.parent / "examples" / "configs" / f"{name}.json"
    return ExperimentConfig.from_json(path.read_text())


def recorded_fit_keys(config: ExperimentConfig, store_dir, monkeypatch) -> list:
    """Every fit key one store-backed run of *config* derives, in order."""
    keys = []
    fit_key = FitCache.fit_key

    def record(cache, model, split):
        keys.append(fit_key(cache, model, split))
        return keys[-1]

    monkeypatch.setattr(FitCache, "fit_key", record)
    Runner(store=ResultStore(store_dir)).run(config)
    return keys


class TestPinnedKeys:
    @pytest.mark.parametrize("name", sorted(PINNED_KEYS))
    def test_example_config_keys_are_pinned(self, name):
        assert store_keys.CACHE_FORMAT == 4
        config = example_config(name).to_dict()
        size = "n_sequences" if config["kind"] == "timedynamic" else "n_val"
        derive = {
            "report": lambda: report_key(config),
            "shard": lambda: shard_key(config, 0, config["data"][size]),
            "model": lambda: model_key(config),
            "priors": lambda: priors_key(config),
        }
        pinned = PINNED_KEYS[name]
        assert {role: derive[role]() for role in pinned} == pinned

    @pytest.mark.parametrize("name", sorted(PINNED_FIT_KEYS))
    def test_example_config_fit_keys_are_pinned(self, name, tmp_path, monkeypatch):
        pinned = PINNED_FIT_KEYS[name]
        keys = recorded_fit_keys(example_config(name), tmp_path, monkeypatch)
        assert keys[:len(pinned)] == pinned

    def test_table1_boosting_variants_share_one_fit(self, tmp_path, monkeypatch):
        """Gradient boosting has no penalty, so its penalized and unpenalized
        Table I rows are one fit under one key."""
        config = example_config("metaseg_small")
        config.meta_models.classifiers = ["gradient_boosting"]
        config.evaluation.n_runs = 1
        penalized, unpenalized = recorded_fit_keys(config, tmp_path, monkeypatch)[:2]
        assert penalized == unpenalized


class TestStage1Scoping:
    """Shard keys cover exactly the fields that can influence the shard."""

    def test_metaseg_ignores_protocol_side_fields(self):
        base = metaseg_config().to_dict()
        key = shard_key(base, 0, 2)
        for mutate in (
            lambda d: d["meta_models"].update(classifiers=["gradient_boosting"]),
            lambda d: d["meta_models"].update(classification_penalty=9.0),
            lambda d: d["evaluation"].update(n_runs=7),
            lambda d: d["execution"].update(backend="process", workers=8),
            lambda d: d["execution"].update(backend="thread", workers=3),
            lambda d: d.update(name="renamed"),
        ):
            mutated = copy.deepcopy(base)
            mutate(mutated)
            assert shard_key(mutated, 0, 2) == key

    def test_metaseg_tracks_stage1_fields(self):
        base = metaseg_config().to_dict()
        key = shard_key(base, 0, 2)
        for mutate in (
            lambda d: d.update(seed=6),
            lambda d: d["data"].update(n_val=5),
            lambda d: d["network"].update(profile="xception65"),
            lambda d: d["network"].update(overrides={"noise_scale": 0.5}),
            lambda d: d["extraction"].update(connectivity=4),
        ):
            mutated = copy.deepcopy(base)
            mutate(mutated)
            assert shard_key(mutated, 0, 2) != key

    def test_shard_key_tracks_index_range(self):
        base = metaseg_config().to_dict()
        assert shard_key(base, 0, 2) != shard_key(base, 2, 4)
        assert shard_key(base, 0, 2) != shard_key(base, 0, 3)

    def test_timedynamic_tracks_reference_network_and_feature_group(self):
        base = timedynamic_config().to_dict()
        key = shard_key(base, 0, 1)
        ref = copy.deepcopy(base)
        ref["network"]["reference_profile"] = "generic"
        assert shard_key(ref, 0, 1) != key
        group = copy.deepcopy(base)
        group["meta_models"]["feature_group"] = "entropy_only"
        assert shard_key(group, 0, 1) != key
        protocol = copy.deepcopy(base)
        protocol["evaluation"]["n_frames_list"] = [0, 1, 2]
        protocol["meta_models"]["classifiers"] = ["neural_network"]
        assert shard_key(protocol, 0, 1) == key

    def test_decision_tracks_rules_strengths_category(self):
        base = decision_config().to_dict()
        key = shard_key(base, 0, 2)
        for mutate in (
            lambda d: d["evaluation"].update(rules=["bayes"]),
            lambda d: d["evaluation"].update(strengths={"interpolated": 0.5}),
            lambda d: d["evaluation"].update(category="car"),
        ):
            mutated = copy.deepcopy(base)
            mutate(mutated)
            assert shard_key(mutated, 0, 2) != key
        protocol = copy.deepcopy(base)
        protocol["meta_models"]["classifiers"] = ["gradient_boosting"]
        protocol["evaluation"]["n_runs"] = 9
        assert shard_key(protocol, 0, 2) == key

    def test_unknown_kind_rejected(self):
        base = metaseg_config().to_dict()
        base["kind"] = "mystery"
        with pytest.raises(ValueError, match="mystery"):
            stage1_payload(base)


# --------------------------------------------------------------- store layer


class TestResultStore:
    def test_json_round_trip_and_index(self, tmp_path):
        store = ResultStore(tmp_path)
        key = report_key({"payload": 1})
        assert store.get(key) is None
        store.put(key, {"tables": [1, 2.5, None]}, provenance={"type": "report"})
        assert key in store
        assert store.get(key) == {"tables": [1, 2.5, None]}
        entries = store.entries()
        assert [meta["key"] for meta in entries] == [key]
        assert entries[0]["provenance"] == {"type": "report"}
        assert entries[0]["codec"] == "json"
        assert "created_unix" in entries[0]
        stats = store.stats()
        assert stats["n_entries"] == 1 and stats["payload_bytes"] > 0

    def test_json_payloads_keep_order_and_allow_nan(self, tmp_path):
        """Payloads are not key-canonicalised: order survives, NaN caches."""
        store = ResultStore(tmp_path)
        key = report_key({"payload": "order"})
        store.put(key, {"z": 1, "a": [float("nan"), float("inf")]})
        loaded = store.get(key)
        assert list(loaded) == ["z", "a"]
        assert loaded["a"][0] != loaded["a"][0]  # NaN round-trips
        assert loaded["a"][1] == float("inf")

    def test_clear_reclaims_orphan_files(self, tmp_path):
        """A crash can leave payloads without sidecars; clear() wipes them."""
        store = ResultStore(tmp_path)
        store.put(report_key({"n": 1}), {"n": 1})
        orphan = tmp_path / "objects" / "ab" / ("ab" + "0" * 62 + ".payload")
        orphan.parent.mkdir(parents=True, exist_ok=True)
        orphan.write_bytes(b"stranded")
        assert store.clear() == 1
        assert not (tmp_path / "objects").exists()

    def test_pickle_round_trip_preserves_arrays_bitwise(self, tmp_path):
        store = ResultStore(tmp_path)
        key = report_key({"payload": "pickle"})
        payload = {"values": np.arange(12, dtype=np.float64).reshape(3, 4) / 7.0}
        store.put(key, payload, codec="pickle")
        loaded = store.get(key, codec="pickle")
        np.testing.assert_array_equal(loaded["values"], payload["values"])
        assert loaded["values"].dtype == payload["values"].dtype

    def test_evict_clear_prune(self, tmp_path):
        store = ResultStore(tmp_path)
        keys = [report_key({"n": n}) for n in range(3)]
        for n, key in enumerate(keys):
            store.put(key, {"n": n})
        assert store.evict(keys[0]) is True
        assert store.evict(keys[0]) is False
        assert store.get(keys[0]) is None
        assert store.stats()["n_entries"] == 2
        assert store.prune(max_entries=1) == 1
        assert store.stats()["n_entries"] == 1
        assert store.clear() == 1
        assert store.stats()["n_entries"] == 0

    def test_default_root_honours_env_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "custom"))
        assert default_cache_root() == tmp_path / "custom"
        assert ResultStore().root == tmp_path / "custom"
        monkeypatch.delenv("REPRO_CACHE_DIR")
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
        assert default_cache_root() == tmp_path / "xdg" / "repro"

    def test_rejects_bad_keys_and_codecs(self, tmp_path):
        store = ResultStore(tmp_path)
        with pytest.raises(StoreError):
            store.get("../escape")
        with pytest.raises(StoreError):
            store.put("UPPER", {})
        with pytest.raises(StoreError):
            store.put(report_key({}), {}, codec="msgpack")
        with pytest.raises(StoreError):
            store.prune(max_entries=-1)

    @pytest.mark.parametrize(
        "corruption",
        ["truncate_payload", "tamper_payload", "drop_meta", "garbage_meta"],
    )
    def test_corrupted_entries_fall_back_to_miss(self, tmp_path, corruption):
        store = ResultStore(tmp_path)
        key = report_key({"will": "corrupt"})
        store.put(key, {"rows": list(range(50))})
        payload_path = store._payload_path(key)
        meta_path = store._meta_path(key)
        if corruption == "truncate_payload":
            payload_path.write_bytes(payload_path.read_bytes()[:10])
        elif corruption == "tamper_payload":
            payload_path.write_bytes(b'{"rows": [1]}')
        elif corruption == "drop_meta":
            meta_path.unlink()
        else:
            meta_path.write_text("{not json")
        assert store.get(key) is None
        # The broken entry was evicted, and the key is re-publishable.
        assert key not in store
        store.put(key, {"rows": [2]})
        assert store.get(key) == {"rows": [2]}

    def test_codec_mismatch_is_a_miss(self, tmp_path):
        store = ResultStore(tmp_path)
        key = report_key({"codec": "mismatch"})
        store.put(key, {"x": 1}, codec="json")
        assert store.get(key, codec="pickle") is None


# ------------------------------------------------------- eviction lifecycle


class TestEvictLifecycle:
    """evict() must never leave an orphan payload invisible to the index.

    Regression tests for the partial-delete bug: the sidecar used to be
    unlinked *before* the payload and evict() returned True if *any* file
    was removed — so a payload unlink failure left bytes on disk that no
    entries()/prune()/evict() call could ever see again.
    """

    def _entry(self, store):
        key = report_key({"evict": "lifecycle"})
        store.put(key, {"rows": list(range(10))})
        return key

    def test_payload_unlink_failure_keeps_entry_visible(self, tmp_path, monkeypatch):
        store = ResultStore(tmp_path)
        key = self._entry(store)
        real_unlink = Path.unlink

        def failing_unlink(self, *args, **kwargs):
            if self.name.endswith(".payload"):
                raise PermissionError(f"unlink blocked: {self}")
            return real_unlink(self, *args, **kwargs)

        monkeypatch.setattr(Path, "unlink", failing_unlink)
        assert store.evict(key) is False
        monkeypatch.undo()
        # Both files survive: the entry is still indexed and retryable.
        assert key in store
        assert [meta["key"] for meta in store.entries()] == [key]
        assert store.get(key) == {"rows": list(range(10))}
        assert store.evict(key) is True
        assert store.entries() == []

    def test_sidecar_unlink_failure_returns_false_but_entry_self_heals(
        self, tmp_path, monkeypatch
    ):
        store = ResultStore(tmp_path)
        key = self._entry(store)
        real_unlink = Path.unlink

        def failing_unlink(self, *args, **kwargs):
            if self.name.endswith(".meta.json"):
                raise PermissionError(f"unlink blocked: {self}")
            return real_unlink(self, *args, **kwargs)

        monkeypatch.setattr(Path, "unlink", failing_unlink)
        assert store.evict(key) is False
        monkeypatch.undo()
        # Payload gone, sidecar left: still visible to the index, and the
        # next get() treats it as a miss and finishes the eviction.
        assert [meta["key"] for meta in store.entries()] == [key]
        assert store.get(key) is None
        assert store.entries() == []

    def test_missing_payload_still_fully_evicts(self, tmp_path):
        store = ResultStore(tmp_path)
        key = self._entry(store)
        store._payload_path(key).unlink()
        assert store.evict(key) is True
        assert not store._meta_path(key).exists()
        assert store.evict(key) is False

    @pytest.mark.skipif(
        os.geteuid() == 0, reason="root bypasses directory write permissions"
    )
    def test_read_only_objects_dir(self, tmp_path):
        store = ResultStore(tmp_path)
        key = self._entry(store)
        bucket = store._payload_path(key).parent
        bucket.chmod(0o555)
        try:
            assert store.evict(key) is False
            assert key in store
        finally:
            bucket.chmod(0o755)
        assert store.evict(key) is True


# ------------------------------------------------------------- LRU pruning


class TestPruneLRU:
    """prune() evicts by recency of *use*, not order of creation.

    Regression tests for the FIFO-masquerading-as-LRU bug: get() never
    recorded an access, and prune() sorted by created_unix — so the hottest
    entries (the oldest, most re-used ones) were evicted first.
    """

    @pytest.fixture
    def clock(self, monkeypatch):
        from repro.store import store as store_module

        ticks = itertools.count(start=1_000.0, step=1.0)
        monkeypatch.setattr(store_module.time, "time", lambda: next(ticks))

    def test_hit_stamps_last_access_atomically(self, tmp_path, clock):
        store = ResultStore(tmp_path)
        key = report_key({"lru": "stamp"})
        store.put(key, {"x": 1})
        (entry,) = store.entries()
        assert "last_access_unix" not in entry
        assert store.get(key) == {"x": 1}
        (entry,) = store.entries()
        assert entry["last_access_unix"] > entry["created_unix"]
        # Monotonic: a later hit moves the stamp forward.
        first_access = entry["last_access_unix"]
        store.get(key)
        (entry,) = store.entries()
        assert entry["last_access_unix"] > first_access

    def test_prune_keeps_hot_old_entry(self, tmp_path, clock):
        store = ResultStore(tmp_path)
        keys = [report_key({"n": n}) for n in range(3)]
        for n, key in enumerate(keys):
            store.put(key, {"n": n})
        # The *oldest* entry is the hottest: re-read after the others exist.
        assert store.get(keys[0]) == {"n": 0}
        assert store.prune(max_entries=2) == 1
        kept = {meta["key"] for meta in store.entries()}
        # FIFO would have evicted keys[0]; LRU evicts the never-read keys[1].
        assert kept == {keys[0], keys[2]}

    def test_prune_tie_breaks_on_creation_for_unread_entries(self, tmp_path, clock):
        store = ResultStore(tmp_path)
        keys = [report_key({"n": n}) for n in range(3)]
        for n, key in enumerate(keys):
            store.put(key, {"n": n})
        assert store.prune(max_entries=1) == 2
        assert [meta["key"] for meta in store.entries()] == [keys[2]]

    def test_prune_requires_a_bound(self, tmp_path):
        store = ResultStore(tmp_path)
        with pytest.raises(StoreError, match="max_entries and/or max_bytes"):
            store.prune()

    def test_prune_by_max_bytes(self, tmp_path, clock):
        store = ResultStore(tmp_path)
        keys = [report_key({"n": n}) for n in range(4)]
        for n, key in enumerate(keys):
            store.put(key, {"n": n, "pad": "x" * 100})
        per_entry = store.stats()["payload_bytes"] // 4
        # Keep roughly two entries' worth of bytes: the two oldest go.
        removed = store.prune(max_bytes=per_entry * 2)
        assert removed == 2
        assert store.stats()["payload_bytes"] <= per_entry * 2
        assert {meta["key"] for meta in store.entries()} == {keys[2], keys[3]}

    def test_prune_both_bounds_applies_the_tighter(self, tmp_path, clock):
        store = ResultStore(tmp_path)
        keys = [report_key({"n": n}) for n in range(4)]
        for n, key in enumerate(keys):
            store.put(key, {"n": n, "pad": "x" * 100})
        total = store.stats()["payload_bytes"]
        # max_bytes admits all four; max_entries=1 is the binding constraint.
        assert store.prune(max_entries=1, max_bytes=total) == 3
        assert [meta["key"] for meta in store.entries()] == [keys[3]]

    def test_prune_zero_entries_clears_everything(self, tmp_path):
        store = ResultStore(tmp_path)
        for n in range(3):
            store.put(report_key({"n": n}), {"n": n})
        assert store.prune(max_entries=0) == 3
        assert store.stats()["n_entries"] == 0

    def test_touch_failure_never_breaks_a_hit(self, tmp_path, monkeypatch):
        store = ResultStore(tmp_path)
        key = report_key({"lru": "best-effort"})
        store.put(key, {"x": 2})
        from repro.store import store as store_module

        def failing_write(path, data):
            raise OSError("read-only cache")

        monkeypatch.setattr(store_module, "_atomic_write_bytes", failing_write)
        assert store.get(key) == {"x": 2}
        (entry,) = store.entries()
        assert "last_access_unix" not in entry


# ------------------------------------------------------- runner memoisation


class TestRunnerMemoisation:
    def test_metaseg_hit_miss_and_bitwise_parity(self, tmp_path):
        store = ResultStore(tmp_path)
        runner = Runner(store=store)
        config = metaseg_config()
        first = runner.run(config)
        assert first.cache["hit"] is False
        second = runner.run(metaseg_config())
        assert second.cache["hit"] is True
        assert second.cache["key"] == first.cache["key"]
        fresh = Runner().run(metaseg_config())
        assert not fresh.cache
        assert first.to_json() == second.to_json() == fresh.to_json()
        # Cached report rehydrates into a fully usable ExperimentReport —
        # including identical human-readable output (row dict order survives
        # the store round trip).
        assert second.table("classification") == first.table("classification")
        assert second.summary_rows() == first.summary_rows()
        assert second.timings.keys() == {"cache_lookup"}

    def test_config_change_misses(self, tmp_path):
        store = ResultStore(tmp_path)
        runner = Runner(store=store)
        runner.run(metaseg_config())
        changed = runner.run(metaseg_config(seed=6))
        assert changed.cache["hit"] is False
        # Besides the two report entries the store now also holds the
        # per-split meta-model fits of both runs.
        report_entries = [
            meta for meta in store.entries()
            if meta["provenance"].get("type") == "report"
        ]
        assert len(report_entries) == 2

    def test_corrupted_report_entry_recomputes(self, tmp_path):
        store = ResultStore(tmp_path)
        runner = Runner(store=store)
        first = runner.run(metaseg_config())
        key = first.cache["key"]
        store._payload_path(key).write_bytes(b"{broken")
        again = runner.run(metaseg_config())
        assert again.cache["hit"] is False
        assert again.to_json() == first.to_json()
        assert runner.run(metaseg_config()).cache["hit"] is True

    def test_timedynamic_and_decision_parity(self, tmp_path):
        """Cached reports are bitwise identical for the other two kinds."""
        store = ResultStore(tmp_path)
        runner = Runner(store=store)
        for make in (timedynamic_config, decision_config):
            first = runner.run(make())
            cached = runner.run(make())
            assert first.cache["hit"] is False
            assert cached.cache["hit"] is True
            assert first.to_json() == cached.to_json()


# ------------------------------------------------------- shard-level caching


class TestShardCache:
    def _process_config(self, **meta_kwargs) -> ExperimentConfig:
        return ExperimentConfig(
            kind="metaseg",
            seed=5,
            data=DataConfig(dataset="cityscapes_like", n_val=4,
                            height=TINY_HEIGHT, width=TINY_WIDTH),
            execution=ExecutionConfig(backend="process", workers=2),
            meta_models=MetaModelConfig(**meta_kwargs),
            evaluation=EvalConfig(n_runs=2),
        )

    def test_meta_model_change_reuses_every_shard(self, tmp_path):
        store = ResultStore(tmp_path)
        runner = Runner(store=store)
        cold = runner.run(self._process_config())
        assert cold.cache["hit"] is False
        assert cold.cache["shards"] == {"hits": 0, "misses": 2}
        # Protocol-side change: new report key, but both shards are served
        # from the store — extraction is never recomputed.
        swept = runner.run(self._process_config(classification_penalty=3.0))
        assert swept.cache["hit"] is False
        assert swept.cache["shards"] == {"hits": 2, "misses": 0}
        fresh = Runner().run(self._process_config(classification_penalty=3.0))
        assert swept.to_json() == fresh.to_json()

    def test_corrupted_shard_entry_recomputes(self, tmp_path):
        store = ResultStore(tmp_path)
        runner = Runner(store=store)
        runner.run(self._process_config())
        shard_keys = [
            meta["key"] for meta in store.entries()
            if meta["provenance"].get("type") == "shard"
        ]
        assert len(shard_keys) == 2
        store._payload_path(shard_keys[0]).write_bytes(b"\x80truncated")
        swept = runner.run(self._process_config(classification_penalty=3.0))
        assert swept.cache["shards"] == {"hits": 1, "misses": 1}
        fresh = Runner().run(self._process_config(classification_penalty=3.0))
        assert swept.to_json() == fresh.to_json()


# ------------------------------------------------- get/evict race (TOCTOU)


class TestTouchEvictRace:
    """get() must not resurrect an entry a concurrent evict just removed.

    Regression tests for the TOCTOU between get()'s payload read and the
    last-access stamp: _touch() used to rewrite the sidecar unconditionally,
    so an evict/prune landing in that window left a ghost sidecar with no
    payload behind it — visible to entries(), un-evictable, and counted by
    stats() forever.
    """

    def _entry(self, store):
        key = report_key({"race": "touch-evict"})
        store.put(key, {"rows": list(range(8))})
        return key

    def test_evict_between_read_and_touch_leaves_no_ghost(self, tmp_path):
        import threading

        touch_entered = threading.Event()
        evict_done = threading.Event()

        class HookedStore(ResultStore):
            def _touch(self, key, meta):
                touch_entered.set()
                assert evict_done.wait(10.0), "evictor thread never ran"
                super()._touch(key, meta)

        store = HookedStore(tmp_path)
        key = self._entry(store)

        def evictor():
            touch_entered.wait(10.0)
            assert ResultStore(tmp_path).evict(key) is True
            evict_done.set()

        thread = threading.Thread(target=evictor)
        thread.start()
        try:
            # The reader still gets its value (payload was read before the
            # race) — the eviction must win the *index*, not the response.
            assert store.get(key) == {"rows": list(range(8))}
        finally:
            thread.join(timeout=10.0)
        assert key not in store
        assert store.entries() == []
        assert store.get(key) is None
        assert store.stats()["n_entries"] == 0

    def test_evict_between_exists_check_and_write_is_undone(
        self, tmp_path, monkeypatch
    ):
        """The narrower window: evict lands after _touch's payload check."""
        from repro.store import store as store_module

        store = ResultStore(tmp_path)
        key = self._entry(store)
        real_write = store_module._atomic_write_bytes
        sidecar = store._meta_path(key)

        def racing_write(path, data):
            if path == sidecar:
                ResultStore(tmp_path).evict(key)
            return real_write(path, data)

        monkeypatch.setattr(store_module, "_atomic_write_bytes", racing_write)
        assert store.get(key) == {"rows": list(range(8))}
        monkeypatch.undo()
        assert store.entries() == []
        assert key not in store


# ---------------------------------------------------- single-flight locking


class TestSingleFlight:
    def test_n_concurrent_callers_one_compute(self, tmp_path):
        import threading

        store = ResultStore(tmp_path)
        key = report_key({"singleflight": "threads"})
        calls = []
        calls_lock = threading.Lock()

        def compute():
            with calls_lock:
                calls.append(1)
            time.sleep(0.3)  # hold the lock long enough for all waiters
            return {"value": 42}

        results = [None] * 8
        def call(slot):
            (results[slot],), _ = store.get_or_compute(
                [key], lambda indices: [compute()], timeout=30.0
            )

        threads = [
            threading.Thread(target=call, args=(slot,)) for slot in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30.0)
        assert results == [{"value": 42}] * 8
        assert len(calls) == 1, f"expected one compute, got {len(calls)}"
        assert store.get(key) == {"value": 42}
        assert not store._lock_path(key).exists()

    def test_stale_lock_of_dead_producer_is_broken(self, tmp_path):
        import multiprocessing

        # A real pid that no longer exists: a child that already exited.
        child = multiprocessing.get_context("fork").Process(target=lambda: None)
        child.start()
        child.join(timeout=10.0)
        store = ResultStore(tmp_path)
        key = report_key({"singleflight": "stale"})
        lock_path = store._lock_path(key)
        lock_path.parent.mkdir(parents=True, exist_ok=True)
        lock_path.write_text(json.dumps({"pid": child.pid, "created_unix": 0}))
        assert store.try_claim(key) is True  # broke the dead claim
        assert store.release(key) is True

    def test_live_lock_blocks_claim_and_times_out_waiters(self, tmp_path):
        store = ResultStore(tmp_path)
        key = report_key({"singleflight": "live"})
        assert store.try_claim(key) is True
        try:
            assert store.try_claim(key) is False  # our own live claim holds
            assert store.wait_for(key, timeout=0.3, poll=0.02) is None
        finally:
            assert store.release(key) is True
        assert store.release(key) is False  # idempotent

    def test_waiter_rescues_when_producer_never_publishes(self, tmp_path):
        store = ResultStore(tmp_path)
        key = report_key({"singleflight": "rescue"})
        assert store.try_claim(key) is True  # a producer that never publishes
        try:
            (value,), (hit,) = store.get_or_compute(
                [key], lambda indices: [{"rescued": True}], timeout=0.3
            )
        finally:
            store.release(key)
        assert value == {"rescued": True}
        assert hit is False
        assert store.get(key) == {"rescued": True}

    def test_publish_then_release_is_seen_by_waiters(self, tmp_path):
        store = ResultStore(tmp_path)
        key = report_key({"singleflight": "published"})
        assert store.try_claim(key) is True
        store.put(key, {"done": 1})
        store.release(key)
        assert store.wait_for(key, timeout=5.0) == {"done": 1}
        # And get_or_compute never calls compute for a published key.
        sentinel = []
        (value,), (hit,) = store.get_or_compute(
            [key], lambda indices: sentinel.append(1) or [{"recomputed": True}]
        )
        assert value == {"done": 1}
        assert hit is True
        assert sentinel == []

    def test_failed_compute_releases_the_lock(self, tmp_path):
        store = ResultStore(tmp_path)
        key = report_key({"singleflight": "failure"})
        with pytest.raises(RuntimeError, match="compute exploded"):
            store.get_or_compute(
                [key],
                lambda indices: (_ for _ in ()).throw(RuntimeError("compute exploded")),
            )
        # The claim was released on the way out: the key is retryable.
        assert store.try_claim(key) is True
        store.release(key)
        assert store.get_or_compute([key], lambda indices: [{"ok": 1}]) == (
            [{"ok": 1}], [False]
        )

    def test_plain_miss_never_evicts(self, tmp_path, monkeypatch):
        """A missing-entry miss must not call evict: a get that read the
        pre-publish state would otherwise destroy a concurrent put's fresh
        entry (the sidecar is the commit marker — nothing to clean up)."""
        store = ResultStore(tmp_path)
        key = report_key({"singleflight": "plain-miss"})
        evictions = []
        monkeypatch.setattr(
            store, "evict", lambda k: evictions.append(k) or True
        )
        assert store.get(key) is None
        assert evictions == []
        # Corrupt *committed* entries still self-heal through eviction.
        store.put(key, {"value": 1})
        store._payload_path(key).write_bytes(b"garbage")
        assert store.get(key) is None
        assert evictions == [key]

    def test_instant_compute_hammering_one_compute_per_round(self, tmp_path):
        """Single-flight with an instant compute: the put lands inside the
        tiny window between a racer's first miss and its claim, which used
        to let the miss path evict the freshly published entry and force a
        second compute.  Many short rounds make that window hot."""
        import threading

        store = ResultStore(tmp_path)
        for round_index in range(20):
            key = report_key({"singleflight": "instant", "round": round_index})
            calls = []
            calls_lock = threading.Lock()

            def compute():
                with calls_lock:
                    calls.append(1)
                return {"round": round_index}

            results = [None] * 4
            def call(slot):
                (results[slot],), _ = store.get_or_compute(
                    [key], lambda indices: [compute()], timeout=30.0
                )

            threads = [
                threading.Thread(target=call, args=(slot,)) for slot in range(4)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30.0)
            assert results == [{"round": round_index}] * 4
            assert len(calls) == 1, (
                f"round {round_index}: expected one compute, got {len(calls)}"
            )

    def test_batch_computes_unclaimed_keys_once_then_rescues(self, tmp_path):
        store = ResultStore(tmp_path)
        keys = [report_key({"singleflight": "batch", "n": n}) for n in range(2)]
        assert store.try_claim(keys[0]) is True  # a producer that never publishes
        calls = []

        def compute(indices):
            calls.append(list(indices))
            return [{"n": index} for index in indices]

        try:
            values, hits = store.get_or_compute(keys, compute, timeout=0.3)
        finally:
            store.release(keys[0])
        assert calls == [[1], [0]]  # the unclaimed key, then the rescue
        assert values == [{"n": 0}, {"n": 1}]
        assert hits == [False, False]
        assert [store.get(key) for key in keys] == values
        assert store.get_or_compute(keys, compute) == (values, [True, True])
        assert calls == [[1], [0]]

    def test_undecodable_payload_is_a_miss_and_overwritten(self, tmp_path):
        store = ResultStore(tmp_path)
        key = report_key({"singleflight": "stale"})
        store.put(key, {"stale": 1})

        def decode(payload):
            return payload["value"]

        values, hits = store.get_or_compute(
            [key], lambda indices: [7], encode=lambda value: {"value": value},
            decode=decode,
        )
        assert (values, hits) == ([7], [False])
        assert store.get(key) == {"value": 7}
        assert store.get_or_compute(
            [key], lambda indices: [8], decode=decode
        ) == ([7], [True])

    def test_unwritable_store_keeps_computed_values(self, tmp_path):
        (tmp_path / "objects").write_text("not a directory")
        store = ResultStore(tmp_path)
        keys = [report_key({"singleflight": "unwritable", "n": n}) for n in range(2)]
        errors = METRICS.counter("store.put.errors")
        before = errors.value
        values, hits = store.get_or_compute(
            keys, lambda indices: [{"n": index} for index in indices]
        )
        assert (values, hits) == ([{"n": 0}, {"n": 1}], [False, False])
        assert errors.value - before == 2
        assert not any(store._lock_path(key).exists() for key in keys)

    def test_unclaimable_keys_are_computed_in_one_call(self, tmp_path):
        (tmp_path / "locks").write_text("not a directory")
        store = ResultStore(tmp_path)
        keys = [report_key({"singleflight": "unclaimable", "n": n}) for n in range(2)]
        calls = []

        def compute(indices):
            calls.append(list(indices))
            return [{"n": index} for index in indices]

        values, hits = store.get_or_compute(keys, compute, timeout=30.0)
        assert calls == [[0, 1]]
        assert hits == [False, False]
        assert [store.get(key) for key in keys] == values

    def test_clear_removes_lock_residue(self, tmp_path):
        store = ResultStore(tmp_path)
        key = report_key({"singleflight": "clear"})
        store.put(key, {"x": 1})
        assert store.try_claim(report_key({"singleflight": "other"})) is True
        assert store.clear() == 1
        assert not (tmp_path / "locks").exists()
        assert store.try_claim(key) is True
        store.release(key)


# ------------------------------------------------- best-effort memo route


def _unwritable_store(tmp_path) -> ResultStore:
    """A store whose ``objects`` is a regular file: every put fails (also as
    root, unlike a permission bit)."""
    (tmp_path / "objects").write_text("not a directory")
    return ResultStore(tmp_path)


class TestUnwritableStore:
    """An unwritable store still returns the finished run, bitwise."""

    @pytest.mark.parametrize("backend", ["serial", "process"])
    def test_run_returns_the_storeless_report(self, tmp_path, backend):
        config = ExperimentConfig.from_dict({
            **metaseg_config().to_dict(),
            "execution": {"backend": backend, "workers": 2 if backend == "process" else 1},
        })
        errors = METRICS.counter("store.put.errors")
        before = errors.value
        report = Runner(store=_unwritable_store(tmp_path)).run(config)
        assert errors.value > before
        assert report.cache["hit"] is False
        assert report.to_json() == Runner().run(config).to_json()

    def test_fit_returns_the_storeless_model(self, tmp_path):
        errors = METRICS.counter("store.put.errors")
        before = errors.value
        model = Runner(store=_unwritable_store(tmp_path)).fit(metaseg_config())
        assert errors.value > before
        assert model.cache["hit"] is False
        fresh = Runner().fit(metaseg_config())
        assert json.dumps(model.to_state()) == json.dumps(fresh.to_state())


class TestStalePayloads:
    """A decodable but unrecognised payload under a memo key self-heals."""

    def test_stale_report_entry_is_recomputed_and_overwritten(self, tmp_path):
        store = ResultStore(tmp_path)
        key = report_key(metaseg_config().to_dict())
        store.put(key, {"stale": 1})
        report = Runner(store=store).run(metaseg_config())
        assert report.cache["hit"] is False
        assert report.to_json() == Runner().run(metaseg_config()).to_json()
        assert store.get(key) == report.to_dict()
        assert Runner(store=store).run(metaseg_config()).cache["hit"] is True

    def test_stale_model_entry_is_recomputed_and_overwritten(self, tmp_path):
        store = ResultStore(tmp_path)
        key = model_key(metaseg_config().to_dict())
        store.put(key, {"stale": 1})
        model = Runner(store=store).fit(metaseg_config())
        assert model.cache == {"hit": False, "key": key}
        fresh = Runner().fit(metaseg_config())
        assert json.dumps(model.to_state()) == json.dumps(fresh.to_state())
        assert store.get(key) == json.loads(json.dumps(model.to_state()))
        assert Runner(store=store).fit(metaseg_config()).cache["hit"] is True


class TestReportSingleFlight:
    def test_concurrent_runs_walk_stage1_once(self, tmp_path, monkeypatch):
        import threading

        kind = KINDS["metaseg"]
        shard_calls = []
        calls_lock = threading.Lock()

        def counting_shard(*args):
            with calls_lock:
                shard_calls.append(1)
            return kind.shard(*args)

        monkeypatch.setitem(KINDS, "metaseg", kind._replace(shard=counting_shard))
        store = ResultStore(tmp_path)
        reports = [None, None]

        def run(slot):
            reports[slot] = Runner(store=store).run(metaseg_config())

        threads = [threading.Thread(target=run, args=(slot,)) for slot in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120.0)
        assert not any(thread.is_alive() for thread in threads)
        assert len(shard_calls) == 1
        assert sorted(report.cache["hit"] for report in reports) == [False, True]
        assert reports[0].to_json() == reports[1].to_json()
