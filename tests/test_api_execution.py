"""Tests for repro.api.execution: the stage-1 walk, its shards and backends.

The acceptance criterion of the execution layer is absolute: every backend
(``serial`` / ``thread`` / ``process``) at every worker count produces
**bitwise identical** reports on all three experiment kinds.  The parity
tests below follow the fuzz-harness style — seeded cases, exact
(float-equal) table comparison — and the memory test pins the streaming
walk's O(image) claim with ``tracemalloc``.
"""

from __future__ import annotations

import gc
import os
import re
import threading
import time
import tracemalloc

import numpy as np
import pytest

from repro.__main__ import main
from repro.api.config import ConfigError, ExecutionConfig, ExperimentConfig
from repro.api.execution import ProcessBackend, SerialBackend, ThreadBackend, shard_ranges
from repro.api.registry import DATASETS, EXECUTION_BACKENDS, RegistryError
from repro.api.runner import Runner
from repro.core.dataset import MetricsAccumulator, MetricsDataset
from repro.core.pipeline import MetaSegPipeline
from repro.segmentation.datasets import CityscapesLikeDataset
from repro.segmentation.network import SimulatedSegmentationNetwork, mobilenetv2_profile
from repro.segmentation.scene import SceneConfig
from repro.store import ResultStore, shard_key

TINY_HEIGHT = 48
TINY_WIDTH = 96


# --------------------------------------------------------------- workloads --
def metaseg_payload(seed: int) -> dict:
    return {
        "kind": "metaseg", "seed": seed,
        "data": {"dataset": "cityscapes_like", "n_val": 5,
                 "height": TINY_HEIGHT, "width": TINY_WIDTH},
        "evaluation": {"n_runs": 2},
    }


def timedynamic_payload(seed: int) -> dict:
    return {
        "kind": "timedynamic", "seed": seed,
        "data": {"dataset": "kitti_like", "n_sequences": 2, "n_frames": 5,
                 "labeled_stride": 2, "height": TINY_HEIGHT, "width": TINY_WIDTH},
        "meta_models": {
            "classifiers": ["gradient_boosting"],
            "regressors": ["gradient_boosting"],
            "model_params": {"gradient_boosting": {"n_estimators": 4, "max_depth": 2}},
        },
        "evaluation": {"n_runs": 1, "n_frames_list": [0, 1], "compositions": ["R"]},
    }


def decision_payload(seed: int) -> dict:
    return {
        "kind": "decision", "seed": seed,
        "data": {"dataset": "cityscapes_like", "n_train": 4, "n_val": 4,
                 "height": TINY_HEIGHT, "width": TINY_WIDTH},
    }


PAYLOADS = {
    "metaseg": metaseg_payload,
    "timedynamic": timedynamic_payload,
    "decision": decision_payload,
}

#: Execution-section variants that must all be bitwise identical to serial.
VARIANTS = (
    {"backend": "thread", "workers": 2},
    {"backend": "thread", "workers": 3},
    {"backend": "process", "workers": 2},
)


def run_with_execution(payload: dict, execution: dict):
    config = ExperimentConfig.from_dict({**payload, "execution": execution})
    return Runner().run(config)


def assert_reports_identical(left, right, context: str):
    assert left.tables == right.tables, f"{context}: tables differ"
    assert left.provenance == right.provenance, f"{context}: provenance differs"


# ------------------------------------------------------------ shard_ranges --
class TestShardRanges:
    def test_balanced_split(self):
        assert shard_ranges(10, 4) == [(0, 3), (3, 6), (6, 8), (8, 10)]

    def test_more_shards_than_items(self):
        assert shard_ranges(2, 8) == [(0, 1), (1, 2)]

    def test_single_shard(self):
        assert shard_ranges(5, 1) == [(0, 5)]

    def test_zero_items(self):
        assert shard_ranges(0, 4) == []

    def test_ranges_are_contiguous_and_complete(self):
        for n_items in (1, 7, 16, 33):
            for n_shards in (1, 2, 3, 5, 50):
                ranges = shard_ranges(n_items, n_shards)
                covered = [i for start, stop in ranges for i in range(start, stop)]
                assert covered == list(range(n_items))
                assert all(stop > start for start, stop in ranges)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            shard_ranges(-1, 2)
        with pytest.raises(ValueError):
            shard_ranges(4, 0)


# ----------------------------------------------------------------- parity --
@pytest.fixture(scope="module")
def serial_reports():
    """Serial-backend reference reports, one per experiment kind (seed 3)."""
    return {
        kind: Runner().run(ExperimentConfig.from_dict(make(3)))
        for kind, make in PAYLOADS.items()
    }


class TestBackendParity:
    """process / thread == serial, bitwise, on all three kinds."""

    @pytest.mark.parametrize("execution", VARIANTS, ids=lambda e: "-".join(
        f"{k}={v}" for k, v in e.items()))
    @pytest.mark.parametrize("kind", sorted(PAYLOADS))
    def test_variant_matches_serial(self, kind, execution, serial_reports):
        report = run_with_execution(PAYLOADS[kind](3), execution)
        assert_reports_identical(report, serial_reports[kind], f"{kind}/{execution}")

    def test_config_echo_reflects_the_variant(self, serial_reports):
        report = run_with_execution(metaseg_payload(3), {"backend": "thread", "workers": 2})
        assert report.config["execution"]["backend"] == "thread"
        assert serial_reports["metaseg"].config["execution"]["backend"] == "serial"

    def test_process_shards_merge_in_index_order(self):
        # 3 shards over 5 images: uneven shard sizes must still merge to the
        # serial image order.
        serial = run_with_execution(metaseg_payload(4), {"backend": "serial"})
        sharded = run_with_execution(
            metaseg_payload(4), {"backend": "process", "workers": 3}
        )
        assert_reports_identical(sharded, serial, "metaseg/3-shards")

    def test_thread_shards_merge_in_index_order(self):
        serial = run_with_execution(metaseg_payload(4), {"backend": "serial"})
        sharded = run_with_execution(
            metaseg_payload(4), {"backend": "thread", "workers": 3}
        )
        assert_reports_identical(sharded, serial, "metaseg/3-thread-shards")


@pytest.mark.fuzz
class TestBackendParityFuzz:
    """Extended seeded sweep (select with ``-m fuzz``, run by scripts/ci.sh).

    The serial reference is the streaming walk every backend shares: one
    inline shard reading items uncached and folding them one at a time.
    """

    @pytest.mark.parametrize("seed", [1, 9, 23])
    @pytest.mark.parametrize("kind", sorted(PAYLOADS))
    def test_seeded_process_and_streaming_parity(self, kind, seed):
        serial = Runner().run(ExperimentConfig.from_dict(PAYLOADS[kind](seed)))
        for execution in (
            {"backend": "process", "workers": 2},
            {"backend": "thread", "workers": 3},
            {"backend": "thread", "workers": 1},
        ):
            report = run_with_execution(PAYLOADS[kind](seed), execution)
            assert_reports_identical(report, serial, f"{kind}/seed{seed}/{execution}")


# ------------------------------------------------------- backend semantics --
class TestBackendSemantics:
    def test_builtin_backends_registered(self):
        assert set(EXECUTION_BACKENDS.available()) == {"serial", "thread", "process"}

    def test_unknown_backend_fails_fast_at_resolve(self):
        config = ExperimentConfig.from_dict(
            {**metaseg_payload(0), "execution": {"backend": "gpu"}}
        )
        with pytest.raises(RegistryError, match="unknown execution_backends entry 'gpu'"):
            Runner().resolve(config)

    def test_workers_zero_and_one_degenerate_to_serial(self, serial_reports):
        for backend in ("thread", "process"):
            for workers in (0, 1):
                report = run_with_execution(
                    metaseg_payload(3), {"backend": backend, "workers": workers}
                )
                assert_reports_identical(
                    report, serial_reports["metaseg"], f"{backend}/workers={workers}"
                )

    def test_backend_factories_honour_worker_contract(self):
        assert SerialBackend(ExecutionConfig(workers=8)).default_workers() == 1
        assert ThreadBackend(ExecutionConfig(workers=3)).default_workers() == 3
        assert ProcessBackend(ExecutionConfig(workers=5)).default_workers() == 5
        assert ThreadBackend(ExecutionConfig()).default_workers() == (os.cpu_count() or 1)
        with pytest.raises(ConfigError, match="execution: workers"):
            SerialBackend(ExecutionConfig(workers=-1))

    def test_explicit_zero_and_one_workers_never_fan_out(self):
        # Explicit 0/1 mean serial — they must NOT fall back to cpu_count.
        for backend_cls in (SerialBackend, ThreadBackend, ProcessBackend):
            for workers in (0, 1):
                assert backend_cls(ExecutionConfig(workers=workers)).default_workers() == 1

    def test_sharded_size_errors_distinguish_capability_from_emptiness(self):
        # A substrate without the index accessors cannot be walked by any
        # backend: that is a resolve-time capability error, distinct from
        # the empty-split errors below.
        class NoIndexAccess:
            def val_samples(self):
                return []

        @DATASETS.register("no_index_access")
        def build_no_index_access(data, seed):
            """A substrate without the index accessors."""
            return NoIndexAccess()

        try:
            payload = metaseg_payload(0)
            payload["data"]["dataset"] = "no_index_access"
            config = ExperimentConfig.from_dict(payload)
            message = (
                "dataset 'no_index_access' does not fit experiment kind 'metaseg': "
                "it lacks n_val, val_sample; this kind needs a single-frame "
                "substrate (Cityscapes-like)"
            )
            with pytest.raises(ValueError, match=re.escape(message)):
                Runner().resolve(config)
        finally:
            DATASETS._entries.pop("no_index_access")

    def test_empty_decision_train_split_is_a_config_error_everywhere(self):
        payload = decision_payload(0)
        payload["data"]["n_train"] = 0
        for execution in ({"backend": "serial"}, {"backend": "thread", "workers": 2},
                          {"backend": "process", "workers": 2}):
            with pytest.raises(ValueError, match="data.n_train >= 1"):
                run_with_execution(payload, execution)

    def test_empty_metaseg_val_split_still_a_clear_error(self):
        payload = metaseg_payload(0)
        payload["data"]["n_val"] = 0
        for execution in ({"backend": "serial"}, {"backend": "process", "workers": 2},
                          {"backend": "thread", "workers": 2}):
            with pytest.raises(ValueError, match="n_val >= 1"):
                run_with_execution(payload, execution)


# ----------------------------------------------------- MetricsAccumulator --
class TestMetricsAccumulator:
    def test_fold_matches_concatenate(self, metaseg_pipeline, cityscapes_like):
        samples = cityscapes_like.val_samples()
        chunks = [
            metaseg_pipeline.extract_dataset(samples[start:start + 2], index_offset=start)
            for start in range(0, len(samples), 2)
        ]
        accumulator = MetricsAccumulator()
        for chunk in chunks:
            accumulator.add(chunk)
        folded = accumulator.result()
        reference = MetricsDataset.concatenate(chunks)
        np.testing.assert_array_equal(folded.features, reference.features)
        np.testing.assert_array_equal(folded.segment_ids, reference.segment_ids)
        np.testing.assert_array_equal(folded.class_ids, reference.class_ids)
        assert list(folded.image_ids) == list(reference.image_ids)
        np.testing.assert_array_equal(folded.target_iou(), reference.target_iou())

    def test_empty_accumulator_rejected(self):
        with pytest.raises(ValueError, match="no chunks"):
            MetricsAccumulator().result()

    def test_mismatched_columns_rejected(self, metrics_dataset):
        accumulator = MetricsAccumulator()
        accumulator.add(metrics_dataset)
        renamed = MetricsDataset(
            features=metrics_dataset.features,
            feature_names=[f"x_{name}" for name in metrics_dataset.feature_names],
            segment_ids=metrics_dataset.segment_ids,
            class_ids=metrics_dataset.class_ids,
            image_ids=metrics_dataset.image_ids,
            iou=metrics_dataset.iou,
        )
        with pytest.raises(ValueError, match="differing feature columns"):
            accumulator.add(renamed)


# ------------------------------------------------------------- peak memory --
class TestStreamingPeakMemory:
    """The streaming walk's O(image) claim, pinned with tracemalloc."""

    N_VAL = 24

    def _workload(self):
        dataset = CityscapesLikeDataset(
            n_train=0, n_val=self.N_VAL,
            scene_config=SceneConfig(height=TINY_HEIGHT, width=TINY_WIDTH),
            random_state=11,
        )
        network = SimulatedSegmentationNetwork(mobilenetv2_profile(), random_state=7)
        return dataset, MetaSegPipeline(network)

    @staticmethod
    def _materialised(dataset, pipeline) -> MetricsDataset:
        """Oracle: the whole sample list, per-image parts, one concatenate."""
        samples = dataset.val_samples()
        parts = [
            pipeline.extractor.extract(
                pipeline.network.predict_probabilities(sample.labels, index=index),
                gt_labels=sample.labels,
                image_id=sample.image_id,
            )
            for index, sample in enumerate(samples)
        ]
        return MetricsDataset.concatenate(parts)

    def test_streaming_peak_below_batched_peak(self):
        # Warm up allocator caches / lazy imports outside the measurement.
        dataset, pipeline = self._workload()
        pipeline.extract_dataset(dataset.val_samples()[:2])

        gc.collect()
        dataset, pipeline = self._workload()
        tracemalloc.start()
        batched = self._materialised(dataset, pipeline)
        peak_batched = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()

        gc.collect()
        dataset, pipeline = self._workload()
        tracemalloc.start()
        streamed = pipeline.extract_dataset(
            dataset.val_sample(index) for index in range(self.N_VAL)
        )
        peak_streaming = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()

        # Same numbers ...
        np.testing.assert_array_equal(streamed.features, batched.features)
        np.testing.assert_array_equal(streamed.target_iou(), batched.target_iou())
        # ... at measurably lower peak memory: the oracle holds the full
        # sample list + per-image parts, the streaming walk one image plus
        # the output buffers.  Gated at 0.95x so allocator/platform variance
        # on the small workload cannot flake the tier-1 suite while a real
        # regression (>= 1x) still fails clearly.
        assert peak_streaming < 0.95 * peak_batched, (
            f"streaming peak {peak_streaming} not below batched peak {peak_batched}"
        )


# -------------------------------------------------------- single flight --
class TestProcessSingleFlight:
    """Concurrent ``process`` runs on one store compute each shard once."""

    def test_process_run_waits_on_a_claimed_shard_then_rescues_it(self, tmp_path):
        payload = {**metaseg_payload(5), "execution": {"backend": "process", "workers": 2}}
        config = ExperimentConfig.from_dict(payload)
        store = ResultStore(tmp_path)
        keys = [shard_key(config.to_dict(), start, stop) for start, stop in shard_ranges(5, 2)]
        # Another producer (this test process) is computing shard 0.
        assert store.try_claim(keys[0])
        outcome = {}

        def run():
            try:
                outcome["report"] = Runner(store=store).run(config)
            except BaseException as exc:  # surfaced by the assertions below
                outcome["error"] = exc

        thread = threading.Thread(target=run)
        released = False
        try:
            thread.start()
            deadline = time.monotonic() + 60.0
            while store.get(keys[1], codec="pickle") is None and thread.is_alive():
                assert time.monotonic() < deadline, "shard 1 was never published"
                time.sleep(0.05)
            time.sleep(0.3)
            # The run computed the unclaimed shard and now waits on ours.
            assert thread.is_alive(), "the run finished without waiting on the claim"
            assert store.get(keys[0], codec="pickle") is None
        finally:
            released = store.release(keys[0])
            thread.join(timeout=120.0)
        assert released
        assert "error" not in outcome, outcome.get("error")
        report = outcome["report"]
        # Released unpublished: the run rescued shard 0 inline.
        assert store.get(keys[0], codec="pickle") is not None
        assert report.cache["shards"] == {"hits": 0, "misses": 2}
        serial = Runner().run(ExperimentConfig.from_dict(metaseg_payload(5)))
        assert_reports_identical(report, serial, "single-flight rescue")


# ------------------------------------------------------------------- CLI --
class TestCliExecutionOverrides:
    def _write(self, tmp_path, payload):
        import json

        path = tmp_path / "config.json"
        path.write_text(json.dumps(payload))
        return path

    def test_backend_and_workers_override_bitwise(self, tmp_path, capsys):
        path = self._write(tmp_path, metaseg_payload(3))
        serial_out = tmp_path / "serial.json"
        sharded_out = tmp_path / "sharded.json"
        assert main(["run", str(path), "--output", str(serial_out)]) == 0
        assert main([
            "run", str(path), "--backend", "process", "--workers", "2",
            "--output", str(sharded_out),
        ]) == 0
        capsys.readouterr()
        import json

        serial = json.loads(serial_out.read_text())
        sharded = json.loads(sharded_out.read_text())
        # Tables and provenance are bitwise equal; only the config echo may
        # differ (it records the requested execution section).
        assert sharded["tables"] == serial["tables"]
        assert sharded["provenance"] == serial["provenance"]
        assert sharded["config"]["execution"]["backend"] == "process"

    def test_no_streaming_overrides_config(self, tmp_path, capsys):
        # Every walk streams: the --streaming/--no-streaming flags are gone,
        # and a config still carrying the key names what replaced it.
        path = self._write(tmp_path, metaseg_payload(3))
        with pytest.raises(SystemExit) as exit_info:
            main(["run", str(path), "--no-streaming"])
        assert exit_info.value.code == 2
        payload = metaseg_payload(3)
        payload["execution"] = {"backend": "serial", "streaming": True}
        path = self._write(tmp_path, payload)
        assert main(["run", str(path)]) == 2
        err = capsys.readouterr().err
        assert "execution: streaming was removed" in err and "drop the key" in err

    def test_removed_queue_backend_exits_2_naming_process(self, tmp_path, capsys):
        path = self._write(tmp_path, metaseg_payload(0))
        sweep_path = tmp_path / "sweep.json"
        sweep_path.write_text(
            '{"name": "s", "base": %s, "grid": {"seed": [0, 1]}}' % path.read_text()
        )
        for argv in (
            ["run", str(path), "--backend", "distributed"],
            ["trace", str(path), "--backend", "distributed",
             "--trace-out", str(tmp_path / "t.json")],
            ["sweep", str(sweep_path), "--no-cache", "--backend", "distributed"],
        ):
            assert main(argv) == 2, argv
            captured = capsys.readouterr()
            lines = captured.err.strip().splitlines()
            assert len(lines) == 1, captured.err
            assert "backend 'distributed' was removed" in lines[0]
            assert "'process'" in lines[0]
            assert captured.out == ""
        payload = {**metaseg_payload(0), "execution": {"backend": "distributed"}}
        assert main(["run", str(self._write(tmp_path, payload))]) == 2
        assert "'process'" in capsys.readouterr().err

    def test_unknown_backend_exits_2(self, tmp_path, capsys):
        path = self._write(tmp_path, metaseg_payload(0))
        assert main(["run", str(path), "--backend", "gpu"]) == 2
        assert "unknown execution_backends entry" in capsys.readouterr().err

    def test_negative_workers_exit_2(self, tmp_path, capsys):
        path = self._write(tmp_path, metaseg_payload(0))
        assert main(["run", str(path), "--workers", "-1"]) == 2
        assert "execution: workers" in capsys.readouterr().err

    def test_override_can_fix_the_overridden_field(self, tmp_path, capsys):
        # A bad config value must be fixable by the CLI flag that owns it.
        payload = metaseg_payload(3)
        payload["execution"] = {"workers": -1}
        path = self._write(tmp_path, payload)
        out = tmp_path / "report.json"
        assert main(["run", str(path), "--workers", "2", "--output", str(out)]) == 0
        capsys.readouterr()
        import json

        assert json.loads(out.read_text())["config"]["execution"]["workers"] == 2

    def test_negative_workers_in_config_exit_2(self, tmp_path, capsys):
        payload = metaseg_payload(0)
        payload["execution"] = {"workers": -2}
        path = self._write(tmp_path, payload)
        assert main(["run", str(path)]) == 2
        err = capsys.readouterr().err
        assert "invalid config" in err and "execution: workers" in err

    def test_unwritable_output_exits_2(self, tmp_path, capsys):
        path = self._write(tmp_path, metaseg_payload(3))
        # The output path collides with an existing directory: mkdir/write
        # must fail with a one-line diagnostic, not a traceback.
        blocked = tmp_path / "blocked"
        blocked.mkdir()
        assert main(["run", str(path), "--output", str(blocked)]) == 2
        assert "cannot write report" in capsys.readouterr().err
