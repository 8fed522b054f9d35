"""Tests for the real-data I/O layer (repro.io).

Covers the dependency-free PNG codec (round trips, all five scanline
filters, named rejection of everything outside the 8-bit-grayscale subset),
the ``cityscapes_disk`` substrate and ``softmax_dump`` adapter (lazy walks,
raw→train remapping, fail-fast ConfigError paths), the memmap serving
contract (a large dump is sliced, never materialised — enforced with a
tracemalloc peak bound), and the headline property: an experiment run
against the committed fixture tree is **bitwise identical** to the
in-memory synthetic run it was generated from — under serial, thread and
process backends, and through the result store.
"""

import json
import shutil
import struct
import tracemalloc
import zlib
from pathlib import Path

import numpy as np
import pytest

from repro.api.config import ConfigError, ExperimentConfig
from repro.api.registry import DATASETS, NETWORK_PROFILES
from repro.api.runner import Runner
from repro.io.cityscapes import CityscapesDiskDataset, discover_frames, raw_to_train_lut
from repro.io.fixture import disk_config_payload, write_disk_fixture
from repro.io.png import PngError, _chunk, _SIGNATURE, read_png_gray8, write_png_gray8
from repro.io.softmax import SoftmaxDumpNetwork
from repro.segmentation.labels import IGNORE_ID, cityscapes_label_space
from repro.store import ResultStore

#: The committed fixture tree and the parameters it was generated with
#: (scripts/make_disk_fixture.py defaults).
FIXTURE_ROOT = Path(__file__).parent / "fixtures" / "disk"
FIXTURE = dict(seed=7, n_train=2, n_val=4, height=32, width=64)


def synthetic_payload(kind: str = "metaseg") -> dict:
    """The in-memory synthetic config the fixture must reproduce bitwise."""
    return {
        "kind": kind,
        "seed": FIXTURE["seed"],
        "data": {
            "dataset": "cityscapes_like",
            "n_train": FIXTURE["n_train"],
            "n_val": FIXTURE["n_val"],
            "height": FIXTURE["height"],
            "width": FIXTURE["width"],
        },
        "network": {"profile": "mobilenetv2"},
        "evaluation": {"n_runs": 4} if kind == "metaseg" else {},
    }


def disk_payload(kind: str = "metaseg", **execution) -> dict:
    """The equivalent config running the committed on-disk fixture."""
    payload = disk_config_payload(FIXTURE_ROOT, kind=kind, seed=FIXTURE["seed"])
    if kind == "metaseg":
        payload["evaluation"] = {"n_runs": 4}
    if execution:
        payload["execution"] = execution
    return payload


def run(payload: dict):
    return Runner().run(ExperimentConfig.from_dict(payload))


def comparable(report) -> tuple:
    """The bitwise-comparable part of a report: tables + provenance.

    The config echo legitimately differs between the synthetic and the disk
    run (different dataset/network names); every number does not.
    """
    serialised = json.loads(report.to_json())
    return serialised["tables"], serialised["provenance"]


# ------------------------------------------------------------------ PNG codec


class TestPngCodec:
    @pytest.mark.parametrize("shape", [(1, 1), (3, 7), (32, 64), (50, 3)])
    def test_round_trip(self, tmp_path, shape):
        rng = np.random.default_rng(hash(shape) % 2**32)
        image = rng.integers(0, 256, size=shape, dtype=np.uint8)
        path = tmp_path / "x.png"
        write_png_gray8(path, image)
        np.testing.assert_array_equal(read_png_gray8(path), image)

    def test_accepts_non_uint8_integers_in_range(self, tmp_path):
        image = np.arange(12, dtype=np.int64).reshape(3, 4)
        write_png_gray8(tmp_path / "x.png", image)
        np.testing.assert_array_equal(read_png_gray8(tmp_path / "x.png"), image)

    def test_rejects_out_of_range_and_bad_shapes(self, tmp_path):
        with pytest.raises(PngError, match="fit uint8"):
            write_png_gray8(tmp_path / "x.png", np.array([[300]]))
        with pytest.raises(PngError, match="2-D"):
            write_png_gray8(tmp_path / "x.png", np.zeros((2, 2, 3), dtype=np.uint8))

    @pytest.mark.parametrize("filter_type", [0, 1, 2, 3, 4])
    def test_decodes_every_scanline_filter(self, tmp_path, filter_type):
        """Files from standard encoders use adaptive filters; all must decode."""
        rng = np.random.default_rng(41 + filter_type)
        image = rng.integers(0, 256, size=(9, 13), dtype=np.uint8)
        height, width = image.shape
        recon = image.astype(np.int64)
        raw = bytearray()
        for y in range(height):
            line = recon[y]
            prior = recon[y - 1] if y > 0 else np.zeros(width, dtype=np.int64)
            left = np.concatenate(([0], line[:-1]))
            upper_left = np.concatenate(([0], prior[:-1]))
            if filter_type == 0:
                filtered = line
            elif filter_type == 1:
                filtered = line - left
            elif filter_type == 2:
                filtered = line - prior
            elif filter_type == 3:
                filtered = line - (left + prior) // 2
            else:  # Paeth
                p = left + prior - upper_left
                pa, pb, pc = abs(p - left), abs(p - prior), abs(p - upper_left)
                predictor = np.where(
                    (pa <= pb) & (pa <= pc), left, np.where(pb <= pc, prior, upper_left)
                )
                filtered = line - predictor
            raw.append(filter_type)
            raw.extend((filtered % 256).astype(np.uint8).tobytes())
        ihdr = struct.pack(">IIBBBBB", width, height, 8, 0, 0, 0, 0)
        path = tmp_path / f"f{filter_type}.png"
        path.write_bytes(
            _SIGNATURE
            + _chunk(b"IHDR", ihdr)
            + _chunk(b"IDAT", zlib.compress(bytes(raw)))
            + _chunk(b"IEND", b"")
        )
        np.testing.assert_array_equal(read_png_gray8(path), image)

    def test_rejects_non_png_truncated_and_unsupported(self, tmp_path):
        not_png = tmp_path / "not.png"
        not_png.write_bytes(b"definitely not a png")
        with pytest.raises(PngError, match="signature"):
            read_png_gray8(not_png)

        good = tmp_path / "good.png"
        write_png_gray8(good, np.zeros((4, 4), dtype=np.uint8))
        truncated = tmp_path / "trunc.png"
        truncated.write_bytes(good.read_bytes()[:-20])
        with pytest.raises(PngError, match="truncated"):
            read_png_gray8(truncated)

        rgb = tmp_path / "rgb.png"
        ihdr = struct.pack(">IIBBBBB", 2, 2, 8, 2, 0, 0, 0)  # color type 2 = RGB
        rgb.write_bytes(
            _SIGNATURE + _chunk(b"IHDR", ihdr)
            + _chunk(b"IDAT", zlib.compress(b"\x00" * 14)) + _chunk(b"IEND", b"")
        )
        with pytest.raises(PngError, match="8-bit grayscale"):
            read_png_gray8(rgb)

        corrupt = tmp_path / "corrupt.png"
        ihdr = struct.pack(">IIBBBBB", 2, 2, 8, 0, 0, 0, 0)
        corrupt.write_bytes(
            _SIGNATURE + _chunk(b"IHDR", ihdr)
            + _chunk(b"IDAT", b"\xff\xfe\xfd") + _chunk(b"IEND", b"")
        )
        with pytest.raises(PngError, match="corrupt"):
            read_png_gray8(corrupt)


# ------------------------------------------------------- raw-id label mapping


class TestRawIdMapping:
    def test_round_trip_through_disk_encoding(self, label_space):
        lut = raw_to_train_lut(label_space)
        train_ids = np.array([IGNORE_ID] + [s.train_id for s in label_space])
        raw = np.array([label_space.train_id_to_raw(t) for t in train_ids])
        np.testing.assert_array_equal(lut[raw], train_ids)

    def test_void_raw_ids_decode_to_ignore(self, label_space):
        lut = raw_to_train_lut(label_space)
        mapped = set(label_space.raw_id_map())
        void = [r for r in range(256) if r not in mapped]
        assert (lut[void] == IGNORE_ID).all()
        assert len(mapped) == label_space.n_classes


# ----------------------------------------------------------- disk substrates


class TestCityscapesDiskDataset:
    def test_walks_committed_fixture(self):
        dataset = CityscapesDiskDataset(FIXTURE_ROOT)
        assert dataset.n_train == FIXTURE["n_train"]
        assert dataset.n_val == FIXTURE["n_val"]
        assert dataset.n_classes == 19
        assert dataset.frame_ids("val") == [f"val_{i:04d}" for i in range(4)]
        sample = dataset.val_sample(0)
        assert sample.image_id == "val_0000"
        assert sample.labels.shape == (FIXTURE["height"], FIXTURE["width"])
        assert sample.labels.min() >= IGNORE_ID and sample.labels.max() < 19

    def test_repeated_access_is_bitwise_equal(self):
        dataset = CityscapesDiskDataset(FIXTURE_ROOT)
        first = dataset.val_sample(2)
        again = dataset.val_sample(2)
        assert again is not first  # decoded afresh: nothing is memoised
        fresh = CityscapesDiskDataset(FIXTURE_ROOT).val_sample(2)
        np.testing.assert_array_equal(first.labels, again.labels)
        np.testing.assert_array_equal(first.labels, fresh.labels)

    def test_label_only_tree_is_accepted(self, tmp_path):
        """A gtFine dump without leftImg8bit images is a valid dataset."""
        shutil.copytree(FIXTURE_ROOT / "gtFine", tmp_path / "gtFine")
        dataset = CityscapesDiskDataset(tmp_path)
        assert dataset.n_val == FIXTURE["n_val"]
        reference = CityscapesDiskDataset(FIXTURE_ROOT)
        np.testing.assert_array_equal(
            dataset.val_sample(1).labels, reference.val_sample(1).labels
        )

    def test_missing_root_and_empty_split_fail_fast(self, tmp_path):
        with pytest.raises(ConfigError, match="does not exist"):
            CityscapesDiskDataset(tmp_path / "nowhere")
        (tmp_path / "gtFine" / "val").mkdir(parents=True)
        with pytest.raises(ConfigError, match="no frames"):
            CityscapesDiskDataset(tmp_path)

    def test_image_without_label_names_the_frame(self, tmp_path):
        shutil.copytree(FIXTURE_ROOT / "leftImg8bit", tmp_path / "leftImg8bit")
        shutil.copytree(FIXTURE_ROOT / "gtFine", tmp_path / "gtFine")
        (tmp_path / "gtFine" / "val" / "val" / "val_0002_gtFine_labelIds.png").unlink()
        with pytest.raises(ConfigError, match="val_0002"):
            CityscapesDiskDataset(tmp_path)

    def test_corrupt_label_map_names_the_frame(self, tmp_path):
        shutil.copytree(FIXTURE_ROOT / "gtFine", tmp_path / "gtFine")
        bad = tmp_path / "gtFine" / "val" / "val" / "val_0001_gtFine_labelIds.png"
        bad.write_bytes(b"garbage")
        dataset = CityscapesDiskDataset(tmp_path)
        with pytest.raises(ConfigError, match="val_0001"):
            dataset.val_sample(1)

    def test_builder_requires_root(self):
        config = ExperimentConfig.from_dict(
            {"kind": "metaseg", "data": {"dataset": "cityscapes_disk"}}
        )
        with pytest.raises(ConfigError, match="data.root"):
            DATASETS.get("cityscapes_disk")(config.data, 0)

    def test_registered(self):
        assert "cityscapes_disk" in DATASETS
        assert "softmax_dump" in NETWORK_PROFILES


class TestSoftmaxDumpNetwork:
    def test_serves_committed_fixture(self):
        network = SoftmaxDumpNetwork(FIXTURE_ROOT / "softmax")
        assert network.profile.name == "mobilenetv2"
        assert network.n_classes == 19
        assert network.frame_ids() == [f"val_{i:04d}" for i in range(4)]
        gt = CityscapesDiskDataset(FIXTURE_ROOT).val_sample(0).labels
        probs = network.predict_probabilities(gt, index=0)
        assert probs.shape == (FIXTURE["height"], FIXTURE["width"], 19)
        assert isinstance(probs, np.memmap)
        np.testing.assert_allclose(np.asarray(probs).sum(axis=2), 1.0, atol=1e-9)

    def test_check_dataset_passes_on_matching_tree(self):
        network = SoftmaxDumpNetwork(FIXTURE_ROOT / "softmax")
        network.check_dataset(CityscapesDiskDataset(FIXTURE_ROOT))

    def test_frame_mismatch_fails_at_check(self, tmp_path):
        dump_root = tmp_path / "softmax"
        shutil.copytree(FIXTURE_ROOT / "softmax", dump_root)
        (dump_root / "val" / "val" / "val_0003_softmax.npy").unlink()
        network = SoftmaxDumpNetwork(dump_root)
        with pytest.raises(ConfigError, match="do not match"):
            network.check_dataset(CityscapesDiskDataset(FIXTURE_ROOT))

    def test_runner_resolve_rejects_frame_mismatch(self, tmp_path):
        dump_root = tmp_path / "softmax"
        shutil.copytree(FIXTURE_ROOT / "softmax", dump_root)
        (dump_root / "val" / "val" / "val_0000_softmax.npy").unlink()
        payload = disk_payload()
        payload["network"]["dump_root"] = str(dump_root)
        with pytest.raises(ConfigError, match="do not match"):
            Runner().resolve(ExperimentConfig.from_dict(payload))

    def test_n_classes_mismatch_fails_fast(self, tmp_path):
        dump_root = tmp_path / "softmax"
        shutil.copytree(FIXTURE_ROOT / "softmax", dump_root)
        manifest = json.loads((dump_root / "manifest.json").read_text())
        manifest["n_classes"] = 5
        (dump_root / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(ConfigError, match="5 classes"):
            SoftmaxDumpNetwork(dump_root)

    def test_missing_root_empty_split_and_bad_manifest(self, tmp_path):
        with pytest.raises(ConfigError, match="does not exist"):
            SoftmaxDumpNetwork(tmp_path / "nowhere")
        empty = tmp_path / "empty"
        (empty / "val").mkdir(parents=True)
        with pytest.raises(ConfigError, match="no softmax dumps"):
            SoftmaxDumpNetwork(empty)
        bad = tmp_path / "bad"
        bad.mkdir()
        (bad / "manifest.json").write_text("{not json")
        with pytest.raises(ConfigError, match="manifest"):
            SoftmaxDumpNetwork(bad)

    def test_corrupt_and_misshapen_dumps_name_the_frame(self, tmp_path):
        dump_root = tmp_path / "softmax"
        shutil.copytree(FIXTURE_ROOT / "softmax", dump_root)
        (dump_root / "val" / "val" / "val_0001_softmax.npy").write_bytes(b"not npy")
        network = SoftmaxDumpNetwork(dump_root)
        gt = np.zeros((FIXTURE["height"], FIXTURE["width"]), dtype=np.int64)
        with pytest.raises(ConfigError, match="val_0001"):
            network.predict_probabilities(gt, index=1)
        with pytest.raises(ConfigError, match="val_0000"):
            network.predict_probabilities(np.zeros((8, 8), dtype=np.int64), index=0)
        with pytest.raises(ConfigError, match="outside the dumped range"):
            network.predict_probabilities(gt, index=99)

    def test_adapter_factory_requires_dump_root(self):
        config = ExperimentConfig.from_dict(
            {"kind": "metaseg", "network": {"profile": "softmax_dump"}}
        )
        with pytest.raises(ConfigError, match="dump_root"):
            NETWORK_PROFILES.get("softmax_dump")(config.network, 0)

    def test_runner_rejects_overrides_and_timedynamic_for_adapters(self):
        payload = disk_payload()
        payload["network"]["overrides"] = {"noise_scale": 0.5}
        with pytest.raises(ValueError, match="overrides"):
            Runner().resolve(ExperimentConfig.from_dict(payload))
        with pytest.raises(ValueError, match="time-dynamic"):
            Runner().resolve(
                ExperimentConfig.from_dict(
                    {
                        "kind": "timedynamic",
                        "data": {"dataset": "kitti_like"},
                        "network": {
                            "profile": "softmax_dump",
                            "dump_root": str(FIXTURE_ROOT / "softmax"),
                        },
                    }
                )
            )


# ----------------------------------------------------- memmap non-materialisation


class TestMemmapServing:
    HEIGHT, WIDTH, N_CLASSES = 256, 512, 19

    @pytest.fixture(scope="class")
    def big_dump(self, tmp_path_factory):
        """A ~20 MB float64 dump — far larger than the allowed peak."""
        root = tmp_path_factory.mktemp("bigdump")
        frame_dir = root / "val" / "city"
        frame_dir.mkdir(parents=True)
        field = np.full(
            (self.HEIGHT, self.WIDTH, self.N_CLASSES), 1.0 / self.N_CLASSES
        )
        np.save(frame_dir / "frame_softmax.npy", field)
        (root / "manifest.json").write_text(
            json.dumps({"format": "npy", "n_classes": self.N_CLASSES, "split": "val"})
        )
        return root

    def test_memmap_peak_is_a_fraction_of_the_field(self, big_dump):
        """Serving + row-slicing a big dump must not materialise the field."""
        field_bytes = self.HEIGHT * self.WIDTH * self.N_CLASSES * 8
        gt = np.zeros((self.HEIGHT, self.WIDTH), dtype=np.int64)
        network = SoftmaxDumpNetwork(big_dump, mmap=True)
        tracemalloc.start()
        probs = network.predict_probabilities(gt, index=0)
        row_mass = probs[:, :, 0].sum()  # one-class slice: H*W, not H*W*C
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert isinstance(probs, np.memmap)
        assert row_mass == pytest.approx(self.HEIGHT * self.WIDTH / self.N_CLASSES)
        assert peak < field_bytes / 4, (
            f"peak {peak} bytes suggests the {field_bytes}-byte field was "
            f"materialised despite mmap"
        )

    def test_materialised_counter_check(self, big_dump):
        """With mmap disabled the same access *does* allocate the field —
        proving the tracemalloc gate actually measures what it claims."""
        field_bytes = self.HEIGHT * self.WIDTH * self.N_CLASSES * 8
        gt = np.zeros((self.HEIGHT, self.WIDTH), dtype=np.int64)
        network = SoftmaxDumpNetwork(big_dump, mmap=False)
        tracemalloc.start()
        probs = network.predict_probabilities(gt, index=0)
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert not isinstance(probs, np.memmap)
        assert peak >= field_bytes


# ------------------------------------------------------------ bitwise parity


@pytest.fixture(scope="module")
def synthetic_metaseg_report():
    return run(synthetic_payload("metaseg"))


class TestFixtureParity:
    """The committed fixture reproduces the synthetic run bit for bit."""

    def test_fixture_regenerates_bitwise_identically(self, tmp_path):
        """Guards the committed tree against silent generator drift."""
        write_disk_fixture(tmp_path, **FIXTURE)
        committed = sorted(
            p.relative_to(FIXTURE_ROOT) for p in FIXTURE_ROOT.rglob("*") if p.is_file()
        )
        regenerated = sorted(
            p.relative_to(tmp_path) for p in tmp_path.rglob("*") if p.is_file()
        )
        assert committed == regenerated
        for rel in committed:
            assert (tmp_path / rel).read_bytes() == (FIXTURE_ROOT / rel).read_bytes(), rel

    def test_metaseg_serial(self, synthetic_metaseg_report):
        assert comparable(run(disk_payload())) == comparable(synthetic_metaseg_report)

    @pytest.mark.parametrize(
        "execution",
        [
            {"backend": "process", "workers": 2},
            {"backend": "thread", "workers": 2},
        ],
        ids=["process", "thread"],
    )
    def test_metaseg_backends(self, synthetic_metaseg_report, execution):
        assert comparable(run(disk_payload(**execution))) == comparable(
            synthetic_metaseg_report
        )

    def test_decision_kind(self):
        assert comparable(run(disk_payload("decision"))) == comparable(
            run(synthetic_payload("decision"))
        )

    def test_npz_dump_format_matches_npy(self, tmp_path, synthetic_metaseg_report):
        write_disk_fixture(tmp_path, dump_format="npz", **FIXTURE)
        payload = disk_payload()
        payload["data"]["root"] = str(tmp_path)
        payload["network"]["dump_root"] = str(tmp_path / "softmax")
        assert comparable(run(payload)) == comparable(synthetic_metaseg_report)

    def test_mmap_flag_is_bit_neutral(self, synthetic_metaseg_report):
        payload = disk_payload()
        payload["network"]["mmap"] = False
        assert comparable(run(payload)) == comparable(synthetic_metaseg_report)

    def test_raw_samples_match(self):
        """Dataset-level parity: every split, every frame, bit for bit."""
        from repro.segmentation.datasets import CityscapesLikeDataset
        from repro.segmentation.scene import SceneConfig

        disk = CityscapesDiskDataset(FIXTURE_ROOT)
        synth = CityscapesLikeDataset(
            n_train=FIXTURE["n_train"],
            n_val=FIXTURE["n_val"],
            scene_config=SceneConfig(height=FIXTURE["height"], width=FIXTURE["width"]),
            random_state=FIXTURE["seed"],  # derived data seed == experiment seed
        )
        for disk_s, synth_s in zip(disk.val_samples(), synth.val_samples()):
            assert disk_s.image_id == synth_s.image_id
            np.testing.assert_array_equal(disk_s.labels, synth_s.labels)
        for disk_s, synth_s in zip(disk.train_samples(), synth.train_samples()):
            assert disk_s.image_id == synth_s.image_id
            np.testing.assert_array_equal(disk_s.labels, synth_s.labels)


# ------------------------------------------------- store + process composition


class TestStoreComposition:
    def test_process_backend_with_store_cache(self, tmp_path, synthetic_metaseg_report):
        store = ResultStore(tmp_path / "cache")
        runner = Runner(store=store)
        payload = disk_payload(backend="process", workers=2)
        cold = runner.run(ExperimentConfig.from_dict(payload))
        assert cold.cache["hit"] is False
        assert cold.cache["shards"]["misses"] > 0
        warm = runner.run(ExperimentConfig.from_dict(payload))
        assert warm.cache["hit"] is True
        assert cold.to_json() == warm.to_json()
        assert comparable(cold) == comparable(synthetic_metaseg_report)

    def test_dump_root_enters_shard_keys(self, tmp_path):
        from repro.store import shard_key

        base = ExperimentConfig.from_dict(disk_payload()).to_dict()
        moved = json.loads(json.dumps(base))
        moved["network"]["dump_root"] = str(tmp_path / "elsewhere")
        assert shard_key(base, 0, 2) != shard_key(moved, 0, 2)
        neutral = json.loads(json.dumps(base))
        neutral["network"]["mmap"] = False
        assert shard_key(neutral, 0, 2) == shard_key(base, 0, 2)


# ----------------------------------------------------------- discovery helper


class TestDiscoverFrames:
    def test_missing_split_raises(self):
        with pytest.raises(ConfigError, match="test_split"):
            discover_frames(FIXTURE_ROOT, "test_split")

    def test_orders_by_city_then_frame(self, tmp_path):
        label_dir = tmp_path / "gtFine" / "val"
        for city, frame in [("b_city", "x2"), ("a_city", "z9"), ("b_city", "a1")]:
            d = label_dir / city
            d.mkdir(parents=True, exist_ok=True)
            write_png_gray8(
                d / f"{frame}_gtFine_labelIds.png", np.zeros((2, 2), dtype=np.uint8)
            )
        frames = discover_frames(tmp_path, "val")
        assert [(f.city, f.frame_id) for f in frames] == [
            ("a_city", "z9"), ("b_city", "a1"), ("b_city", "x2")
        ]
