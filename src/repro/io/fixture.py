"""Deterministic on-disk fixture generator for the real-data I/O layer.

Tests and CI need a Cityscapes-layout tree plus matching softmax dumps, but
must not download anything.  :func:`write_disk_fixture` materialises both
from the repo's own synthetic generators, mirroring the Runner's component
flow exactly:

* the label maps are the scenes of the ``cityscapes_like`` substrate built
  with the data seed ``derived_seeds(seed).data``, written as raw-id
  ``gtFine`` PNGs (train→raw through the label space, ignore → raw 0);
* the softmax dumps are the fields of the named simulated network built with
  the network seed ``derived_seeds(seed).network``, evaluated at each
  validation index and saved verbatim (float64, never re-quantised).

Because both sides round-trip losslessly, an experiment run against the
written tree (``cityscapes_disk`` + ``softmax_dump``) is *bitwise identical*
to the in-memory synthetic run of the same seed and sizes — the property the
parity tests pin down, and the reason the fixture needs no golden files.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, Optional, Union

import numpy as np

from repro.api.config import DataConfig
from repro.api.registry import DATASETS, NETWORK_PROFILES
from repro.api.runner import derived_seeds
from repro.io.cityscapes import IMAGE_DIR, IMAGE_SUFFIX, LABEL_DIR, LABEL_SUFFIX
from repro.io.png import write_png_gray8
from repro.io.softmax import DUMP_SUFFIX, MANIFEST_NAME
from repro.segmentation.labels import IGNORE_ID
from repro.segmentation.network import SimulatedSegmentationNetwork


def _train_to_raw_lut(label_space) -> np.ndarray:
    """(n_classes + 1,) train-id → raw-id table, indexed by ``train_id + 1``.

    Index 0 is the ignore id (train id -1), which encodes as raw 0 — the
    Cityscapes "unlabeled" class — so decoding through the raw→train table
    reproduces the original label map bit-exactly.
    """
    lut = np.zeros(label_space.n_classes + 1, dtype=np.uint8)
    for spec in label_space:
        lut[spec.train_id + 1] = label_space.train_id_to_raw(spec.train_id)
    return lut


def write_disk_fixture(
    root: Union[str, Path],
    dump_root: Optional[Union[str, Path]] = None,
    seed: int = 7,
    n_train: int = 2,
    n_val: int = 4,
    height: int = 32,
    width: int = 64,
    profile: str = "mobilenetv2",
    dump_format: str = "npy",
    write_images: bool = True,
) -> Dict[str, object]:
    """Write a Cityscapes-layout tree + softmax dumps from the synthetic stack.

    Parameters mirror the synthetic experiment the fixture must be bitwise
    equal to: ``seed``/``n_train``/``n_val``/``height``/``width`` configure
    the ``cityscapes_like`` substrate, ``profile`` the simulated network
    whose fields are dumped.  ``dump_root`` defaults to ``<root>/softmax``;
    ``dump_format`` is ``"npy"`` (per-frame files, memmappable) or ``"npz"``
    (one archive per split).  ``write_images`` additionally writes
    placeholder ``leftImg8bit`` PNGs (the raw label map re-used as a
    grayscale image) so the authoritative image-driven discovery path is
    exercised; label-only trees are also valid Cityscapes dumps.

    Returns a summary dict (paths, frame counts, manifest) for logging.
    """
    root = Path(root)
    dump_root = Path(dump_root) if dump_root is not None else root / "softmax"
    if dump_format not in ("npy", "npz"):
        raise ValueError(f"dump_format must be 'npy' or 'npz', got {dump_format!r}")
    seeds = derived_seeds(seed)
    data_cfg = DataConfig(
        dataset="cityscapes_like", n_train=n_train, n_val=n_val, height=height, width=width
    )
    dataset = DATASETS.get("cityscapes_like")(data_cfg, seeds.data)
    network = SimulatedSegmentationNetwork(
        NETWORK_PROFILES.get(profile)(), random_state=seeds.network
    )
    encode_lut = _train_to_raw_lut(dataset.label_space)

    n_frames: Dict[str, int] = {}
    dumps: Dict[str, np.ndarray] = {}
    for split, n_samples, sample_of in (
        ("train", n_train, dataset.train_sample),
        ("val", n_val, dataset.val_sample),
    ):
        city_dir = root / LABEL_DIR / split / split  # one city named like the split
        image_dir = root / IMAGE_DIR / split / split
        city_dir.mkdir(parents=True, exist_ok=True)
        if write_images:
            image_dir.mkdir(parents=True, exist_ok=True)
        for index in range(n_samples):
            sample = sample_of(index)
            labels = np.asarray(sample.labels)
            if labels.min() < IGNORE_ID:
                raise ValueError(f"labels of {sample.image_id} below the ignore id")
            raw = encode_lut[labels + 1]
            write_png_gray8(city_dir / f"{sample.image_id}{LABEL_SUFFIX}", raw)
            if write_images:
                write_png_gray8(image_dir / f"{sample.image_id}{IMAGE_SUFFIX}", raw)
            if split == "val":
                probs = network.predict_probabilities(sample.labels, index=index)
                dumps[f"val/{sample.image_id}"] = np.asarray(probs, dtype=np.float64)
        n_frames[split] = n_samples

    dump_root.mkdir(parents=True, exist_ok=True)
    if dump_format == "npy":
        val_dir = dump_root / "val" / "val"
        val_dir.mkdir(parents=True, exist_ok=True)
        for member, probs in dumps.items():
            frame_id = member.rsplit("/", 1)[-1]
            np.save(val_dir / f"{frame_id}{DUMP_SUFFIX}", probs)
    else:
        np.savez(dump_root / "val.npz", **dumps)
    manifest = {
        "format": dump_format,
        "profile": network.profile.name,
        "n_classes": dataset.n_classes,
        "split": "val",
        "generator": {
            "seed": seed,
            "n_train": n_train,
            "n_val": n_val,
            "height": height,
            "width": width,
        },
    }
    (dump_root / MANIFEST_NAME).write_text(json.dumps(manifest, indent=2, sort_keys=True))
    return {
        "root": str(root),
        "dump_root": str(dump_root),
        "n_frames": n_frames,
        "manifest": manifest,
    }


def disk_config_payload(
    root: Union[str, Path],
    dump_root: Optional[Union[str, Path]] = None,
    kind: str = "metaseg",
    seed: int = 7,
    name: str = "metaseg-disk",
) -> Dict[str, object]:
    """Experiment-config dict running the disk backends over a fixture tree.

    The counterpart of :func:`write_disk_fixture`: point it at the same
    ``root``/``dump_root``/``seed`` and the resulting experiment reproduces
    the synthetic run the fixture was generated from, bit for bit.
    """
    root = Path(root)
    dump_root = Path(dump_root) if dump_root is not None else root / "softmax"
    return {
        "kind": kind,
        "name": name,
        "seed": seed,
        "data": {"dataset": "cityscapes_disk", "root": str(root)},
        "network": {"profile": "softmax_dump", "dump_root": str(dump_root)},
    }
