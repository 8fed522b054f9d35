"""On-disk Cityscapes-format dataset.

The first dataset substrate in this repository that reads files instead of
generating scenes: a directory tree in the standard Cityscapes layout

.. code-block:: text

    <root>/leftImg8bit/<split>/<city>/<frame>_leftImg8bit.png
    <root>/gtFine/<split>/<city>/<frame>_gtFine_labelIds.png

is walked lazily — discovery at construction touches only directory listings;
the label PNG of a frame is decoded on every access and never memoised,
exactly like the synthetic substrates.
Raw on-disk label ids are remapped to the consecutive train ids through the
:class:`~repro.segmentation.labels.LabelSpace` raw-id table, with every void
class decoding to the ignore id.

The substrate exposes the same duck-typed interface as
:class:`~repro.segmentation.datasets.CityscapesLikeDataset` (``n_train`` /
``n_val`` / per-index accessors / split iterators), so it composes unchanged
with every execution backend — including the sharded ``process`` backend,
which rebuilds the dataset in each worker from the picklable config dict and
walks only its own index range.

Structural problems fail fast with :class:`~repro.api.config.ConfigError` at
construction time (missing root, missing split, image frame without a label
map), not deep inside extraction.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, List, Optional, Union

import numpy as np

from repro.api.config import ConfigError
from repro.api.registry import DATASETS
from repro.io.png import PngError, read_png_gray8
from repro.segmentation.datasets import SegmentationSample
from repro.segmentation.labels import IGNORE_ID, LabelSpace, cityscapes_label_space

#: Fixed names of the Cityscapes directory layout.
IMAGE_DIR = "leftImg8bit"
LABEL_DIR = "gtFine"
IMAGE_SUFFIX = "_leftImg8bit.png"
LABEL_SUFFIX = "_gtFine_labelIds.png"


@dataclass(frozen=True)
class DiskFrame:
    """One discovered frame: its id, city and label-map path."""

    frame_id: str
    city: str
    label_path: str


def raw_to_train_lut(label_space: LabelSpace) -> np.ndarray:
    """(256,) raw-id → train-id lookup table; unmapped raw ids → ignore."""
    lut = np.full(256, IGNORE_ID, dtype=np.int64)
    for raw_id, train_id in label_space.raw_id_map().items():
        if not 0 <= raw_id <= 255:
            raise ConfigError(f"raw label id {raw_id} does not fit an 8-bit label map")
        lut[raw_id] = train_id
    return lut


def discover_frames(root: Path, split: str) -> List[DiskFrame]:
    """Deterministically list the frames of one split of a Cityscapes tree.

    When the ``leftImg8bit`` tree is present it is the authoritative frame
    listing (every image must have a label map — a missing one raises
    :class:`ConfigError` naming the frame); a dump of label maps alone
    (no images) is also accepted and walked directly.  Frames are ordered
    by (city, frame id), which is the substrate's index order everywhere.
    """
    image_split = root / IMAGE_DIR / split
    label_split = root / LABEL_DIR / split
    frames: List[DiskFrame] = []
    if image_split.is_dir():
        for city_dir in sorted(p for p in image_split.iterdir() if p.is_dir()):
            for image_path in sorted(city_dir.glob(f"*{IMAGE_SUFFIX}")):
                frame_id = image_path.name[: -len(IMAGE_SUFFIX)]
                label_path = label_split / city_dir.name / f"{frame_id}{LABEL_SUFFIX}"
                if not label_path.is_file():
                    raise ConfigError(
                        f"data: frame {frame_id!r} of split {split!r} has an image "
                        f"but no label map (expected {label_path})"
                    )
                frames.append(DiskFrame(frame_id, city_dir.name, str(label_path)))
        return frames
    if label_split.is_dir():
        for city_dir in sorted(p for p in label_split.iterdir() if p.is_dir()):
            for label_path in sorted(city_dir.glob(f"*{LABEL_SUFFIX}")):
                frame_id = label_path.name[: -len(LABEL_SUFFIX)]
                frames.append(DiskFrame(frame_id, city_dir.name, str(label_path)))
        return frames
    raise ConfigError(
        f"data: dataset root {root} has no {IMAGE_DIR}/{split} or "
        f"{LABEL_DIR}/{split} directory"
    )


class CityscapesDiskDataset:
    """Lazily-read Cityscapes-format dataset with a train/val split.

    Parameters
    ----------
    root:
        Dataset directory in the standard Cityscapes layout.
    label_space:
        Label space providing the raw→train id mapping (defaults to the
        19-class Cityscapes space).

    The ``val`` split must exist and be non-empty (it is what every
    experiment kind walks); the ``train`` split is optional and reports
    ``n_train == 0`` when absent.
    """

    def __init__(
        self,
        root: Union[str, Path],
        label_space: Optional[LabelSpace] = None,
    ) -> None:
        self.root = Path(root)
        if not self.root.is_dir():
            raise ConfigError(f"data: dataset root {self.root} does not exist")
        self.label_space = label_space or cityscapes_label_space()
        self._lut = raw_to_train_lut(self.label_space)
        self._val_frames = discover_frames(self.root, "val")
        if not self._val_frames:
            raise ConfigError(
                f"data: split 'val' of {self.root} contains no frames"
            )
        try:
            self._train_frames = discover_frames(self.root, "train")
        except ConfigError:
            self._train_frames = []  # train split is optional

    def __repr__(self) -> str:
        return (
            f"CityscapesDiskDataset(root={str(self.root)!r}, "
            f"n_train={self.n_train}, n_val={self.n_val})"
        )

    # ------------------------------------------------------------------ ---
    @property
    def n_classes(self) -> int:
        """Number of semantic classes."""
        return self.label_space.n_classes

    @property
    def n_train(self) -> int:
        """Number of discovered training frames (0 when the split is absent)."""
        return len(self._train_frames)

    @property
    def n_val(self) -> int:
        """Number of discovered validation frames."""
        return len(self._val_frames)

    def frame_ids(self, split: str) -> List[str]:
        """Ordered frame ids of one split (the substrate's index order)."""
        return [frame.frame_id for frame in self._frames_of(split)]

    def _frames_of(self, split: str) -> List[DiskFrame]:
        if split == "train":
            return self._train_frames
        if split == "val":
            return self._val_frames
        raise ValueError(f"unknown split {split!r}")

    # ------------------------------------------------------------------ ---
    def _load(self, frame: DiskFrame) -> SegmentationSample:
        """Decode one frame's label map and remap raw ids to train ids."""
        try:
            raw = read_png_gray8(frame.label_path)
        except (OSError, PngError) as exc:
            raise ConfigError(
                f"data: cannot read label map of frame {frame.frame_id!r}: {exc}"
            ) from None
        return SegmentationSample(image_id=frame.frame_id, labels=self._lut[raw])

    def _sample(self, split: str, index: int) -> SegmentationSample:
        frames = self._frames_of(split)
        if not 0 <= index < len(frames):
            raise IndexError(f"{split} index {index} out of range [0, {len(frames)})")
        return self._load(frames[index])

    def train_sample(self, index: int) -> SegmentationSample:
        """Decode training frame *index*."""
        return self._sample("train", index)

    def val_sample(self, index: int) -> SegmentationSample:
        """Decode validation frame *index*."""
        return self._sample("val", index)

    def iter_train(self) -> Iterator[SegmentationSample]:
        """Iterate over the training frames, decoded one at a time."""
        for index in range(self.n_train):
            yield self.train_sample(index)

    def iter_val(self) -> Iterator[SegmentationSample]:
        """Iterate over the validation frames, decoded one at a time."""
        for index in range(self.n_val):
            yield self.val_sample(index)

    def train_samples(self) -> List[SegmentationSample]:
        """All training samples as a list."""
        return list(self.iter_train())

    def val_samples(self) -> List[SegmentationSample]:
        """All validation samples as a list."""
        return list(self.iter_val())


# ---------------------------------------------------------------- builders --

@DATASETS.register("cityscapes_disk")
def build_cityscapes_disk(data, seed: int) -> CityscapesDiskDataset:
    """On-disk Cityscapes-format dataset (leftImg8bit + gtFine label-ID PNGs)."""
    if not data.root:
        raise ConfigError(
            "data: the cityscapes_disk dataset requires data.root "
            "(path to a Cityscapes-layout directory)"
        )
    # Real data carries no randomness; the seed only drives synthetic builders.
    return CityscapesDiskDataset(root=data.root)
