"""Dataset wrappers around the synthetic scene and sequence generators.

Two wrappers mirror the datasets used in the paper:

* :class:`CityscapesLikeDataset` — independent single frames with full ground
  truth, split into *train* and *val* the way the paper uses the Cityscapes
  validation set for the MetaSeg experiments of Section II and the
  decision-rule experiments of Section IV.
* :class:`KittiLikeDataset` — video sequences in which only a sparse subset
  of frames exposes ground truth (the paper has 29 sequences with 142 labelled
  frames out of ~12k).  This sparsity is what motivates the SMOTE and
  pseudo-ground-truth training compositions of Section III.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, List, Optional

import numpy as np

from repro.segmentation.labels import LabelSpace, cityscapes_label_space
from repro.segmentation.scene import Scene, SceneConfig, StreetSceneGenerator
from repro.segmentation.sequence import SceneSequence, SequenceConfig, SequenceGenerator
from repro.utils.rng import RandomState, as_rng


@dataclass
class SegmentationSample:
    """One image with ground truth and bookkeeping metadata."""

    image_id: str
    labels: np.ndarray
    scene: Optional[Scene] = None
    sequence_id: Optional[int] = None
    frame_index: Optional[int] = None
    has_ground_truth: bool = True

    @property
    def shape(self) -> tuple:
        """Spatial shape (H, W) of the sample."""
        return self.labels.shape


@dataclass
class CityscapesLikeDataset:
    """Synthetic single-frame dataset with a train/val split.

    Parameters
    ----------
    n_train, n_val:
        Number of generated scenes in each split.
    scene_config:
        Layout configuration forwarded to the scene generator.
    random_state:
        Master seed; the train and val splits use disjoint derived seeds.
    """

    n_train: int = 30
    n_val: int = 20
    scene_config: SceneConfig = field(default_factory=SceneConfig)
    label_space: LabelSpace = field(default_factory=cityscapes_label_space)
    random_state: RandomState = 0

    def __post_init__(self) -> None:
        if self.n_train < 0 or self.n_val < 0:
            raise ValueError("split sizes must be non-negative")
        rng = as_rng(self.random_state)
        self._train_generator = StreetSceneGenerator(
            config=self.scene_config,
            label_space=self.label_space,
            random_state=int(rng.integers(0, 2**31 - 1)),
        )
        self._val_generator = StreetSceneGenerator(
            config=self.scene_config,
            label_space=self.label_space,
            random_state=int(rng.integers(0, 2**31 - 1)),
        )

    # ------------------------------------------------------------------ ---
    @property
    def n_classes(self) -> int:
        """Number of semantic classes."""
        return self.label_space.n_classes

    def train_sample(self, index: int) -> SegmentationSample:
        """Build training sample *index*."""
        return self._sample("train", index)

    def val_sample(self, index: int) -> SegmentationSample:
        """Build validation sample *index*."""
        return self._sample("val", index)

    def _sample(self, split: str, index: int) -> SegmentationSample:
        """Build sample *index* of *split*.

        Scene ``index`` is generated from a seed derived from the split's
        master seed and ``index``, so a sample is bitwise identical however
        often it is rebuilt, in this process or in another (the sharded
        execution backend).  Nothing is memoised: walks hold one sample at
        a time, and results are cached in the result store instead.
        """
        if split == "train":
            size, generator = self.n_train, self._train_generator
        elif split == "val":
            size, generator = self.n_val, self._val_generator
        else:
            raise ValueError(f"unknown split {split!r}")
        if not 0 <= index < size:
            raise IndexError(f"{split} index {index} out of range [0, {size})")
        scene = generator.generate(index)
        return SegmentationSample(
            image_id=f"{split}_{index:04d}",
            labels=scene.labels,
            scene=scene,
        )

    def iter_train(self) -> Iterator[SegmentationSample]:
        """Iterate over all training samples, built one at a time."""
        for i in range(self.n_train):
            yield self.train_sample(i)

    def iter_val(self) -> Iterator[SegmentationSample]:
        """Iterate over all validation samples, built one at a time."""
        for i in range(self.n_val):
            yield self.val_sample(i)

    def train_samples(self) -> List[SegmentationSample]:
        """All training samples as a list."""
        return list(self.iter_train())

    def val_samples(self) -> List[SegmentationSample]:
        """All validation samples as a list."""
        return list(self.iter_val())


@dataclass
class KittiLikeDataset:
    """Synthetic video dataset with sparse ground-truth annotation.

    Every frame internally has ground truth (it is synthetic after all), but
    only frames at indices ``labeled_stride``, ``2*labeled_stride``, ... carry
    ``has_ground_truth=True``.  Training compositions that use "real" ground
    truth may only rely on those frames; the rest is available for pseudo
    ground truth generated by a reference network, exactly mirroring the
    paper's KITTI setup.
    """

    n_sequences: int = 6
    sequence_config: SequenceConfig = field(default_factory=SequenceConfig)
    labeled_stride: int = 5
    label_space: LabelSpace = field(default_factory=cityscapes_label_space)
    random_state: RandomState = 0

    def __post_init__(self) -> None:
        if self.n_sequences < 1:
            raise ValueError("n_sequences must be >= 1")
        if self.labeled_stride < 1:
            raise ValueError("labeled_stride must be >= 1")
        rng = as_rng(self.random_state)
        self._generator = SequenceGenerator(
            config=self.sequence_config,
            label_space=self.label_space,
            random_state=int(rng.integers(0, 2**31 - 1)),
        )

    @property
    def n_classes(self) -> int:
        """Number of semantic classes."""
        return self.label_space.n_classes

    @property
    def n_frames_per_sequence(self) -> int:
        """Number of frames in every sequence."""
        return self.sequence_config.n_frames

    def sequence(self, index: int) -> SceneSequence:
        """Build sequence *index*.

        Sequences are generated from per-index derived seeds, so every
        rebuild — in this process or in another (the sharded execution
        backend) — is bitwise identical.  Nothing is memoised.
        """
        if not 0 <= index < self.n_sequences:
            raise IndexError(f"sequence index {index} out of range [0, {self.n_sequences})")
        return self._generator.generate(index)

    def sequences(self) -> List[SceneSequence]:
        """All sequences as a list."""
        return [self.sequence(i) for i in range(self.n_sequences)]

    def labeled_frame_indices(self) -> List[int]:
        """Frame indices (within each sequence) that expose ground truth."""
        return list(range(self.labeled_stride - 1, self.n_frames_per_sequence, self.labeled_stride))

    def samples(self, sequence_index: int) -> List[SegmentationSample]:
        """Samples of one sequence with the sparse ground-truth flags set."""
        sequence = self.sequence(sequence_index)
        labeled = set(self.labeled_frame_indices())
        out: List[SegmentationSample] = []
        for frame_index, scene in enumerate(sequence.frames):
            out.append(
                SegmentationSample(
                    image_id=f"seq{sequence_index:03d}_frame{frame_index:04d}",
                    labels=scene.labels,
                    scene=scene,
                    sequence_id=sequence_index,
                    frame_index=frame_index,
                    has_ground_truth=frame_index in labeled,
                )
            )
        return out

    def n_labeled_frames(self) -> int:
        """Total number of frames exposing ground truth across all sequences."""
        return self.n_sequences * len(self.labeled_frame_indices())


# ---------------------------------------------------------------- builders --
# Named dataset variants for the experiment API.  Builders receive the
# declarative DataConfig and the data seed and construct a substrate; the
# "_small" variants pin a reduced resolution (BuilderConfig-style presets for
# smoke runs and CI) while the base variants honour the configured size.

def build_cityscapes_like(data, seed: int) -> "CityscapesLikeDataset":
    """Single-frame Cityscapes-like substrate at the configured size."""
    return CityscapesLikeDataset(
        n_train=data.n_train,
        n_val=data.n_val,
        scene_config=SceneConfig(height=data.height, width=data.width),
        random_state=seed,
    )


def build_cityscapes_like_small(data, seed: int) -> "CityscapesLikeDataset":
    """Cityscapes-like substrate pinned to 64x128 scenes (smoke runs, CI)."""
    return CityscapesLikeDataset(
        n_train=data.n_train,
        n_val=data.n_val,
        scene_config=SceneConfig(height=64, width=128),
        random_state=seed,
    )


def build_kitti_like(data, seed: int) -> "KittiLikeDataset":
    """Sparsely labelled KITTI-like video substrate at the configured size."""
    return KittiLikeDataset(
        n_sequences=data.n_sequences,
        sequence_config=SequenceConfig(
            n_frames=data.n_frames,
            scene_config=SceneConfig(height=data.height, width=data.width),
        ),
        labeled_stride=data.labeled_stride,
        random_state=seed,
    )


def build_kitti_like_small(data, seed: int) -> "KittiLikeDataset":
    """KITTI-like video substrate pinned to 64x128 frames (smoke runs, CI)."""
    return KittiLikeDataset(
        n_sequences=data.n_sequences,
        sequence_config=SequenceConfig(
            n_frames=data.n_frames,
            scene_config=SceneConfig(height=64, width=128),
        ),
        labeled_stride=data.labeled_stride,
        random_state=seed,
    )


def global_frame_index(sequence_index: int, frame_index: int, frames_per_sequence: int) -> int:
    """Unique global index of a frame, used to seed per-frame network noise."""
    if frame_index < 0 or frame_index >= frames_per_sequence:
        raise ValueError("frame_index out of range")
    if sequence_index < 0:
        raise ValueError("sequence_index must be non-negative")
    return sequence_index * frames_per_sequence + frame_index
