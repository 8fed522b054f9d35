"""Animated street scenes: the KITTI-like video substrate.

Section III of the paper evaluates time-dynamic MetaSeg on 29 KITTI video
sequences (~12k frames) of which 142 frames carry ground truth.  This module
animates the procedural scenes of :mod:`repro.segmentation.scene` over time:

* the static background (road, buildings, sky, ...) stays fixed per sequence;
* dynamic objects move with their per-object velocities plus a global
  ego-motion flow, leave the frame and are removed, and new objects may spawn;
* every frame has ground truth available internally, but the dataset wrapper
  (:class:`repro.segmentation.datasets.KittiLikeDataset`) only *exposes*
  ground truth for a sparse subset of frames, mimicking the KITTI annotation
  situation that motivates the pseudo-ground-truth experiments.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.segmentation.labels import LabelSpace, cityscapes_label_space
from repro.segmentation.scene import Scene, SceneConfig, SceneObject, StreetSceneGenerator
from repro.utils.rng import RandomState, as_rng


@dataclass(frozen=True)
class SequenceConfig:
    """Parameters of the synthetic video generator."""

    n_frames: int = 30
    scene_config: SceneConfig = SceneConfig()
    ego_flow: float = 0.35
    """Downward pixel flow per frame caused by forward ego-motion (objects
    below the horizon slowly grow/approach)."""
    spawn_probability: float = 0.08
    """Probability per frame of a new dynamic object entering the scene."""
    despawn_margin: float = 10.0
    """Objects whose center leaves the image by more than this margin are removed."""

    def __post_init__(self) -> None:
        if self.n_frames < 1:
            raise ValueError("n_frames must be >= 1")
        if not 0.0 <= self.spawn_probability <= 1.0:
            raise ValueError("spawn_probability must be in [0, 1]")
        if self.despawn_margin < 0:
            raise ValueError("despawn_margin must be non-negative")


@dataclass
class SceneSequence:
    """A generated video sequence of scenes sharing one background."""

    sequence_id: int
    frames: List[Scene]
    config: SequenceConfig

    def __len__(self) -> int:
        return len(self.frames)

    def __getitem__(self, index: int) -> Scene:
        return self.frames[index]

    def labels(self) -> np.ndarray:
        """Stacked (T, H, W) ground-truth label maps."""
        return np.stack([frame.labels for frame in self.frames], axis=0)


class SequenceGenerator:
    """Generate :class:`SceneSequence` objects from a street-scene generator."""

    def __init__(
        self,
        config: Optional[SequenceConfig] = None,
        label_space: Optional[LabelSpace] = None,
        random_state: RandomState = 0,
    ) -> None:
        self.config = config or SequenceConfig()
        self.label_space = label_space or cityscapes_label_space()
        rng = as_rng(random_state)
        self._master_seed = int(rng.integers(0, 2**31 - 1))

    def generate(self, sequence_index: int = 0) -> SceneSequence:
        """Generate sequence number *sequence_index* deterministically."""
        if sequence_index < 0:
            raise ValueError("sequence_index must be non-negative")
        cfg = self.config
        rng = np.random.default_rng((self._master_seed, sequence_index))
        scene_generator = StreetSceneGenerator(
            config=cfg.scene_config,
            label_space=self.label_space,
            random_state=int(rng.integers(0, 2**31 - 1)),
        )
        base_scene = scene_generator.generate(0)
        objects = [obj for obj in base_scene.objects]
        next_object_id = max((obj.object_id for obj in objects), default=-1) + 1

        frames: List[Scene] = []
        for frame_index in range(cfg.n_frames):
            labels = scene_generator.render(base_scene.background, objects)
            if cfg.scene_config.ignore_margin > 0:
                labels[-cfg.scene_config.ignore_margin :, :] = -1
            frames.append(
                Scene(
                    labels=labels,
                    background=base_scene.background,
                    objects=[SceneObject(**vars(obj)) for obj in objects],
                    horizon_row=base_scene.horizon_row,
                    road_top_row=base_scene.road_top_row,
                    config=cfg.scene_config,
                    label_space=self.label_space,
                )
            )
            objects = self._advance(objects, rng, base_scene)
            if rng.uniform() < cfg.spawn_probability:
                spawned = self._spawn_object(rng, scene_generator, base_scene, next_object_id)
                if spawned is not None:
                    objects.append(spawned)
                    next_object_id += 1
        return SceneSequence(sequence_id=sequence_index, frames=frames, config=cfg)

    # ------------------------------------------------------------------ ---
    def _advance(
        self, objects: List[SceneObject], rng: np.random.Generator, base_scene: Scene
    ) -> List[SceneObject]:
        """Move every dynamic object one frame forward and drop departed ones."""
        cfg = self.config
        h, w = base_scene.labels.shape
        survivors: List[SceneObject] = []
        for obj in objects:
            moved = obj.moved(1.0)
            # Forward ego-motion: things below the horizon drift down slightly
            # and grow as they come closer.
            if moved.center_row > base_scene.horizon_row:
                depth = (moved.center_row - base_scene.horizon_row) / max(1, h - base_scene.horizon_row)
                moved.center_row += cfg.ego_flow * depth
                growth = 1.0 + 0.01 * cfg.ego_flow * depth
                moved.height *= growth
                moved.width *= growth
            # Small velocity jitter so motion is not perfectly linear.
            moved.velocity = (
                moved.velocity[0] + rng.normal(0.0, 0.02),
                moved.velocity[1] + rng.normal(0.0, 0.05),
            )
            margin = cfg.despawn_margin
            if (
                -margin <= moved.center_row <= h + margin
                and -margin <= moved.center_col <= w + margin
            ):
                survivors.append(moved)
        return survivors

    def _spawn_object(
        self,
        rng: np.random.Generator,
        scene_generator: StreetSceneGenerator,
        base_scene: Scene,
        object_id: int,
    ) -> Optional[SceneObject]:
        """Spawn a new dynamic object at an image edge."""
        ls = self.label_space
        h, w = base_scene.labels.shape
        choices = ["car", "person", "rider", "bicycle"]
        name = choices[int(rng.integers(0, len(choices)))]
        from_left = rng.uniform() < 0.5
        col = 2.0 if from_left else float(w - 3)
        if name == "car":
            row = rng.uniform(base_scene.road_top_row + 2, h - 3)
            base_h, base_w, shape, speed = 0.16, 0.13, "rect", rng.uniform(0.8, 2.5)
        elif name in ("person", "rider"):
            row = rng.uniform(base_scene.road_top_row, h - 2)
            base_h, base_w, shape, speed = 0.22, 0.045, "person", rng.uniform(0.2, 0.8)
        else:
            row = rng.uniform(base_scene.road_top_row, h - 2)
            base_h, base_w, shape, speed = 0.10, 0.06, "rect", rng.uniform(0.4, 1.2)
        scale = scene_generator._perspective_scale(row, base_scene.horizon_row)
        direction = 1.0 if from_left else -1.0
        return SceneObject(
            object_id=object_id,
            class_id=ls.id_of(name),
            center_row=float(row),
            center_col=col,
            height=max(2.0, base_h * h * scale),
            width=max(2.0, base_w * w * scale),
            shape=shape,
            velocity=(float(rng.normal(0.0, 0.1)), direction * speed),
        )
