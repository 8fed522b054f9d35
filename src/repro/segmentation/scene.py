"""Procedural street-scene ground-truth generator.

This module is the stand-in for the Cityscapes images + fine annotations used
by the paper (see ``DESIGN.md``, substitution table).  It generates 2-D label
maps with a plausible street-scene layout:

* a sky band with a wavy skyline at the top,
* a building band below the skyline down to the horizon,
* optional vegetation / terrain patches at the image sides,
* a road band at the bottom flanked by sidewalks,
* optional walls and fences along the sidewalk,
* instance-like ("thing") objects placed with perspective-consistent sizes:
  cars, trucks and buses on the road, persons on the sidewalks, riders and
  two-wheelers near the road edge, poles carrying traffic signs and lights.

The generator exposes each placed object (class, position, size, velocity) so
that :mod:`repro.segmentation.sequence` can animate the same scene over time
for the KITTI-like video experiments, and so that tests can verify geometric
invariants.

What matters for the reproduction is not photo-realism but that the label
statistics exhibit the properties MetaSeg and the decision-rule experiments
rely on: a broad segment-size distribution, strong class imbalance (humans
cover well below 1 % of the pixels), and position-dependent class priors
(persons appear on sidewalks, cars on the road, sky at the top).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import List, Optional, Tuple

import numpy as np

from repro.segmentation.labels import LabelSpace, cityscapes_label_space
from repro.utils.rng import RandomState, as_rng
from repro.utils.validation import check_in_range


@dataclass(frozen=True)
class SceneConfig:
    """Parameters controlling the synthetic street-scene layout."""

    height: int = 128
    width: int = 256
    horizon_fraction_range: Tuple[float, float] = (0.38, 0.52)
    road_fraction_range: Tuple[float, float] = (0.30, 0.42)
    sidewalk_fraction_range: Tuple[float, float] = (0.06, 0.14)
    skyline_roughness: float = 0.06
    n_cars_range: Tuple[int, int] = (1, 5)
    n_persons_range: Tuple[int, int] = (0, 4)
    n_riders_range: Tuple[int, int] = (0, 2)
    n_poles_range: Tuple[int, int] = (1, 4)
    n_signs_range: Tuple[int, int] = (0, 3)
    n_lights_range: Tuple[int, int] = (0, 2)
    n_large_vehicles_range: Tuple[int, int] = (0, 1)
    n_two_wheelers_range: Tuple[int, int] = (0, 2)
    vegetation_probability: float = 0.85
    terrain_probability: float = 0.6
    wall_probability: float = 0.45
    fence_probability: float = 0.45
    train_probability: float = 0.04
    ignore_margin: int = 0
    """Number of bottom rows labelled as ignore (-1), mimicking regions
    without ground truth such as the ego-vehicle hood in Cityscapes."""

    def __post_init__(self) -> None:
        if self.height < 32 or self.width < 64:
            raise ValueError("scene must be at least 32x64 pixels")
        check_in_range(self.skyline_roughness, 0.0, 0.5, name="skyline_roughness")
        for name in ("horizon_fraction_range", "road_fraction_range", "sidewalk_fraction_range"):
            lo, hi = getattr(self, name)
            if not (0.0 < lo <= hi < 1.0):
                raise ValueError(f"{name} must satisfy 0 < lo <= hi < 1, got {(lo, hi)}")
        if self.ignore_margin < 0 or self.ignore_margin >= self.height // 2:
            raise ValueError("ignore_margin must be in [0, height/2)")

    def scaled(self, height: int, width: int) -> "SceneConfig":
        """Return a copy of this configuration with a different image size."""
        return replace(self, height=height, width=width)


@dataclass
class SceneObject:
    """One instance-like object placed in a scene.

    ``center_row``/``center_col`` are float positions so the sequence
    generator can move objects by sub-pixel velocities; rendering rounds to
    pixel coordinates.
    """

    object_id: int
    class_id: int
    center_row: float
    center_col: float
    height: float
    width: float
    shape: str = "rect"
    velocity: Tuple[float, float] = (0.0, 0.0)

    def moved(self, n_steps: float = 1.0) -> "SceneObject":
        """Return a copy of the object displaced by ``n_steps`` velocity steps."""
        return SceneObject(
            object_id=self.object_id,
            class_id=self.class_id,
            center_row=self.center_row + self.velocity[0] * n_steps,
            center_col=self.center_col + self.velocity[1] * n_steps,
            height=self.height,
            width=self.width,
            shape=self.shape,
            velocity=self.velocity,
        )


@dataclass
class Scene:
    """A generated street scene: label map plus structured object information."""

    labels: np.ndarray
    background: np.ndarray
    objects: List[SceneObject]
    horizon_row: int
    road_top_row: int
    config: SceneConfig
    label_space: LabelSpace = field(default_factory=cityscapes_label_space)

    @property
    def height(self) -> int:
        return self.config.height

    @property
    def width(self) -> int:
        return self.config.width


class StreetSceneGenerator:
    """Generator of synthetic street-scene ground truth.

    Parameters
    ----------
    config:
        Layout configuration; defaults to a 128x256 scene.
    label_space:
        Label space; defaults to the Cityscapes-like 19-class space.
    random_state:
        Master seed.  Scene ``i`` is generated from a seed derived from the
        master seed and ``i`` so that individual scenes are reproducible
        independent of generation order.
    """

    def __init__(
        self,
        config: Optional[SceneConfig] = None,
        label_space: Optional[LabelSpace] = None,
        random_state: RandomState = 0,
    ) -> None:
        self.config = config or SceneConfig()
        self.label_space = label_space or cityscapes_label_space()
        rng = as_rng(random_state)
        self._master_seed = int(rng.integers(0, 2**31 - 1))

    # ------------------------------------------------------------------ API
    def generate(self, index: int = 0) -> Scene:
        """Generate scene number *index* (deterministic given the master seed)."""
        if index < 0:
            raise ValueError(f"index must be non-negative, got {index}")
        rng = np.random.default_rng((self._master_seed, index))
        background, horizon_row, road_top_row, sidewalk_cols = self._render_background(rng)
        objects = self._sample_objects(rng, horizon_row, road_top_row, sidewalk_cols)
        labels = self.render(background, objects)
        if self.config.ignore_margin > 0:
            labels[-self.config.ignore_margin :, :] = -1
        return Scene(
            labels=labels,
            background=background,
            objects=objects,
            horizon_row=horizon_row,
            road_top_row=road_top_row,
            config=self.config,
            label_space=self.label_space,
        )

    def render(self, background: np.ndarray, objects: List[SceneObject]) -> np.ndarray:
        """Paint objects onto a copy of the background label map.

        Objects are painted far-to-near (sorted by ``center_row``) so nearer
        objects occlude farther ones, as in a real street scene.
        """
        labels = background.copy()
        for obj in sorted(objects, key=lambda o: o.center_row):
            self._paint_object(labels, obj)
        return labels

    # ------------------------------------------------------- background ---
    def _render_background(
        self, rng: np.random.Generator
    ) -> Tuple[np.ndarray, int, int, Tuple[int, int]]:
        cfg = self.config
        ls = self.label_space
        h, w = cfg.height, cfg.width
        labels = np.full((h, w), ls.id_of("building"), dtype=np.int64)

        horizon_row = int(rng.uniform(*cfg.horizon_fraction_range) * h)
        road_fraction = rng.uniform(*cfg.road_fraction_range)
        road_top_row = int(h * (1.0 - road_fraction))
        road_top_row = max(road_top_row, horizon_row + 2)

        # --- sky with a wavy skyline ---------------------------------------
        amplitude = cfg.skyline_roughness * h
        phase = rng.uniform(0, 2 * np.pi)
        n_waves = rng.uniform(1.0, 3.0)
        cols = np.arange(w)
        skyline = (
            horizon_row * 0.62
            + amplitude * np.sin(2 * np.pi * n_waves * cols / w + phase)
            + amplitude * 0.5 * np.sin(2 * np.pi * 2.7 * n_waves * cols / w + 2.1 * phase)
        )
        skyline = np.clip(skyline, 2, horizon_row - 1).astype(np.int64)
        rows = np.arange(h).reshape(-1, 1)
        labels[rows < skyline.reshape(1, -1)] = ls.id_of("sky")

        # --- road and sidewalks ---------------------------------------------
        labels[road_top_row:, :] = ls.id_of("road")
        sidewalk_width = int(rng.uniform(*cfg.sidewalk_fraction_range) * w)
        sidewalk_width = max(3, sidewalk_width)
        left_edge = sidewalk_width
        right_edge = w - sidewalk_width
        labels[road_top_row:, :left_edge] = ls.id_of("sidewalk")
        labels[road_top_row:, right_edge:] = ls.id_of("sidewalk")
        # A thin sidewalk strip also separates road and buildings.
        strip = max(1, int(0.03 * h))
        labels[road_top_row : road_top_row + strip, :] = ls.id_of("sidewalk")

        # --- vegetation / terrain patches -----------------------------------
        if rng.uniform() < cfg.vegetation_probability:
            self._paint_band_patches(
                labels, rng, ls.id_of("vegetation"),
                row_range=(skyline.min(), road_top_row),
                n_patches=rng.integers(1, 4),
                size_fraction=(0.08, 0.25),
            )
        if rng.uniform() < cfg.terrain_probability:
            self._paint_band_patches(
                labels, rng, ls.id_of("terrain"),
                row_range=(road_top_row, h - 1),
                n_patches=rng.integers(1, 3),
                size_fraction=(0.04, 0.12),
                column_range=(0, left_edge + 2),
            )
            self._paint_band_patches(
                labels, rng, ls.id_of("terrain"),
                row_range=(road_top_row, h - 1),
                n_patches=rng.integers(1, 3),
                size_fraction=(0.04, 0.12),
                column_range=(right_edge - 2, w),
            )

        # --- walls and fences along the sidewalk -----------------------------
        if rng.uniform() < cfg.wall_probability:
            self._paint_horizontal_strip(
                labels, rng, ls.id_of("wall"),
                row=road_top_row - max(2, int(0.04 * h)),
                thickness=max(2, int(0.05 * h)),
            )
        if rng.uniform() < cfg.fence_probability:
            self._paint_horizontal_strip(
                labels, rng, ls.id_of("fence"),
                row=road_top_row - max(2, int(0.10 * h)),
                thickness=max(1, int(0.03 * h)),
            )
        return labels, horizon_row, road_top_row, (left_edge, right_edge)

    def _paint_band_patches(
        self,
        labels: np.ndarray,
        rng: np.random.Generator,
        class_id: int,
        row_range: Tuple[int, int],
        n_patches: int,
        size_fraction: Tuple[float, float],
        column_range: Optional[Tuple[int, int]] = None,
    ) -> None:
        """Paint elliptic patches of *class_id* within a horizontal band."""
        h, w = labels.shape
        row_lo, row_hi = row_range
        if row_hi <= row_lo:
            return
        col_lo, col_hi = column_range if column_range is not None else (0, w)
        col_hi = max(col_hi, col_lo + 1)
        for _ in range(int(n_patches)):
            center_row = rng.uniform(row_lo, row_hi)
            center_col = rng.uniform(col_lo, col_hi)
            patch_h = rng.uniform(*size_fraction) * h
            patch_w = rng.uniform(*size_fraction) * w
            self._paint_ellipse(labels, class_id, center_row, center_col, patch_h, patch_w)

    def _paint_horizontal_strip(
        self, labels: np.ndarray, rng: np.random.Generator, class_id: int, row: int, thickness: int
    ) -> None:
        """Paint a horizontal strip with random lateral extent."""
        h, w = labels.shape
        row = int(np.clip(row, 0, h - 1))
        start_col = int(rng.uniform(0, 0.3) * w)
        end_col = int(rng.uniform(0.7, 1.0) * w)
        top = max(0, row - thickness // 2)
        bottom = min(h, top + thickness)
        labels[top:bottom, start_col:end_col] = class_id

    # ---------------------------------------------------------- objects ---
    def _perspective_scale(self, center_row: float, horizon_row: int) -> float:
        """Size scale for an object whose base sits at *center_row*."""
        h = self.config.height
        scale = (center_row - horizon_row) / max(1.0, h - horizon_row)
        return float(np.clip(scale, 0.18, 1.0))

    def _sample_objects(
        self,
        rng: np.random.Generator,
        horizon_row: int,
        road_top_row: int,
        sidewalk_cols: Tuple[int, int],
    ) -> List[SceneObject]:
        cfg = self.config
        ls = self.label_space
        h, w = cfg.height, cfg.width
        left_edge, right_edge = sidewalk_cols
        objects: List[SceneObject] = []
        next_id = 0

        def _add(class_name: str, center_row: float, center_col: float,
                 base_h: float, base_w: float, shape: str,
                 speed_range: Tuple[float, float]) -> None:
            nonlocal next_id
            scale = self._perspective_scale(center_row, horizon_row)
            obj_h = max(2.0, base_h * h * scale)
            obj_w = max(2.0, base_w * w * scale)
            speed = rng.uniform(*speed_range) * rng.choice([-1.0, 1.0])
            velocity = (rng.normal(0.0, 0.15), speed)
            objects.append(
                SceneObject(
                    object_id=next_id,
                    class_id=ls.id_of(class_name),
                    center_row=float(center_row),
                    center_col=float(center_col),
                    height=float(obj_h),
                    width=float(obj_w),
                    shape=shape,
                    velocity=velocity,
                )
            )
            next_id += 1

        # Cars on the road.
        for _ in range(int(rng.integers(cfg.n_cars_range[0], cfg.n_cars_range[1] + 1))):
            row = rng.uniform(road_top_row + 2, h - 3)
            col = rng.uniform(left_edge + 5, right_edge - 5)
            _add("car", row, col, base_h=0.16, base_w=0.13, shape="rect", speed_range=(0.5, 2.5))

        # Occasionally a truck or bus (larger).
        for _ in range(int(rng.integers(cfg.n_large_vehicles_range[0], cfg.n_large_vehicles_range[1] + 1))):
            name = "truck" if rng.uniform() < 0.5 else "bus"
            row = rng.uniform(road_top_row + 2, h - 6)
            col = rng.uniform(left_edge + 8, right_edge - 8)
            _add(name, row, col, base_h=0.26, base_w=0.18, shape="rect", speed_range=(0.3, 1.5))

        # Rarely a train near the horizon.
        if rng.uniform() < cfg.train_probability:
            row = rng.uniform(horizon_row + 2, road_top_row)
            _add("train", row, w * rng.uniform(0.3, 0.7), base_h=0.20, base_w=0.45,
                 shape="rect", speed_range=(0.2, 1.0))

        # Persons on the sidewalks (this concentration is what produces the
        # position-specific prior heatmap of Fig. 4).
        for _ in range(int(rng.integers(cfg.n_persons_range[0], cfg.n_persons_range[1] + 1))):
            side_left = rng.uniform() < 0.5
            col = (rng.uniform(1, left_edge + 3) if side_left
                   else rng.uniform(right_edge - 3, w - 1))
            row = rng.uniform(road_top_row - 1, h - 2)
            _add("person", row, col, base_h=0.22, base_w=0.045, shape="person",
                 speed_range=(0.1, 0.6))

        # Riders plus their two-wheelers near the road edge.
        for _ in range(int(rng.integers(cfg.n_riders_range[0], cfg.n_riders_range[1] + 1))):
            col = rng.uniform(left_edge + 2, right_edge - 2)
            row = rng.uniform(road_top_row + 1, h - 2)
            _add("rider", row, col, base_h=0.18, base_w=0.04, shape="person", speed_range=(0.4, 1.5))
            wheel_name = "bicycle" if rng.uniform() < 0.6 else "motorcycle"
            _add(wheel_name, min(h - 2.0, row + 0.05 * h), col, base_h=0.10, base_w=0.06,
                 shape="rect", speed_range=(0.4, 1.5))

        # Free-standing two-wheelers.
        for _ in range(int(rng.integers(cfg.n_two_wheelers_range[0], cfg.n_two_wheelers_range[1] + 1))):
            name = "bicycle" if rng.uniform() < 0.7 else "motorcycle"
            col = rng.uniform(1, left_edge + 4) if rng.uniform() < 0.5 else rng.uniform(right_edge - 4, w - 1)
            row = rng.uniform(road_top_row, h - 2)
            _add(name, row, col, base_h=0.10, base_w=0.06, shape="rect", speed_range=(0.0, 0.3))

        # Poles with signs / lights.
        n_poles = int(rng.integers(cfg.n_poles_range[0], cfg.n_poles_range[1] + 1))
        n_signs = int(rng.integers(cfg.n_signs_range[0], cfg.n_signs_range[1] + 1))
        n_lights = int(rng.integers(cfg.n_lights_range[0], cfg.n_lights_range[1] + 1))
        pole_cols: List[float] = []
        for _ in range(n_poles):
            col = rng.uniform(2, left_edge + 4) if rng.uniform() < 0.5 else rng.uniform(right_edge - 4, w - 2)
            row = rng.uniform(road_top_row - 6, road_top_row + 6)
            pole_cols.append(col)
            _add("pole", row, col, base_h=0.30, base_w=0.012, shape="rect", speed_range=(0.0, 0.05))
        for i in range(n_signs):
            col = pole_cols[i % len(pole_cols)] if pole_cols else rng.uniform(2, w - 2)
            row = rng.uniform(horizon_row, road_top_row)
            _add("traffic sign", row, col, base_h=0.05, base_w=0.03, shape="rect", speed_range=(0.0, 0.05))
        for i in range(n_lights):
            col = pole_cols[(i + 1) % len(pole_cols)] if pole_cols else rng.uniform(2, w - 2)
            row = rng.uniform(horizon_row - 4, road_top_row - 2)
            _add("traffic light", row, col, base_h=0.06, base_w=0.02, shape="rect", speed_range=(0.0, 0.05))

        return objects

    # --------------------------------------------------------- painting ---
    def _paint_object(self, labels: np.ndarray, obj: SceneObject) -> None:
        if obj.shape == "person":
            self._paint_person(labels, obj)
        elif obj.shape == "ellipse":
            self._paint_ellipse(labels, obj.class_id, obj.center_row, obj.center_col, obj.height, obj.width)
        else:
            self._paint_rect(labels, obj.class_id, obj.center_row, obj.center_col, obj.height, obj.width)

    @staticmethod
    def _paint_rect(
        labels: np.ndarray, class_id: int, center_row: float, center_col: float,
        height: float, width: float,
    ) -> None:
        h, w = labels.shape
        top = int(round(center_row - height / 2))
        left = int(round(center_col - width / 2))
        bottom = top + max(1, int(round(height)))
        right = left + max(1, int(round(width)))
        top, bottom = max(0, top), min(h, bottom)
        left, right = max(0, left), min(w, right)
        if top < bottom and left < right:
            labels[top:bottom, left:right] = class_id

    @staticmethod
    def _paint_ellipse(
        labels: np.ndarray, class_id: int, center_row: float, center_col: float,
        height: float, width: float,
    ) -> None:
        h, w = labels.shape
        semi_r = max(1.0, height / 2)
        semi_c = max(1.0, width / 2)
        top = max(0, int(center_row - semi_r) - 1)
        bottom = min(h, int(center_row + semi_r) + 2)
        left = max(0, int(center_col - semi_c) - 1)
        right = min(w, int(center_col + semi_c) + 2)
        if top >= bottom or left >= right:
            return
        rows = np.arange(top, bottom).reshape(-1, 1)
        cols = np.arange(left, right).reshape(1, -1)
        mask = ((rows - center_row) / semi_r) ** 2 + ((cols - center_col) / semi_c) ** 2 <= 1.0
        labels[top:bottom, left:right][mask] = class_id

    def _paint_person(self, labels: np.ndarray, obj: SceneObject) -> None:
        """A person is a body rectangle with an elliptic head on top."""
        body_height = obj.height * 0.78
        body_center_row = obj.center_row + obj.height * 0.11
        self._paint_rect(labels, obj.class_id, body_center_row, obj.center_col, body_height, obj.width)
        head_radius = max(1.0, obj.width * 0.75)
        head_center_row = obj.center_row - obj.height / 2 + head_radius
        self._paint_ellipse(
            labels, obj.class_id, head_center_row, obj.center_col, head_radius * 2, head_radius * 2
        )
