"""Cityscapes-like semantic label space.

The paper's experiments use the 19 Cityscapes training classes grouped into
categories (flat, construction, object, nature, sky, human, vehicle).  The
false-negative experiments of Section IV focus on the *human* category
(person + rider).  This module defines an equivalent label space for the
synthetic substrate, including colours for visualisation and an
``is_thing`` flag distinguishing instance-like classes from background
("stuff") classes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple


@dataclass(frozen=True)
class LabelSpec:
    """Description of one semantic class."""

    train_id: int
    name: str
    category: str
    color: Tuple[int, int, int]
    is_thing: bool
    typical_relative_size: float
    """Rough fraction of image pixels a single instance of this class covers.

    Only used by the synthetic scene generator to size objects plausibly; it
    has no influence on the MetaSeg algorithms themselves.
    """
    raw_id: int = -1
    """Raw label id of the class in on-disk Cityscapes ``gtFine`` annotation
    files (``*_gtFine_labelIds.png``).  Raw ids are the stable file format;
    the consecutive ``train_id`` values are the in-memory representation, so
    disk readers remap raw → train through :meth:`LabelSpace.raw_id_map`.
    ``-1`` marks a class without a raw-file id (synthetic-only spaces)."""


_CITYSCAPES_SPECS: List[LabelSpec] = [
    LabelSpec(0, "road", "flat", (128, 64, 128), False, 0.30, raw_id=7),
    LabelSpec(1, "sidewalk", "flat", (244, 35, 232), False, 0.08, raw_id=8),
    LabelSpec(2, "building", "construction", (70, 70, 70), False, 0.20, raw_id=11),
    LabelSpec(3, "wall", "construction", (102, 102, 156), False, 0.02, raw_id=12),
    LabelSpec(4, "fence", "construction", (190, 153, 153), False, 0.02, raw_id=13),
    LabelSpec(5, "pole", "object", (153, 153, 153), True, 0.002, raw_id=17),
    LabelSpec(6, "traffic light", "object", (250, 170, 30), True, 0.001, raw_id=19),
    LabelSpec(7, "traffic sign", "object", (220, 220, 0), True, 0.0015, raw_id=20),
    LabelSpec(8, "vegetation", "nature", (107, 142, 35), False, 0.10, raw_id=21),
    LabelSpec(9, "terrain", "nature", (152, 251, 152), False, 0.03, raw_id=22),
    LabelSpec(10, "sky", "sky", (70, 130, 180), False, 0.15, raw_id=23),
    LabelSpec(11, "person", "human", (220, 20, 60), True, 0.004, raw_id=24),
    LabelSpec(12, "rider", "human", (255, 0, 0), True, 0.003, raw_id=25),
    LabelSpec(13, "car", "vehicle", (0, 0, 142), True, 0.02, raw_id=26),
    LabelSpec(14, "truck", "vehicle", (0, 0, 70), True, 0.03, raw_id=27),
    LabelSpec(15, "bus", "vehicle", (0, 60, 100), True, 0.035, raw_id=28),
    LabelSpec(16, "train", "vehicle", (0, 80, 100), True, 0.04, raw_id=31),
    LabelSpec(17, "motorcycle", "vehicle", (0, 0, 230), True, 0.003, raw_id=32),
    LabelSpec(18, "bicycle", "vehicle", (119, 11, 32), True, 0.003, raw_id=33),
]

#: Category name used throughout Section IV of the paper ("class human").
HUMAN_CATEGORY = "human"

#: Conventional id for pixels without ground truth (white regions in Fig. 1).
IGNORE_ID = -1


@dataclass(frozen=True)
class LabelSpace:
    """An ordered collection of :class:`LabelSpec` objects.

    Provides lookups by name, train id and category, mirroring the Cityscapes
    ``labels.py`` helper the original MetaSeg code relies on.
    """

    specs: Tuple[LabelSpec, ...]
    _by_name: Dict[str, LabelSpec] = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self) -> None:
        ids = [spec.train_id for spec in self.specs]
        if ids != list(range(len(self.specs))):
            raise ValueError("train ids must be consecutive integers starting at 0")
        names = [spec.name for spec in self.specs]
        if len(set(names)) != len(names):
            raise ValueError("label names must be unique")
        object.__setattr__(self, "_by_name", {spec.name: spec for spec in self.specs})

    # -- basic protocol ----------------------------------------------------
    def __len__(self) -> int:
        return len(self.specs)

    def __iter__(self):
        return iter(self.specs)

    def __getitem__(self, train_id: int) -> LabelSpec:
        return self.specs[train_id]

    # -- lookups -----------------------------------------------------------
    @property
    def n_classes(self) -> int:
        """Number of semantic classes."""
        return len(self.specs)

    def by_name(self, name: str) -> LabelSpec:
        """Return the spec with the given class name."""
        try:
            return self._by_name[name]
        except KeyError as exc:
            raise KeyError(f"unknown class name {name!r}") from exc

    def id_of(self, name: str) -> int:
        """Train id of the class with the given name."""
        return self.by_name(name).train_id

    def names(self) -> List[str]:
        """All class names in train-id order."""
        return [spec.name for spec in self.specs]

    def ids_in_category(self, category: str) -> List[int]:
        """Train ids belonging to the given category (e.g. ``"human"``)."""
        ids = [spec.train_id for spec in self.specs if spec.category == category]
        if not ids:
            raise KeyError(f"unknown category {category!r}")
        return ids

    def thing_ids(self) -> List[int]:
        """Train ids of instance-like ("thing") classes."""
        return [spec.train_id for spec in self.specs if spec.is_thing]

    def color_map(self) -> Dict[int, Tuple[int, int, int]]:
        """Mapping train id → RGB colour (for PPM visualisations)."""
        return {spec.train_id: spec.color for spec in self.specs}

    # -- raw (on-disk) id mapping ------------------------------------------
    def raw_id_map(self) -> Dict[int, int]:
        """Mapping raw (on-disk) label id → train id.

        Raw ids not present in the mapping — "unlabeled", "ego vehicle",
        "license plate", every other Cityscapes void class — decode to the
        ignore id :data:`IGNORE_ID`; disk readers apply exactly this rule.
        Classes without a raw id (``raw_id == -1``) are skipped, so a
        synthetic-only label space yields an empty map.
        """
        mapping: Dict[int, int] = {}
        for spec in self.specs:
            if spec.raw_id < 0:
                continue
            if spec.raw_id in mapping:
                raise ValueError(
                    f"raw id {spec.raw_id} is claimed by two classes "
                    f"({self.specs[mapping[spec.raw_id]].name!r} and {spec.name!r})"
                )
            mapping[spec.raw_id] = spec.train_id
        return mapping

    def train_id_to_raw(self, train_id: int) -> int:
        """Raw (on-disk) label id of a train id; ignore encodes as raw 0.

        Raw id 0 is the Cityscapes "unlabeled" class, which :meth:`raw_id_map`
        decodes back to :data:`IGNORE_ID` — so a label map round-trips
        through the disk encoding bit-exactly.
        """
        if train_id == IGNORE_ID:
            return 0
        raw = self.specs[train_id].raw_id
        if raw < 0:
            raise ValueError(
                f"class {self.specs[train_id].name!r} has no raw (on-disk) label id"
            )
        return raw

    def confusable_classes(self, train_id: int) -> List[int]:
        """Classes a segmentation network plausibly confuses with *train_id*.

        Confusions happen predominantly within a category (person ↔ rider,
        car ↔ truck ↔ bus, ...) plus a small set of well-known cross-category
        confusions (terrain ↔ vegetation, sidewalk ↔ road, wall ↔ building).
        Used by the simulated network's degradation model.
        """
        spec = self.specs[train_id]
        same_category = [
            other.train_id
            for other in self.specs
            if other.category == spec.category and other.train_id != train_id
        ]
        extra: Dict[str, Sequence[str]] = {
            "road": ("sidewalk", "terrain"),
            "sidewalk": ("road", "terrain"),
            "terrain": ("vegetation", "sidewalk"),
            "vegetation": ("terrain", "building"),
            "wall": ("building", "fence"),
            "fence": ("wall", "vegetation"),
            "building": ("wall", "vegetation"),
            "pole": ("traffic sign", "building"),
            "traffic light": ("traffic sign", "pole"),
            "traffic sign": ("pole", "building"),
            "person": ("rider", "bicycle"),
            "rider": ("person", "motorcycle"),
            "bicycle": ("motorcycle", "person"),
            "motorcycle": ("bicycle", "rider"),
            "sky": ("building",),
        }
        extra_ids = [self.id_of(name) for name in extra.get(spec.name, ())]
        combined: List[int] = []
        for candidate in same_category + extra_ids:
            if candidate != train_id and candidate not in combined:
                combined.append(candidate)
        if not combined:
            # Fall back to the class most similar in typical size.
            others = sorted(
                (o for o in self.specs if o.train_id != train_id),
                key=lambda o: abs(o.typical_relative_size - spec.typical_relative_size),
            )
            combined = [others[0].train_id]
        return combined


def cityscapes_label_space() -> LabelSpace:
    """Return the 19-class Cityscapes-like label space used by the paper."""
    return LabelSpace(specs=tuple(_CITYSCAPES_SPECS))
