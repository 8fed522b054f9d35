"""Network adapter serving precomputed softmax dumps from disk.

The paper scores the softmax output of *real* segmentation networks; this
adapter replaces the simulated degradation model with per-frame probability
fields dumped by any external network.  Two dump formats are supported under
a dump root:

.. code-block:: text

    <dump_root>/manifest.json                             # metadata (optional)
    <dump_root>/<split>/<city>/<frame>_softmax.npy        # format "npy"
    <dump_root>/<split>.npz                               # format "npz"
                                                          #   (members "<city>/<frame>")

``.npy`` dumps are opened with ``np.memmap`` (via ``np.load(mmap_mode="r")``),
so a field is never copied into the process's own (anonymous) memory: its
pages come from the page cache as extraction reads them.  Extraction reads
all of them — the tiled softmax sweep and the class-sum product each touch
the whole field — so while a frame is extracted its mapped field is
resident, as reclaimable page cache, until the memmap is released.  On the
seed-1 512×1024×19 float64 dump frame, file-backed RSS grows by the whole
76 MiB field across ``fused_dispersion_heatmaps``.  Only extraction's
anonymous transients are O(H×W), a factor ``n_classes`` below the field.
``.npz`` archives cannot be memmapped; each member is decompressed on
access (still one frame at a time, never the whole dump).

The adapter presents the exact duck-typed network interface the pipelines
consume — ``predict_probabilities(gt_labels, index)``, ``profile.name``,
``label_space``, ``n_classes`` — so it drops into every experiment kind that
walks single frames (``metaseg`` / ``decision``) and every execution backend
unchanged.  ``index`` is the position in the validation walk;
frames are ordered by (city, frame id), the same deterministic order the
disk dataset uses, and :meth:`SoftmaxDumpNetwork.check_dataset` cross-checks
the two listings up front so a frame/dump mismatch is a
:class:`~repro.api.config.ConfigError` at resolve time, not a wrong number.

The manifest records the producing network's name (surfacing in report
provenance as if the real network had run), the class count and the dump
format::

    {"format": "npy", "profile": "mobilenetv2", "n_classes": 19, "split": "val"}
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional, Tuple, Union

import numpy as np

from repro.api.config import ConfigError
from repro.api.registry import NETWORK_PROFILES
from repro.segmentation.labels import LabelSpace, cityscapes_label_space

#: Suffix of per-frame ``.npy`` dump files.
DUMP_SUFFIX = "_softmax.npy"
#: Name of the optional metadata file under the dump root.
MANIFEST_NAME = "manifest.json"


@dataclass(frozen=True)
class SoftmaxDumpProfile:
    """Lightweight stand-in for a ``NetworkProfile`` (name only).

    Pipelines read ``network.profile.name`` for report provenance; for a
    dump-served network that is the name of the network that produced the
    dumps (from the manifest), so a disk-backed report is attributed to the
    real network, not to the adapter.
    """

    name: str = "softmax_dump"


def _load_manifest(root: Path) -> dict:
    manifest_path = root / MANIFEST_NAME
    if not manifest_path.is_file():
        return {}
    try:
        manifest = json.loads(manifest_path.read_text())
    except (OSError, ValueError) as exc:
        raise ConfigError(f"network: unreadable dump manifest {manifest_path}: {exc}") from None
    if not isinstance(manifest, dict):
        raise ConfigError(f"network: dump manifest {manifest_path} must be a JSON object")
    return manifest


class SoftmaxDumpNetwork:
    """Serves per-frame (H, W, C) probability fields from on-disk dumps.

    Parameters
    ----------
    root:
        Dump directory (see the module docstring for the layout).
    label_space:
        Label space the dumps were produced for; its class count must match
        the manifest's ``n_classes`` when present.
    mmap:
        Serve ``.npy`` dumps through ``np.memmap`` (the default).  Disabling
        it materialises each frame — only useful on filesystems without
        mmap support; the numbers are identical either way.

    It serves the manifest's ``split`` (default: the validation split, which
    is what every single-frame experiment kind walks).
    """

    def __init__(
        self,
        root: Union[str, Path],
        label_space: Optional[LabelSpace] = None,
        mmap: bool = True,
    ) -> None:
        self.root = Path(root)
        if not self.root.is_dir():
            raise ConfigError(f"network: softmax dump root {self.root} does not exist")
        self.label_space = label_space or cityscapes_label_space()
        self.mmap = bool(mmap)
        manifest = _load_manifest(self.root)
        self.split = str(manifest.get("split", "val"))
        self.profile = SoftmaxDumpProfile(name=str(manifest.get("profile", "softmax_dump")))
        declared = manifest.get("n_classes")
        if declared is not None and int(declared) != self.label_space.n_classes:
            raise ConfigError(
                f"network: dump manifest declares {declared} classes but the "
                f"label space has {self.label_space.n_classes}"
            )
        declared_format = manifest.get("format")
        self._npz_path = self.root / f"{self.split}.npz"
        if declared_format is None:
            declared_format = "npz" if self._npz_path.is_file() else "npy"
        if declared_format not in ("npy", "npz"):
            raise ConfigError(
                f"network: unknown dump format {declared_format!r} (use 'npy' or 'npz')"
            )
        self.format = declared_format
        #: Ordered (frame id, member-or-path) pairs; the index order of the walk.
        self._frames: List[Tuple[str, str]] = (
            self._discover_npz() if self.format == "npz" else self._discover_npy()
        )
        if not self._frames:
            raise ConfigError(
                f"network: no softmax dumps for split {self.split!r} under {self.root}"
            )

    def __repr__(self) -> str:
        return (
            f"SoftmaxDumpNetwork(root={str(self.root)!r}, split={self.split!r}, "
            f"format={self.format!r}, n_frames={len(self._frames)}, mmap={self.mmap})"
        )

    # ------------------------------------------------------------ discovery --
    def _discover_npy(self) -> List[Tuple[str, str]]:
        split_dir = self.root / self.split
        if not split_dir.is_dir():
            raise ConfigError(
                f"network: dump root {self.root} has no {self.split!r} split directory"
            )
        frames: List[Tuple[str, str]] = []
        for city_dir in sorted(p for p in split_dir.iterdir() if p.is_dir()):
            for dump_path in sorted(city_dir.glob(f"*{DUMP_SUFFIX}")):
                frame_id = dump_path.name[: -len(DUMP_SUFFIX)]
                frames.append((frame_id, str(dump_path)))
        return frames

    def _discover_npz(self) -> List[Tuple[str, str]]:
        if not self._npz_path.is_file():
            raise ConfigError(f"network: dump archive {self._npz_path} does not exist")
        try:
            with np.load(self._npz_path) as archive:
                members = list(archive.files)
        except (OSError, ValueError) as exc:
            raise ConfigError(
                f"network: unreadable dump archive {self._npz_path}: {exc}"
            ) from None
        # Members are "<city>/<frame>"; sorting them reproduces the
        # (city, frame id) order of the npy layout and the disk dataset.
        return [(member.rsplit("/", 1)[-1], member) for member in sorted(members)]

    # ------------------------------------------------------------------ API --
    @property
    def n_classes(self) -> int:
        """Number of classes in the dumped softmax fields."""
        return self.label_space.n_classes

    @property
    def n_frames(self) -> int:
        """Number of dumped frames of the served split."""
        return len(self._frames)

    def frame_ids(self) -> List[str]:
        """Ordered frame ids of the served split (the walk's index order)."""
        return [frame_id for frame_id, _ in self._frames]

    def check_dataset(self, dataset) -> None:
        """Fail fast on a frame/dump mismatch with the dataset to be walked.

        Called by the Runner after both components are built.  A substrate
        that exposes per-split ``frame_ids`` (the disk dataset) is checked
        frame by frame; any other substrate (e.g. a synthetic one whose
        softmax fields were dumped) is checked by count.
        """
        ids = None
        frame_ids = getattr(dataset, "frame_ids", None)
        if callable(frame_ids):
            ids = list(frame_ids("val"))
        n_val = getattr(dataset, "n_val", None)
        if ids is not None:
            if ids != self.frame_ids():
                missing = sorted(set(ids) - set(self.frame_ids()))[:3]
                extra = sorted(set(self.frame_ids()) - set(ids))[:3]
                raise ConfigError(
                    f"network: softmax dumps do not match the dataset frames "
                    f"(dataset has {len(ids)}, dumps have {self.n_frames}; "
                    f"e.g. missing dumps {missing}, unmatched dumps {extra})"
                )
        elif n_val is not None and int(n_val) != self.n_frames:
            raise ConfigError(
                f"network: {self.n_frames} softmax dumps for a dataset with "
                f"n_val={int(n_val)} validation samples"
            )
        n_classes = getattr(dataset, "n_classes", None)
        if n_classes is not None and int(n_classes) != self.n_classes:
            raise ConfigError(
                f"network: dumps carry {self.n_classes} classes, "
                f"dataset has {int(n_classes)}"
            )

    # ---------------------------------------------------------------- serving --
    def _read(self, frame_id: str, ref: str) -> np.ndarray:
        if self.format == "npz":
            try:
                with np.load(self._npz_path) as archive:
                    return archive[ref]
            except (OSError, ValueError, KeyError, zipfile_error) as exc:
                raise ConfigError(
                    f"network: cannot read dump of frame {frame_id!r} "
                    f"from {self._npz_path}: {exc}"
                ) from None
        try:
            return np.load(ref, mmap_mode="r" if self.mmap else None)
        except (OSError, ValueError) as exc:
            raise ConfigError(
                f"network: cannot read softmax dump {ref} of frame {frame_id!r}: {exc}"
            ) from None

    def predict_probabilities(self, gt_labels: np.ndarray, index: int = 0) -> np.ndarray:
        """Return the dumped (H, W, C) softmax field of frame *index*.

        ``gt_labels`` is only used to validate the spatial shape — the dump
        *is* the network output; nothing is recomputed.  For ``.npy`` dumps
        the returned array is a read-only memmap: downstream code slices it
        and the field is paged in on demand, never loaded wholesale.
        """
        if not 0 <= index < len(self._frames):
            raise ConfigError(
                f"network: sample index {index} is outside the dumped range "
                f"[0, {len(self._frames)}); the dataset and the dump disagree"
            )
        frame_id, ref = self._frames[index]
        probs = self._read(frame_id, ref)
        if probs.ndim != 3 or probs.shape[2] != self.n_classes:
            raise ConfigError(
                f"network: dump of frame {frame_id!r} has shape {probs.shape}, "
                f"expected (H, W, {self.n_classes})"
            )
        gt = np.asarray(gt_labels)
        if probs.shape[:2] != gt.shape:
            raise ConfigError(
                f"network: dump of frame {frame_id!r} is {probs.shape[:2]} "
                f"but its label map is {gt.shape}"
            )
        return probs

    def predict_labels(self, gt_labels: np.ndarray, index: int = 0) -> np.ndarray:
        """MAP (argmax) prediction of frame *index* (streams through the memmap)."""
        probs = self.predict_probabilities(gt_labels, index=index)
        return np.argmax(probs, axis=2).astype(np.int64)

    def __call__(self, gt_labels: np.ndarray, index: int = 0) -> np.ndarray:
        return self.predict_probabilities(gt_labels, index=index)


# zipfile raises its own BadZipFile (a subclass of Exception, not OSError)
# for corrupt .npz archives; alias it so _read's except clause stays flat.
from zipfile import BadZipFile as zipfile_error  # noqa: E402


# ---------------------------------------------------------------- registry --

@NETWORK_PROFILES.register("softmax_dump")
def build_softmax_dump(network, seed: int) -> SoftmaxDumpNetwork:
    """Serve precomputed softmax dumps (.npy memmap / .npz) instead of simulating."""
    if not network.dump_root:
        raise ConfigError(
            "network: the softmax_dump profile requires network.dump_root "
            "(path to a softmax dump directory)"
        )
    # Dumps are deterministic data; the seed only drives simulated networks.
    return SoftmaxDumpNetwork(root=network.dump_root, mmap=network.mmap)


#: Marks the entry as a network *adapter* factory: the Runner calls it as
#: ``factory(config.network, seed)`` and uses the returned network directly,
#: instead of calling it with no arguments for a NetworkProfile to wrap.
build_softmax_dump.builds_network = True
