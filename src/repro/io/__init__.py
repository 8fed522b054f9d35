"""Real-data I/O layer: on-disk datasets and precomputed-network adapters.

Everything in this package reads files instead of generating scenes:

* :mod:`repro.io.png` — dependency-free 8-bit grayscale PNG codec;
* :mod:`repro.io.cityscapes` — the ``cityscapes_disk`` dataset substrate
  walking a Cityscapes-layout tree lazily;
* :mod:`repro.io.softmax` — the ``softmax_dump`` network adapter serving
  per-frame probability fields from ``.npy``/``.npz`` dumps via memmap;
* :mod:`repro.io.fixture` — deterministic fixture generator writing a tiny
  tree from the synthetic stack (tests/CI need no download).

:mod:`repro.api.registry` names the two builders, ``cityscapes_disk`` and
``softmax_dump``.  The fixture writer builds on the API layer, so it is
imported from :mod:`repro.io.fixture` and not re-exported here.
"""

from repro.io.cityscapes import CityscapesDiskDataset, discover_frames, raw_to_train_lut
from repro.io.png import PngError, read_png_gray8, write_png_gray8
from repro.io.softmax import SoftmaxDumpNetwork

__all__ = [
    "CityscapesDiskDataset",
    "SoftmaxDumpNetwork",
    "PngError",
    "read_png_gray8",
    "write_png_gray8",
    "discover_frames",
    "raw_to_train_lut",
]
