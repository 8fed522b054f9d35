"""Binary PPM reader: the round trip that checks
:func:`repro.core.visualization.write_ppm`."""

from __future__ import annotations

from pathlib import Path
from typing import Union

import numpy as np


def read_ppm(path: Union[str, Path]) -> np.ndarray:
    """Read back a binary PPM (P6) file written by :func:`write_ppm`."""
    with open(path, "rb") as handle:
        magic = handle.readline().strip()
        if magic != b"P6":
            raise ValueError(f"not a binary PPM file: {path}")
        dims = handle.readline().split()
        width, height = int(dims[0]), int(dims[1])
        maxval = int(handle.readline())
        if maxval != 255:
            raise ValueError("only 8-bit PPM files are supported")
        data = handle.read(width * height * 3)
    return np.frombuffer(data, dtype=np.uint8).reshape(height, width, 3)
