"""Small array helpers: aggregation, resizing, and class sums over tiles.

The multi-resolution extension of MetaSeg (Section II of the paper, ref. [18])
resizes its nested centre crops (nearest and bilinear) and renormalises the
probability fields it blends.  The two walks over a softmax field, the simulated
network's softmax (:mod:`repro.segmentation.network`) and the dispersion
sweep (:mod:`repro.core.heatmaps`), share the tile size :data:`TILE_PIXELS`
and :func:`_class_sum`, which adds class planes in the order ``np.sum`` adds
the classes of a C-contiguous field.  Everything is plain numpy, so the
library has no image-processing dependency.
"""

from __future__ import annotations

from typing import Dict, Mapping, Sequence, Tuple, Union

import numpy as np

#: Pixel budget of one tile of a class-major walk over an (H, W, C) field.  A
#: tile is ``max(1, TILE_PIXELS // W)`` rows, copied once into a class-major
#: ``(C, n)`` work buffer; at C = 19 that buffer is ~1.2 MB and the eight
#: summation lanes ~0.5 MB, so every pass over a tile reads it from cache
#: rather than memory.
TILE_PIXELS = 8192

#: Lane count and block length of numpy's ``pairwise_sum``, the summation
#: behind ``np.sum`` over a contiguous axis, which :func:`_class_sum` mirrors.
_LANES = 8
_PAIRWISE_BLOCK = 128


def mean_std(values: Union[Sequence[float], np.ndarray]) -> Tuple[float, float]:
    """Mean and population standard deviation (ddof=0) of a value sequence.

    This is the canonical aggregation used for every "mean (+/- std) over the
    random resampling runs" number of the paper's tables; the pipelines and
    the experiment reports all share this helper.
    """
    array = np.asarray(list(values), dtype=np.float64)
    if array.size == 0:
        raise ValueError("mean_std needs at least one value")
    return float(array.mean()), float(array.std(ddof=0))


def mean_std_by_key(runs: Sequence[Mapping[str, float]]) -> Dict[str, Tuple[float, float]]:
    """:func:`mean_std` of every key over runs that share the first run's keys."""
    return {key: mean_std([run[key] for run in runs]) for key in runs[0]}


def _resize_indices(src: int, dst: int) -> np.ndarray:
    """Nearest-neighbour source indices for resizing a length-*src* axis to *dst*."""
    if dst <= 0:
        raise ValueError("target size must be positive")
    return np.minimum((np.arange(dst) + 0.5) * src / dst, src - 1).astype(np.int64)


def resize_nearest(array: np.ndarray, height: int, width: int) -> np.ndarray:
    """Nearest-neighbour resize of a 2-D or 3-D array to (height, width)."""
    rows = _resize_indices(array.shape[0], height)
    cols = _resize_indices(array.shape[1], width)
    return array[np.ix_(rows, cols)] if array.ndim == 2 else array[rows][:, cols]


def resize_bilinear(array: np.ndarray, height: int, width: int) -> np.ndarray:
    """Bilinear resize of a 2-D or 3-D float array to (height, width)."""
    arr = np.asarray(array, dtype=np.float64)
    src_h, src_w = arr.shape[:2]
    if height <= 0 or width <= 0:
        raise ValueError("target size must be positive")
    # Continuous source coordinates of target pixel centers.
    ys = (np.arange(height) + 0.5) * src_h / height - 0.5
    xs = (np.arange(width) + 0.5) * src_w / width - 0.5
    ys = np.clip(ys, 0, src_h - 1)
    xs = np.clip(xs, 0, src_w - 1)
    y0 = np.floor(ys).astype(np.int64)
    x0 = np.floor(xs).astype(np.int64)
    y1 = np.minimum(y0 + 1, src_h - 1)
    x1 = np.minimum(x0 + 1, src_w - 1)
    wy = (ys - y0).reshape(-1, 1)
    wx = (xs - x0).reshape(1, -1)
    if arr.ndim == 3:
        wy = wy[..., None]
        wx = wx[..., None]
    top = arr[y0][:, x0] * (1 - wx) + arr[y0][:, x1] * wx
    bottom = arr[y1][:, x0] * (1 - wx) + arr[y1][:, x1] * wx
    return top * (1 - wy) + bottom * wy


def renormalise_probabilities(probs: np.ndarray) -> np.ndarray:
    """Clip to non-negative and renormalise an (H, W, C) probability field."""
    arr = np.clip(np.asarray(probs, dtype=np.float64), 0.0, None)
    sums = arr.sum(axis=2, keepdims=True)
    sums[sums == 0] = 1.0
    return arr / sums


def _sequential_sum(planes: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``out = ((0.0 + planes[0]) + planes[1]) + ...``, one plane at a time."""
    np.add(planes[0], 0.0, out=out)
    for plane in planes[1:]:
        np.add(out, plane, out=out)
    return out


def _pairwise_sum(planes: np.ndarray, out: np.ndarray, lanes) -> np.ndarray:
    """numpy's ``pairwise_sum`` of every pixel's classes, over class planes.

    Below eight classes the sum is sequential.  Up to 128 the classes feed
    eight lanes in blocks of eight, the lanes combine as
    ``((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7))`` and the tail is added in order;
    above that the classes split at a multiple of eight near the middle and
    each half recurses.  *lanes* is ``(8, n)`` scratch, or None to accumulate
    in (and overwrite) the planes themselves.
    """
    n_classes = len(planes)
    if n_classes < _LANES:
        return _sequential_sum(planes, out)
    if n_classes > _PAIRWISE_BLOCK:
        half = n_classes // 2
        half -= half % _LANES
        _pairwise_sum(planes[:half], out, lanes)
        right = _pairwise_sum(planes[half:], np.empty_like(out), lanes)
        return np.add(out, right, out=out)
    body = n_classes - n_classes % _LANES
    if lanes is None:
        lanes = planes[:_LANES]
    else:
        np.copyto(lanes, planes[:_LANES])
    for start in range(_LANES, body, _LANES):
        np.add(lanes, planes[start:start + _LANES], out=lanes)
    np.add(lanes[0::2], lanes[1::2], out=lanes[0::2])
    np.add(lanes[0::4], lanes[2::4], out=lanes[0::4])
    np.add(lanes[0], lanes[4], out=out)
    for plane in planes[body:]:
        np.add(out, plane, out=out)
    return out


def _class_sum(planes: np.ndarray, out: np.ndarray, lanes=None) -> np.ndarray:
    """Sum ``(C, n)`` class planes over C into *out*, bitwise as numpy would.

    ``np.sum(x, axis=-1)`` of a C-contiguous ``x`` starts each pixel at the
    identity 0.0 and adds ``pairwise_sum`` of its classes
    (:func:`_pairwise_sum`).  *lanes* as in :func:`_pairwise_sum`.
    """
    return np.add(_pairwise_sum(planes, out, lanes), 0.0, out=out)
