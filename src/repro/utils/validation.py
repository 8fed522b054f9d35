"""Argument validation helpers used across the library.

Keeping validation in one place makes error messages uniform and keeps the
computational modules focused on their actual algorithms.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np


def check_label_map(labels: np.ndarray, name: str = "labels") -> np.ndarray:
    """Validate a 2-D integer label map and return it as an ``int64`` array.

    A label map assigns one integer class id to every pixel.  Negative values
    are allowed only for the conventional "ignore" id ``-1`` (pixels without
    ground truth, cf. the white regions in Fig. 1 of the paper).
    """
    arr = np.asarray(labels)
    if arr.ndim != 2:
        raise ValueError(f"{name} must be 2-D (H, W), got shape {arr.shape}")
    if arr.size == 0:
        raise ValueError(f"{name} must be non-empty")
    if not np.issubdtype(arr.dtype, np.integer):
        if not (np.issubdtype(arr.dtype, np.floating) and np.all(arr == np.round(arr))):
            raise TypeError(f"{name} must be an integer array, got dtype {arr.dtype}")
        # inf, -inf and huge integral floats pass the test above but have no
        # int64 value; name them instead of casting them to garbage.
        outside = ~((arr >= -(2.0**63)) & (arr < 2.0**63))
        if outside.any():
            raise ValueError(
                f"{name} must be finite and within the int64 range, "
                f"found {arr[outside][0]}"
            )
    arr = arr.astype(np.int64, copy=False)
    if arr.min() < -1:
        raise ValueError(
            f"{name} may not contain values below -1 (the ignore id), "
            f"found {arr.min()}"
        )
    return arr


#: Tolerance of :func:`check_probability_field` on negative entries and on
#: each pixel's deviation of its class sum from one.
PROBABILITY_TOL = 1e-4


def check_probability_field(probs: np.ndarray) -> np.ndarray:
    """Validate an (H, W, C) per-pixel class probability field.

    Each pixel's class distribution must be non-negative and sum to one within
    :data:`PROBABILITY_TOL`.  Returns the field as ``float64``.

    Each pixel's classes are summed as ``np.sum`` sums the field's
    C-contiguous copy (pairwise), so every memory layout of the same values
    gets the same verdict.  Only a field whose class axis does not have unit
    stride (Fortran order, reversed or strided classes) is copied for it.
    """
    arr = check_probability_shape(probs)
    negative = bool(np.any(arr < -PROBABILITY_TOL))
    rows = arr if arr.strides[2] == arr.itemsize else np.ascontiguousarray(arr)
    deviation = 0.0 if negative else float(np.abs(rows.sum(axis=2) - 1.0).max())
    check_probability_verdict(negative, deviation)
    return arr


def check_probability_shape(probs: np.ndarray) -> np.ndarray:
    """The shape half of :func:`check_probability_field`.

    Checks that the field is a non-empty (H, W, C) array with at least two
    classes before converting it: nothing the size of the field is
    allocated for a rejected one, and ``float64`` input is returned without
    a copy.
    """
    arr = np.asarray(probs)
    if arr.ndim != 3:
        raise ValueError(f"probs must be 3-D (H, W, C), got shape {arr.shape}")
    if arr.shape[2] < 2:
        raise ValueError(f"probs needs at least 2 classes, got {arr.shape[2]}")
    if arr.size == 0:
        raise ValueError("probs must be non-empty")
    return arr.astype(np.float64, copy=False)


def check_probability_verdict(negative: bool, max_deviation: float) -> None:
    """The value half of :func:`check_probability_field`, from its reductions.

    *negative* says whether any entry lies below ``-PROBABILITY_TOL``;
    *max_deviation* is the largest ``|sum_c p_c - 1|`` over the field's
    pixels (NaN when any sum is NaN).  The row-sum test is
    ``np.allclose(sums, 1.0, atol=PROBABILITY_TOL)`` applied to that maximum,
    so a field reduced in tiles gets the same verdict and message as one
    reduced whole.
    """
    if negative:
        raise ValueError("probs contains negative probabilities")
    # allclose's bound, atol + rtol * |1.0|; NaN fails it like allclose does.
    if not max_deviation <= PROBABILITY_TOL + 1e-5:
        raise ValueError(
            f"probs rows must sum to 1 (max deviation {max_deviation:.2e} exceeds tolerance)"
        )


def check_same_shape(
    a: np.ndarray, b: np.ndarray, name_a: str = "a", name_b: str = "b"
) -> None:
    """Raise if the leading 2-D shapes of *a* and *b* differ."""
    if a.shape[:2] != b.shape[:2]:
        raise ValueError(
            f"{name_a} and {name_b} must share the same spatial shape, "
            f"got {a.shape[:2]} vs {b.shape[:2]}"
        )


def check_in_range(
    value: float,
    low: Optional[float] = None,
    high: Optional[float] = None,
    name: str = "value",
    inclusive: Tuple[bool, bool] = (True, True),
) -> float:
    """Check that a scalar lies in the interval [low, high] (or open variants)."""
    value = float(value)
    if low is not None:
        if inclusive[0] and value < low:
            raise ValueError(f"{name} must be >= {low}, got {value}")
        if not inclusive[0] and value <= low:
            raise ValueError(f"{name} must be > {low}, got {value}")
    if high is not None:
        if inclusive[1] and value > high:
            raise ValueError(f"{name} must be <= {high}, got {value}")
        if not inclusive[1] and value >= high:
            raise ValueError(f"{name} must be < {high}, got {value}")
    return value


def check_feature_matrix(
    x: np.ndarray, name: str = "X", allow_empty: bool = False
) -> np.ndarray:
    """Validate a 2-D feature matrix with finite float entries."""
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim == 1:
        arr = arr.reshape(-1, 1)
    if arr.ndim != 2:
        raise ValueError(f"{name} must be 2-D (n_samples, n_features), got {arr.shape}")
    if not allow_empty and arr.shape[0] == 0:
        raise ValueError(f"{name} must contain at least one sample")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must contain only finite values")
    return arr


def check_vector(
    y: np.ndarray, n: Optional[int] = None, name: str = "y"
) -> np.ndarray:
    """Validate a 1-D float vector, optionally checking its length."""
    arr = np.asarray(y, dtype=np.float64).ravel()
    if n is not None and arr.shape[0] != n:
        raise ValueError(f"{name} must have length {n}, got {arr.shape[0]}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must contain only finite values")
    return arr


def check_binary_labels(y: np.ndarray, name: str = "y") -> np.ndarray:
    """Validate a vector of binary {0, 1} labels."""
    arr = np.asarray(y).ravel()
    unique = np.unique(arr)
    if not np.all(np.isin(unique, [0, 1])):
        raise ValueError(f"{name} must contain only 0/1 labels, found {unique}")
    return arr.astype(np.int64)
