"""Utility subpackage: low-level helpers shared by all other subpackages.

The modules in here implement substrate functionality the paper relies on
implicitly (connected component labelling, reproducible random number
handling, array manipulation) without depending on anything outside numpy.
"""

from repro.utils.rng import RandomState, as_rng
from repro.utils.arrays import mean_std, resize_nearest, resize_bilinear
from repro.utils.validation import (
    check_probability_field,
    check_label_map,
    check_same_shape,
    check_in_range,
)

__all__ = [
    "RandomState",
    "as_rng",
    "mean_std",
    "resize_nearest",
    "resize_bilinear",
    "check_probability_field",
    "check_label_map",
    "check_same_shape",
    "check_in_range",
]
