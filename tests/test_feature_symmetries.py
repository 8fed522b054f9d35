"""Symmetries of the segment features that hold on every host, up to rounding.

The metrics µ(k) are functions of the segment: of its pixels' class
distributions and of its shape.  So flipping, transposing or rotating the
frame, or renaming the classes, must give the same segments with the same
features, wherever the segment now sits and whatever its class is called.
None of this needs seed code or pinned numbers.

Segments of the original and the transformed frame are paired through their
pixels.  Then, per pair:

* segment counts, sizes (S, S_in, S_bd and their ratios), the predicted
  class (mapped back), the thing flag and IoU are equal exactly;
* the integer coordinate sums move as the transform moves the pixels, and
  the centroid columns are exactly the normalised mapped centroid;
* every other column is a mean.  On each side it lies within the recursive
  summation bound ``n · 2**-53 · Σ|x|`` of the exact mean of that side's
  pixel values, n being the pixels summed; the boundary-relative columns
  are exactly their mean times ``S_bd / S``.  The pixel values themselves
  move exactly with the pixels.  Under a renaming of the classes the
  entropy map changes its class order, so on each side it lies within the
  same bound, over the C classes summed, of the exact entropy of its terms.

The bound is checked one-sided, against exact rational sums, because it is
a bound on the distance to the exact value: two summation orders can differ
by twice as much (seed 224, ``flip_lr``: a three-pixel class-probability
mean moves by 2 ulps, while each side is within its bound of the exact
mean).  No tolerance is looser than that bound.

The Bayes and ML decision rules are checked the same way: permuting the
classes of the field and of the priors permutes their labels exactly.

Frames are small, seeded and tie-free, built like the fields of
``tests/test_segment_sum_order.py``.  Hypothesis runs derandomized, so the
examples are the same on every run.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.heatmaps import SWEEP_COLUMNS, fused_dispersion_heatmaps
from repro.core.metrics import SegmentMetricsExtractor
from repro.decision.rules import bayes_rule, maximum_likelihood_rule
from repro.segmentation.labels import LabelSpace, LabelSpec

#: log2 of the unit roundoff of float64.
ROUNDOFF_BITS = 53
#: Exact sums are Python ints in units of 2**-SCALE; every float64 of at
#: least 2**-1047 is a whole number of those units.
SCALE = 1100

SYMMETRY_SETTINGS = settings(
    max_examples=40, deadline=None, derandomize=True, database=None
)
SEEDS = st.integers(0, 2 ** 32 - 1)


def _space(things) -> LabelSpace:
    return LabelSpace(tuple(
        LabelSpec(index, f"class{index}", "object", (0, 0, 0), bool(thing), 0.01)
        for index, thing in enumerate(things)
    ))


def _assert_tie_free(values: np.ndarray) -> None:
    top_two = np.sort(values, axis=2)[:, :, -2:]
    assert np.all(top_two[:, :, 0] < top_two[:, :, 1]), "generator made a tie"


def _frame(seed: int):
    """A seeded small tie-free softmax field with chunky segments, a ground
    truth that mostly agrees with its argmax (some pixels ignored) and the
    thing flags of its classes."""
    rng = np.random.default_rng(seed)
    n_classes = int(rng.integers(3, 20))
    height, width = ((1, 17), (13, 1), (2, 11))[seed % 3] if seed % 4 == 3 else (
        int(rng.integers(3, 25)), int(rng.integers(3, 25))
    )
    cell = int(rng.integers(1, 5))
    grid = rng.integers(0, n_classes, size=(height // cell + 1, width // cell + 1))
    bias = np.kron(grid, np.ones((cell, cell), dtype=np.int64))[:height, :width]
    logits = rng.normal(0.0, 1.0, size=(height, width, n_classes))
    rows, cols = np.indices((height, width))
    logits[rows, cols, bias] += rng.uniform(0.5, 4.0)
    probs = np.exp(logits)
    probs /= probs.sum(axis=2, keepdims=True)
    _assert_tie_free(probs)
    gt = np.where(
        rng.random((height, width)) < 0.7,
        probs.argmax(axis=2),
        rng.integers(0, n_classes, size=(height, width)),
    )
    gt[rng.random((height, width)) < 0.1] = -1
    things = rng.random(n_classes) < 0.5
    return probs, gt, things


# ---------------------------------------------------------------- exact sums
def _exact(values: np.ndarray) -> np.ndarray:
    """*values* as an object array of Python ints in units of 2**-SCALE."""
    mantissa, exponent = np.frexp(np.atleast_1d(np.asarray(values, dtype=np.float64)))
    shift = exponent.astype(np.int64) - ROUNDOFF_BITS + SCALE
    assert np.all((shift >= 0) | (mantissa == 0)), "value below the exact scale"
    digits = np.ldexp(mantissa, ROUNDOFF_BITS).astype(np.int64).astype(object)
    return np.left_shift(digits, np.maximum(shift, 0).astype(object))


def _group_sums(keys: np.ndarray, values: np.ndarray, n_groups: int) -> np.ndarray:
    """Exact sums of the (pixels, k) *values* per key, as Python ints."""
    sums = np.zeros((n_groups, values.shape[1]), dtype=object)
    np.add.at(sums, keys, _exact(values))
    return sums


def _assert_mean_within_bound(name, means, sums, counts):
    """Each mean of n non-negative values lies within ``n·u·Σx / n`` of the
    exact mean ``Σx / n``: ``|mean·n − Σx| ≤ n·u·Σx``; an empty mean is 0."""
    n = counts.astype(np.int64).astype(object)
    error = np.abs(_exact(means) * n - sums)
    ok = (np.left_shift(error, ROUNDOFF_BITS) <= n * sums) & ((counts > 0) | (means == 0))
    assert ok.all(), f"{name}: segments {np.flatnonzero(~ok).tolist()} exceed the bound"


def _interior(components: np.ndarray) -> np.ndarray:
    """All four neighbours in the same segment; image-border pixels are
    boundary pixels."""
    padded = np.pad(components, 1, constant_values=0)
    centre = padded[1:-1, 1:-1]
    interior = (
        (padded[:-2, 1:-1] == centre) & (padded[2:, 1:-1] == centre)
        & (padded[1:-1, :-2] == centre) & (padded[1:-1, 2:] == centre)
    )
    interior[[0, -1], :] = False
    interior[:, [0, -1]] = False
    return interior


def _assert_means_are_exact_means(metrics, field, maps):
    """Every mean column against the exact mean of this side's pixel values."""
    names = metrics.dataset.feature_names
    features = metrics.dataset.features

    def column(name):
        return features[:, names.index(name)]

    components = metrics.prediction.components
    n = metrics.prediction.n_segments
    boundary = ~_interior(components)
    key = (components - 1 + n * boundary).ravel()
    split_counts = np.bincount(key, minlength=2 * n)
    counts = {"in": split_counts[:n], "bd": split_counts[n:]}
    counts["all"] = counts["in"] + counts["bd"]
    assert np.array_equal(column("S_in"), counts["in"])
    assert np.array_equal(column("S_bd"), counts["bd"])
    split_sums = _group_sums(key, maps, 2 * n)
    for index, key_name in enumerate(SWEEP_COLUMNS):
        sums = {"in": split_sums[:n, index], "bd": split_sums[n:, index]}
        sums["all"] = sums["in"] + sums["bd"]
        if key_name == "pmax":
            _assert_mean_within_bound("pmax_mean", column("pmax_mean"), sums["all"], counts["all"])
            continue
        for part, suffix in (("all", "_mean"), ("in", "_in_mean"), ("bd", "_bd_mean")):
            name = key_name + suffix
            _assert_mean_within_bound(name, column(name), sums[part], counts[part])
        size, size_bd = column("S"), column("S_bd")
        assert np.array_equal(
            column(f"{key_name}_rel"), column(f"{key_name}_mean") * size_bd / np.maximum(size, 1.0)
        )
        assert np.array_equal(
            column(f"{key_name}_rel_in"),
            column(f"{key_name}_in_mean") * size_bd / np.maximum(column("S_in"), 1.0),
        )
    n_classes = field.shape[2]
    class_sums = _group_sums(components.ravel() - 1, field.reshape(-1, n_classes), n)
    first = len(names) - n_classes
    for class_index in range(n_classes):
        _assert_mean_within_bound(
            names[first + class_index], features[:, first + class_index],
            class_sums[:, class_index], counts["all"],
        )


def _assert_entropy_within_bound(field, entropy):
    """Each pixel's entropy against the exact sum of its C terms
    ``p·log p`` (p clipped to [1e-12, 1]) divided by ``log C``:
    ``|E·log C + Σt| ≤ C·u·|Σt|``."""
    n_classes = field.shape[2]
    clipped = np.clip(field, 1e-12, 1.0)
    terms = (clipped * np.log(clipped)).reshape(-1, n_classes)
    sums = _exact(terms).sum(axis=1)
    product = _exact(entropy) * int(_exact(np.log(n_classes))[0])
    error = np.abs(product + np.left_shift(sums, SCALE))
    bound = np.left_shift(np.abs(sums) * n_classes, SCALE)
    assert (np.left_shift(error, ROUNDOFF_BITS) <= bound).all()


# ---------------------------------------------------------------- transforms
# Each transform acts on the first two axes of an array and maps the integer
# coordinate sums (R, K) of an n-pixel segment of an (H, W) frame to those
# of the moved segment.
TRANSFORMS = {
    "flip_lr": (lambda a: np.flip(a, axis=1), lambda R, K, n, H, W: (R, n * (W - 1) - K)),
    "flip_ud": (lambda a: np.flip(a, axis=0), lambda R, K, n, H, W: (n * (H - 1) - R, K)),
    "transpose": (lambda a: np.swapaxes(a, 0, 1), lambda R, K, n, H, W: (K, R)),
    # np.rot90 moves pixel (r, c) to (W - 1 - c, r).
    "rot90": (lambda a: np.rot90(a), lambda R, K, n, H, W: (n * (W - 1) - K, R)),
}


def _identity(array):
    return array


def _renamed(array, class_map):
    """*array* with its last-axis classes moved to their new indices."""
    renamed = np.empty_like(array)
    renamed[..., class_map] = array
    return renamed


def _pair_segments(original, moved_components, transform) -> np.ndarray:
    """Original segment index of every segment of the transformed frame,
    from their pixels; fails unless the pixel sets match one to one."""
    moved_original = transform(original.prediction.components)
    pairs = np.unique(
        np.stack([moved_components.ravel(), moved_original.ravel()]), axis=1
    )
    n_segments = original.prediction.n_segments
    assert pairs.shape[1] == n_segments
    assert np.array_equal(pairs[0], np.arange(1, n_segments + 1))
    assert np.array_equal(np.sort(pairs[1]), np.arange(1, n_segments + 1))
    return pairs[1] - 1


def _assert_exact_columns_match(original, moved, order, class_map, shape, coordinate_map):
    """*moved* is *original* transformed; *order* pairs the segments,
    *class_map* renames the classes, *coordinate_map* moves the pixels of a
    frame of *shape* (the original's)."""
    names = original.dataset.feature_names
    before = original.dataset.features[order]
    after = moved.dataset.features
    exact = [names.index(key) for key in ("S", "S_in", "S_bd", "S_rel", "S_rel_in", "is_thing")]
    assert np.array_equal(after[:, exact], before[:, exact])
    column = names.index("predicted_class")
    assert np.array_equal(after[:, column], class_map[before[:, column].astype(np.int64)])
    assert np.array_equal(moved.prediction.sizes, original.prediction.sizes[order])
    assert np.array_equal(moved.dataset.iou, original.dataset.iou[order])

    # Centroids: the integer coordinate sums move with the pixels, and the
    # columns are those sums' means normalised by the new frame's extent.
    sizes = original.prediction.sizes[order].astype(np.float64)
    rows, cols = original.prediction.coordinate_sums[order].T
    moved_rows, moved_cols = coordinate_map(rows, cols, sizes, *shape)
    assert np.array_equal(moved.prediction.coordinate_sums, np.stack([moved_rows, moved_cols], 1))
    new_height, new_width = moved.prediction.components.shape
    assert np.array_equal(
        after[:, names.index("centroid_row")], (moved_rows / sizes) / max(1, new_height - 1)
    )
    assert np.array_equal(
        after[:, names.index("centroid_col")], (moved_cols / sizes) / max(1, new_width - 1)
    )


@pytest.mark.parametrize("name", sorted(TRANSFORMS))
@SYMMETRY_SETTINGS
@given(seed=SEEDS)
def test_extraction_commutes_with_the_dihedral_group(name, seed):
    transform, coordinate_map = TRANSFORMS[name]
    probs, gt, things = _frame(seed)
    moved_probs = np.ascontiguousarray(transform(probs))
    extractor = SegmentMetricsExtractor(label_space=_space(things))
    original = extractor.extract_full(probs, gt_labels=gt)
    moved = extractor.extract_full(moved_probs, gt_labels=np.ascontiguousarray(transform(gt)))

    order = _pair_segments(original, moved.prediction.components, transform)
    _assert_exact_columns_match(
        original, moved, order, np.arange(len(things)), gt.shape, coordinate_map
    )
    maps = fused_dispersion_heatmaps(probs).values
    moved_maps = fused_dispersion_heatmaps(moved_probs).values
    assert np.array_equal(
        transform(maps.reshape(*gt.shape, -1)), moved_maps.reshape(*moved_probs.shape[:2], -1)
    )
    _assert_means_are_exact_means(original, probs, maps)
    _assert_means_are_exact_means(moved, moved_probs, moved_maps)


@SYMMETRY_SETTINGS
@given(seed=SEEDS)
def test_extraction_commutes_with_class_relabelling(seed):
    probs, gt, things = _frame(seed)
    n_classes = len(things)
    class_map = np.random.default_rng(seed).permutation(n_classes)
    renamed_probs = _renamed(probs, class_map)
    renamed_things = _renamed(things, class_map)
    renamed_gt = np.where(gt >= 0, class_map[np.maximum(gt, 0)], gt)
    original = SegmentMetricsExtractor(label_space=_space(things)).extract_full(
        probs, gt_labels=gt
    )
    renamed = SegmentMetricsExtractor(label_space=_space(renamed_things)).extract_full(
        renamed_probs, gt_labels=renamed_gt
    )

    order = _pair_segments(original, renamed.prediction.components, _identity)
    _assert_exact_columns_match(
        original, renamed, order, class_map, gt.shape, lambda R, K, n, H, W: (R, K)
    )
    maps = fused_dispersion_heatmaps(probs).values
    renamed_maps = fused_dispersion_heatmaps(renamed_probs).values
    # M, V and p_max take maxima over the classes: exact in any order.
    assert np.array_equal(maps[:, 1:], renamed_maps[:, 1:])
    _assert_entropy_within_bound(probs, maps[:, 0])
    _assert_entropy_within_bound(renamed_probs, renamed_maps[:, 0])
    _assert_means_are_exact_means(original, probs, maps)
    _assert_means_are_exact_means(renamed, renamed_probs, renamed_maps)


@SYMMETRY_SETTINGS
@given(seed=SEEDS)
def test_bayes_rule_commutes_with_class_relabelling(seed):
    probs, _, things = _frame(seed)
    class_map = np.random.default_rng(seed).permutation(len(things))

    assert np.array_equal(bayes_rule(_renamed(probs, class_map)), class_map[bayes_rule(probs)])


@pytest.mark.parametrize("positional", [False, True], ids=["class_priors", "pixel_priors"])
@SYMMETRY_SETTINGS
@given(seed=SEEDS)
def test_ml_rule_commutes_with_class_and_prior_relabelling(positional, seed):
    probs, _, things = _frame(seed)
    n_classes = len(things)
    rng = np.random.default_rng(seed)
    class_map = rng.permutation(n_classes)
    priors = rng.uniform(0.05, 1.0, size=probs.shape if positional else (n_classes,))
    _assert_tie_free(np.broadcast_to(probs / priors, probs.shape))

    assert np.array_equal(
        maximum_likelihood_rule(_renamed(probs, class_map), _renamed(priors, class_map)),
        class_map[maximum_likelihood_rule(probs, priors)],
    )
