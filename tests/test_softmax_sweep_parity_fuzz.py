"""Parity fuzz for the tiled softmax sweep.

``fused_dispersion_heatmaps`` walks a softmax field a tile of rows at a time
and yields, from that one walk, the validation verdict, the argmax and the
E/M/V/p_max heatmaps.  Its oracles are the whole-field functions it replaced:
``check_probability_field``, ``np.argmax(probs, axis=2)``,
``_reference_dispersion_heatmaps`` and ``probs.max(axis=2)``.  Every valid
case asserts bitwise-equal outputs; every invalid case asserts the same
exception type and message.

The entropy oracle runs on a C-contiguous copy of the field: numpy sums
``axis=2`` of a non-contiguous array in a memory-layout-dependent order,
while extraction has always summed each pixel's classes contiguously, so
that is the order the sweep must reproduce.  The validation row sums follow
the same order for every layout, in the sweep and in
``check_probability_field`` alike, so a field gets one verdict however it is
laid out.  The sweep adds class planes of a class-major tile in numpy's
``pairwise_sum`` order (eight lanes, a combine tree, a tail, recursion above
128 classes); the class counts below straddle every one of those
boundaries, and the ``_decades`` fields make a wrong order show in the last
bits of the entropy.
"""

from __future__ import annotations

import numpy as np
import pytest

from reference.heatmaps import _reference_dispersion_heatmaps
from repro.core.heatmaps import SWEEP_COLUMNS, fused_dispersion_heatmaps
from repro.utils.arrays import TILE_PIXELS, _class_sum
from repro.utils.validation import PROBABILITY_TOL, check_probability_field

pytestmark = pytest.mark.fuzz


def _softmax(rng: np.random.Generator, height: int, width: int, n_classes: int) -> np.ndarray:
    logits = rng.normal(0.0, rng.uniform(0.5, 4.0), size=(height, width, n_classes))
    probs = np.exp(logits)
    probs /= probs.sum(axis=2, keepdims=True)
    return probs


def _quantised(rng: np.random.Generator, height: int, width: int, n_classes: int) -> np.ndarray:
    """Fields of small integer counts: many tied maxima and exact zeros."""
    counts = rng.integers(0, 3, size=(height, width, n_classes)).astype(np.float64)
    counts[..., 0] += counts.sum(axis=2) == 0
    return counts / counts.sum(axis=2, keepdims=True)


def _one_hot(rng: np.random.Generator, height: int, width: int, n_classes: int) -> np.ndarray:
    """Exact 0/1 probabilities, with some zeros negated (signed zeros)."""
    probs = np.zeros((height, width, n_classes))
    winners = rng.integers(0, n_classes, size=(height, width))
    probs[np.arange(height)[:, None], np.arange(width)[None, :], winners] = 1.0
    probs[(probs == 0.0) & (rng.random(probs.shape) < 0.5)] = -0.0
    return probs


def _decades(rng: np.random.Generator, height: int, width: int, n_classes: int) -> np.ndarray:
    """Entries spread over 14 decades, some below the 1e-12 entropy clip."""
    probs = 10.0 ** rng.uniform(-14.0, 0.0, size=(height, width, n_classes))
    probs /= probs.sum(axis=2, keepdims=True)
    return probs


MAKERS = (_softmax, _quantised, _one_hot, _decades)


def _assert_matches_oracles(probs) -> None:
    sweep = fused_dispersion_heatmaps(probs)
    field = check_probability_field(probs)
    contiguous = np.ascontiguousarray(field)
    height, width = field.shape[:2]
    assert sweep.field.shape == field.shape
    assert sweep.labels.dtype == np.int64
    assert np.array_equal(sweep.labels, np.argmax(field, axis=2))
    assert sweep.values.shape == (height * width, len(SWEEP_COLUMNS))
    reference = dict(_reference_dispersion_heatmaps(contiguous), pmax=field.max(axis=2))
    for key in SWEEP_COLUMNS:
        heatmap = sweep.heatmap(key)
        mismatch = np.count_nonzero(heatmap != reference[key])
        assert np.array_equal(heatmap, reference[key]), f"{key}: {mismatch} pixels differ"


def _error(fn, probs):
    try:
        fn(probs)
    except Exception as exc:  # noqa: BLE001 - the type is what is compared
        return type(exc), str(exc)
    return None


def _assert_same_error(probs) -> None:
    expected = _error(check_probability_field, probs)
    assert expected is not None
    assert _error(fused_dispersion_heatmaps, probs) == expected


#: (height, width) cases: heights that leave a remainder tile, single-row and
#: single-column frames, and a width beyond the pixel budget (one-row tiles).
SHAPES = (
    (1, 1), (1, 37), (29, 1), (13, 1000), (17, 512), (3, 200), (40, 41),
    (2, TILE_PIXELS + 3),
)


@pytest.mark.parametrize("seed", range(24))
@pytest.mark.parametrize("n_classes", [2, 3, 7, 8, 9, 16, 17, 19, 24, 25, 40])
def test_random_fields_bitwise(seed, n_classes):
    rng = np.random.default_rng(seed * 97 + n_classes)
    height, width = SHAPES[seed % len(SHAPES)]
    if height * width * n_classes > 2_000_000:
        height = 1
    maker = MAKERS[seed % len(MAKERS)]
    _assert_matches_oracles(maker(rng, height, width, n_classes))


#: Small frames for class counts past numpy's 128-element pairwise block.
SMALL_SHAPES = ((1, 1), (3, 40), (7, 1), (5, 61))


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("n_classes", [129, 200, 300])
def test_many_classes_bitwise(seed, n_classes):
    rng = np.random.default_rng(seed * 131 + n_classes)
    height, width = SMALL_SHAPES[seed % len(SMALL_SHAPES)]
    maker = MAKERS[seed % len(MAKERS)]
    _assert_matches_oracles(maker(rng, height, width, n_classes))


def _layouts(probs: np.ndarray):
    """The same values in every memory layout a field can arrive in."""
    height, width, n_classes = probs.shape
    strided = np.zeros((2 * height, 3 * width, 2 * n_classes))[::2, ::3, ::2]
    strided[...] = probs
    return {
        "C": probs,
        "F": np.asfortranarray(probs),
        "F-one-row": np.asfortranarray(probs[:1]),
        "F-one-column": np.asfortranarray(probs[:, :1]),
        "transposed": probs.transpose(1, 0, 2),
        "transposed-copy": np.ascontiguousarray(probs.transpose(1, 0, 2)).transpose(1, 0, 2),
        "reversed-classes": probs[:, :, ::-1],
        "strided": probs[::2, ::-3],
        "strided-classes": strided,
        "broadcast-rows": np.broadcast_to(probs[:1], probs.shape),
        "broadcast-columns": np.broadcast_to(probs[:, :1], probs.shape),
    }


@pytest.mark.parametrize("n_classes", [3, 8, 19, 129, 300])
def test_row_sums_follow_numpy_order_for_every_layout(n_classes):
    """The validation row sums are ``np.sum(axis=2)`` of the field's
    C-contiguous copy, whatever the field's own layout.

    numpy adds a pixel's classes pairwise when the class axis is innermost
    and one at a time otherwise (Fortran order), so the layouts' own sums
    differ; the verdict must not.
    """
    rng = np.random.default_rng(n_classes)
    probs = _decades(rng, 6, 9, n_classes)
    for name, field in _layouts(probs).items():
        planes = np.ascontiguousarray(field.transpose(2, 0, 1)).reshape(n_classes, -1)
        pixels = planes.shape[1]
        sums = _class_sum(planes, np.empty(pixels), np.empty((8, pixels)))
        assert np.array_equal(sums, np.ascontiguousarray(field).sum(axis=2).ravel()), name
    if n_classes >= 8:
        # Both orders are exercised and the field tells them apart.
        assert not np.array_equal(probs.sum(axis=2), np.asfortranarray(probs).sum(axis=2))


def _field_at_the_bound(n_classes: int) -> np.ndarray:
    """A (3, 4, C) field with one pixel whose pairwise class sum and
    one-at-a-time class sum fall on opposite sides of the row-sum bound,
    so numpy's own ``sum(axis=2)`` accepts its C layout and rejects its
    Fortran layout, or the reverse."""
    bound = PROBABILITY_TOL + 1e-5
    rng = np.random.default_rng(n_classes)
    for _attempt in range(200):
        probs = _decades(rng, 3, 4, n_classes)
        probs[2, 3] *= 1.0 + bound
        for _step in range(64):
            pairwise = abs(probs.sum(axis=2)[2, 3] - 1.0) <= bound
            one_at_a_time = abs(np.asfortranarray(probs).sum(axis=2)[2, 3] - 1.0) <= bound
            if pairwise != one_at_a_time:
                return probs
            # Step the pixel's sum across the bound one ulp at a time.
            probs[2, 3] *= 1.0 + (-1.0 if pairwise else 1.0) * np.finfo(float).eps
    raise AssertionError("no field straddles the bound")


@pytest.mark.parametrize("n_classes", [8, 19, 40, 129])
def test_one_verdict_for_every_layout_at_the_bound(n_classes):
    """C, F, transposed, strided and broadcast layouts of a field whose C
    and Fortran class sums land on either side of the bound get the verdict
    of its C-contiguous copy, from ``check_probability_field`` and the sweep."""
    probs = _field_at_the_bound(n_classes)
    strided = np.zeros((6, 12, 2 * n_classes))[::2, ::3, ::2]
    strided[...] = probs
    layouts = {
        "C": probs,
        "F": np.asfortranarray(probs),
        "transposed": probs.transpose(1, 0, 2),
        "strided": probs[::2, ::-3],
        "strided-classes": strided,
        "broadcast": np.broadcast_to(probs[2:3, 3:4], probs.shape),
    }
    expected = _error(check_probability_field, np.ascontiguousarray(probs))
    for name, field in layouts.items():
        assert _error(check_probability_field, field) == expected, name
        assert _error(fused_dispersion_heatmaps, field) == expected, name


@pytest.mark.parametrize("seed", range(8))
def test_small_negatives_within_tolerance_bitwise(seed):
    rng = np.random.default_rng(500 + seed)
    probs = _softmax(rng, 21, 77, 19)
    flat = probs.reshape(-1, 19)
    picks = rng.choice(flat.shape[0], size=40, replace=False)
    classes = rng.integers(0, 19, size=40)
    shift = rng.uniform(0.0, 5e-5, size=40)
    # Move each picked entry's mass, plus the shift, to class (c + 1) % 19,
    # leaving the entry below zero but above -tol and the sum unchanged.
    flat[picks, (classes + 1) % 19] += flat[picks, classes] + shift
    flat[picks, classes] = -shift
    _assert_matches_oracles(probs)


@pytest.mark.parametrize("seed", range(6))
def test_views_and_dtypes_bitwise(seed):
    rng = np.random.default_rng(900 + seed)
    probs = _softmax(rng, 33, 70, 19)
    views = [
        np.asfortranarray(probs),
        probs.transpose(1, 0, 2),
        probs[::2, ::-3],
        probs[:, :, ::-1],
        probs[5:, 7:-3],
        probs.astype(np.float32),
        probs.tolist(),
    ]
    for view in views:
        _assert_matches_oracles(view)


def test_memmapped_field_bitwise(tmp_path):
    rng = np.random.default_rng(4242)
    path = tmp_path / "probs.npy"
    np.save(path, _softmax(rng, 19, 300, 19))
    _assert_matches_oracles(np.load(path, mmap_mode="r"))


@pytest.mark.parametrize("seed", range(8))
def test_bad_fields_raise_like_check_probability_field(seed):
    rng = np.random.default_rng(7000 + seed)
    height, width = (1, 1) if seed == 0 else (int(rng.integers(9, 40)), int(rng.integers(200, 1100)))
    base = _softmax(rng, height, width, 19)
    last = (height - 1, width - 1)

    nan = base.copy()
    nan[last][3] = np.nan
    _assert_same_error(nan)

    inf = base.copy()
    inf[0, 0, 0] = np.inf
    _assert_same_error(inf)

    negative = base.copy()
    negative[last][1] = -2e-4
    _assert_same_error(negative)

    # Bad sums in the first tile and a worse one in the last: the message
    # carries the maximum over the whole field.
    sums = base.copy()
    sums[0, 0] *= 1.0 + rng.uniform(2e-4, 1e-3)
    sums[last] *= 1.0 + rng.uniform(2e-3, 1e-2)
    _assert_same_error(sums)

    # A negative entry outranks bad sums in earlier tiles.
    both = sums.copy()
    both[last][0] = -1.0
    _assert_same_error(both)

    # Just past the allclose bound (atol 1e-4 + rtol 1e-5).
    edge = base.copy()
    edge[last] *= 1.0 + 1.2e-4
    _assert_same_error(edge)
    _assert_same_error(np.asfortranarray(sums))


@pytest.mark.parametrize(
    "probs",
    [
        np.zeros((0, 8, 19)),
        np.zeros((8, 0, 19)),
        np.zeros((0, 0, 3), dtype=np.float32),
        np.full((4, 4), 0.5),
        np.ones((4, 4, 1)),
        np.full((2, 3, 4, 1), 0.25),
    ],
    ids=["no-rows", "no-columns", "empty-float32", "2-d", "one-class", "4-d"],
)
def test_malformed_fields_raise_like_check_probability_field(probs):
    _assert_same_error(probs)
