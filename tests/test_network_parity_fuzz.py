"""Parity fuzz for the simulated network.

``SimulatedSegmentationNetwork.predict_probabilities`` builds its logits in
one array, draws the noise a row tile at a time, applies the confidence
field, the blobs and the smoothing in place, and takes the softmax over
class-major tiles.  Its oracle is the earlier whole-array implementation,
kept verbatim in ``tests/reference/network_seed.py``.  Every case asserts
byte-identical output (or the same exception type and message): every draw
must come from the generator in the same order, the class sums must add in
numpy's pairwise order, and every in-place step must round as the
whole-array expression did.

The cases cover the three presets, each with one degradation switched off,
on street scenes and on synthetic maps: blocky maps with ignore (-1)
pixels, maps without thing instances (the rectangle hallucinations), one
class over the whole frame (a component without a ring), and frames of one
row, one column, heights that leave a remainder tile and widths beyond
``TILE_PIXELS`` (one-row tiles).
"""

from __future__ import annotations

import numpy as np
import pytest
from reference.network_seed import SimulatedSegmentationNetwork as SeedNetwork

from repro.segmentation.labels import cityscapes_label_space
from repro.segmentation.network import (
    SimulatedSegmentationNetwork,
    generic_profile,
    mobilenetv2_profile,
    xception65_profile,
)
from repro.segmentation.scene import SceneConfig, StreetSceneGenerator
from repro.utils.arrays import TILE_PIXELS

pytestmark = pytest.mark.fuzz

LABEL_SPACE = cityscapes_label_space()
THINGS = np.array(LABEL_SPACE.thing_ids())
STUFF = np.setdiff1d(np.arange(LABEL_SPACE.n_classes), THINGS)

PRESETS = {
    "generic": generic_profile,
    "xception65": xception65_profile,
    "mobilenetv2": mobilenetv2_profile,
}
#: One degradation switched off per case (None: the preset as it is).
SWITCHED_OFF = (
    None, "smooth_sigma", "boundary_jitter", "uncertainty_blob_rate",
    "confidence_field_amplitude", "hallucination_rate",
)


def _scene(rng: np.random.Generator, height: int, width: int) -> np.ndarray:
    margin = int(rng.integers(0, 2)) * 3
    config = SceneConfig(height=max(height, 32), width=max(width, 64), ignore_margin=margin)
    labels = StreetSceneGenerator(config, random_state=int(rng.integers(0, 1000))).generate(0).labels
    return labels[:height, :width]


def _blocky(rng: np.random.Generator, height: int, width: int, classes=None) -> np.ndarray:
    """Random class blocks (instances of every size), with ignore pixels."""
    classes = np.arange(-1, LABEL_SPACE.n_classes) if classes is None else classes
    cell = int(rng.integers(1, 9))
    grid = rng.choice(classes, size=(height // cell + 1, width // cell + 1))
    return np.kron(grid, np.ones((cell, cell), dtype=np.int64))[:height, :width]


def _stuff_only(rng: np.random.Generator, height: int, width: int) -> np.ndarray:
    """No thing instances: every hallucination is a rectangle."""
    return _blocky(rng, height, width, classes=np.append(STUFF, -1))


def _single_class(rng: np.random.Generator, height: int, width: int) -> np.ndarray:
    """One class everywhere: a thing here has no ring to take a class from."""
    return np.full((height, width), int(rng.choice(np.append(THINGS, STUFF[:2]))))


MAKERS = {"scene": _scene, "blocky": _blocky, "stuff": _stuff_only, "single": _single_class}

#: (height, width): small frames, remainder tiles at width 192 (42-row
#: tiles) and 1000 (8-row tiles), one row, one column, and widths beyond
#: TILE_PIXELS.
SHAPES = (
    (48, 96), (97, 192), (40, 41), (13, 1000), (1, 37), (1, 300), (29, 1),
    (60, 1), (3, 4), (2, TILE_PIXELS + 3), (5, 4096),
)
N_CASES = 100


def _case(index: int):
    rng = np.random.default_rng(20_000 + index)
    preset = list(PRESETS)[index % len(PRESETS)]
    switched_off = SWITCHED_OFF[(index // len(PRESETS)) % len(SWITCHED_OFF)]
    maker = list(MAKERS)[index % len(MAKERS)]
    height, width = SHAPES[index % len(SHAPES)]
    return rng, preset, switched_off, maker, height, width


def _outcome(network, labels, index):
    try:
        return network.predict_probabilities(labels, index=index)
    except Exception as exc:  # noqa: BLE001 - the type and message are compared
        return type(exc), str(exc)


@pytest.mark.parametrize(
    "case", range(N_CASES),
    ids=[
        "{1}-{2}-{3}-{4}x{5}".format(*_case(index)).replace("None", "all")
        for index in range(N_CASES)
    ],
)
def test_predict_probabilities_matches_seed_bytes(case):
    rng, preset, switched_off, maker, height, width = _case(case)
    profile = PRESETS[preset]()
    if switched_off is not None:
        profile = profile.with_overrides(**{switched_off: 0.0})
    labels = MAKERS[maker](rng, height, width)
    seed = int(rng.integers(0, 2**16))
    image_index = int(rng.integers(0, 50))
    expected = _outcome(SeedNetwork(profile, LABEL_SPACE, random_state=seed), labels, image_index)
    actual = _outcome(
        SimulatedSegmentationNetwork(profile, LABEL_SPACE, random_state=seed), labels, image_index
    )
    if isinstance(expected, tuple):
        assert actual == expected
        return
    assert isinstance(actual, np.ndarray)
    assert actual.shape == expected.shape and actual.dtype == expected.dtype
    differ = np.count_nonzero(actual.view(np.uint64) != expected.view(np.uint64))
    assert actual.tobytes() == expected.tobytes(), f"{differ} values differ"
