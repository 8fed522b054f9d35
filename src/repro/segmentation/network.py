"""Simulated semantic-segmentation network.

The paper's experiments feed the *softmax output* of DeepLabv3+ networks
(Xception65 and MobilenetV2 backbones) into MetaSeg.  This module provides a
stochastic stand-in: a degradation model that maps a ground-truth label map to
a per-pixel class probability field with an error and uncertainty structure
similar to a real network:

* **boundary softness** — class boundaries are blurred, producing elevated
  dispersion (entropy / low probability margin) along segment borders;
* **boundary jitter** — predicted boundaries deviate geometrically from the
  ground truth, so even correctly detected segments have IoU < 1;
* **segment confusions** — whole instances are occasionally relabelled to a
  confusable class (person ↔ rider, car ↔ truck, ...);
* **false negatives** — small instances are occasionally missed entirely and
  predicted as their surrounding background class, with the miss probability
  increasing for rare, small classes (the class-imbalance effect Section IV
  addresses);
* **false positives / hallucinations** — spurious small segments appear where
  the ground truth shows background;
* **uncertainty correlation** — erroneous regions receive systematically
  flatter softmax distributions plus noise, while a configurable fraction of
  errors stays confidently wrong.  This makes dispersion metrics informative
  but not perfect predictors of segment quality — the regime in which meta
  classification is a meaningful task.

Two presets, :func:`xception65_profile` and :func:`mobilenetv2_profile`,
mirror the stronger/weaker network pair of the paper.

One frame costs one (H, W, C) float64 array.  The intent map is built from a
single component table (``label_components``), each instance's mask taken
inside its box; erroneous regions are kept as flat pixel indices.  The
logits are scattered through flat indices ``p·C + class``, the Gaussian
noise is drawn a row tile at a time, and the confidence field, the blobs,
the smoothing and the softmax (over class-major tiles, its class sums in
numpy's pairwise order) all work in place on that one array.  The output is
bitwise the one of the whole-array formulation, draw for draw from the same
generator; ``tests/test_network_parity_fuzz.py`` holds it to that.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Optional, Tuple

import numpy as np
from scipy import ndimage

from repro.segmentation.labels import LabelSpace, cityscapes_label_space
from repro.utils.arrays import _LANES, TILE_PIXELS, _class_sum
from repro.utils.connected_components import Labelling, label_components
from repro.utils.rng import RandomState, as_rng
from repro.utils.validation import check_label_map

#: An erroneous region of the intent map: its flat pixel indices and the
#: confidence level the output keeps there (see ``_error_confidence``).
ErrorSegment = Tuple[np.ndarray, float]


@dataclass(frozen=True)
class NetworkProfile:
    """Quality/degradation parameters of a simulated segmentation network."""

    name: str = "generic"
    miss_rate: float = 0.25
    """Base probability that a small instance is entirely overlooked."""
    miss_size_scale: float = 160.0
    """Pixel count at which the miss probability has decayed to ~37 % of the base."""
    confusion_rate: float = 0.12
    """Probability that an instance is predicted as a confusable class."""
    hallucination_rate: float = 1.5
    """Expected number of hallucinated (false-positive) segments per image."""
    hallucination_size: Tuple[int, int] = (3, 14)
    """Min/max edge length in pixels of hallucinated segments."""
    boundary_jitter: float = 1.6
    """Standard deviation in pixels of the smooth boundary displacement field."""
    peak_correct: float = 6.0
    """Logit peak on the predicted class where the prediction agrees with GT."""
    peak_wrong: float = 2.4
    """Logit peak on the predicted class where the prediction disagrees with GT."""
    wrong_gt_logit: float = 1.4
    """Logit mass placed on the true class inside erroneous regions."""
    background_logit: float = -2.0
    """Logit assigned to classes that are neither predicted nor true at a
    pixel.  Real networks assign very little probability mass to absent
    classes; the (negative) background logit controls how heavy that tail is,
    which in turn determines how aggressively the Maximum-Likelihood rule of
    Section IV promotes rare classes."""
    overconfident_error_rate: float = 0.18
    """Controls how confidently wrong the network is on erroneous segments.

    Every erroneous segment draws a confidence level from a Beta distribution
    whose mean increases with this rate; at level 1 the segment's output is
    indistinguishable from a correct segment, at level 0 it is maximally
    flat.  Larger rates therefore make false positives harder to detect."""
    logit_noise: float = 0.55
    """Standard deviation of i.i.d. Gaussian noise added to all logits."""
    smooth_sigma: float = 1.1
    """Gaussian smoothing (in pixels) applied to the logits (soft boundaries)."""
    uncertainty_blob_rate: float = 3.0
    """Expected number of spurious low-confidence regions per image.  These
    regions are *correctly* classified but receive a flattened softmax,
    mimicking aleatoric uncertainty (shadows, reflections, fine structures)
    that is unrelated to actual errors.  They are what keeps single-metric
    baselines (entropy only) clearly behind the full metric set."""
    uncertainty_blob_size: Tuple[int, int] = (8, 40)
    """Min/max edge length in pixels of the low-confidence regions."""
    uncertainty_blob_strength: float = 0.55
    """Multiplicative attenuation of the logits inside low-confidence regions
    (smaller values mean flatter distributions)."""
    confidence_field_amplitude: float = 0.35
    """Amplitude of a smooth, low-frequency multiplicative confidence field
    applied to all logits.  It models the fact that even correct predictions
    vary in confidence across the image (distance, lighting, clutter), which
    spreads the per-segment confidence of true positives and overlaps it with
    confidently-wrong false positives."""
    confidence_field_scale: int = 12
    """Spatial correlation length (in coarse grid cells) of the confidence field."""

    def __post_init__(self) -> None:
        for name in ("miss_rate", "confusion_rate", "overconfident_error_rate"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value}")
        for name in ("hallucination_rate", "boundary_jitter", "logit_noise", "smooth_sigma",
                     "miss_size_scale", "uncertainty_blob_rate"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")
        if self.peak_correct <= 0 or self.peak_wrong <= 0:
            raise ValueError("logit peaks must be positive")
        if not 0.0 < self.uncertainty_blob_strength <= 1.0:
            raise ValueError("uncertainty_blob_strength must be in (0, 1]")
        if not 0.0 <= self.confidence_field_amplitude < 1.0:
            raise ValueError("confidence_field_amplitude must be in [0, 1)")
        if self.confidence_field_scale < 1:
            raise ValueError("confidence_field_scale must be >= 1")
        for name in ("hallucination_size", "uncertainty_blob_size"):
            lo, hi = getattr(self, name)
            if lo < 1 or hi < lo:
                raise ValueError(f"{name} must satisfy 1 <= lo <= hi")

    def with_overrides(self, **kwargs) -> "NetworkProfile":
        """Return a copy of the profile with some parameters replaced."""
        return replace(self, **kwargs)


def generic_profile() -> NetworkProfile:
    """Default mid-quality profile (the NetworkProfile defaults)."""
    return NetworkProfile()


def xception65_profile() -> NetworkProfile:
    """Profile mimicking the stronger DeepLabv3+ Xception65 network."""
    return NetworkProfile(
        name="xception65",
        miss_rate=0.18,
        miss_size_scale=110.0,
        confusion_rate=0.08,
        hallucination_rate=9.0,
        hallucination_size=(3, 18),
        boundary_jitter=1.5,
        peak_correct=5.5,
        peak_wrong=2.8,
        wrong_gt_logit=1.6,
        background_logit=-2.5,
        overconfident_error_rate=0.55,
        logit_noise=0.75,
        smooth_sigma=1.0,
        uncertainty_blob_rate=3.0,
        uncertainty_blob_size=(8, 36),
        uncertainty_blob_strength=0.55,
        confidence_field_amplitude=0.4,
        confidence_field_scale=12,
    )


def mobilenetv2_profile() -> NetworkProfile:
    """Profile mimicking the weaker DeepLabv3+ MobilenetV2 network."""
    return NetworkProfile(
        name="mobilenetv2",
        miss_rate=0.30,
        miss_size_scale=190.0,
        confusion_rate=0.15,
        hallucination_rate=16.0,
        hallucination_size=(3, 22),
        boundary_jitter=2.4,
        peak_correct=4.5,
        peak_wrong=2.6,
        wrong_gt_logit=1.6,
        background_logit=-1.8,
        overconfident_error_rate=0.65,
        logit_noise=0.9,
        smooth_sigma=1.3,
        uncertainty_blob_rate=4.5,
        uncertainty_blob_size=(8, 44),
        uncertainty_blob_strength=0.5,
        confidence_field_amplitude=0.5,
        confidence_field_scale=10,
    )


class SimulatedSegmentationNetwork:
    """Stochastic degradation model acting as a segmentation network.

    Parameters
    ----------
    profile:
        Degradation/quality parameters; defaults to :func:`mobilenetv2_profile`.
    label_space:
        Semantic label space (defaults to the Cityscapes-like 19-class space).
    random_state:
        Master seed.  Prediction for image *index* is derived from the master
        seed and the index, so repeated inference on the same image is
        deterministic while different images receive independent noise.
    """

    def __init__(
        self,
        profile: Optional[NetworkProfile] = None,
        label_space: Optional[LabelSpace] = None,
        random_state: RandomState = 0,
    ) -> None:
        self.profile = profile or mobilenetv2_profile()
        self.label_space = label_space or cityscapes_label_space()
        rng = as_rng(random_state)
        self._master_seed = int(rng.integers(0, 2**31 - 1))

    # ------------------------------------------------------------------ API
    @property
    def n_classes(self) -> int:
        """Number of classes in the softmax output."""
        return self.label_space.n_classes

    def predict_probabilities(self, gt_labels: np.ndarray, index: int = 0) -> np.ndarray:
        """Return the simulated (H, W, C) softmax field for one image.

        Parameters
        ----------
        gt_labels:
            Ground-truth label map of the image (the degradation model uses it
            the way a real network uses the RGB image: as the source of the
            underlying scene content).  Labels must lie in ``[-1, C)``.
        index:
            Image identifier used to derive the per-image noise seed.
        """
        labels = check_label_map(gt_labels)
        top_label = int(labels.max())
        if top_label >= self.n_classes:
            raise ValueError(
                f"label {top_label} is out of range for a network with "
                f"C = {self.n_classes} classes"
            )
        gt = np.ascontiguousarray(labels)
        rng = np.random.default_rng((self._master_seed, int(index)))
        intent, error_segments = self._build_intent(gt, rng)
        logits = self._build_logits(gt, intent, error_segments, rng)
        return _softmax(logits)

    def predict_labels(self, gt_labels: np.ndarray, index: int = 0) -> np.ndarray:
        """Return the MAP (argmax) prediction for one image."""
        probs = self.predict_probabilities(gt_labels, index=index)
        return np.argmax(probs, axis=2).astype(np.int64)

    def __call__(self, gt_labels: np.ndarray, index: int = 0) -> np.ndarray:
        return self.predict_probabilities(gt_labels, index=index)

    # ------------------------------------------------------- degradation --
    def _build_intent(
        self, gt: np.ndarray, rng: np.random.Generator
    ) -> Tuple[np.ndarray, List[ErrorSegment]]:
        """Construct the predicted-class intent map and record erroneous segments.

        The intent map is what the network "wants" to predict before logits,
        noise and smoothing are applied.  ``error_segments`` lists regions
        that deviate from the ground truth, as flat pixel indices, together
        with how confident the output there should stay (overconfident
        errors).  Every instance is read from one component table: its class
        is the label of its first pixel and its mask is taken inside its box.
        """
        profile = self.profile
        ls = self.label_space
        height, width = gt.shape
        intent = gt.copy()
        error_segments: List[ErrorSegment] = []

        # --- instance-level misses and confusions --------------------------
        table = label_components(gt, connectivity=8, background=-1)
        classes = gt.reshape(-1)[table.first_index]
        thing_list = ls.thing_ids()
        things = np.flatnonzero(np.isin(classes, thing_list))
        for component in things:
            class_id = int(classes[component])
            size = int(table.sizes[component])
            miss_probability = profile.miss_rate * float(np.exp(-size / profile.miss_size_scale))
            draw = rng.uniform()
            if draw < miss_probability:
                new_class = self._surrounding_class(gt, table, component)
            elif draw < miss_probability + profile.confusion_rate:
                confusable = ls.confusable_classes(class_id)
                new_class = int(confusable[int(rng.integers(0, len(confusable)))])
            else:
                continue
            rows, cols = _component_pixels(table, component)
            pixels = rows * width + cols
            intent.reshape(-1)[pixels] = new_class
            error_segments.append((pixels, self._error_confidence(rng)))

        # --- boundary jitter -------------------------------------------------
        if profile.boundary_jitter > 0:
            intent = self._jitter_boundaries(intent, rng, profile.boundary_jitter)

        # --- hallucinated segments ------------------------------------------
        # Hallucinations preferentially *copy the shape of a real instance* and
        # paste it at a shifted position: the resulting false positives share
        # the geometry statistics of genuine segments, so size alone cannot
        # separate them (as in real segmentation networks).  When the image
        # contains no instances, plain rectangles are used as a fallback.
        n_hallucinations = int(rng.poisson(profile.hallucination_rate))
        for _ in range(n_hallucinations):
            if things.size and rng.uniform() < 0.85:
                template = int(things[int(rng.integers(0, things.size))])
                class_id = int(classes[template])
                rows, cols = _component_pixels(table, template)
                rows += int(rng.integers(-height // 3, height // 3 + 1))
                cols += int(rng.integers(-width // 3, width // 3 + 1))
                keep = (rows >= 0) & (rows < height) & (cols >= 0) & (cols < width)
                if np.count_nonzero(keep) < 4:
                    continue
                pixels = rows[keep] * width + cols[keep]
            else:
                size_lo, size_hi = profile.hallucination_size
                seg_h = int(rng.integers(size_lo, size_hi + 1))
                seg_w = int(rng.integers(size_lo, size_hi + 1))
                top = int(rng.integers(0, max(1, height - seg_h)))
                left = int(rng.integers(0, max(1, width - seg_w)))
                class_id = int(thing_list[int(rng.integers(0, len(thing_list)))])
                rows = np.arange(top, min(top + seg_h, height))
                pixels = (rows[:, None] * width + np.arange(left, min(left + seg_w, width))).ravel()
            # Do not hallucinate on top of an existing instance of the same class;
            # that would not be a false positive.
            if np.any(gt.reshape(-1)[pixels] == class_id):
                continue
            intent.reshape(-1)[pixels] = class_id
            error_segments.append((pixels, self._error_confidence(rng)))
        return intent, error_segments

    def _error_confidence(self, rng: np.random.Generator) -> float:
        """Per-error confidence level in [0, 1] (1 = confidently wrong)."""
        rate = self.profile.overconfident_error_rate
        # Beta distribution whose mean tracks the overconfidence rate while
        # keeping substantial spread, so erroneous segments cover the whole
        # range from obviously uncertain to indistinguishable from correct.
        alpha = 0.6 + 2.4 * rate
        beta = 0.6 + 2.4 * (1.0 - rate)
        return float(rng.beta(alpha, beta))

    @staticmethod
    def _surrounding_class(gt: np.ndarray, table: Labelling, component: int) -> int:
        """Most frequent ground-truth class in a dilated ring around a component.

        Two dilation steps reach two pixels, so the ring lies in the
        component's box padded by 2.  Only a component covering the whole
        frame has an empty ring; like a ring of ignore pixels, it gives 0.
        """
        height, width = gt.shape
        top, left, bottom, right = (int(bound) for bound in table.boxes[component])
        window = (
            slice(max(top - 2, 0), min(bottom + 2, height)),
            slice(max(left - 2, 0), min(right + 2, width)),
        )
        mask = table.components[window] == component + 1
        ring = ndimage.binary_dilation(mask, iterations=2) & ~mask
        values = gt[window][ring]
        values = values[values >= 0]
        if values.size == 0:
            return 0
        return int(np.bincount(values).argmax())

    @staticmethod
    def _jitter_boundaries(labels: np.ndarray, rng: np.random.Generator, magnitude: float) -> np.ndarray:
        """Warp the label map with a smooth random displacement field."""
        h, w = labels.shape
        coarse_shape = (max(2, h // 16), max(2, w // 16))
        flow_r = ndimage.zoom(rng.normal(0.0, 1.0, coarse_shape), (h / coarse_shape[0], w / coarse_shape[1]), order=1)
        flow_c = ndimage.zoom(rng.normal(0.0, 1.0, coarse_shape), (h / coarse_shape[0], w / coarse_shape[1]), order=1)
        flow_r = flow_r[:h, :w] * magnitude
        flow_c = flow_c[:h, :w] * magnitude
        src_rows = np.clip(np.round(np.arange(h)[:, None] + flow_r), 0, h - 1).astype(np.int64)
        src_cols = np.clip(np.round(np.arange(w) + flow_c), 0, w - 1).astype(np.int64)
        return labels[src_rows, src_cols]

    # ------------------------------------------------------------ logits --
    def _build_logits(
        self,
        gt: np.ndarray,
        intent: np.ndarray,
        error_segments: List[ErrorSegment],
        rng: np.random.Generator,
    ) -> np.ndarray:
        """The (H, W, C) logits: class peaks, noise, confidence and smoothing.

        Built in one array and changed in place from there on.  The noise is
        drawn a row tile at a time into a tile-sized buffer; the tiles follow
        the field's C order, so they take the same values from the generator
        as one draw over the whole field would.
        """
        profile = self.profile
        n_classes = self.n_classes
        h, w = gt.shape
        flat_gt = gt.reshape(-1)
        flat_intent = intent.reshape(-1)
        correct = flat_intent == flat_gt

        peak = np.where(correct, profile.peak_correct, profile.peak_wrong).astype(np.float64)
        gt_logit = np.where(correct, 0.0, profile.wrong_gt_logit).astype(np.float64)
        # Confidently-wrong segments interpolate towards the correct-pixel
        # output: peak grows, residual mass on the true class shrinks.  At
        # confidence 1 the erroneous segment is locally indistinguishable from
        # a correct one, which is what bounds meta-classification performance.
        for pixels, confidence in error_segments:
            peak[pixels] = profile.peak_wrong + confidence * (profile.peak_correct - profile.peak_wrong)
            gt_logit[pixels] = profile.wrong_gt_logit * (1.0 - confidence)

        logits = np.full((h, w, n_classes), profile.background_logit, dtype=np.float64)
        flat_logits = logits.reshape(-1)
        # Pixel p's logit of class c sits at flat index p·C + c.
        pixel_starts = np.arange(0, h * w * n_classes, n_classes)
        flat_logits[pixel_starts + np.clip(flat_intent, 0, n_classes - 1)] = peak
        # Inside erroneous regions, the true class keeps some logit mass which
        # flattens the distribution there (higher entropy, smaller margin).
        wrong = np.flatnonzero(~correct & (flat_gt >= 0))
        flat_logits[pixel_starts[wrong] + flat_gt[wrong]] = gt_logit[wrong]

        tile_rows = max(1, TILE_PIXELS // w)
        noise = np.empty((min(tile_rows, h), w, n_classes))
        for start in range(0, h, tile_rows):
            rows = logits[start:start + tile_rows]
            tile = noise[:len(rows)]
            # Generator.normal(0.0, s) draws 0.0 + s·z; so does this tile.
            rng.standard_normal(out=tile)
            np.multiply(tile, profile.logit_noise, out=tile)
            np.add(tile, 0.0, out=tile)
            np.add(rows, tile, out=rows)
        # Confidence attenuation only shrinks *positive* logits: an uncertain
        # network spreads mass among the few locally plausible classes, it
        # does not hand probability to all absent classes equally.  (Raising
        # the tail of every class would make the ML rule of Section IV flip
        # entire low-confidence regions to the rarest class, which real
        # networks do not exhibit to that extent.)
        if profile.confidence_field_amplitude > 0:
            field = self._confidence_field(h, w, rng)[..., None]
            positive = np.empty(noise.shape, dtype=bool)
            for start in range(0, h, tile_rows):
                rows = logits[start:start + tile_rows]
                where = np.greater(rows, 0, out=positive[:len(rows)])
                np.multiply(rows, field[start:start + tile_rows], out=rows, where=where)
        self._apply_uncertainty_blobs(logits, rng)
        if profile.smooth_sigma > 0:
            ndimage.gaussian_filter(
                logits, sigma=(profile.smooth_sigma, profile.smooth_sigma, 0), output=logits
            )
        return logits

    def _confidence_field(self, height: int, width: int, rng: np.random.Generator) -> np.ndarray:
        """Smooth multiplicative confidence field in (0, 1].

        The field is 1 minus a low-frequency non-negative noise pattern of the
        configured (positive) amplitude; it attenuates the logits everywhere,
        regardless of correctness, thereby spreading the per-segment
        confidence of correct segments.  At amplitude 0 the field would be all
        ones and is neither drawn nor applied.
        """
        profile = self.profile
        cells = profile.confidence_field_scale
        coarse = rng.uniform(0.0, 1.0, size=(max(2, height // cells), max(2, width // cells)))
        field = ndimage.zoom(
            coarse,
            (height / coarse.shape[0], width / coarse.shape[1]),
            order=1,
        )[:height, :width]
        # Pad in the rare case zoom under-shoots the requested size by a pixel.
        if field.shape != (height, width):
            field = np.pad(
                field,
                ((0, height - field.shape[0]), (0, width - field.shape[1])),
                mode="edge",
            )
        return 1.0 - profile.confidence_field_amplitude * field

    def _apply_uncertainty_blobs(self, logits: np.ndarray, rng: np.random.Generator) -> None:
        """Attenuate the logits inside random regions (uncertain but correct), in place.

        These regions mimic aleatoric uncertainty that does not correspond to
        prediction errors; they keep pure dispersion baselines (entropy only)
        from separating false positives perfectly.
        """
        profile = self.profile
        if profile.uncertainty_blob_rate <= 0:
            return
        h, w = logits.shape[:2]
        n_blobs = int(rng.poisson(profile.uncertainty_blob_rate))
        for _ in range(n_blobs):
            size_lo, size_hi = profile.uncertainty_blob_size
            blob_h = int(rng.integers(size_lo, size_hi + 1))
            blob_w = int(rng.integers(size_lo, size_hi + 1))
            top = int(rng.integers(0, max(1, h - blob_h)))
            left = int(rng.integers(0, max(1, w - blob_w)))
            strength = rng.uniform(profile.uncertainty_blob_strength, 1.0)
            window = logits[top : top + blob_h, left : left + blob_w, :]
            np.multiply(window, strength, out=window, where=window > 0)


def _component_pixels(table: Labelling, component: int) -> Tuple[np.ndarray, np.ndarray]:
    """Rows and columns of one component's pixels (scan order), read inside its box."""
    top, left, bottom, right = (int(bound) for bound in table.boxes[component])
    rows, cols = np.nonzero(table.components[top:bottom, left:right] == component + 1)
    rows += top
    cols += left
    return rows, cols


def _softmax(logits: np.ndarray) -> np.ndarray:
    """Softmax over the last axis of a C-contiguous (H, W, C) field, in place.

    Bitwise equal to ``exp(x - max) / sum(exp(x - max))`` over the whole
    field at once.  The field is walked a tile of rows at a time
    (:data:`TILE_PIXELS`); each tile is copied once into a class-major
    ``(C, n)`` buffer, where the class maximum, the shift, ``np.exp`` and the
    division run over contiguous class planes, and the class sum goes through
    :func:`_class_sum`, which adds the planes in the order ``np.sum`` adds the
    classes of a C-contiguous field.  The tile is then copied back.
    """
    height, width, n_classes = logits.shape
    tile_rows = max(1, TILE_PIXELS // width)
    tile_pixels = min(tile_rows, height) * width
    buffer = np.empty(n_classes * tile_pixels)
    lanes_buffer = np.empty((_LANES, tile_pixels))
    work = np.empty(tile_pixels)
    for start in range(0, height, tile_rows):
        rows = logits[start:start + tile_rows]
        pixels = len(rows) * width
        tile = buffer[:n_classes * pixels].reshape(n_classes, pixels)
        planes = tile.reshape(n_classes, len(rows), width)
        np.copyto(planes, rows.transpose(2, 0, 1))
        shift = np.maximum.reduce(tile, axis=0, out=work[:pixels])
        np.subtract(tile, shift, out=tile)
        np.exp(tile, out=tile)
        np.divide(tile, _class_sum(tile, shift, lanes_buffer[:, :pixels]), out=tile)
        np.copyto(rows.transpose(2, 0, 1), planes)
    return logits
