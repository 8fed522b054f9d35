"""The simulated network exactly as it was before the tiled, in-place rewrite.

``SimulatedSegmentationNetwork`` and ``_softmax`` below are the earlier
``repro.segmentation.network`` code, unchanged apart from this header, the
imports and the two lines that read the component image and count from
``label_components`` (the labeller the earlier code reached through a
wrapper): the profiles and their registrations are not repeated (they are
data the rewrite left alone), so :class:`NetworkProfile` and the presets come
from ``repro``.  ``tests/test_network_parity_fuzz.py`` checks that the
program's ``predict_probabilities`` returns the same bytes as this one.  It
is an oracle only; nothing in ``src`` imports it.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np
from scipy import ndimage

from repro.segmentation.labels import LabelSpace, cityscapes_label_space
from repro.segmentation.network import NetworkProfile, mobilenetv2_profile
from repro.utils.connected_components import label_components
from repro.utils.rng import RandomState, as_rng
from repro.utils.validation import check_label_map


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
            underlying scene content).
        index:
            Image identifier used to derive the per-image noise seed.
        """
        gt = check_label_map(gt_labels)
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
    ) -> Tuple[np.ndarray, List[Dict[str, object]]]:
        """Construct the predicted-class intent map and record erroneous segments.

        The intent map is what the network "wants" to predict before logits,
        noise and smoothing are applied.  ``error_segments`` lists regions
        that deviate from the ground truth together with a flag telling
        whether the output there should stay confident (overconfident errors).
        """
        profile = self.profile
        ls = self.label_space
        intent = gt.copy()
        error_segments: List[Dict[str, object]] = []

        # --- instance-level misses and confusions --------------------------
        thing_ids = set(ls.thing_ids())
        labelling = label_components(gt, connectivity=8, background=-1)
        components, n_components = labelling.components, int(labelling.first_index.size)
        for comp_id in range(1, n_components + 1):
            mask = components == comp_id
            class_id = int(gt[mask][0])
            if class_id not in thing_ids:
                continue
            size = int(mask.sum())
            miss_probability = profile.miss_rate * float(np.exp(-size / profile.miss_size_scale))
            draw = rng.uniform()
            if draw < miss_probability:
                replacement = self._surrounding_class(gt, mask)
                intent[mask] = replacement
                error_segments.append(
                    {"mask": mask, "kind": "miss",
                     "confidence": self._error_confidence(rng)}
                )
            elif draw < miss_probability + profile.confusion_rate:
                confusable = ls.confusable_classes(class_id)
                new_class = int(confusable[int(rng.integers(0, len(confusable)))])
                intent[mask] = new_class
                error_segments.append(
                    {"mask": mask, "kind": "confusion",
                     "confidence": self._error_confidence(rng)}
                )

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
        h, w = gt.shape
        thing_list = ls.thing_ids()
        template_ids = [
            comp_id
            for comp_id in range(1, n_components + 1)
            if int(gt[components == comp_id][0]) in thing_ids
        ]
        for _ in range(n_hallucinations):
            mask = np.zeros_like(gt, dtype=bool)
            if template_ids and rng.uniform() < 0.85:
                template = int(template_ids[int(rng.integers(0, len(template_ids)))])
                template_mask = components == template
                class_id = int(gt[template_mask][0])
                rows, cols = np.nonzero(template_mask)
                shift_r = int(rng.integers(-h // 3, h // 3 + 1))
                shift_c = int(rng.integers(-w // 3, w // 3 + 1))
                new_rows = rows + shift_r
                new_cols = cols + shift_c
                keep = (new_rows >= 0) & (new_rows < h) & (new_cols >= 0) & (new_cols < w)
                if keep.sum() < 4:
                    continue
                mask[new_rows[keep], new_cols[keep]] = True
            else:
                size_lo, size_hi = profile.hallucination_size
                seg_h = int(rng.integers(size_lo, size_hi + 1))
                seg_w = int(rng.integers(size_lo, size_hi + 1))
                top = int(rng.integers(0, max(1, h - seg_h)))
                left = int(rng.integers(0, max(1, w - seg_w)))
                class_id = int(thing_list[int(rng.integers(0, len(thing_list)))])
                mask[top : top + seg_h, left : left + seg_w] = True
            # Do not hallucinate on top of an existing instance of the same class;
            # that would not be a false positive.
            if np.any(gt[mask] == class_id):
                continue
            intent[mask] = class_id
            error_segments.append(
                {"mask": mask, "kind": "hallucination",
                 "confidence": self._error_confidence(rng)}
            )
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
    def _surrounding_class(gt: np.ndarray, mask: np.ndarray) -> int:
        """Most frequent ground-truth class in a dilated ring around *mask*."""
        dilated = ndimage.binary_dilation(mask, iterations=2)
        ring = dilated & ~mask
        if not np.any(ring):
            ring = ~mask
        values = gt[ring]
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
        rows, cols = np.meshgrid(np.arange(h), np.arange(w), indexing="ij")
        src_rows = np.clip(np.round(rows + flow_r), 0, h - 1).astype(np.int64)
        src_cols = np.clip(np.round(cols + flow_c), 0, w - 1).astype(np.int64)
        return labels[src_rows, src_cols]

    # ------------------------------------------------------------ logits --
    def _build_logits(
        self,
        gt: np.ndarray,
        intent: np.ndarray,
        error_segments: List[Dict[str, object]],
        rng: np.random.Generator,
    ) -> np.ndarray:
        profile = self.profile
        n_classes = self.n_classes
        h, w = gt.shape
        correct = intent == gt

        peak = np.where(correct, profile.peak_correct, profile.peak_wrong).astype(np.float64)
        gt_logit = np.where(correct, 0.0, profile.wrong_gt_logit).astype(np.float64)
        # Confidently-wrong segments interpolate towards the correct-pixel
        # output: peak grows, residual mass on the true class shrinks.  At
        # confidence 1 the erroneous segment is locally indistinguishable from
        # a correct one, which is what bounds meta-classification performance.
        for segment in error_segments:
            confidence = float(segment["confidence"])
            mask = segment["mask"]
            peak[mask] = profile.peak_wrong + confidence * (profile.peak_correct - profile.peak_wrong)
            gt_logit[mask] = profile.wrong_gt_logit * (1.0 - confidence)

        logits = np.full((h, w, n_classes), profile.background_logit, dtype=np.float64)
        rows, cols = np.meshgrid(np.arange(h), np.arange(w), indexing="ij")
        valid_intent = np.clip(intent, 0, n_classes - 1)
        logits[rows, cols, valid_intent] = peak
        # Inside erroneous regions, the true class keeps some logit mass which
        # flattens the distribution there (higher entropy, smaller margin).
        wrong = ~correct & (gt >= 0)
        logits[rows[wrong], cols[wrong], gt[wrong]] = gt_logit[wrong]

        logits += rng.normal(0.0, profile.logit_noise, size=logits.shape)
        # Confidence attenuation only shrinks *positive* logits: an uncertain
        # network spreads mass among the few locally plausible classes, it
        # does not hand probability to all absent classes equally.  (Raising
        # the tail of every class would make the ML rule of Section IV flip
        # entire low-confidence regions to the rarest class, which real
        # networks do not exhibit to that extent.)
        field = self._confidence_field(h, w, rng)[..., None]
        logits = np.where(logits > 0, logits * field, logits)
        logits = self._apply_uncertainty_blobs(logits, rng)
        if profile.smooth_sigma > 0:
            logits = ndimage.gaussian_filter(logits, sigma=(profile.smooth_sigma, profile.smooth_sigma, 0))
        return logits

    def _confidence_field(self, height: int, width: int, rng: np.random.Generator) -> np.ndarray:
        """Smooth multiplicative confidence field in (0, 1].

        The field is 1 minus a low-frequency non-negative noise pattern of the
        configured amplitude; it attenuates the logits everywhere, regardless
        of correctness, thereby spreading the per-segment confidence of
        correct segments.
        """
        profile = self.profile
        if profile.confidence_field_amplitude <= 0:
            return np.ones((height, width), dtype=np.float64)
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

    def _apply_uncertainty_blobs(self, logits: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """Attenuate the logits inside random regions (uncertain but correct).

        These regions mimic aleatoric uncertainty that does not correspond to
        prediction errors; they keep pure dispersion baselines (entropy only)
        from separating false positives perfectly.
        """
        profile = self.profile
        if profile.uncertainty_blob_rate <= 0:
            return logits
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
            logits[top : top + blob_h, left : left + blob_w, :] = np.where(
                window > 0, window * strength, window
            )
        return logits


def _softmax(logits: np.ndarray) -> np.ndarray:
    """Numerically stable softmax over the last axis."""
    shifted = logits - logits.max(axis=-1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=-1, keepdims=True)
