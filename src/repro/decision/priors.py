"""Position-specific class prior estimation (Fig. 4 of the paper).

The ML decision rule divides the softmax posterior by the estimated a-priori
class probability p̂_z(y) *at pixel position z* (eq. (7)).  The priors are
estimated from training data as per-pixel class frequencies; Fig. 4 shows the
resulting heatmap for the class "human", which concentrates where pedestrians
actually occur (sidewalks).

Because per-position counts from a finite training set are noisy and can be
zero, the estimator supports Laplace smoothing and optional spatial (Gaussian)
smoothing, and it guarantees that the returned priors are a proper
distribution over classes at every pixel.
"""

from __future__ import annotations

from typing import Iterable, Optional

import numpy as np
from scipy import ndimage

from repro.segmentation.labels import LabelSpace, cityscapes_label_space
from repro.utils.validation import check_label_map


class PixelPriorEstimator:
    """Estimate pixel-wise class priors from ground-truth label maps.

    Parameters
    ----------
    label_space:
        Label space defining the number of classes.
    laplace_smoothing:
        Pseudo-count added to every (pixel, class) cell before normalisation;
        keeps the priors strictly positive so the ML division is well-defined.
    spatial_sigma:
        Optional Gaussian smoothing (in pixels) applied to the per-class count
        maps before normalisation; reduces estimation noise when only few
        training images are available.
    global_blend:
        Fraction in [0, 1) with which the position-specific priors are blended
        with the *global* (position-independent) class frequencies.  A small
        blend regularises positions that were never observed to contain a
        class, which keeps the ML rule from exploding there when the training
        set is small.
    """

    def __init__(
        self,
        label_space: Optional[LabelSpace] = None,
        laplace_smoothing: float = 1.0,
        spatial_sigma: float = 2.0,
        global_blend: float = 0.2,
    ) -> None:
        if laplace_smoothing <= 0:
            raise ValueError("laplace_smoothing must be positive (priors must not vanish)")
        if spatial_sigma < 0:
            raise ValueError("spatial_sigma must be non-negative")
        if not 0.0 <= global_blend < 1.0:
            raise ValueError("global_blend must be in [0, 1)")
        self.label_space = label_space or cityscapes_label_space()
        self.laplace_smoothing = float(laplace_smoothing)
        self.spatial_sigma = float(spatial_sigma)
        self.global_blend = float(global_blend)
        self.counts_: Optional[np.ndarray] = None
        self.n_images_: int = 0

    # ------------------------------------------------------------------ ---
    @property
    def n_classes(self) -> int:
        """Number of classes of the prior field."""
        return self.label_space.n_classes

    def fit(self, label_maps: Iterable[np.ndarray]) -> "PixelPriorEstimator":
        """Count per-pixel classes over the given label maps (from scratch)."""
        self.counts_ = None
        self.n_images_ = 0
        for labels in label_maps:
            self.partial_fit(labels)
        if self.counts_ is None:
            raise ValueError("at least one label map is required")
        return self

    def partial_fit(self, labels: np.ndarray) -> "PixelPriorEstimator":
        """Accumulate one additional label map (streaming estimation)."""
        labels = check_label_map(labels)
        if self.counts_ is None:
            self.counts_ = np.zeros((*labels.shape, self.n_classes), dtype=np.float64)
        elif labels.shape != self.counts_.shape[:2]:
            raise ValueError("label map shape differs from previously seen maps")
        valid = labels >= 0
        rows, cols = np.nonzero(valid)
        np.add.at(self.counts_, (rows, cols, labels[valid]), 1.0)
        self.n_images_ += 1
        return self

    # ------------------------------------------------------------------ ---
    def priors(self) -> np.ndarray:
        """Return the smoothed, normalised (H, W, C) prior field p̂_z(y)."""
        if self.counts_ is None:
            raise RuntimeError("PixelPriorEstimator has not seen any data yet")
        counts = self.counts_
        if self.spatial_sigma > 0:
            counts = ndimage.gaussian_filter(
                counts, sigma=(self.spatial_sigma, self.spatial_sigma, 0)
            )
        counts = counts + self.laplace_smoothing / self.n_classes
        totals = counts.sum(axis=2, keepdims=True)
        positional = counts / totals
        if self.global_blend > 0:
            global_frequencies = counts.sum(axis=(0, 1))
            global_frequencies = global_frequencies / global_frequencies.sum()
            positional = (
                (1.0 - self.global_blend) * positional
                + self.global_blend * global_frequencies.reshape(1, 1, -1)
            )
        return positional

    def category_prior(self, category: str) -> np.ndarray:
        """(H, W) prior heatmap of a whole category (e.g. ``"human"``)."""
        priors = self.priors()
        ids = self.label_space.ids_in_category(category)
        return priors[:, :, ids].sum(axis=2)

    def global_class_frequencies(self) -> np.ndarray:
        """Overall class frequencies (averaged over all pixel positions)."""
        return self.priors().mean(axis=(0, 1))
