"""Feature standardisation."""

from __future__ import annotations

import numpy as np

from repro.models.base import check_is_fitted
from repro.utils.validation import check_feature_matrix


class StandardScaler:
    """Standardise features to zero mean and unit variance.

    Constant features (zero variance) are left centred but not scaled, so the
    transform never divides by zero.
    """

    def __init__(self, with_mean: bool = True, with_std: bool = True) -> None:
        self.with_mean = with_mean
        self.with_std = with_std
        self.mean_ = None
        self.scale_ = None

    def fit(self, x: np.ndarray) -> "StandardScaler":
        """Learn per-feature mean and standard deviation."""
        x = check_feature_matrix(x)
        self.mean_ = x.mean(axis=0) if self.with_mean else np.zeros(x.shape[1])
        if self.with_std:
            std = x.std(axis=0)
            std[std == 0.0] = 1.0
            self.scale_ = std
        else:
            self.scale_ = np.ones(x.shape[1])
        return self

    def transform(self, x: np.ndarray) -> np.ndarray:
        """Apply the learned standardisation."""
        check_is_fitted(self, "mean_")
        x = check_feature_matrix(x, allow_empty=True)
        if x.shape[1] != self.mean_.shape[0]:
            raise ValueError(
                f"expected {self.mean_.shape[0]} features, got {x.shape[1]}"
            )
        return (x - self.mean_) / self.scale_

    # ------------------------------------------------------------------ ---
    def to_state(self) -> dict:
        """JSON-serialisable fitted state (bitwise-exact round-trip)."""
        check_is_fitted(self, "mean_")
        from repro.models.state import encode_array

        return {
            "type": type(self).__name__,
            "with_mean": self.with_mean,
            "with_std": self.with_std,
            "mean": encode_array(self.mean_),
            "scale": encode_array(self.scale_),
        }

    @classmethod
    def from_state(cls, state: dict) -> "StandardScaler":
        """Rebuild a fitted scaler from its :meth:`to_state` form."""
        from repro.models.state import decode_array, expect_state_type

        expect_state_type(state, cls)
        scaler = cls(with_mean=state["with_mean"], with_std=state["with_std"])
        scaler.mean_ = decode_array(state["mean"])
        scaler.scale_ = decode_array(state["scale"])
        return scaler
