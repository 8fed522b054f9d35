"""The scoring service: a warm FittedModel behind a frame-scoring API.

The service owns the model and one shared
:class:`~repro.core.metrics.SegmentMetricsExtractor` built at startup, so
the schema-drift check runs once.  The extractor holds no per-request or
per-thread state (each frame's softmax sweep allocates only tile-sized work
space), so any number of callers can score through the same instance.

The scoring server does not extract in its own process: each of its
handler threads hands its decoded fields to a forked scoring process,
which inherited this service (model and extractor, already warm) and
scores them through :meth:`ScoringService.score_frame`.  The handler
passes such fields as :class:`SharedFrames`, which carry the function
that sends a field to that process; :meth:`ScoringService.score_frames`
stays the one batch entry point either way.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Sequence, Tuple

import numpy as np

from repro.api.fitted import FittedModel


class SharedFrames(list):
    """``(image_id, probs)`` pairs scored by ``score_frame`` elsewhere.

    ``score_frame(probs, image_id=...)`` returns the response dict of one
    field, as :meth:`ScoringService.score_frame` does; the server's is a
    round trip to its handler thread's scoring process.
    """

    def __init__(
        self,
        frames: Iterable[Tuple[str, np.ndarray]],
        score_frame: Callable[..., Dict[str, object]],
    ) -> None:
        super().__init__(frames)
        self.score_frame = score_frame


class ScoringService:
    """Stateless-per-request scoring facade over a :class:`FittedModel`."""

    def __init__(self, model: FittedModel) -> None:
        self.model = model
        # Built once: validates the feature schema; stateless, so every
        # caller (and every scoring process, which inherits it) shares it.
        self.extractor = model.build_extractor()

    def info(self) -> Dict[str, object]:
        """Compact model descriptor served on ``/`` and ``/model``."""
        provenance = self.model.provenance
        out: Dict[str, object] = {
            key: provenance[key]
            for key in (
                "kind", "name", "seed", "network", "classifier", "regressor",
                "n_images", "n_segments",
            )
            if key in provenance
        }
        out["n_classes"] = self.model.label_space.n_classes
        out["n_features"] = len(self.model.feature_names)
        out["connectivity"] = self.model.connectivity
        return out

    def score_frame(self, probs: np.ndarray, image_id: str = "frame") -> Dict[str, object]:
        """Score one softmax field; raises ValueError for invalid fields."""
        return self.model.score_frame(probs, extractor=self.extractor, image_id=image_id)

    def score_frames(
        self, frames: Sequence[Tuple[str, np.ndarray]]
    ) -> Dict[str, object]:
        """Score an ordered batch; response shape matches ``Runner.score``.

        :class:`SharedFrames` are scored by their own ``score_frame``, any
        other sequence in this process.
        """
        score = frames.score_frame if isinstance(frames, SharedFrames) else self.score_frame
        scored: List[Dict[str, object]] = [
            score(probs, image_id=image_id) for image_id, probs in frames
        ]
        return {"frames": scored, "n_frames": len(scored)}


__all__ = ["ScoringService", "SharedFrames"]
