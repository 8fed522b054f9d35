"""Online scoring service: fit once, score many (``python -m repro serve``).

The batch experiment path re-extracts and re-fits per run; serving inverts
that: ``Runner.fit`` produces a persistent
:class:`~repro.api.fitted.FittedModel` (meta classifier + regressor +
scalers + label space + provenance, content-addressed through
:mod:`repro.store`), and this package exposes it over HTTP for scoring new
softmax fields without ground truth:

* :class:`ScoringService` — the warm model + extractor behind the endpoints;
* :class:`ScoringServer` — stdlib HTTP server with a bounded request
  queue (structured 503 backpressure) and JSON error contracts, whose
  handler threads each score through their own forked scoring process;
* :mod:`repro.serve.protocol` — bounded request decoding (npy / npz),
  straight from the socket into the field;
* :mod:`repro.serve.client` — stdlib client helpers used by tests, the
  benchmark and CI.

Server responses are bitwise identical to the batch reference
(``Runner.score``) because both go through ``FittedModel.score_frame``.
"""

from repro.serve.client import health, score_frame, wait_until_ready
from repro.serve.protocol import (
    DEFAULT_MAX_REQUEST_BYTES,
    RequestError,
    parse_score_request,
)
from repro.serve.server import ScoringRequestHandler, ScoringServer
from repro.serve.service import ScoringService

__all__ = [
    "DEFAULT_MAX_REQUEST_BYTES",
    "RequestError",
    "ScoringRequestHandler",
    "ScoringServer",
    "ScoringService",
    "health",
    "parse_score_request",
    "score_frame",
    "wait_until_ready",
]
