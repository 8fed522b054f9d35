"""Request parsing for the scoring server (stdlib + numpy only).

Two request encodings are accepted on ``POST /score``:

* ``application/x-npy`` — one softmax field as raw ``.npy`` bytes
  (``numpy.save``); the frame id comes from the ``X-Image-Id`` header.
* ``application/x-npz`` / ``application/zip`` — a ``numpy.savez`` archive;
  each member is one frame, member names are the frame ids, archive order is
  response order.

Both decode to the field's own bytes; any other content type (JSON
included, whose decode takes many times the body's size) is a 415.

Parsing is strictly separated from scoring: everything here raises
:class:`RequestError` with an HTTP status and a machine-readable error code,
which the handler maps to a structured JSON error response — a malformed
request must never produce a stack trace on the wire.  Numerical validation
(row sums, class count) stays in the extractor and surfaces as ``ValueError``
→ 400 in the handler.
"""

from __future__ import annotations

import io
import zipfile
from typing import List, Tuple

import numpy as np


class RequestError(Exception):
    """A client error with an HTTP status and machine-readable code."""

    def __init__(self, status: int, code: str, message: str) -> None:
        super().__init__(message)
        self.status = int(status)
        self.code = code
        self.message = message


def _check_frame(name: str, array: np.ndarray) -> np.ndarray:
    array = np.asarray(array)
    if array.ndim != 3:
        raise RequestError(
            400,
            "bad_shape",
            f"frame {name!r}: softmax fields are 3-D (H, W, C) arrays, "
            f"got {array.ndim}-D",
        )
    return array


def _parse_npy(body: bytes, image_id: str) -> List[Tuple[str, np.ndarray]]:
    try:
        array = np.load(io.BytesIO(body), allow_pickle=False)
    except Exception as exc:
        raise RequestError(
            400, "bad_payload", f"could not decode npy payload: {exc}"
        ) from None
    return [(image_id, _check_frame(image_id, array))]


def _parse_npz(body: bytes) -> List[Tuple[str, np.ndarray]]:
    try:
        archive = np.load(io.BytesIO(body), allow_pickle=False)
    except (zipfile.BadZipFile, OSError, ValueError) as exc:
        raise RequestError(
            400, "bad_payload", f"could not decode npz payload: {exc}"
        ) from None
    if not hasattr(archive, "files"):
        raise RequestError(400, "bad_payload", "expected an npz archive, got a bare array")
    frames: List[Tuple[str, np.ndarray]] = []
    for name in archive.files:
        frames.append((name, _check_frame(name, archive[name])))
    if not frames:
        raise RequestError(400, "bad_payload", "npz archive contains no frames")
    return frames


def parse_score_request(
    content_type: str, body: bytes, default_image_id: str = "frame"
) -> List[Tuple[str, np.ndarray]]:
    """Decode a ``/score`` request body into ``[(image_id, probs), ...]``.

    Raises :class:`RequestError` for anything the client got wrong.
    """
    media_type = (content_type or "").split(";")[0].strip().lower()
    if media_type == "application/x-npy":
        return _parse_npy(body, default_image_id)
    if media_type in ("application/x-npz", "application/zip"):
        return _parse_npz(body)
    raise RequestError(
        415,
        "unsupported_media_type",
        f"unsupported content type {media_type or '(none)'!r}; use "
        f"application/x-npy or application/x-npz",
    )


__all__ = ["RequestError", "parse_score_request"]
