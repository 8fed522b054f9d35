"""Request decoding for the scoring server (stdlib + numpy only).

Two request encodings are accepted on ``POST /score``:

* ``application/x-npy`` — one softmax field as raw ``.npy`` bytes
  (``numpy.save``); the frame id comes from the ``X-Image-Id`` header.
* ``application/x-npz`` / ``application/zip`` — a ``numpy.savez`` archive
  (compressed or not); each member is one frame, member names are the frame
  ids, archive order is response order.

Any other content type (JSON included, whose decode takes many times the
body's size) is a 415.

Every ``.npy`` stream — the npy body itself, or one npz member — goes
through one bounded decoder, :func:`_read_npy`.  It reads the magic string
and the header, and before allocating anything rejects a field that is not
3-D, an object or unsized dtype and a declared data size that is not exactly the bytes
left in the stream, so a field is never larger than its body.  Only
then does it ask the caller's ``allocate`` for the array (``np.empty`` by
default; the server's handler hands out pieces of its scoring process's
shared mapping) and fill its bytes with ``readinto``: an npy body goes
from the socket straight into the field, with no copy in between.  A
stream that ends early is a 400 ("truncated"), never a hang or a 500.  An npz archive is held whole (it needs random access, and its wire
size is already capped), and the sizes its directory declares are summed
against ``max_bytes`` before any member is inflated, so a compressed
all-zero body cannot decode to more than the cap.

Decoding is strictly separated from scoring: everything here raises
:class:`RequestError` with an HTTP status and a machine-readable error code,
which the handler maps to a structured JSON error response — a malformed
request must never produce a stack trace on the wire.  Numerical validation
(row sums, class count) stays in the extractor and surfaces as ``ValueError``
→ 400 in the handler.
"""

from __future__ import annotations

import io
import tokenize
import zipfile
import zlib
from typing import BinaryIO, Callable, List, Tuple

import numpy as np

#: Default cap on request bodies and on the bytes they decode to.  64 MiB
#: holds a 512x1024x19 float32 field (38 MiB) but not a full 1024x2048x19
#: float64 frame (304 MiB).
DEFAULT_MAX_REQUEST_BYTES = 64 * 1024 * 1024

#: Largest single read into a field, so a stream whose ``readinto`` copies
#: through ``read`` (an npz member) never holds more than this on the side.
_CHUNK = 1024 * 1024

#: What numpy's header parser raises on text the client chose: a bad dict
#: or descr (ValueError), an unclosed bracket (tokenize's TokenError), a
#: nesting too deep for Python's parser (MemoryError or RecursionError).
_HEADER_ERRORS = (
    ValueError, TypeError, SyntaxError, tokenize.TokenError, MemoryError, RecursionError,
)

#: What a malformed archive raises: a bad directory or deflate stream, an
#: encrypted or unsupported member.
_ZIP_ERRORS = (
    zipfile.BadZipFile, zlib.error, EOFError, OSError, NotImplementedError, RuntimeError,
)


#: Where a decoded field goes: ``allocate(shape, dtype, order)`` returns an
#: uninitialised array, as ``np.empty`` does.
Allocate = Callable[[Tuple[int, ...], np.dtype, str], np.ndarray]


class RequestError(Exception):
    """A client error with an HTTP status and machine-readable code."""

    def __init__(self, status: int, code: str, message: str) -> None:
        super().__init__(message)
        self.status = int(status)
        self.code = code
        self.message = message


class _Body:
    """At most ``length`` bytes of ``stream``: never reads past the body.

    HTTP/1.0 sends one request per connection, so a read past the body
    would block on a client that is waiting for its response.
    """

    def __init__(self, stream: BinaryIO, length: int) -> None:
        self.stream = stream
        self.remaining = int(length)

    def read(self, size: int = -1) -> bytes:
        if size < 0 or size > self.remaining:
            size = self.remaining
        data = self.stream.read(size) if size else b""
        self.remaining -= len(data)  # repro: allow[concurrency-shared-state] -- one _Body per request, read by one worker thread
        return data

    def readinto(self, buffer: memoryview) -> int:
        buffer = buffer[: self.remaining]
        count = (self.stream.readinto(buffer) or 0) if len(buffer) else 0
        self.remaining -= count  # repro: allow[concurrency-shared-state] -- one _Body per request, read by one worker thread
        return count

    def drain(self) -> None:
        """Read and drop the rest (stopping at EOF), so the client sees the
        response instead of a reset."""
        scratch = memoryview(bytearray(min(self.remaining, 64 * 1024)))
        while self.remaining and self.readinto(scratch):
            pass


def _bad(message: str) -> RequestError:
    return RequestError(400, "bad_payload", message)


def _read_npy(body: _Body, name: str, allocate: Allocate) -> np.ndarray:
    """Decode the 3-D ``.npy`` array that fills the rest of ``body``.

    Nothing is allocated before the header has passed every check, so the
    array is never larger than the body; the data is then read straight
    into the bytes of the array ``allocate`` returns.
    """
    try:
        version = np.lib.format.read_magic(body)
        if version == (1, 0):
            shape, fortran_order, dtype = np.lib.format.read_array_header_1_0(body)
        elif version == (2, 0):
            shape, fortran_order, dtype = np.lib.format.read_array_header_2_0(body)
        else:
            raise ValueError(f"unsupported npy format version {version}")
    except _HEADER_ERRORS as exc:
        problem = "truncated" if not body.remaining else "could not decode"
        raise _bad(f"frame {name!r}: {problem} npy header: {exc}") from None
    if len(shape) != 3:
        raise RequestError(
            400,
            "bad_shape",
            f"frame {name!r}: softmax fields are 3-D (H, W, C) arrays, "
            f"got {len(shape)}-D",
        )
    if min(shape) < 0:
        raise RequestError(400, "bad_shape", f"frame {name!r}: negative shape {shape}")
    if dtype.hasobject or not dtype.itemsize:
        # Objects would need unpickling; an unsized dtype ("S0") would be
        # allocated one byte per item wider than the body holds.
        raise _bad(f"frame {name!r}: dtype {dtype} is not a numeric field")
    nbytes = shape[0] * shape[1] * shape[2] * dtype.itemsize
    if nbytes != body.remaining:
        raise _bad(
            f"frame {name!r}: header declares {nbytes} data bytes "
            f"(shape {shape}, {dtype}) but {body.remaining} follow it"
        )
    array = allocate(shape, dtype, "F" if fortran_order else "C")
    # The array is contiguous, so its memory-order ravel is a view; a uint8
    # view of it takes the bytes of any dtype, big-endian included.
    target = memoryview(array.ravel(order="K").view(np.uint8))
    filled = 0
    while filled < nbytes:
        count = body.readinto(target[filled : filled + _CHUNK])
        if not count:
            raise _bad(
                f"frame {name!r}: truncated npy data, got {filled} of {nbytes} bytes"
            )
        filled += count
    return array


def _parse_npz(
    body: _Body, max_bytes: int, allocate: Allocate
) -> List[Tuple[str, np.ndarray]]:
    data = body.read()
    if data.startswith(np.lib.format.MAGIC_PREFIX):
        raise _bad("expected an npz archive, got a bare array")
    try:
        archive = zipfile.ZipFile(io.BytesIO(data))
    except _ZIP_ERRORS as exc:
        raise _bad(f"could not decode npz payload: {exc}") from None
    with archive:
        members = archive.infolist()
        if not members:
            raise _bad("npz archive contains no frames")
        decoded = sum(member.file_size for member in members)
        if decoded > max_bytes:
            raise RequestError(
                413,
                "payload_too_large",
                f"npz archive declares {decoded} decoded bytes, over the limit "
                f"of {max_bytes}",
            )
        frames: List[Tuple[str, np.ndarray]] = []
        for member in members:
            name = member.filename
            name = name[:-4] if name.endswith(".npy") else name
            try:
                with archive.open(member) as stream:
                    array = _read_npy(_Body(stream, member.file_size), name, allocate)
            except _ZIP_ERRORS as exc:
                raise _bad(f"could not decode npz member {name!r}: {exc}") from None
            frames.append((name, array))
    return frames


def parse_score_request(
    content_type: str,
    stream: BinaryIO,
    length: int,
    default_image_id: str = "frame",
    max_bytes: int = DEFAULT_MAX_REQUEST_BYTES,
    allocate: Allocate = np.empty,
) -> List[Tuple[str, np.ndarray]]:
    """Decode a ``/score`` body of ``length`` bytes into ``[(image_id, probs), ...]``.

    ``stream`` is the request's binary stream (the socket's ``rfile`` on the
    server, ``io.BytesIO(body)`` in tests); no more than ``length`` bytes
    are read from it, and a rejected body's unread rest is drained.  An npy
    body decodes to exactly its own data bytes, which the caller has capped;
    ``max_bytes`` caps what an npz archive declares it inflates to.  Each
    field, npz members one after another, is read into the array that
    ``allocate(shape, dtype, order)`` returns.  Raises
    :class:`RequestError` for anything the client got wrong.
    """
    body = _Body(stream, length)
    media_type = (content_type or "").split(";")[0].strip().lower()
    try:
        if media_type == "application/x-npy":
            return [(default_image_id, _read_npy(body, default_image_id, allocate))]
        if media_type in ("application/x-npz", "application/zip"):
            return _parse_npz(body, max_bytes, allocate)
        raise RequestError(
            415,
            "unsupported_media_type",
            f"unsupported content type {media_type or '(none)'!r}; use "
            f"application/x-npy or application/x-npz",
        )
    except RequestError:
        body.drain()
        raise


__all__ = ["DEFAULT_MAX_REQUEST_BYTES", "RequestError", "parse_score_request"]
