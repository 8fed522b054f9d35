"""Minimal dependency-free PNG codec for label maps.

Cityscapes ``gtFine`` annotations are 8-bit single-channel PNGs of raw label
ids.  The container image deliberately ships no imaging library (no Pillow,
no imageio), so this module implements the tiny subset of the PNG spec the
disk dataset needs, on top of :mod:`zlib` and :mod:`struct`:

* :func:`write_png_gray8` — write a 2-D ``uint8`` array as an 8-bit
  grayscale PNG (filter type 0 per scanline; one IDAT chunk);
* :func:`read_png_gray8` — read an 8-bit grayscale, non-interlaced PNG back
  into a 2-D ``uint8`` array.  All five scanline filter types (None / Sub /
  Up / Average / Paeth) are supported, so files produced by standard
  encoders (which pick filters adaptively) decode correctly, not only our
  own filter-0 output.

Anything outside that subset — palette or RGB color types, 16-bit depth,
interlacing — raises :class:`PngError` with the offending property named,
never a silent misread: a label map decoded wrongly would corrupt every
downstream IoU target.

The reader bounds its input before it allocates: every chunk's CRC is
checked, the IHDR size is capped at :data:`MAX_PNG_PIXELS`, and the image
data is inflated to at most one byte past the size the header declares, so
a small file whose stream inflates to far more (a decompression bomb) is
refused without ever holding that output.
"""

from __future__ import annotations

import struct
import zlib
from pathlib import Path
from typing import Union

import numpy as np

#: The 8-byte PNG file signature.
_SIGNATURE = b"\x89PNG\r\n\x1a\n"

#: Largest image :func:`read_png_gray8` decodes, in pixels: 2**25, sixteen
#: 1024x2048 Cityscapes frames.
MAX_PNG_PIXELS = 1 << 25


class PngError(ValueError):
    """A file is not a PNG of the supported subset (8-bit grayscale)."""


def _chunk(tag: bytes, payload: bytes) -> bytes:
    """One PNG chunk: length, tag, payload, CRC over tag+payload."""
    return (
        struct.pack(">I", len(payload))
        + tag
        + payload
        + struct.pack(">I", zlib.crc32(tag + payload) & 0xFFFFFFFF)
    )


def write_png_gray8(path: Union[str, Path], image: np.ndarray) -> None:
    """Write a 2-D ``uint8`` array as an 8-bit grayscale PNG."""
    arr = np.asarray(image)
    if arr.ndim != 2 or arr.size == 0:
        raise PngError(f"image must be a non-empty 2-D array, got shape {arr.shape}")
    if arr.dtype != np.uint8:
        if not np.issubdtype(arr.dtype, np.integer) or arr.min() < 0 or arr.max() > 255:
            raise PngError(
                f"image values must fit uint8 (got dtype {arr.dtype}, "
                f"range [{arr.min()}, {arr.max()}])"
            )
        arr = arr.astype(np.uint8)
    height, width = arr.shape
    # bit depth 8, color type 0 (grayscale), no compression/filter/interlace.
    ihdr = struct.pack(">IIBBBBB", width, height, 8, 0, 0, 0, 0)
    # Filter byte 0 (None) in front of every scanline.
    raw = np.empty((height, width + 1), dtype=np.uint8)
    raw[:, 0] = 0
    raw[:, 1:] = arr
    data = (
        _SIGNATURE
        + _chunk(b"IHDR", ihdr)
        + _chunk(b"IDAT", zlib.compress(raw.tobytes(), level=6))
        + _chunk(b"IEND", b"")
    )
    Path(path).write_bytes(data)


def _unfilter(filtered: np.ndarray, height: int, width: int) -> np.ndarray:
    """Reverse the per-scanline PNG filters (bytes-per-pixel = 1)."""
    rows = filtered.reshape(height, width + 1)
    filters = rows[:, 0]
    out = np.zeros((height, width), dtype=np.uint8)
    for y in range(height):
        filter_type = int(filters[y])
        line = rows[y, 1:].astype(np.int64)
        prior = out[y - 1].astype(np.int64) if y > 0 else np.zeros(width, dtype=np.int64)
        if filter_type == 0:  # None
            out[y] = line.astype(np.uint8)
        elif filter_type == 1:  # Sub: recon[x] = line[x] + recon[x-1]
            out[y] = np.cumsum(line, dtype=np.int64).astype(np.uint8)
        elif filter_type == 2:  # Up
            out[y] = ((line + prior) % 256).astype(np.uint8)
        elif filter_type == 3:  # Average
            left = 0
            row = out[y]
            for x in range(width):
                left = (int(line[x]) + (left + int(prior[x])) // 2) % 256
                row[x] = left
        elif filter_type == 4:  # Paeth
            left = 0
            upper_left = 0
            row = out[y]
            for x in range(width):
                above = int(prior[x])
                p = left + above - upper_left
                pa, pb, pc = abs(p - left), abs(p - above), abs(p - upper_left)
                if pa <= pb and pa <= pc:
                    predictor = left
                elif pb <= pc:
                    predictor = above
                else:
                    predictor = upper_left
                left = (int(line[x]) + predictor) % 256
                row[x] = left
                upper_left = above
        else:
            raise PngError(f"unknown scanline filter type {filter_type}")
    return out


def read_png_gray8(path: Union[str, Path]) -> np.ndarray:
    """Read an 8-bit grayscale non-interlaced PNG as a 2-D ``uint8`` array."""
    path = Path(path)
    data = path.read_bytes()
    if not data.startswith(_SIGNATURE):
        raise PngError(f"{path} is not a PNG file (bad signature)")
    offset = len(_SIGNATURE)
    header = None
    idat = []
    view = memoryview(data)  # chunk payloads are views, never copies
    while offset + 8 <= len(data):
        (length,) = struct.unpack_from(">I", data, offset)
        tag = data[offset + 4 : offset + 8]
        end = offset + 8 + length
        if end + 4 > len(data):
            raise PngError(f"{path} is truncated inside chunk {tag!r}")
        payload = view[offset + 8 : end]
        (crc,) = struct.unpack_from(">I", data, end)
        if zlib.crc32(payload, zlib.crc32(tag)) != crc:
            raise PngError(f"{path} has a bad CRC in chunk {tag!r}")
        if tag == b"IHDR":
            if length != 13:
                raise PngError(f"{path} has a {length}-byte IHDR chunk, expected 13")
            header = struct.unpack(">IIBBBBB", payload)
        elif tag == b"IDAT":
            idat.append(payload)
        elif tag == b"IEND":
            break
        offset = end + 4
    if header is None:
        raise PngError(f"{path} has no IHDR chunk")
    width, height, bit_depth, color_type, _, _, interlace = header
    if not 0 < width * height <= MAX_PNG_PIXELS:
        raise PngError(
            f"{path} declares a {width}x{height} image; sizes from 1 to "
            f"{MAX_PNG_PIXELS} pixels are supported"
        )
    if bit_depth != 8 or color_type != 0:
        raise PngError(
            f"{path} is not 8-bit grayscale (bit depth {bit_depth}, "
            f"color type {color_type}); label maps must be *_labelIds-style PNGs"
        )
    if interlace != 0:
        raise PngError(f"{path} is interlaced, which is not supported")
    if not idat:
        raise PngError(f"{path} has no IDAT chunk")
    expected = height * (width + 1)
    inflater = zlib.decompressobj()
    try:
        # One byte past the declared size is enough to tell an excess stream.
        raw = inflater.decompress(b"".join(idat), expected + 1)
    except zlib.error as exc:
        raise PngError(f"{path} has corrupt image data: {exc}") from None
    if len(raw) > expected:
        raise PngError(
            f"{path} has excess image data: it inflates past the {expected} bytes "
            f"of a {width}x{height} grayscale image"
        )
    if not inflater.eof:
        raise PngError(f"{path} has an unterminated image data stream")
    if len(raw) < expected:
        raise PngError(
            f"{path} has short image data: {len(raw)} bytes, expected {expected} "
            f"for {width}x{height} grayscale"
        )
    return _unfilter(np.frombuffer(raw, dtype=np.uint8), height, width)
