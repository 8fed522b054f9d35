"""The ``/score`` wire contract and the bounded request decoder.

* What the client sends is byte for byte what ``numpy.save`` writes, and
  what the server decodes equals ``numpy.load`` of it: dtype, shape,
  layout flags and bytes.
* Nothing a body declares is allocated before its header has been checked:
  a compressed all-zero npz is a 413 before anything is inflated, and a
  decoded field costs its own bytes and no copy.
* A seeded fuzz of malformed bodies, through ``parse_score_request`` on an
  in-memory stream, ends every case in a named 400/413, never another
  exception, within ``length`` + 1 MiB of traced memory.
"""

import io
import tracemalloc
import zipfile

import numpy as np
import pytest

from repro.serve import DEFAULT_MAX_REQUEST_BYTES, RequestError, parse_score_request
from repro.serve.client import _npy_parts

NPY = "application/x-npy"
NPZ = "application/x-npz"


def npy_bytes(array) -> bytes:
    buffer = io.BytesIO()
    np.save(buffer, array)
    return buffer.getvalue()


def npy_header(descr: str, shape, fortran_order: bool = False) -> bytes:
    """A well-formed npy 1.0 header declaring ``shape`` of ``descr``."""
    buffer = io.BytesIO()
    np.lib.format.write_array_header_1_0(
        buffer, {"descr": descr, "fortran_order": fortran_order, "shape": tuple(shape)}
    )
    return buffer.getvalue()


def zero_bomb(shape) -> bytes:
    """A deflated npz whose one member is an all-zero float64 ``shape`` field,
    written in 1 MiB pieces so the test never holds the decoded bytes."""
    buffer = io.BytesIO()
    with zipfile.ZipFile(buffer, "w", compression=zipfile.ZIP_DEFLATED) as archive:
        with archive.open("bomb.npy", "w", force_zip64=True) as member:
            member.write(npy_header("<f8", shape))
            left = int(np.prod(shape)) * 8
            piece = bytes(1 << 20)
            while left:
                member.write(piece[: min(left, len(piece))])
                left -= min(left, len(piece))
    return buffer.getvalue()


def traced(fn):
    """(outcome, tracemalloc peak in bytes) of one call; a RequestError is
    returned as the outcome, not raised."""
    tracemalloc.start()
    try:
        try:
            outcome = fn()
        except RequestError as exc:
            outcome = exc
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return outcome, peak


def _field(seed: int = 0, shape=(5, 7, 3)) -> np.ndarray:
    return np.random.default_rng(seed).random(shape)


WIRE_CASES = {
    "c_order": lambda: _field(),
    "f_order": lambda: np.asfortranarray(_field()),
    "strided": lambda: _field(shape=(9, 12, 3))[::2, 1::3],
    "reversed": lambda: _field()[::-1],
    "big_endian": lambda: _field().astype(">f8"),
    "big_endian_f_order": lambda: np.asfortranarray(_field().astype(">f4")),
    "float32": lambda: _field().astype(np.float32),
    "zero_size": lambda: np.zeros((0, 7, 3)),
}


class TestWireContract:
    @pytest.mark.parametrize("case", sorted(WIRE_CASES))
    def test_client_parts_are_the_np_save_bytes(self, case):
        array = WIRE_CASES[case]()
        assert b"".join(_npy_parts(array)) == npy_bytes(array)

    @pytest.mark.parametrize("case", sorted(WIRE_CASES))
    def test_client_sends_contiguous_fields_without_copying(self, case):
        array = WIRE_CASES[case]()
        data = np.asarray(_npy_parts(array)[1])
        contiguous = array.flags.c_contiguous or array.flags.f_contiguous
        assert np.shares_memory(data, array) == (contiguous and array.size > 0)

    @pytest.mark.parametrize("case", sorted(WIRE_CASES))
    def test_decode_equals_np_load(self, case):
        body = npy_bytes(WIRE_CASES[case]())
        expected = np.load(io.BytesIO(body))
        [(image_id, decoded)] = parse_score_request(
            NPY, io.BytesIO(body), len(body), default_image_id="f0"
        )
        assert image_id == "f0"
        assert decoded.dtype == expected.dtype
        assert decoded.shape == expected.shape
        assert decoded.flags.c_contiguous == expected.flags.c_contiguous
        assert decoded.flags.f_contiguous == expected.flags.f_contiguous
        assert decoded.tobytes(order="A") == expected.tobytes(order="A")

    def test_npz_members_decode_like_np_load(self):
        frames = {name: WIRE_CASES[name]() for name in ("f_order", "big_endian", "float32")}
        buffer = io.BytesIO()
        np.savez_compressed(buffer, **frames)
        body = buffer.getvalue()
        parsed = parse_score_request(NPZ, io.BytesIO(body), len(body))
        assert [name for name, _ in parsed] == list(frames)
        for name, decoded in parsed:
            assert decoded.dtype == frames[name].dtype
            assert decoded.flags.f_contiguous == frames[name].flags.f_contiguous
            assert decoded.tobytes(order="A") == frames[name].tobytes(order="A")


class TestBoundedDecode:
    def test_field_decodes_into_its_own_bytes(self):
        """A 256x512x19 float64 request costs the field and no copy of it."""
        field = np.zeros((256, 512, 19))
        body = npy_bytes(field)
        stream = io.BytesIO(body)
        frames, peak = traced(lambda: parse_score_request(NPY, stream, len(body)))
        assert frames[0][1].nbytes == field.nbytes
        assert peak <= 1.05 * field.nbytes

    def test_compressed_zero_bomb_is_413_before_inflating(self):
        shape = (1024, 1024, 16)  # 128 MiB decoded, twice the default cap
        body = zero_bomb(shape)
        assert len(body) < 1 << 20
        stream = io.BytesIO(body)
        error, peak = traced(lambda: parse_score_request(NPZ, stream, len(body)))
        assert (error.status, error.code) == (413, "payload_too_large")
        decoded = int(np.prod(shape)) * 8 + len(npy_header("<f8", shape))
        assert error.message == (
            f"npz archive declares {decoded} decoded bytes, over the limit "
            f"of {DEFAULT_MAX_REQUEST_BYTES}"
        )
        assert peak < 2 * len(body)

    def test_rejected_body_is_drained_to_its_length(self):
        """A rejected body's rest is read (so the client gets the response,
        not a reset), and nothing past ``length`` is."""
        body = npy_bytes(np.zeros((4, 4)))
        stream = io.BytesIO(body + b"next request")
        with pytest.raises(RequestError, match="got 2-D"):
            parse_score_request(NPY, stream, len(body))
        assert stream.read() == b"next request"

    def test_short_stream_is_truncated_not_a_hang(self):
        body = npy_bytes(np.zeros((4, 4, 3)))
        with pytest.raises(RequestError, match="truncated npy data, got 40 of 384") as excinfo:
            parse_score_request(NPY, io.BytesIO(body[:-344]), len(body))
        assert (excinfo.value.status, excinfo.value.code) == (400, "bad_payload")

    def test_npy_2_0_header_is_accepted(self):
        field = _field()
        buffer = io.BytesIO()
        np.lib.format.write_array(buffer, field, version=(2, 0))
        body = buffer.getvalue()
        [(_, decoded)] = parse_score_request(NPY, io.BytesIO(body), len(body))
        assert decoded.tobytes() == field.tobytes()


def _raw_header(text: str) -> bytes:
    encoded = (text + "\n").encode("latin1")
    return b"\x93NUMPY\x01\x00" + len(encoded).to_bytes(2, "little") + encoded


BAD_HEADERS = {
    "deep_unary": "-" * 9000 + "1",
    "unclosed_bracket": "(" * 300,
    "unclosed_string": "{'descr': '<f8",
    "too_long": "{" + " " * 10001 + "}",
    "not_a_dict": "[1, 2, 3]",
    "missing_keys": "{'descr': '<f8', 'shape': (1, 1, 1)}",
    "bad_descr": "{'descr': 'abc', 'fortran_order': False, 'shape': (1, 1, 1)}",
    "float_shape": "{'descr': '<f8', 'fortran_order': False, 'shape': (1.5, 1, 1)}",
    "huge_int": "{'descr': '<f8', 'fortran_order': False, 'shape': (" + "9" * 5000 + ", 1, 1)}",
}


@pytest.mark.parametrize("case", sorted(BAD_HEADERS))
def test_unparseable_header_is_bad_payload(case):
    body = _raw_header(BAD_HEADERS[case]) + bytes(8)
    with pytest.raises(RequestError, match="could not decode npy header") as excinfo:
        parse_score_request(NPY, io.BytesIO(body), len(body))
    assert (excinfo.value.status, excinfo.value.code) == (400, "bad_payload")


@pytest.mark.parametrize(
    "descr, shape, code, message",
    [
        ("<f8", (-1, 2, 2), "bad_shape", "frame 'frame': negative shape (-1, 2, 2)"),
        ("|O", (1, 1, 1), "bad_payload", "frame 'frame': dtype object is not a numeric field"),
        ("|S0", (2, 2, 2), "bad_payload", "frame 'frame': dtype |S0 is not a numeric field"),
    ],
)
def test_header_refused_before_allocating(descr, shape, code, message):
    body = npy_header(descr, shape) + bytes(8)
    with pytest.raises(RequestError) as excinfo:
        parse_score_request(NPY, io.BytesIO(body), len(body))
    assert (excinfo.value.status, excinfo.value.code, excinfo.value.message) == (
        400, code, message
    )


# ------------------------------------------------------------------ fuzz ---
N_FUZZ_CASES = 160


def _fuzz_case(seed: int):
    """(content type, body, stream bytes, expected codes) of one malformed
    request; ``stream bytes`` differs from ``body`` when the client declares
    more than it sends."""
    rng = np.random.default_rng(seed)
    shape = tuple(int(n) for n in rng.integers(1, 6, size=3))
    dtype = np.dtype(str(rng.choice(["<f8", "<f4", ">f8"])))
    field = rng.random(shape).astype(dtype)
    if rng.random() < 0.5:
        field = np.asfortranarray(field)
    body = npy_bytes(field)
    header_len = len(body) - field.nbytes
    kind = seed % 12
    if kind == 0:  # truncated magic
        cut = bytes(body[: int(rng.integers(0, 8))])
        return NPY, cut, cut, {"bad_payload"}
    if kind == 1:  # truncated header
        cut = bytes(body[: int(rng.integers(8, header_len))])
        return NPY, cut, cut, {"bad_payload"}
    if kind == 2:  # declared data size above the body's length
        cut = bytes(body[: int(rng.integers(header_len, len(body)))])
        return NPY, cut, cut, {"bad_payload"}
    if kind == 3:  # Content-Length honest, the stream ends early
        cut = bytes(body[: int(rng.integers(0, len(body)))])
        return NPY, body, cut, {"bad_payload"}
    if kind == 4:  # garbage header dict, same length
        garbage = bytes(rng.integers(32, 127, size=header_len - 10, dtype=np.uint8))
        mangled = body[:10] + garbage + body[header_len:]
        return NPY, mangled, mangled, {"bad_payload"}
    if kind == 5:  # declared data size below the body's length
        smaller = (shape[0], shape[1], max(0, shape[2] - 1))
        mangled = npy_header(dtype.str, smaller) + field.tobytes("A")
        return NPY, mangled, mangled, {"bad_payload"}
    if kind == 6:  # trailing bytes
        extra = body + bytes(rng.integers(0, 256, size=int(rng.integers(1, 64)), dtype=np.uint8))
        return NPY, extra, extra, {"bad_payload"}
    if kind == 7:  # object dtype
        mangled = npy_header("|O", shape) + bytes(8 * int(np.prod(shape)))
        return NPY, mangled, mangled, {"bad_payload"}
    if kind == 8:  # 0-D, 2-D or 4-D
        ndim = int(rng.choice([0, 1, 2, 4]))
        array = rng.random(tuple(int(n) for n in rng.integers(1, 4, size=ndim)))
        other = npy_bytes(array)
        return NPY, other, other, {"bad_shape"}
    if kind == 9:  # a shape declaring terabytes, allocated never
        huge = tuple(int(n) for n in rng.integers(10**5, 10**7, size=3))
        mangled = npy_header("<f8", huge) + field.tobytes("A")
        return NPY, mangled, mangled, {"bad_payload"}
    if kind == 10:  # a torn npz archive
        buffer = io.BytesIO()
        np.savez_compressed(buffer, a=field, b=field)
        archive = buffer.getvalue()
        cut = bytes(archive[: int(rng.integers(0, len(archive)))])
        return NPZ, cut, cut, {"bad_payload"}
    # kind 11: an npz member whose bytes do not match its header
    buffer = io.BytesIO()
    with zipfile.ZipFile(buffer, "w") as archive:
        archive.writestr("a.npy", body[: int(rng.integers(0, len(body)))])
    mangled = buffer.getvalue()
    return NPZ, mangled, mangled, {"bad_payload"}


@pytest.mark.fuzz
@pytest.mark.parametrize("seed", range(N_FUZZ_CASES))
def test_malformed_bodies_end_in_named_client_errors(seed):
    content_type, body, sent, codes = _fuzz_case(seed)
    stream = io.BytesIO(sent)
    outcome, peak = traced(lambda: parse_score_request(content_type, stream, len(body)))
    assert isinstance(outcome, RequestError), f"seed={seed}: decoded {outcome!r}"
    assert outcome.status in (400, 413), f"seed={seed}: {outcome.status}"
    assert outcome.code in codes, f"seed={seed}: {outcome.code} {outcome.message}"
    assert outcome.message
    assert peak <= len(body) + (1 << 20), f"seed={seed}: peak {peak}"
