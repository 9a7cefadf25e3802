"""Wire-protocol unit tests: framing (v1 JSON and v2 binary segments),
tensor codec, spec codec, and the hostile-input rules (oversized
prefixes, garbage bodies, forged dtypes, forged segment tables)."""

from __future__ import annotations

import base64
import json
import tracemalloc

import numpy as np
import pytest

from repro.core.config import CompilerOptions
from repro.serve import protocol
from repro.serve.protocol import ProtocolError
from repro.service.keys import canonicalize


# ---------------------------------------------------------------------------
# framing
# ---------------------------------------------------------------------------
def test_frame_round_trip():
    doc = {"op": "health", "id": 7, "nested": {"a": [1, 2, 3]}}
    frame = protocol.encode_frame(doc)
    length = protocol.decode_length(frame[: protocol.HEADER.size])
    assert length == len(frame) - protocol.HEADER.size
    assert protocol.decode_body(frame[protocol.HEADER.size :]) == doc


def test_oversized_length_prefix_rejected_before_allocation():
    # a hostile 4-GiB length prefix must be refused from the header alone
    header = protocol.HEADER.pack(0xFFFFFFFF)
    with pytest.raises(ProtocolError, match="exceeds"):
        protocol.decode_length(header, max_frame=1 << 20)


def test_truncated_header_rejected():
    with pytest.raises(ProtocolError, match="truncated"):
        protocol.decode_length(b"\x00\x01")


def test_encode_frame_respects_limit():
    with pytest.raises(ProtocolError, match="exceeds"):
        protocol.encode_frame({"blob": "x" * 2048}, max_frame=1024)


@pytest.mark.parametrize(
    "body",
    [
        b"not json at all",
        b"[1, 2, 3]",
        b'"just a string"',
        b"\xff\xfe",
        b"[" * 100000 + b"]" * 100000,  # nesting past the parser's stack
    ],
)
def test_bad_bodies_rejected(body):
    with pytest.raises(ProtocolError):
        protocol.decode_body(body)


# ---------------------------------------------------------------------------
# v2 framing: JSON header + raw segments
# ---------------------------------------------------------------------------
def v2_body(header, payload: bytes = b"") -> bytes:
    """A hand-built v2 body: magic, u32 header length, header, payload."""
    text = header if isinstance(header, bytes) else json.dumps(header).encode()
    return protocol.MAGIC + protocol.HEADER.pack(len(text)) + text + payload


def test_v2_frame_round_trip_carries_segments():
    doc = {"op": "x", "blobs": [b"abc", bytearray(b""), memoryview(b"\x00\xff")]}
    frame = protocol.encode_frame(doc)
    body = frame[protocol.HEADER.size :]
    assert protocol.decode_length(frame[: protocol.HEADER.size]) == len(body)
    assert body.startswith(protocol.MAGIC)
    back = protocol.decode_body(body)
    assert back["op"] == "x"
    assert protocol.SEGS not in back
    assert all(isinstance(b, memoryview) for b in back["blobs"])
    assert [bytes(b) for b in back["blobs"]] == [b"abc", b"", b"\x00\xff"]


def test_payload_free_message_is_plain_json_in_both_layouts():
    doc = {"op": "health", "id": 1}
    for wire in (1, 2):
        frame = protocol.encode_frame(doc, wire=wire)
        assert json.loads(frame[protocol.HEADER.size :]) == doc


def test_v1_layout_carries_payloads_as_base64():
    frame = protocol.encode_frame({"blob": b"\x01\x02\x03"}, wire=1)
    doc = json.loads(frame[protocol.HEADER.size :])
    assert doc == {"blob": base64.b64encode(b"\x01\x02\x03").decode()}


def test_v2_frame_respects_limit_counting_segments():
    with pytest.raises(ProtocolError, match="exceeds"):
        protocol.encode_frame({"blob": b"x" * 2048}, max_frame=1024)


def test_reply_wire_follows_the_request():
    v2 = protocol.encode_frame({"blob": b"x"})[protocol.HEADER.size :]
    assert protocol.reply_wire(v2, {}) == 2
    assert protocol.reply_wire(b"{}", {"wire": 2}) == 2
    assert protocol.reply_wire(b"{}", {"wire": 3}) == 2
    for msg in ({}, {"wire": 1}, {"wire": "2"}, {"wire": True}):
        assert protocol.reply_wire(b"{}", msg) == 1


@pytest.mark.parametrize(
    "body",
    [
        protocol.MAGIC[:3],  # truncated magic
        protocol.MAGIC + b"\x00\x00",  # truncated header length
        protocol.MAGIC + protocol.HEADER.pack(100) + b"{}",  # header overruns
        v2_body(b"not json"),
        v2_body(b"[1, 2]"),
        v2_body(b"\xff\xfe"),
        v2_body(b"[" * 100000 + b"]" * 100000),  # nesting past the stack
        v2_body({"$segs": 3}),
        v2_body({"$segs": [-1]}),
        v2_body({"$segs": [1.5]}, b"x"),
        v2_body({"$segs": ["1"]}, b"x"),
        v2_body({"$segs": [True], "a": {"$seg": 0}}, b"x"),
        v2_body({"$segs": [2], "a": {"$seg": 0}}, b"xyz"),  # body too long
        v2_body({"$segs": [4], "a": {"$seg": 0}}, b"xyz"),  # body too short
        v2_body({}, b"trailing"),  # no table, bytes left over
        v2_body({"$segs": [1 << 40], "a": {"$seg": 0}}, b"x"),  # over any bound
        v2_body({"$segs": [1], "a": {"$seg": 1}}, b"x"),  # out of range
        v2_body({"$segs": [1], "a": {"$seg": -1}}, b"x"),
        v2_body({"$segs": [1], "a": {"$seg": "0"}}, b"x"),
        v2_body({"$segs": [1], "a": {"$seg": 0.0}}, b"x"),
        v2_body({"$segs": [1], "a": {"$seg": False}}, b"x"),
        v2_body({"$segs": [1], "a": {"$seg": 0, "more": 1}}, b"x"),
        v2_body({"$segs": [1], "a": [{"$seg": 0}, {"$seg": 0}]}, b"x"),  # reused
        v2_body({"$segs": [1, 1], "a": {"$seg": 0}}, b"xy"),  # unreferenced
    ],
)
def test_hostile_v2_bodies_rejected(body):
    with pytest.raises(ProtocolError):
        protocol.decode_body(body)


def test_hostile_segment_table_allocates_nothing():
    # a table claiming terabytes is refused by arithmetic, not malloc
    body = v2_body({"$segs": [1 << 40, 1 << 40], "a": {"$seg": 0}}, b"x" * 64)
    tracemalloc.start()
    try:
        with pytest.raises(ProtocolError):
            protocol.decode_body(body)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024


# ---------------------------------------------------------------------------
# tensor codec
# ---------------------------------------------------------------------------
def test_encoded_tensor_data_is_the_raw_bytes(rng):
    arr = rng.random((3, 4))
    data = protocol.encode_tensor(arr)["data"]
    assert isinstance(data, bytes)
    assert len(data) == arr.nbytes
    assert data == arr.tobytes()


def _v2_round_trip(tensors):
    frame = protocol.encode_frame({"tensors": protocol.encode_tensors(tensors)})
    doc = protocol.decode_body(frame[protocol.HEADER.size :])
    return protocol.decode_tensors(doc["tensors"])


def _v1_round_trip(tensors):
    frame = protocol.encode_frame(
        {"tensors": protocol.encode_tensors(tensors)}, wire=1
    )
    doc = protocol.decode_body(frame[protocol.HEADER.size :])
    return protocol.decode_tensors(doc["tensors"])


@pytest.mark.parametrize("round_trip", [_v2_round_trip, _v1_round_trip])
def test_frame_round_trip_bit_identical(rng, round_trip):
    tensors = {
        "scalar": np.array(-0.0),
        "empty": np.zeros((0, 3)),
        "strided": rng.random((6, 6))[::2, ::-3],
        "single": (rng.random((4, 5)) - 0.5).astype(np.float32),
        "ints": np.arange(-6, 6, dtype=np.int32).reshape(3, 4),
        "flags": np.array([True, False, True]),
        "nan": np.array([np.nan, np.inf, -np.inf, 5e-324]),
    }
    back = round_trip(tensors)
    assert set(back) == set(tensors)
    for name, arr in tensors.items():
        assert back[name].dtype == arr.dtype, name
        assert back[name].shape == arr.shape, name
        assert back[name].tobytes() == arr.tobytes(), name
        assert back[name].flags.writeable, name


def test_v2_decoded_tensors_do_not_alias_the_frame(rng):
    arr = rng.random(8)
    frame = bytearray(protocol.encode_frame({"t": protocol.encode_tensor(arr)}))
    doc = protocol.decode_body(memoryview(frame)[protocol.HEADER.size :])
    back = protocol.decode_tensor(doc["t"])
    frame[-8:] = b"\x00" * 8
    assert np.array_equal(back, arr)


@pytest.mark.parametrize("dtype", ["float64", "float32"])
def test_tensor_round_trip_bit_identical(rng, dtype):
    arr = rng.random((5, 7)).astype(dtype)
    back = protocol.decode_tensor(protocol.encode_tensor(arr))
    assert back.dtype == arr.dtype
    assert back.shape == arr.shape
    assert np.array_equal(back, arr)  # exact: raw bytes, no text round-trip
    back[0, 0] = -1.0  # the decoded copy must be writable


def test_tensor_codec_zero_size(rng):
    arr = np.zeros((0, 3))
    back = protocol.decode_tensor(protocol.encode_tensor(arr))
    assert back.shape == (0, 3)


def test_tensor_codec_scalar_stays_zero_d():
    # scalar kernel outputs (e.g. syprd) must round-trip as 0-d, not (1,)
    back = protocol.decode_tensor(protocol.encode_tensor(np.array(2.5)))
    assert back.shape == ()
    assert back == 2.5


def test_tensor_codec_non_contiguous_input(rng):
    arr = rng.random((6, 6))[::2, ::2]  # strided view
    back = protocol.decode_tensor(protocol.encode_tensor(arr))
    assert np.array_equal(back, arr)


@pytest.mark.parametrize(
    "doc",
    [
        "not a dict",
        {"dtype": "object", "shape": [1], "data": ""},  # pickle smuggling
        {"dtype": "float64", "shape": "bad", "data": ""},
        {"dtype": "float64", "shape": [-1], "data": ""},
        {"dtype": "float64", "shape": [2], "data": "AAAA"},  # length mismatch
        {"dtype": "float64", "shape": [1], "data": "!!not-base64!!"},
        {"dtype": "no-such-dtype", "shape": [1], "data": ""},
        {"dtype": "float64", "shape": [2], "data": b"\x00" * 8},  # raw, short
        {"dtype": "float64", "shape": [1], "data": memoryview(b"\x00" * 9)},
        {"dtype": "float64", "shape": [True], "data": b"\x00" * 8},
        {"dtype": "float64", "shape": [1], "data": 12345678},
        {"dtype": "float64", "shape": [1], "data": ["AAAAAAAAAAA="]},
        {"dtype": "float64", "shape": [1 << 40, 1 << 40], "data": b""},
    ],
)
def test_hostile_tensors_rejected(doc):
    with pytest.raises(ProtocolError):
        protocol.decode_tensor(doc)


def test_tensors_mapping_validates_names(rng):
    good = protocol.encode_tensors({"A": rng.random((2, 2))})
    assert set(protocol.decode_tensors(good)) == {"A"}
    with pytest.raises(ProtocolError, match="name"):
        protocol.decode_tensors({"not an identifier!": good["A"]})
    with pytest.raises(ProtocolError):
        protocol.decode_tensors(["A"])


# ---------------------------------------------------------------------------
# compile-spec codec
# ---------------------------------------------------------------------------
def test_spec_round_trip_preserves_key():
    request = canonicalize(
        "y[i] += A[i,j] * x[j]",
        symmetric={"A": True},
        formats={"A": "sparse"},
        options=CompilerOptions(dtype="float32"),
    )
    spec = protocol.spec_from_request(request)
    back = protocol.request_from_spec(spec)
    assert back.key == request.key
    assert back == request


def test_spec_round_trip_naive_and_levels():
    request = canonicalize(
        "y[i] += A[i,j] * x[j]",
        formats={"A": "sparse"},
        sparse_levels={"A": ["dense", "compressed"]},
        naive=True,
    )
    back = protocol.request_from_spec(protocol.spec_from_request(request))
    assert back.key == request.key


@pytest.mark.parametrize(
    "doc",
    [
        None,
        "y[i] += x[i]",
        {},
        {"einsum": ""},
        {"einsum": 42},
        {"einsum": "y[i] += x[i]", "options": "bad"},
        {"einsum": "y[i] += x[i]", "loop_order": [1, 2]},
    ],
)
def test_hostile_specs_rejected(doc):
    with pytest.raises(ValueError):
        protocol.request_from_spec(doc)


def test_error_reply_shape():
    reply = protocol.error_reply(3, protocol.OVERLOADED, "queue full")
    assert reply == {
        "ok": False,
        "id": 3,
        "error": "overloaded",
        "detail": "queue full",
    }
    assert protocol.OVERLOADED in protocol.RETRYABLE_ERRORS
    assert protocol.DRAINING in protocol.RETRYABLE_ERRORS
    assert protocol.DEADLINE not in protocol.RETRYABLE_ERRORS
