"""The kernel-service wire protocol: length-prefixed frames.

One frame is a 4-byte big-endian unsigned length followed by that many
bytes of body.  Both directions use the same framing.  Frames are
bounded by ``$REPRO_SERVE_MAX_FRAME`` (tensors ride inside frames, so
the default is generous): an oversized length prefix is a protocol
violation, answered with a structured ``bad-request`` error and a
closed connection rather than an attempted allocation — a hostile
4-GiB prefix must cost the daemon nothing.

A body comes in one of two layouts:

* **v1** — UTF-8 JSON; the value must be an object.  Byte payloads
  (tensor data, compiled artifacts) are base64 strings inside it.
* **v2** — ``MAGIC`` (``b"\\x00RB2"``: no JSON text starts with NUL),
  a big-endian u32 header length, a UTF-8 JSON object header, then the
  raw byte segments back to back.  Every byte payload in the message is
  a ``{"$seg": i}`` marker in the header, whose ``"$segs": [len, ...]``
  table must cover the rest of the body exactly, with each segment
  referenced exactly once.  Decoding hands back ``memoryview`` slices
  of the body: no base64, no copy.

:func:`encode_frame` writes v2 only when the message holds byte
payloads, so a message without them is plain JSON either way.
Compatibility rule: the daemon answers in v2 only a request that came
as a v2 frame or carries ``"wire": 2``, so a v1 client still gets pure
JSON with base64 payloads.  The client sends ``"wire": 2`` on every
request; a v1 daemon ignores the key, so ``compile`` works against it,
but an ``execute`` (tensors make it a v2 frame) needs a v2 daemon.

Requests are ``{"op": ..., "id": ...,  ...}`` with operations
``compile`` / ``execute`` / ``stats`` / ``health`` / ``shutdown``;
replies are ``{"ok": true, ...}`` or ``{"ok": false, "error": <code>,
"detail": ...}``.  Error codes are part of the protocol:

* ``overloaded`` — the admission queue is full; retry after backoff.
* ``draining`` — the daemon is shutting down; retry elsewhere or fall
  back in-process.
* ``deadline`` — the request's deadline expired inside the daemon.
* ``degraded`` — the daemon could only produce a degraded kernel (e.g.
  its toolchain broke); the client should compile locally instead of
  caching a poisoned artifact.
* ``bad-request`` / ``unknown-op`` / ``internal`` — not retryable.

Tensors cross the wire as their raw C-order bytes, dtype- and
shape-tagged — no textual round-trip, so remote results are
*bit-identical* to in-process execution by construction, in either
layout.

This module is deliberately dependency-light (numpy + stdlib) and shared
verbatim by the daemon (:mod:`repro.serve.daemon`) and the client
(:mod:`repro.serve.client`): there is exactly one definition of the
framing, the tensor codec and the compile-spec codec, so the two ends
cannot drift.
"""

from __future__ import annotations

import base64
import json
import struct
from typing import Dict, List, Mapping, Optional

import numpy as np

from repro.core.config import serve_max_frame

#: frame header: one big-endian u32 payload length.
HEADER = struct.Struct(">I")

#: bumped when the frame layout or reply shapes change incompatibly;
#: ``health`` replies carry it so mismatched peers fail loudly.
PROTOCOL_VERSION = 2

#: first bytes of a v2 body; a JSON text never starts with NUL.
MAGIC = b"\x00RB2"

#: the header key holding a v2 frame's segment-length table, and the
#: marker key standing in for one segment.
SEGS = "$segs"
SEG = "$seg"

#: values :func:`encode_frame` carries as byte payloads.
BYTES_LIKE = (bytes, bytearray, memoryview)

# ---------------------------------------------------------------------------
# structured error codes
# ---------------------------------------------------------------------------
OVERLOADED = "overloaded"
DRAINING = "draining"
DEADLINE = "deadline"
DEGRADED = "degraded"
BAD_REQUEST = "bad-request"
UNKNOWN_OP = "unknown-op"
INTERNAL = "internal"

#: errors a client may retry (with backoff) before falling back.
RETRYABLE_ERRORS = frozenset({OVERLOADED, DRAINING})

#: operations the protocol defines.
OPERATIONS = ("compile", "execute", "stats", "health", "shutdown")


class ProtocolError(ValueError):
    """A frame that violates the wire protocol (oversized, torn, or not
    a JSON object) — the connection that produced it is untrustworthy."""


def error_reply(
    request_id, code: str, detail: Optional[str] = None
) -> dict:
    reply = {"ok": False, "error": code}
    if request_id is not None:
        reply["id"] = request_id
    if detail:
        reply["detail"] = str(detail)[:2000]
    return reply


# ---------------------------------------------------------------------------
# framing
# ---------------------------------------------------------------------------
def encode_frame(
    doc: Mapping, max_frame: Optional[int] = None, wire: int = PROTOCOL_VERSION
) -> bytes:
    """Serialize one message into a length-prefixed frame.

    Byte payloads anywhere in *doc* (bytes, bytearray, memoryview)
    become raw segments of a v2 frame, or base64 strings when
    ``wire=1``.  A message without byte payloads is plain JSON.
    """
    limit = serve_max_frame() if max_frame is None else max_frame
    segments: List[memoryview] = []

    def lift(value):
        if not isinstance(value, BYTES_LIKE):
            raise TypeError(
                "%s is not JSON serializable" % type(value).__name__
            )
        if wire < 2:
            return base64.b64encode(value).decode("ascii")
        view = memoryview(value)
        segments.append(view if view.format == "B" else view.cast("B"))
        return {SEG: len(segments) - 1}

    text = json.dumps(doc, separators=(",", ":"), default=lift)
    if segments:
        # a payload was found, so *doc* is a non-empty object: splice
        # the segment table in as its first key
        sizes = [seg.nbytes for seg in segments]
        header = ('{"%s":%s,%s' % (SEGS, json.dumps(sizes), text[1:])).encode(
            "utf-8"
        )
        parts = [MAGIC, HEADER.pack(len(header)), header] + segments
        length = len(MAGIC) + HEADER.size + len(header) + sum(sizes)
    else:
        parts = [text.encode("utf-8")]
        length = len(parts[0])
    if length > limit:
        raise ProtocolError(
            "frame of %d bytes exceeds the %d-byte limit "
            "(raise $REPRO_SERVE_MAX_FRAME for larger tensors)"
            % (length, limit)
        )
    return b"".join([HEADER.pack(length)] + parts)


def decode_length(header: bytes, max_frame: Optional[int] = None) -> int:
    """Validate a frame header; returns the body length."""
    limit = serve_max_frame() if max_frame is None else max_frame
    if len(header) != HEADER.size:
        raise ProtocolError("truncated frame header (%d bytes)" % len(header))
    (length,) = HEADER.unpack(header)
    if length > limit:
        raise ProtocolError(
            "frame length prefix %d exceeds the %d-byte limit"
            % (length, limit)
        )
    return length


def decode_body(body) -> dict:
    """Parse a frame body of either layout into a message object.

    A v2 body's byte payloads come back as ``memoryview`` slices of
    *body*.  Every length is checked against the body before it is
    used, so a hostile table allocates nothing.
    """
    if body[: len(MAGIC)] != MAGIC:
        return _json_object(body, "frame body")
    view = memoryview(body)
    start = len(MAGIC) + HEADER.size
    if len(view) < start:
        raise ProtocolError("truncated v2 frame header (%d bytes)" % len(view))
    (header_len,) = HEADER.unpack_from(view, len(MAGIC))
    end = start + header_len
    if end > len(view):
        raise ProtocolError(
            "v2 header of %d bytes overruns the %d-byte body"
            % (header_len, len(view))
        )
    doc = _json_object(view[start:end], "v2 frame header")
    sizes = doc.pop(SEGS, [])
    if not isinstance(sizes, list) or not all(
        type(n) is int and n >= 0 for n in sizes
    ):
        raise ProtocolError("%s must be a list of ints >= 0" % SEGS)
    if sum(sizes) != len(view) - end:
        raise ProtocolError(
            "%s covers %d bytes but %d follow the header"
            % (SEGS, sum(sizes), len(view) - end)
        )
    segments = []
    for n in sizes:
        segments.append(view[end : end + n])
        end += n
    _resolve_segments(doc, segments)
    return doc


def reply_wire(body, msg: dict) -> int:
    """The layout to answer a request in: v2 only for a peer that sent
    a v2 frame or ``"wire": 2``, so v1 clients keep getting pure JSON."""
    wire = msg.get("wire")
    if body[: len(MAGIC)] == MAGIC or (type(wire) is int and wire >= 2):
        return PROTOCOL_VERSION
    return 1


def _json_object(data, what: str) -> dict:
    try:
        doc = json.loads(bytes(data).decode("utf-8"))
    except (UnicodeDecodeError, ValueError, RecursionError) as exc:
        raise ProtocolError("%s is not valid JSON: %s" % (what, exc))
    if not isinstance(doc, dict):
        raise ProtocolError(
            "%s must be a JSON object, got %s" % (what, type(doc).__name__)
        )
    return doc


def _resolve_segments(doc: dict, segments: List[memoryview]) -> None:
    """Replace every ``{"$seg": i}`` marker in *doc* with segment *i*.

    Each segment must be referenced exactly once: a repeated reference
    would let a small frame decode into many copies of one payload.
    """
    used = [False] * len(segments)
    stack = [doc]  # iterative: header nesting depth is peer-chosen
    while stack:
        node = stack.pop()
        for key, value in (
            node.items() if isinstance(node, dict) else enumerate(node)
        ):
            if isinstance(value, dict) and SEG in value:
                index = value[SEG]
                if (
                    len(value) != 1
                    or type(index) is not int
                    or not 0 <= index < len(segments)
                    or used[index]
                ):
                    raise ProtocolError("bad segment reference %r" % (value,))
                used[index] = True
                node[key] = segments[index]
            elif isinstance(value, (dict, list)):
                stack.append(value)
    if not all(used):
        raise ProtocolError(
            "segment %d is never referenced" % used.index(False)
        )


# ---------------------------------------------------------------------------
# tensor codec
# ---------------------------------------------------------------------------
def encode_tensor(arr: np.ndarray) -> dict:
    """A numpy array as ``{"dtype", "shape", "data"}`` (raw bytes).

    ``tobytes()`` serializes in C order whatever the input layout, and —
    unlike ``ascontiguousarray`` — preserves 0-d shapes (scalar kernel
    outputs must round-trip as 0-d, not be promoted to ``(1,)``).  It
    is also a snapshot: the frame may be built after the caller reuses
    the array's buffer.
    """
    arr = np.asarray(arr)
    return {
        "dtype": str(arr.dtype),
        "shape": list(arr.shape),
        "data": arr.tobytes(),
    }


def decode_tensor(doc) -> np.ndarray:
    """Rebuild an array; every field is validated against hostile input.

    Only numeric dtypes are accepted (a wire peer must never pick
    ``object`` and smuggle pickles), the shape must be non-negative ints,
    and the payload — raw bytes (v2) or a base64 string (v1) — must be
    exactly ``prod(shape) * itemsize`` bytes long.
    """
    if not isinstance(doc, dict):
        raise ProtocolError("tensor must be an object")
    try:
        dtype = np.dtype(str(doc["dtype"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise ProtocolError("bad tensor dtype: %s" % exc)
    if dtype.kind not in "fiub":
        raise ProtocolError(
            "tensor dtype %s is not numeric" % dtype
        )
    shape = doc.get("shape")
    if not isinstance(shape, list) or not all(
        type(s) is int and s >= 0 for s in shape
    ):
        raise ProtocolError("tensor shape must be a list of ints >= 0")
    data = doc.get("data", b"")
    if isinstance(data, str):
        try:
            data = base64.b64decode(data, validate=True)
        except ValueError as exc:
            raise ProtocolError("bad tensor payload: %s" % exc)
    elif not isinstance(data, BYTES_LIKE):
        raise ProtocolError("tensor data must be raw bytes or base64")
    raw = memoryview(data)
    count = 1
    for s in shape:
        count *= s
    if raw.nbytes != count * dtype.itemsize:
        raise ProtocolError(
            "tensor payload is %d bytes, %s%s needs %d"
            % (raw.nbytes, dtype, tuple(shape), count * dtype.itemsize)
        )
    # .copy(): frombuffer views are read-only and pin the frame body
    return np.frombuffer(raw, dtype=dtype).reshape(shape).copy()


def encode_tensors(tensors: Mapping[str, np.ndarray]) -> Dict[str, dict]:
    return {name: encode_tensor(arr) for name, arr in tensors.items()}


def decode_tensors(doc) -> Dict[str, np.ndarray]:
    if not isinstance(doc, dict):
        raise ProtocolError("tensors must be an object of name -> tensor")
    out = {}
    for name, tensor in doc.items():
        if not isinstance(name, str) or not name.isidentifier():
            raise ProtocolError("bad tensor name %r" % (name,))
        out[name] = decode_tensor(tensor)
    return out


# ---------------------------------------------------------------------------
# compile-spec codec
# ---------------------------------------------------------------------------
def spec_from_request(request) -> dict:
    """A :class:`repro.service.keys.CompileRequest` as a wire spec.

    The spec is the *user-facing* compile surface (einsum string,
    symmetric partition, loop order, formats, options dict): the daemon
    re-canonicalizes it through the same :func:`canonicalize` path the
    client used, so both ends agree on defaults by construction.
    """
    return {
        "einsum": str(request.assignment),
        "symmetric": {
            name: [list(part) for part in parts]
            for name, parts in request.symmetric_modes
        },
        "loop_order": list(request.loop_order),
        "formats": dict(request.formats),
        "options": request.options.to_dict(),
        "naive": bool(request.naive),
        "sparse_levels": {
            name: list(levels) for name, levels in request.sparse_levels
        },
    }


def request_from_spec(doc):
    """Canonicalize a wire spec back into a ``CompileRequest``.

    Raises ``ValueError`` (including :class:`ProtocolError`) on anything
    malformed — the daemon maps that onto a ``bad-request`` reply.
    """
    from repro.core.config import CompilerOptions
    from repro.service.keys import canonicalize

    if not isinstance(doc, dict):
        raise ProtocolError("spec must be an object")
    einsum = doc.get("einsum")
    if not isinstance(einsum, str) or not einsum.strip():
        raise ProtocolError("spec.einsum must be a non-empty string")
    options_doc = doc.get("options") or {}
    if not isinstance(options_doc, dict):
        raise ProtocolError("spec.options must be an object")
    options = CompilerOptions.from_dict(options_doc)
    loop_order = doc.get("loop_order") or None
    if loop_order is not None and not (
        isinstance(loop_order, list)
        and all(isinstance(i, str) for i in loop_order)
    ):
        raise ProtocolError("spec.loop_order must be a list of index names")
    return canonicalize(
        einsum,
        symmetric=doc.get("symmetric") or None,
        loop_order=tuple(loop_order) if loop_order else None,
        formats=doc.get("formats") or None,
        options=options,
        naive=bool(doc.get("naive", False)),
        sparse_levels=doc.get("sparse_levels") or None,
    )
