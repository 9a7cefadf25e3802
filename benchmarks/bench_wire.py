"""Wire codec cost, as a multiple of a memcpy of the matrix it carries.

A daemon ``execute`` request ships every operand through the tensor and
frame codecs twice: the client encodes it, the daemon decodes it.  This
benchmark times that whole path for the ssymv n=384 request the
``serve_mixed`` benchmark workload sends (a dense 384x384 ``A`` and a
384-vector ``x``, 1.18 MB of raw float64):

    encode_tensors -> encode_frame -> decode_body -> decode_tensors

against ``A.copy()`` on the same machine, so the bound is a ratio that
holds on fast and slow machines alike: the round trip must stay within
``CODEC_BOUND`` copies of ``A``.  Each time is the best of ``REPEATS``
runs.  No socket and no kernel are involved: this is the codec alone.

Run::

    PYTHONPATH=src python benchmarks/bench_wire.py
    PYTHONPATH=src python -m pytest benchmarks/bench_wire.py -q
"""

from __future__ import annotations

import sys
import time
from typing import Callable, Dict, Tuple

import numpy as np

from repro.core.config import DEFAULT
from repro.kernels.library import get_kernel
from repro.serve import protocol
from repro.service.keys import canonicalize

#: codec round trip, in copies of A.  Raw binary segments (protocol v2)
#: measure 7-8x on a 2-CPU x86-64 VM, and up to ~50x when each of the
#: round trip's four fresh 1.2 MB buffers page-faults in (a copy into a
#: reused buffer does not); base64 inside JSON (v1) measured 260-350x.
CODEC_BOUND = 120.0

REPEATS = 15

N, DENSITY = 384, 16 / 384


def _best(fn: Callable[[], object], repeats: int = REPEATS) -> float:
    """Best wall seconds of *repeats* calls (after one warm-up)."""
    fn()
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def request_operands(seed: int = 0) -> Dict[str, np.ndarray]:
    """A dense symmetric 384x384 ``A`` (~16 nonzeros a row) and ``x``."""
    rng = np.random.default_rng(seed)
    upper = np.triu(rng.random((N, N)) * (rng.random((N, N)) < DENSITY / 2))
    return {"A": upper + np.triu(upper, 1).T, "x": rng.random(N) + 0.1}


def measure_codec() -> Tuple[float, float]:
    """(codec round-trip seconds, seconds to copy A)."""
    spec = get_kernel("ssymv")
    request = canonicalize(
        spec.einsum,
        symmetric=dict(spec.symmetric),
        loop_order=spec.loop_order,
        formats=dict(spec.formats),
        options=DEFAULT,
    )
    wire_spec = protocol.spec_from_request(request)
    tensors = request_operands()

    def round_trip():
        frame = protocol.encode_frame({
            "op": "execute",
            "id": 1,
            "wire": 2,
            "spec": wire_spec,
            "tensors": protocol.encode_tensors(tensors),
        })
        msg = protocol.decode_body(frame[protocol.HEADER.size:])
        return protocol.decode_tensors(msg["tensors"])

    decoded = round_trip()
    for name, arr in tensors.items():
        assert decoded[name].tobytes() == arr.tobytes(), name
    return _best(round_trip), _best(tensors["A"].copy)


# ----------------------------------------------------------------------
# pytest (the CI perf-smoke leg)
# ----------------------------------------------------------------------
def test_execute_request_codec_within_bound_of_memcpy():
    seconds, copy = measure_codec()
    assert seconds <= CODEC_BOUND * copy, (
        "ssymv n=%d execute codec round trip %.2f ms is %.1fx a copy of A "
        "(%.3f ms); bound %.0fx"
        % (N, seconds * 1e3, seconds / copy, copy * 1e3, CODEC_BOUND)
    )


def main() -> int:
    seconds, copy = measure_codec()
    ratio = seconds / copy
    print(
        "ssymv n=%d execute codec %8.3f ms   copy %7.3f ms   %6.1fx copy "
        "(bound %.0fx)" % (N, seconds * 1e3, copy * 1e3, ratio, CODEC_BOUND)
    )
    return 0 if ratio <= CODEC_BOUND else 1


if __name__ == "__main__":
    sys.exit(main())
