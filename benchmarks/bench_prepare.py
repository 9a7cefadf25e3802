"""Prepare and finalize cost, as a multiple of a memcpy of the operand.

A one-shot ``kernel(**tensors)`` call pays format packing (prepare) and
output replication (finalize) on every call, and on dense operands both
dwarf the generated loops.  This benchmark times each against
``ndarray.copy()`` of an array of the same size on the same machine, so
its bounds are ratios that hold on fast and slow machines alike:

* ssymv, n=1024, dense ``A`` and ``x``: ``kernel.prepare`` must stay
  within ``PREPARE_BOUND`` (10) copies of ``A``;
* ssyrk, n=512: ``kernel.finalize`` (replicating the canonical triangle
  of the 512x512 output) must stay within ``FINALIZE_BOUND`` copies of
  the output.

Each time is the best of ``REPEATS`` runs.  The loops run on the python
backend: prepare and finalize are the same code on every backend, and no
C compiler is needed.

Run::

    PYTHONPATH=src python benchmarks/bench_prepare.py
    PYTHONPATH=src python -m pytest benchmarks/bench_prepare.py -q
"""

from __future__ import annotations

import sys
import time
from typing import Callable, Dict, Tuple

import numpy as np

from repro.core.config import DEFAULT
from repro.kernels.library import get_kernel

#: ssymv dense prepare, in copies of A.  It measures 2.4-3.2x on a 2-CPU
#: x86-64 VM; the nonzero + lexsort version it replaced measured 15-19x.
PREPARE_BOUND = 10.0

#: ssyrk finalize, in copies of the output.  One-pass gather replication
#: measures 10-12x on a 2-CPU x86-64 VM; the np.indices + sort version it
#: replaced measured 100-150x.  30 leaves over 2x headroom.
FINALIZE_BOUND = 30.0

REPEATS = 15

SSYMV_N, SSYMV_DENSITY = 1024, 16 / 1024
SSYRK_N, SSYRK_DENSITY = 512, 0.02


def _best(fn: Callable[[], object], repeats: int = REPEATS) -> float:
    """Best wall seconds of *repeats* calls (after one warm-up)."""
    fn()
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _kernel(name: str):
    return get_kernel(name).compile(options=DEFAULT.but(backend="python"))


def ssymv_operands(seed: int = 0) -> Dict[str, np.ndarray]:
    """A dense symmetric 1024x1024 ``A`` (~16 nonzeros a row) and ``x``."""
    rng = np.random.default_rng(seed)
    n = SSYMV_N
    upper = np.triu(rng.random((n, n)) * (rng.random((n, n)) < SSYMV_DENSITY / 2))
    return {"A": upper + np.triu(upper, 1).T, "x": rng.random(n)}


def ssyrk_operands(seed: int = 0) -> Dict[str, np.ndarray]:
    """A dense 512x512 ``A`` with 2% nonzeros."""
    rng = np.random.default_rng(seed)
    n = SSYRK_N
    return {"A": (rng.random((n, n)) < SSYRK_DENSITY) * (rng.random((n, n)) + 0.1)}


def measure_prepare() -> Tuple[float, float]:
    """(ssymv prepare seconds, seconds to copy A)."""
    kernel = _kernel("ssymv")
    tensors = ssymv_operands()
    return _best(lambda: kernel.prepare(**tensors)), _best(tensors["A"].copy)


def measure_finalize() -> Tuple[float, float]:
    """(ssyrk finalize seconds, seconds to copy the raw output)."""
    kernel = _kernel("ssyrk")
    prepared, shape = kernel.prepare(**ssyrk_operands())
    out = kernel.run(prepared, shape)
    return _best(lambda: kernel.finalize(out)), _best(out.copy)


def _report(label: str, seconds: float, copy: float, bound: float) -> float:
    ratio = seconds / copy
    print(
        "%-24s %8.3f ms   copy %7.3f ms   %6.1fx copy (bound %.0fx)"
        % (label, seconds * 1e3, copy * 1e3, ratio, bound)
    )
    return ratio


# ----------------------------------------------------------------------
# pytest (the CI perf-smoke leg)
# ----------------------------------------------------------------------
def test_ssymv_dense_prepare_within_bound_of_memcpy():
    seconds, copy = measure_prepare()
    assert seconds <= PREPARE_BOUND * copy, (
        "ssymv n=%d dense prepare %.2f ms is %.1fx a copy of A (%.2f ms); "
        "bound %.0fx" % (SSYMV_N, seconds * 1e3, seconds / copy, copy * 1e3, PREPARE_BOUND)
    )


def test_ssyrk_finalize_within_bound_of_memcpy():
    seconds, copy = measure_finalize()
    assert seconds <= FINALIZE_BOUND * copy, (
        "ssyrk n=%d finalize %.2f ms is %.1fx a copy of the output (%.2f ms); "
        "bound %.0fx" % (SSYRK_N, seconds * 1e3, seconds / copy, copy * 1e3, FINALIZE_BOUND)
    )


def main() -> int:
    prepare = _report("ssymv n=%d prepare" % SSYMV_N, *measure_prepare(), PREPARE_BOUND)
    finalize = _report(
        "ssyrk n=%d finalize" % SSYRK_N, *measure_finalize(), FINALIZE_BOUND
    )
    return 0 if prepare <= PREPARE_BOUND and finalize <= FINALIZE_BOUND else 1


if __name__ == "__main__":
    sys.exit(main())
