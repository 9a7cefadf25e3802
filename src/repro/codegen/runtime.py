"""Runtime support shared by generated kernels, baselines and tests."""

from __future__ import annotations

from typing import Dict, Sequence, Tuple

import numpy as np

from repro.frontend.einsum import REDUCE_IDENTITY

#: numpy ufunc implementing each reduction operator.
REDUCE_UFUNC = {
    "+": np.add,
    "min": np.minimum,
    "max": np.maximum,
}

#: pipeline dtype name (see :data:`repro.core.config.DTYPE_CHOICES`) ->
#: concrete numpy dtype.
_NP_DTYPES = {
    "float64": np.dtype(np.float64),
    "float32": np.dtype(np.float32),
}


def np_dtype(name: str) -> np.dtype:
    """The numpy dtype for a pipeline dtype name (``float64``/``float32``)."""
    try:
        return _NP_DTYPES[name]
    except KeyError:
        raise ValueError(
            "unknown dtype %r (choices: %s)" % (name, ", ".join(_NP_DTYPES))
        )


def make_output(
    shape: Sequence[int], reduce_op: str, dtype=np.float64
) -> np.ndarray:
    """Allocate an output tensor filled with the reduction identity.

    The repeat-execution fast path (:class:`~repro.codegen.executor.
    ExecutionPlan`) allocates through this once and then resets the buffer
    to :data:`REDUCE_IDENTITY` in place per call.
    """
    return np.full(tuple(shape), REDUCE_IDENTITY[reduce_op], dtype=dtype)


def apply_reduce(reduce_op: str, target: np.ndarray, key, value) -> None:
    """``target[key] reduce_op= value`` for scalars or slices."""
    if reduce_op == "+":
        target[key] += value
    elif reduce_op == "min":
        target[key] = np.minimum(target[key], value)
    elif reduce_op == "max":
        target[key] = np.maximum(target[key], value)
    else:
        raise ValueError("unknown reduce op %r" % (reduce_op,))


def replicate_output(
    arr: np.ndarray, mode_parts: Sequence[Sequence[int]]
) -> np.ndarray:
    """Copy the canonical triangle of *arr* to the non-canonical triangles.

    The generated kernels write the entries whose coordinates are
    non-increasing within each symmetric mode group; this post-pass (4.2.2,
    run in a separate loop nest exactly as the paper prescribes) gathers
    every entry from its canonical source.  Returns a new array.

    The canonical source of each entry is computed on open index grids: a
    min/max sorting network orders each group's coordinates descending,
    and one flat gather copies the values, so no full per-mode index
    array is ever built and the values are copied bit for bit.
    """
    nontrivial = [sorted(p) for p in mode_parts if len(p) >= 2]
    if not nontrivial:
        return arr
    index = list(np.ogrid[tuple(slice(n) for n in arr.shape)])
    for group in nontrivial:
        # bubble-sort network: each pass sinks the smallest remaining
        # coordinate to the back, leaving the group descending
        for last in range(len(group) - 1, 0, -1):
            for t in range(last):
                a, b = group[t], group[t + 1]
                index[a], index[b] = (
                    np.maximum(index[a], index[b]),
                    np.minimum(index[a], index[b]),
                )
    # C-order flat index, accumulated in place: every grid is ours
    flat = index[-1]
    stride = arr.shape[-1]
    for m in range(arr.ndim - 2, -1, -1):
        term = index[m]
        term *= stride
        shape = np.broadcast_shapes(flat.shape, term.shape)
        if flat.shape == shape:
            flat += term
        elif term.shape == shape:
            term += flat
            flat = term
        else:
            flat = flat + term
        stride *= arr.shape[m]
    return arr.ravel().take(flat)
