"""The previous prepare/finalize implementations, kept as test oracles.

The library now packs a dense array with one flat ``flatnonzero`` scan,
skips ``lexsort`` on coordinates it knows are sorted, copies dense-only
operands without a COO round trip, and replicates symmetric outputs with
an open-grid gather.  Each function here is the straightforward version
those replaced (``nonzero`` + boolean indexing, an unconditional
``lexsort``, ``np.indices`` + ``np.sort``); the equivalence tests check
that the fast paths are byte-identical to them.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.tensor.coo import COO, _coerce_vals
from repro.tensor.fiber import FiberTensor
from repro.tensor.symmetry_ops import pack_canonical, split_diagonal


def from_dense(arr: np.ndarray, fill: float = 0.0) -> COO:
    """``COO.from_dense`` via ``nonzero`` and a boolean gather."""
    arr = _coerce_vals(arr)
    mask = arr != arr.dtype.type(fill)
    if arr.ndim:
        coords = np.array(np.nonzero(mask), dtype=np.int64)
    else:  # nonzero rejects 0-d arrays; the mask still selects the value
        coords = np.zeros((0, int(mask)), dtype=np.int64)
    return COO(coords, arr[mask], arr.shape, sum_duplicates=False)


def sorted_lex(coo: COO) -> COO:
    """``COO.sorted_lex`` that always sorts."""
    if not coo.nnz or coo.ndim == 0:
        return COO(coo.coords, coo.vals, coo.shape, sum_duplicates=False)
    order = np.lexsort(coo.coords[::-1])
    return COO(
        coo.coords[:, order], coo.vals[order], coo.shape, sum_duplicates=False
    )


def permute(coo: COO, order: Sequence[int]) -> COO:
    """``COO.permute`` that always builds a new, unsorted COO."""
    return COO(
        coo.coords[list(order)],
        coo.vals,
        tuple(coo.shape[m] for m in order),
        sum_duplicates=False,
    )


def dense_operand(value, dtype) -> np.ndarray:
    """A dense-only kernel operand the old way: cast, pack to COO, and
    densify again."""
    arr = np.asarray(value)
    if arr.dtype != dtype:
        arr = arr.astype(dtype)
    return from_dense(arr).to_dense()


def fiber_view(arr, parts, mode_order, levels, tensor_filter) -> FiberTensor:
    """``Tensor.from_dense(arr, parts).view(...)`` the old way."""
    coo = from_dense(arr)
    nontrivial = tuple(p for p in parts if len(p) >= 2)
    if tensor_filter != "full" and nontrivial:
        coo = pack_canonical(coo, nontrivial)
    if tensor_filter in ("strict", "diagonal"):
        strict, diag = split_diagonal(coo, nontrivial)
        coo = strict if tensor_filter == "strict" else diag
    return FiberTensor(sorted_lex(permute(coo, mode_order)), levels)


def replicate_output(
    arr: np.ndarray, mode_parts: Sequence[Sequence[int]]
) -> np.ndarray:
    """``replicate_output`` via full ``np.indices`` grids sorted per group."""
    nontrivial = [sorted(p) for p in mode_parts if len(p) >= 2]
    if not nontrivial:
        return arr
    index = list(np.indices(arr.shape))
    for group in nontrivial:
        stacked = np.stack([index[m] for m in group])
        stacked = -np.sort(-stacked, axis=0)  # descending == canonical
        for t, m in enumerate(group):
            index[m] = stacked[t]
    return arr[tuple(index)]
