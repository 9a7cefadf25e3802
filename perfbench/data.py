"""Seeded inputs for the kernel table and independent references.

Every input is built from numpy's seeded generator, never from
``repro.data``.  Every reference is computed by numpy / scipy on the raw
coordinates, never by the compiler or its tensor library.  Symmetric
operands are sampled as canonical coordinates (non-increasing within a
coordinate) and expanded to all distinct permutations here.
"""

from __future__ import annotations

from itertools import permutations
from math import comb
from typing import Dict, Tuple

import numpy as np

Coords = np.ndarray  # (order, nnz) int64

#: every kernel is asked for on the C backend; threads and passes stay at
#: their library defaults (one thread, the default pass set)
BACKEND = "c"


def options():
    """The :class:`repro.CompilerOptions` every kernel is asked for with."""
    from repro import CompilerOptions

    return CompilerOptions(backend=BACKEND)


def get_kernel(service, name: str, naive: bool = False):
    """Kernel-table entry *name* from a :class:`repro.KernelService`."""
    from repro.kernels.library import KERNELS

    spec = KERNELS[name]
    return service.get_or_compile(
        spec.einsum,
        symmetric=dict(spec.symmetric),
        loop_order=spec.loop_order,
        formats=dict(spec.formats),
        options=options(),
        naive=naive,
    )


def matches(got, want) -> bool:
    """Same shape and equal to round-off (relative to the largest entry)."""
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    scale = float(np.max(np.abs(want[np.isfinite(want)]), initial=1.0))
    return got.shape == want.shape and bool(
        np.allclose(got, want, rtol=1e-9, atol=1e-12 * scale)
    )


def canonical_coords(rng, n: int, order: int, nnz: int) -> Coords:
    """``nnz`` distinct canonical coordinates of an ``order``-way tensor."""
    draws = int(nnz * 1.3) + 16
    coords = -np.sort(-rng.integers(0, n, size=(order, draws)), axis=0)
    # one int64 key per coordinate (n ** order stays far below 2 ** 63
    # at every size used here) makes the dedup a 1-D unique
    keys = np.sort(np.ravel_multi_index(tuple(coords), (n,) * order))
    keys = keys[np.concatenate(([True], keys[1:] != keys[:-1]))]
    keep = rng.choice(keys.size, size=min(nnz, keys.size), replace=False)
    return np.array(np.unravel_index(keys[np.sort(keep)], (n,) * order))


def expand(coords: Coords, vals: np.ndarray) -> Tuple[Coords, np.ndarray]:
    """All distinct permutations of each canonical coordinate.

    Two permutations give the same tuple when they only swap equal
    entries; of those, the one keeping equal entries in their original
    order is kept, so every full coordinate appears exactly once.
    """
    order = coords.shape[0]
    out_c, out_v = [], []
    for perm in permutations(range(order)):
        moved = coords[list(perm)]
        keep = np.ones(coords.shape[1], dtype=bool)
        for a in range(order):
            for b in range(a + 1, order):
                if perm[a] > perm[b]:
                    keep &= moved[a] != moved[b]
        out_c.append(moved[:, keep])
        out_v.append(vals[keep])
    return np.concatenate(out_c, axis=1), np.concatenate(out_v)


def to_dense(coords: Coords, vals: np.ndarray, shape) -> np.ndarray:
    out = np.zeros(shape)
    out[tuple(coords)] = vals
    return out


# ----------------------------------------------------------------------
# independent references on full (expanded) coordinates
# ----------------------------------------------------------------------
def _csr(coords: Coords, vals: np.ndarray, shape):
    import scipy.sparse as sp

    return sp.csr_matrix((vals, (coords[0], coords[1])), shape=shape)


def ref_ssymv(full, n, x):
    (i, j), v = full
    return np.bincount(i, weights=v * x[j], minlength=n)


def ref_syprd(full, n, x):
    return np.asarray(x @ ref_ssymv(full, n, x))


def ref_bellmanford(full, n, d):
    """min over stored A[i, j] of A[i, j] + d[j]; rows without edges: inf."""
    mat = _csr(*full, (n, n))
    mat.sort_indices()
    out = np.full(n, np.inf)
    rows = np.flatnonzero(np.diff(mat.indptr))
    if rows.size:
        sums = mat.data + d[mat.indices]
        out[rows] = np.minimum.reduceat(sums, mat.indptr[rows])
    return out


def ref_ssyrk(coords, vals, n, m):
    mat = _csr(coords, vals, (n, m))
    return (mat @ mat.T).toarray()


def ref_ttm(full, n, B):
    """C[i, j, l] = sum_k A[k, j, l] B[k, i]."""
    (k, j, l), v = full
    flat = j * n + l
    return np.stack([
        np.bincount(flat, weights=v * b[k], minlength=n * n).reshape(n, n)
        for b in np.ascontiguousarray(B.T)
    ])


def ref_mttkrp(full, n, B):
    """C[i, j] = sum A[i, k, l, ...] B[k, j] B[l, j] ..."""
    coords, v = full
    columns = []
    for b in np.ascontiguousarray(B.T):
        weight = v * b[coords[1]]
        for mode in coords[2:]:
            weight *= b[mode]
        columns.append(np.bincount(coords[0], weights=weight, minlength=n))
    return np.stack(columns, axis=1)


# ----------------------------------------------------------------------
# the kernel table's inputs
# ----------------------------------------------------------------------
#: order of the symmetric operand ``A`` (ssyrk's ``A`` is not symmetric).
SYMMETRIC_ORDER = {
    "ssymv": 2, "bellmanford": 2, "syprd": 2, "ttm": 3,
    "mttkrp3d": 3, "mttkrp4d": 4, "mttkrp5d": 5,
}


MATRIX_KERNELS = {
    "ssymv": ref_ssymv, "bellmanford": ref_bellmanford, "syprd": ref_syprd,
}


class Case:
    """One kernel's inputs: ``tensors`` for the kernel (``A`` a canonical
    symmetric :class:`repro.Tensor`, or dense numpy arrays) and
    ``reference()`` computed independently from the same raw data."""

    def __init__(self, name: str, tensors: Dict, reference):
        self.name = name
        self.tensors = tensors
        self.reference = reference


def _symmetric_payload(rng, n: int, order: int, nnz: int):
    coords = canonical_coords(rng, n, order, nnz)
    return coords, rng.random(coords.shape[1]) + 0.1


def _tensor(coords, vals, shape, symmetric: bool):
    from repro import COO, Tensor

    coo = COO(coords, vals, shape, sum_duplicates=False)
    if not symmetric:
        return Tensor(coo)
    return Tensor(coo, symmetric_modes=(tuple(range(len(shape))),), canonical=True)


#: fixed kernel order: kernel i draws from stream ``[seed, i]``.
KERNEL_ORDER = (
    "ssymv", "bellmanford", "syprd", "ssyrk", "ttm",
    "mttkrp3d", "mttkrp4d", "mttkrp5d",
)


#: kernel_steady's inputs (``True``: the self-test's tiny sizes).  These
#: give 0.7-17 ms per plan call on a 2-CPU x86-64 machine.
KERNEL_STEADY_SIZES = {
    False: {
        "matrix": {"n": 100_000, "nnz_per_row": 16},
        "ssyrk": {"n": 3000, "nnz_per_row": 16},
        "ttm": {"n": 160, "density": 0.05, "rank": 16},
        "mttkrp3d": {"n": 400, "density": 0.01, "rank": 16},
        "mttkrp4d": {"n": 100, "density": 0.01, "rank": 16},
        "mttkrp5d": {"n": 50, "density": 0.01, "rank": 16},
    },
    True: {
        "matrix": {"n": 2000, "nnz_per_row": 16},
        "ssyrk": {"n": 200, "nnz_per_row": 8},
        "ttm": {"n": 20, "density": 0.05, "rank": 4},
        "mttkrp3d": {"n": 30, "density": 0.05, "rank": 4},
        "mttkrp4d": {"n": 12, "density": 0.05, "rank": 4},
        "mttkrp5d": {"n": 8, "density": 0.05, "rank": 4},
    },
}


#: the kernel table every prelude compiles cold and the kernel probe runs
#: (tiny: two of its kernels)
TABLE = {False: KERNEL_ORDER, True: ("ssymv", "ttm")}


def kernel_cases(names, sizes: Dict[str, Dict], seed: int) -> Dict[str, Case]:
    """Inputs for each kernel in *names*, with a sparse operand ``A``.

    ``sizes["matrix"]`` is shared by ssymv, bellmanford and syprd (one
    graph, three kernels).  Each kernel draws from its own stream of the
    seed, so a kernel's inputs do not depend on which others are built.
    """
    cases: Dict[str, Case] = {}
    matrix = None
    for index, name in enumerate(KERNEL_ORDER):
        if name not in names:
            continue
        rng = np.random.default_rng([seed, index])
        if name in MATRIX_KERNELS:
            size = sizes["matrix"]
            n = size["n"]
            if matrix is None:
                mrng = np.random.default_rng([seed, 99])
                coords, vals = _symmetric_payload(mrng, n, 2, size["nnz_per_row"] * n // 2)
                matrix = (_tensor(coords, vals, (n, n), True), coords, vals)
            A, coords, vals = matrix
            vec = rng.random(n) + 0.1
            arg = "d" if name == "bellmanford" else "x"
            ref = MATRIX_KERNELS[name]
            cases[name] = Case(
                name,
                {"A": A, arg: vec},
                lambda ref=ref, c=coords, v=vals, n=n, vec=vec: ref(expand(c, v), n, vec),
            )
        elif name == "ssyrk":
            n = sizes[name]["n"]
            nnz = sizes[name]["nnz_per_row"] * n
            flat = np.unique(rng.integers(0, n * n, size=int(nnz * 1.1)))[:nnz]
            coords = np.vstack(np.divmod(flat, n)).astype(np.int64)
            vals = rng.random(coords.shape[1]) + 0.1
            cases[name] = Case(
                name,
                {"A": _tensor(coords, vals, (n, n), False)},
                lambda coords=coords, vals=vals, n=n: ref_ssyrk(coords, vals, n, n),
            )
        else:
            size = sizes[name]
            n, order = size["n"], SYMMETRIC_ORDER[name]
            nnz = max(1, int(size["density"] * comb(n + order - 1, order)))
            coords, vals = _symmetric_payload(rng, n, order, nnz)
            B = rng.random((n, size["rank"])) + 0.1
            ref = ref_ttm if name == "ttm" else ref_mttkrp
            cases[name] = Case(
                name,
                {"A": _tensor(coords, vals, (n,) * order, True), "B": B},
                lambda ref=ref, c=coords, v=vals, n=n, B=B: ref(expand(c, v), n, B),
            )
    return cases


def dense_operands(name: str, size: Dict, seed: int) -> Dict[str, np.ndarray]:
    """Dense numpy operands holding a (symmetric) sparse pattern."""
    rng = np.random.default_rng([seed, KERNEL_ORDER.index(name)])
    n = size["n"]
    if name == "ssyrk":
        A = np.zeros((n, n))
        mask = rng.random((n, n)) < size["density"]
        A[mask] = rng.random(int(mask.sum())) + 0.1
        return {"A": A}
    order = SYMMETRIC_ORDER[name]
    nnz = max(1, int(size["density"] * comb(n + order - 1, order)))
    coords = canonical_coords(rng, n, order, nnz)
    vals = rng.random(coords.shape[1]) + 0.1
    A = to_dense(*expand(coords, vals), (n,) * order)
    if name == "ssymv":
        return {"A": A, "x": rng.random(n) + 0.1}
    return {"A": A, "B": rng.random((n, size["rank"])) + 0.1}
