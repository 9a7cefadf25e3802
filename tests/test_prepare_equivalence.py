"""The one-pass prepare and gather-based finalize against the old code.

Each property runs the library's fast path and the straightforward
implementation it replaced (:mod:`tests.prepare_oracles`) on the same
input and demands byte equality: same shapes, same dtypes, same bytes —
including ``-0.0``, NaN, inf, denormals, empty and 0-d arrays, float32
payloads and non-contiguous inputs.
"""

from itertools import permutations

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.codegen.executor import _as_dense
from repro.codegen.runtime import replicate_output
from repro.tensor.coo import COO
from repro.tensor.fiber import SPARSE
from repro.tensor.tensor import Tensor, default_levels
from tests import prepare_oracles as oracles

SPECIAL = (0.0, -0.0, 1.5, -2.25, np.nan, np.inf, -np.inf, 5e-324, 1e-40)

VALUES = st.one_of(
    st.sampled_from(SPECIAL),
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
)

FLOATS = st.sampled_from((np.float64, np.float32))


def arrays(shape=hnp.array_shapes(min_dims=0, max_dims=4, min_side=0, max_side=4)):
    return hnp.arrays(np.float64, shape, elements=VALUES)


def assert_same_bytes(new: np.ndarray, old: np.ndarray) -> None:
    assert new.dtype == old.dtype
    assert new.shape == old.shape
    assert new.tobytes() == old.tobytes()  # C order, whatever the strides


def assert_same_coo(new: COO, old: COO) -> None:
    assert new.shape == old.shape
    assert_same_bytes(new.coords, old.coords)
    assert_same_bytes(new.vals, old.vals)


# ----------------------------------------------------------------------
# COO.from_dense and the lexsorted flag
# ----------------------------------------------------------------------
@given(arrays(), FLOATS, st.booleans())
def test_from_dense_matches_nonzero_oracle(arr, dtype, transposed):
    arr = arr.astype(dtype)
    if transposed:
        arr = arr.T  # non-contiguous for ndim >= 2
    new = COO.from_dense(arr)
    assert_same_coo(new, oracles.from_dense(arr))
    assert new.lexsorted
    assert new.sorted_lex() is new


def test_from_dense_scalar_keeps_nonzero_and_drops_zero():
    kept = COO.from_dense(np.array(2.0))
    assert kept.shape == () and kept.coords.shape == (0, 1)
    assert kept.to_dense() == 2.0
    dropped = COO.from_dense(np.array(-0.0))
    assert dropped.nnz == 0
    assert not np.signbit(dropped.to_dense())


@st.composite
def coo_cases(draw):
    ndim = draw(st.integers(1, 3))
    shape = tuple(draw(st.integers(1, 4)) for _ in range(ndim))
    nnz = draw(st.integers(0, 12))
    coords = np.array(
        [draw(st.lists(st.integers(0, n - 1), min_size=nnz, max_size=nnz)) for n in shape],
        dtype=np.int64,
    ).reshape(ndim, nnz)
    finite = st.floats(min_value=-1e6, max_value=1e6)  # duplicates get summed
    vals = np.array(draw(st.lists(finite, min_size=nnz, max_size=nnz)), dtype=np.float64)
    return COO(coords, vals, shape, sum_duplicates=draw(st.booleans()))


@given(coo_cases())
def test_sorted_lex_matches_lexsort_oracle(coo):
    assert_same_coo(coo.sorted_lex(), oracles.sorted_lex(coo))
    assert coo.sorted_lex().lexsorted


@given(coo_cases())
def test_lexsorted_flag_survives_filter_astype_and_identity_permute(coo):
    ordered = coo.sorted_lex()
    keep = np.arange(ordered.nnz) % 2 == 0
    assert ordered.filter(keep).lexsorted
    assert ordered.astype(np.float32).lexsorted
    assert ordered.permute(tuple(range(ordered.ndim))) is ordered


# ----------------------------------------------------------------------
# dense-only operands: one cast copy, byte-equal to the COO round trip
# ----------------------------------------------------------------------
@given(
    st.one_of(
        arrays(),
        arrays().map(lambda a: a.astype(np.float32)),
        hnp.arrays(np.int64, hnp.array_shapes(min_dims=0, max_dims=3, min_side=0), elements=st.integers(-3, 3)),
    ),
    FLOATS,
)
def test_dense_operand_matches_coo_round_trip(arr, dtype):
    dtype = np.dtype(dtype)
    new = _as_dense(arr, dtype)
    assert_same_bytes(new, oracles.dense_operand(arr, dtype))
    assert not np.shares_memory(new, arr)


# ----------------------------------------------------------------------
# Tensor.view: every filter x mode order x level layout
# ----------------------------------------------------------------------
PARTS = {
    1: ((),),
    2: ((), ((0, 1),)),
    3: ((), ((0, 1),), ((1, 2),), ((0, 2),), ((0, 1, 2),)),
}


@st.composite
def view_cases(draw):
    ndim = draw(st.integers(1, 3))
    n = draw(st.integers(0, 4))  # equal extents, so any symmetry is legal
    arr = draw(arrays(st.just((n,) * ndim))).astype(draw(FLOATS))
    return arr, draw(st.sampled_from(PARTS[ndim]))


@settings(max_examples=40, deadline=None)
@given(view_cases())
def test_tensor_view_matches_oracle_for_every_filter_and_order(case):
    arr, parts = case
    tensor = Tensor.from_dense(arr, parts)
    layouts = {default_levels(arr.ndim), (SPARSE,) * arr.ndim}
    for mode_order in permutations(range(arr.ndim)):
        for levels in layouts:
            for tensor_filter in ("full", "all", "strict", "diagonal"):
                new = tensor.view(mode_order, levels, tensor_filter)
                old = oracles.fiber_view(arr, parts, mode_order, levels, tensor_filter)
                assert new.shape == old.shape and new.levels == old.levels
                new_arrays, old_arrays = new.arrays(), old.arrays()
                assert new_arrays.keys() == old_arrays.keys()
                for name in new_arrays:
                    assert_same_bytes(new_arrays[name], old_arrays[name])


# ----------------------------------------------------------------------
# replicate_output: a pure gather, byte-equal to the np.indices version
# ----------------------------------------------------------------------
@st.composite
def replication_cases(draw):
    sizes = draw(st.lists(st.integers(2, 5), min_size=1, max_size=3))
    free = draw(st.integers(0, 2))
    ndim = sum(sizes) + free
    assume(ndim <= 7)
    positions = draw(st.permutations(range(ndim)))
    shape = [0] * ndim
    parts, at = [], 0
    for size in sizes:
        group = tuple(sorted(positions[at:at + size]))
        at += size
        extent = draw(st.integers(0, 3 if size <= 3 else 2))
        for m in group:
            shape[m] = extent
        parts.append(group)
    for m in positions[at:]:
        shape[m] = draw(st.integers(0, 3))
        parts.append((m,))
    assume(int(np.prod(shape)) <= 4096)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    arr = rng.standard_normal(shape).astype(draw(FLOATS))
    layout = draw(st.sampled_from(("contiguous", "transposed", "reversed")))
    if layout == "transposed":
        order = draw(st.permutations(range(ndim)))
        arr = np.ascontiguousarray(np.transpose(arr, order)).transpose(np.argsort(order))
    elif layout == "reversed" and ndim:
        arr = arr[..., ::-1]
    return arr, parts


@settings(max_examples=60, deadline=None)
@given(replication_cases())
def test_replicate_output_matches_indices_oracle(case):
    arr, parts = case
    new = replicate_output(arr, parts)
    assert_same_bytes(new, oracles.replicate_output(arr, parts))
    assert new.flags.c_contiguous
    assert not np.shares_memory(new, arr)
