"""Lowering: optimized kernel plan -> Python source over fibertree arrays.

This is the stage Finch performs for SySTeC (Finch IR -> Julia); we lower to
Python.  The three loop-level transforms of Section 4.2 happen here:

* **concordization (4.2.3)** — every access is realized through a view whose
  storage order matches the loop order (sparse tensors get permuted
  fibertree views; dense tensors get transposed contiguous copies), so all
  sparse iteration is a concordant walk of ``pos``/``idx`` arrays;
* **common tensor access elimination (4.2.1)** — each distinct access is
  read once into a local, hoisted to the loop level where its indices are
  bound (loop-invariant code motion included);
* **workspace transformation (4.2.8)** — updates whose output coordinates
  are fixed by an outer loop accumulate into a scalar/vector workspace and
  are flushed when that loop advances.

Canonical-triangle restriction is *free* when a symmetric input is iterated:
its packed view only stores canonical coordinates.  When the chain is not
carried by a packed view (e.g. SSYRK, whose input is asymmetric), the
triangle is enforced with loop bounds: a dense inner loop runs to the outer
index, and two sparse iterators over the *same fiber* co-iterate with the
inner position bounded by the outer one — the paper's triangle iteration.

The innermost loop index may be vectorized: if it is dense, not permutable,
and innermost, the loop disappears and accesses binding it become numpy row
slices (dense views place it last).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple

from repro.core.config import CompilerOptions
from repro.core.kernel_plan import (
    Block,
    FILTER_ALL,
    FILTER_DIAGONAL,
    FILTER_STRICT,
    KernelPlan,
    LoopNest,
)
from repro.frontend.einsum import Access, Assignment, Literal, REDUCE_IDENTITY
from repro.tensor.tensor import default_levels


class LoweringError(NotImplementedError):
    """Raised when a plan needs an unsupported lowering feature."""


def _py_const(value: float) -> str:
    """A Python-source rendering of a float (handles infinities)."""
    if value == float("inf"):
        return 'float("inf")'
    if value == float("-inf"):
        return 'float("-inf")'
    return repr(value)


# ----------------------------------------------------------------------
# requirements the executor must satisfy
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SparseViewReq:
    """A fibertree realization of a sparse tensor the kernel iterates."""

    name: str
    tensor: str
    mode_order: Tuple[int, ...]
    levels: Tuple[str, ...]
    tensor_filter: str  # full | all | strict | diagonal


@dataclass(frozen=True)
class DenseViewReq:
    """A (possibly transposed) contiguous dense array."""

    name: str
    tensor: str
    perm: Tuple[int, ...]


@dataclass(frozen=True)
class DimReq:
    """An integer extent, resolved from some tensor's shape."""

    name: str
    tensor: str
    mode: int


@dataclass(frozen=True)
class OutputSpec:
    """How the output buffer is laid out and finalized."""

    tensor: str
    ndim: int
    layout: Tuple[int, ...]  # out_v axis t = logical mode layout[t]
    reduce_op: str
    replication_parts: Tuple[Tuple[int, ...], ...]
    index_names: Tuple[str, ...]  # original lhs indices (logical order)


@dataclass
class LoweredKernel:
    """Source plus everything needed to bind and run it.

    The whole structure is intentionally plain data (strings, ints, tuples)
    so it can round-trip through JSON: :meth:`to_dict` / :meth:`from_dict`
    are what the service layer's disk store persists, letting a
    :class:`~repro.core.compiler.CompiledKernel` be rehydrated without
    re-running the symmetrize/optimize/lower pipeline.
    """

    source: str
    arg_names: Tuple[str, ...]
    sparse_views: Tuple[SparseViewReq, ...]
    dense_views: Tuple[DenseViewReq, ...]
    dims: Tuple[DimReq, ...]
    output: OutputSpec
    vector_index: Optional[str]
    #: element dtype the kernel computes in ("float64" | "float32") —
    #: fixed at lowering time from :attr:`CompilerOptions.dtype`, it
    #: drives workspace/output allocation and the C value type.
    dtype: str = "float64"

    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """A JSON-serializable snapshot of the lowered kernel."""
        return {
            "source": self.source,
            "dtype": self.dtype,
            "arg_names": list(self.arg_names),
            "sparse_views": [
                {
                    "name": v.name,
                    "tensor": v.tensor,
                    "mode_order": list(v.mode_order),
                    "levels": list(v.levels),
                    "tensor_filter": v.tensor_filter,
                }
                for v in self.sparse_views
            ],
            "dense_views": [
                {"name": v.name, "tensor": v.tensor, "perm": list(v.perm)}
                for v in self.dense_views
            ],
            "dims": [
                {"name": d.name, "tensor": d.tensor, "mode": d.mode}
                for d in self.dims
            ],
            "output": {
                "tensor": self.output.tensor,
                "ndim": self.output.ndim,
                "layout": list(self.output.layout),
                "reduce_op": self.output.reduce_op,
                "replication_parts": [
                    list(p) for p in self.output.replication_parts
                ],
                "index_names": list(self.output.index_names),
            },
            "vector_index": self.vector_index,
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "LoweredKernel":
        """Rebuild a lowered kernel from :meth:`to_dict` output."""
        out = data["output"]
        return cls(
            source=data["source"],
            dtype=data.get("dtype", "float64"),
            arg_names=tuple(data["arg_names"]),
            sparse_views=tuple(
                SparseViewReq(
                    name=v["name"],
                    tensor=v["tensor"],
                    mode_order=tuple(v["mode_order"]),
                    levels=tuple(v["levels"]),
                    tensor_filter=v["tensor_filter"],
                )
                for v in data["sparse_views"]
            ),
            dense_views=tuple(
                DenseViewReq(
                    name=v["name"], tensor=v["tensor"], perm=tuple(v["perm"])
                )
                for v in data["dense_views"]
            ),
            dims=tuple(
                DimReq(name=d["name"], tensor=d["tensor"], mode=d["mode"])
                for d in data["dims"]
            ),
            output=OutputSpec(
                tensor=out["tensor"],
                ndim=out["ndim"],
                layout=tuple(out["layout"]),
                reduce_op=out["reduce_op"],
                replication_parts=tuple(
                    tuple(p) for p in out["replication_parts"]
                ),
                index_names=tuple(out["index_names"]),
            ),
            vector_index=data["vector_index"],
        )


# ----------------------------------------------------------------------
# internal structures
# ----------------------------------------------------------------------
@dataclass
class _Chain:
    """One concordant iteration of a sparse view (an access's iterator)."""

    view: SparseViewReq
    indices: Tuple[str, ...]  # storage-order index names
    levels: Tuple[str, ...]
    chain_id: int
    q_vars: Dict[int, str] = field(default_factory=dict)

    def q_var(self, level: int) -> str:
        return self.q_vars.setdefault(
            level, "q%d_%d" % (self.chain_id, level)
        )

    @property
    def dense_prefix(self) -> int:
        d = 0
        while d < len(self.levels) and self.levels[d] == "dense":
            d += 1
        return d

    def slot_expr(self, dims: Mapping[str, str]) -> str:
        """Flattened dense-prefix slot feeding the first sparse level."""
        d = self.dense_prefix
        if d == 0:
            return "0"
        expr = self.indices[0]
        for t in range(1, d):
            expr = "(%s) * %s + %s" % (expr, dims[self.indices[t]], self.indices[t])
        return expr

    def parent_expr(self, level: int, dims: Mapping[str, str]) -> str:
        if level == self.dense_prefix:
            return self.slot_expr(dims)
        return self.q_var(level - 1)

    def value_expr(self) -> str:
        return "%s_vals[%s]" % (self.view.name, self.q_var(len(self.levels) - 1))


@dataclass
class _Body:
    """Per-loop-depth code regions: pre (decls/temps), post (flushes)."""

    pre: List[str] = field(default_factory=list)
    post: List[str] = field(default_factory=list)


class Lowerer:
    """Lowers one plan + format map + options into Python source."""

    def __init__(
        self,
        plan: KernelPlan,
        formats: Mapping[str, str],
        options: CompilerOptions,
        sparse_levels: Optional[Mapping[str, Sequence[str]]] = None,
    ):
        self.plan = plan
        self.formats = dict(formats)
        self.options = options
        self.sparse_levels = dict(sparse_levels or {})
        self.rank = dict(plan.rank)
        self.original = plan.original

        self.sparse_views: Dict[str, SparseViewReq] = {}
        self.dense_views: Dict[str, DenseViewReq] = {}
        self.dims: Dict[str, DimReq] = {}
        self.lines: List[str] = []
        self.temp_counter = 0
        self.ws_counter = 0
        self.lut_counter = 0
        self.preamble: List[str] = []

        self.vector_index = self._choose_vector_index()
        self.output = self._output_spec()

    # ------------------------------------------------------------------
    # analysis helpers
    # ------------------------------------------------------------------
    def _choose_vector_index(self) -> Optional[str]:
        if not self.options.vectorize_innermost:
            return None
        v = self.plan.loop_order[-1]
        if v in self.plan.permutable:
            return None
        # v must never be bound by a sparse access
        for acc in self._all_accesses():
            if self.formats.get(acc.tensor) == "sparse" and v in acc.indices:
                return None
        # a reduction index stays a scalar loop: vectorizing it would
        # accumulate a whole vector into one output element
        if v not in self.original.lhs.indices:
            return None
        return v

    def _all_accesses(self) -> List[Access]:
        seen = []
        for block in self.plan.blocks:
            for a in block.assignments:
                for acc in a.accesses:
                    if acc not in seen:
                        seen.append(acc)
        return seen

    def _dim_name(self, index: str) -> str:
        name = "n_%s" % index
        if name not in self.dims:
            binder = self.original.index_dims().get(index)
            if binder is None:
                raise LoweringError("cannot resolve extent of index %r" % index)
            tensor, mode = binder
            self.dims[name] = DimReq(name=name, tensor=tensor, mode=mode)
        return name

    def _output_spec(self) -> OutputSpec:
        lhs = self.original.lhs
        ndim = len(lhs.indices)
        v = self.vector_index
        if v is not None and v in lhs.indices:
            vmode = lhs.indices.index(v)
            layout = tuple([m for m in range(ndim) if m != vmode] + [vmode])
        else:
            layout = tuple(range(ndim))
        repl = (
            self.plan.replication.mode_parts if self.plan.replication else ()
        )
        return OutputSpec(
            tensor=lhs.tensor,
            ndim=ndim,
            layout=layout,
            reduce_op=self.original.reduce_op,
            replication_parts=repl,
            index_names=lhs.indices,
        )

    # ------------------------------------------------------------------
    # view construction
    # ------------------------------------------------------------------
    def _sparse_view(self, acc: Access, tensor_filter: str) -> SparseViewReq:
        order = tuple(
            sorted(range(len(acc.indices)), key=lambda m: self.rank[acc.indices[m]])
        )
        if len(set(acc.indices)) != len(acc.indices):
            raise LoweringError("repeated index in sparse access %s" % acc)
        is_symmetric = bool(self.plan.symmetric_modes.get(acc.tensor))
        if not is_symmetric:
            tensor_filter = "full"
        name = "%s__%s" % (acc.tensor, tensor_filter)
        if order != tuple(range(len(order))):
            name += "_p" + "".join(str(m) for m in order)
        levels = tuple(
            self.sparse_levels.get(acc.tensor, default_levels(len(acc.indices)))
        )
        req = SparseViewReq(
            name=name,
            tensor=acc.tensor,
            mode_order=order,
            levels=levels,
            tensor_filter=tensor_filter,
        )
        self.sparse_views[name] = req
        return req

    def _dense_view(self, acc: Access) -> Tuple[str, Tuple[str, ...]]:
        """Register a dense view; returns (name, storage-ordered indices)."""
        if not self.options.concordize:
            perm = tuple(range(len(acc.indices)))
        else:
            v = self.vector_index
            keyed = sorted(
                range(len(acc.indices)),
                key=lambda m: (
                    acc.indices[m] == v,  # vector index last
                    self.rank[acc.indices[m]],
                ),
            )
            perm = tuple(keyed)
        name = acc.tensor
        if perm != tuple(range(len(perm))):
            name += "__p" + "".join(str(m) for m in perm)
        self.dense_views[name] = DenseViewReq(name=name, tensor=acc.tensor, perm=perm)
        return name, tuple(acc.indices[m] for m in perm)

    # ------------------------------------------------------------------
    # emission
    # ------------------------------------------------------------------
    def lower(self) -> LoweredKernel:
        body_lines: List[str] = []
        for nest in self.plan.nests:
            body_lines.extend(self._emit_nest(nest))
        dims_needed = sorted(self.dims)
        args = (
            sorted(self._array_args())
            + dims_needed
        )
        src = ["def kernel(out, %s):" % ", ".join(args)]
        for line in self.preamble:
            src.append("    " + line)
        for line in body_lines:
            src.append("    " + line)
        if len(src) == 1:
            src.append("    pass")
        source = "\n".join(src) + "\n"
        return LoweredKernel(
            source=source,
            arg_names=tuple(args),
            sparse_views=tuple(self.sparse_views.values()),
            dense_views=tuple(self.dense_views.values()),
            dims=tuple(self.dims.values()),
            output=self.output,
            vector_index=self.vector_index,
            dtype=self.options.dtype,
        )

    def _array_args(self) -> List[str]:
        names: List[str] = []
        for view in self.sparse_views.values():
            d = 0
            while d < len(view.levels) and view.levels[d] == "dense":
                d += 1
            for level in range(d, len(view.levels)):
                names.append("%s_pos%d" % (view.name, level))
                names.append("%s_idx%d" % (view.name, level))
            names.append("%s_vals" % view.name)
        names.extend(self.dense_views)
        return names

    # -- nest ----------------------------------------------------------
    def _emit_nest(self, nest: LoopNest) -> List[str]:
        chains: Dict[Tuple, _Chain] = {}
        access_chain: Dict[Access, _Chain] = {}
        access_dense: Dict[Access, Tuple[str, Tuple[str, ...]]] = {}
        chain_counter = [0]

        def chain_for(acc: Access) -> _Chain:
            view = self._sparse_view(acc, nest.tensor_filter)
            storage_indices = tuple(acc.indices[m] for m in view.mode_order)
            key = (view.name, storage_indices)
            if key not in chains:
                chains[key] = _Chain(
                    view=view,
                    indices=storage_indices,
                    levels=view.levels,
                    chain_id=chain_counter[0],
                )
                chain_counter[0] += 1
            return chains[key]

        accesses: List[Access] = []
        for block in nest.blocks:
            for a in block.assignments:
                for acc in a.accesses:
                    if acc not in accesses:
                        accesses.append(acc)
        for acc in accesses:
            if self.formats.get(acc.tensor) == "sparse":
                access_chain[acc] = chain_for(acc)
            else:
                access_dense[acc] = self._dense_view(acc)

        loop_indices = [
            i for i in self.plan.loop_order if i != self.vector_index
        ]
        depth_of = {idx: d for d, idx in enumerate(loop_indices)}

        # sources per loop index
        sources: Dict[str, Tuple] = {}
        for idx in loop_indices:
            binders = []
            for chain in chains.values():
                for level, (kind, name) in enumerate(zip(chain.levels, chain.indices)):
                    if name == idx and kind == "sparse":
                        binders.append((chain, level))
            if len(binders) > 1:
                # the same index drives several distinct sparse fibers: the
                # loop is the sorted-merge *intersection* of those fibers
                # (this is what lets the compiler handle more than one
                # sparse argument at a time — Cyclops cannot, Table 1).
                sources[idx] = ("intersect", binders, None)
            elif binders:
                sources[idx] = ("sparse",) + binders[0]
            else:
                sources[idx] = ("dense", None, None)

        # chain (triangle) enforcement pairs: (inner, outer)
        enforce: Dict[str, Tuple[str, str]] = {}
        pairs = list(zip(self.plan.permutable, self.plan.permutable[1:]))
        for inner, outer in pairs:
            if self._implicit_pair(inner, outer, access_chain, nest):
                continue
            enforce[inner] = ("le", outer)

        dims_alias = {i: self._dim_name(i) for i in self.original.free_indices}

        # reads (CSE / LICM): distinct access -> (temp name, expr, depth)
        reads: Dict[Access, Tuple[str, int]] = {}
        pre_by_depth: Dict[int, List[str]] = {}
        post_by_depth: Dict[int, List[str]] = {}

        def read_expr(acc: Access) -> Tuple[str, int]:
            """Expression for an access + depth at which it becomes valid."""
            if acc in access_chain:
                chain = access_chain[acc]
                expr = chain.value_expr()
                depth = max(depth_of[i] for i in chain.indices)
            else:
                name, storage_indices = access_dense[acc]
                coords = [i for i in storage_indices if i != self.vector_index]
                expr = name if not storage_indices else (
                    "%s[%s]" % (name, ", ".join(coords)) if coords else name
                )
                depth = max([depth_of[i] for i in coords], default=-1)
            return expr, depth

        def operand_code(acc_or_lit) -> str:
            if isinstance(acc_or_lit, Literal):
                return repr(acc_or_lit.value)
            if self.options.cse:
                if acc_or_lit not in reads:
                    expr, depth = read_expr(acc_or_lit)
                    temp = "t%d" % self.temp_counter
                    self.temp_counter += 1
                    pre_by_depth.setdefault(depth, []).append(
                        "%s = %s" % (temp, expr)
                    )
                    reads[acc_or_lit] = (temp, depth)
                return reads[acc_or_lit][0]
            return read_expr(acc_or_lit)[0]

        # workspaces: lhs key -> (ws var, depth, is_vector)
        workspaces: Dict[Tuple, Tuple[str, int, bool]] = {}
        innermost_depth = len(loop_indices) - 1

        def lhs_depth(a: Assignment) -> int:
            coords = [i for i in a.lhs.indices if i != self.vector_index]
            return max([depth_of[i] for i in coords], default=-1)

        def workspace_for(a: Assignment) -> Optional[Tuple[str, bool]]:
            if not self.options.workspace:
                return None
            d = lhs_depth(a)
            if d >= innermost_depth:
                return None
            key = (a.lhs.tensor, a.lhs.indices)
            if key not in workspaces:
                is_vector = (
                    self.vector_index is not None
                    and self.vector_index in a.lhs.indices
                )
                ws = "ws%d" % self.ws_counter
                self.ws_counter += 1
                ident = _py_const(REDUCE_IDENTITY[a.reduce_op])
                if is_vector:
                    # the workspace must accumulate in the kernel dtype:
                    # float64 keeps the historical bare np.empty (stable
                    # sources, stable content addresses), float32 says so
                    if self.options.dtype == "float32":
                        alloc = "np.empty(%s, dtype=np.float32)" % (
                            self._dim_name(self.vector_index)
                        )
                    else:
                        alloc = "np.empty(%s)" % self._dim_name(self.vector_index)
                    self.preamble.append("%s = %s" % (ws, alloc))
                    pre_by_depth.setdefault(d, []).append(
                        "%s.fill(%s)" % (ws, ident)
                    )
                else:
                    pre_by_depth.setdefault(d, []).append("%s = %s" % (ws, ident))
                post_by_depth.setdefault(d, []).append(
                    self._reduce_stmt(
                        self._out_target(a.lhs), a.reduce_op, ws, is_vector
                    )
                )
                workspaces[key] = (ws, d, is_vector)
            return workspaces[key][0], workspaces[key][2]

        # assemble statement lists for the innermost body
        innermost: List[str] = []
        for block in nest.blocks:
            stmts: List[str] = []
            factor_prefix = None
            if block.factor_table is not None:
                lut_name, code_expr = self._emit_lut(block)
                stmts.append("_code = %s" % code_expr)
                stmts.append("_f = %s[_code]" % lut_name)
                factor_prefix = "_f"
            for a in block.assignments:
                expr = self._combine(
                    [operand_code(op) for op in a.operands], a.combine_op
                )
                scale = []
                if a.count != 1:
                    if a.reduce_op != "+":
                        raise LoweringError(
                            "multiplicity %d under %r reduction" % (a.count, a.reduce_op)
                        )
                    scale.append(repr(float(a.count)))
                if factor_prefix:
                    scale.append(factor_prefix)
                if scale:
                    expr = "%s * (%s)" % (" * ".join(scale), expr)
                ws = workspace_for(a)
                is_vector = (
                    self.vector_index is not None
                    and self.vector_index in a.lhs.indices
                )
                if ws is not None:
                    stmts.append(self._reduce_stmt(ws[0], a.reduce_op, expr, ws[1], var=True))
                else:
                    stmts.append(
                        self._reduce_stmt(
                            self._out_target(a.lhs), a.reduce_op, expr, is_vector
                        )
                    )
            filter_realized = any(
                chain.view.tensor_filter == nest.tensor_filter
                for chain in chains.values()
            )
            cond = self._condition(block, nest, filter_realized)
            if cond is None:
                innermost.extend(stmts)
            else:
                innermost.append("if %s:" % cond)
                innermost.extend("    " + s for s in stmts)

        # emit loops
        lines: List[str] = []
        indent = 0

        def put(line: str) -> None:
            lines.append("    " * indent + line)

        def emit_depth(depth: int) -> None:
            nonlocal indent
            if depth == len(loop_indices):
                for line in innermost:
                    put(line)
                return
            idx = loop_indices[depth]
            kind, chain, level = sources[idx]
            guard = None
            if kind == "dense":
                end = dims_alias[idx]
                if idx in enforce:
                    end = "%s + 1" % enforce[idx][1]
                put("for %s in range(%s):" % (idx, end))
                indent += 1
            elif kind == "intersect":
                # sorted-merge intersection of several sparse fibers: each
                # binder keeps its own position pointer; all advance past
                # non-shared coordinates, and the body runs only where
                # every fiber holds the coordinate.
                binders = chain
                qs = []
                for bchain, blevel in binders:
                    parent = bchain.parent_expr(blevel, dims_alias)
                    q = bchain.q_var(blevel)
                    qs.append((bchain, blevel, q))
                    put(
                        "%s = %s_pos%d[%s]"
                        % (q, bchain.view.name, blevel, parent)
                    )
                    put(
                        "%s_end = %s_pos%d[%s + 1]"
                        % (q, bchain.view.name, blevel, parent)
                    )
                cond = " and ".join("%s < %s_end" % (q, q) for (_, _, q) in qs)
                put("while %s:" % cond)
                indent += 1
                vals = []
                for bchain, blevel, q in qs:
                    v = "%s_v" % q
                    vals.append(v)
                    put("%s = %s_idx%d[%s]" % (v, bchain.view.name, blevel, q))
                m = "_m%d" % depth
                put("%s = %s" % (m, vals[0]))
                for v in vals[1:]:
                    put("if %s > %s: %s = %s" % (v, m, m, v))
                put("_adv%d = 0" % depth)
                for (_, _, q), v in zip(qs, vals):
                    put("if %s < %s:" % (v, m))
                    put("    %s += 1" % q)
                    put("    _adv%d = 1" % depth)
                put("if _adv%d:" % depth)
                put("    continue")
                put("%s = %s" % (idx, m))
                if idx in enforce:
                    put("if %s > %s: break" % (idx, enforce[idx][1]))
                for line in pre_by_depth.get(depth, []):
                    put(line)
                emit_depth(depth + 1)
                for line in post_by_depth.get(depth, []):
                    put(line)
                for (_, _, q) in qs:
                    put("%s += 1" % q)
                indent -= 1
                return
            else:
                parent = chain.parent_expr(level, dims_alias)
                q = chain.q_var(level)
                start = "%s_pos%d[%s]" % (chain.view.name, level, parent)
                end = "%s_pos%d[%s + 1]" % (chain.view.name, level, parent)
                if idx in enforce:
                    outer = enforce[idx][1]
                    partner = self._same_fiber_partner(
                        idx, outer, sources, chain, level
                    )
                    if partner is not None:
                        end = "%s + 1" % partner
                    else:
                        guard = "if %s > %s: break" % (idx, outer)
                put("for %s in range(%s, %s):" % (q, start, end))
                indent += 1
                put("%s = %s_idx%d[%s]" % (idx, chain.view.name, level, q))
                if guard is not None:
                    put(guard)
            for line in pre_by_depth.get(depth, []):
                put(line)
            emit_depth(depth + 1)
            for line in post_by_depth.get(depth, []):
                put(line)
            indent -= 1

        # depth -1 regions (scalar output workspaces, constant reads)
        for line in pre_by_depth.get(-1, []):
            lines.append(line)
        body_start = len(lines)
        emit_depth(0)
        for line in post_by_depth.get(-1, []):
            lines.append(line)
        return lines

    # ------------------------------------------------------------------
    def _implicit_pair(self, inner, outer, access_chain, nest) -> bool:
        """Is the chain constraint inner <= outer already guaranteed by a
        packed symmetric view whose access binds both indices in the same
        symmetric part?"""
        if nest.tensor_filter == "full":
            return False
        for acc, chain in access_chain.items():
            parts = self.plan.symmetric_modes.get(acc.tensor)
            if not parts:
                continue
            if inner in acc.indices and outer in acc.indices:
                m_in = acc.indices.index(inner)
                m_out = acc.indices.index(outer)
                for part in parts:
                    if m_in in part and m_out in part:
                        return True
        return False

    def _same_fiber_partner(self, inner, outer, sources, chain, level) -> Optional[str]:
        """If *outer* iterates the same fiber (view, level, parent) as
        *inner*, return its position variable for a co-iteration bound."""
        kind, ochain, olevel = sources[outer]
        if kind != "sparse":
            return None
        if (
            ochain.view.name == chain.view.name
            and olevel == level
            and ochain.indices[:level] == chain.indices[:level]
        ):
            return ochain.q_var(olevel)
        return None

    def _out_target(self, lhs: Access) -> str:
        coords = [
            lhs.indices[m]
            for m in self.output.layout
            if lhs.indices[m] != self.vector_index
        ]
        if not lhs.indices:
            return "out[()]"
        if coords:
            return "out[%s]" % ", ".join(coords)
        return "out[:]" if self.vector_index in lhs.indices else "out[()]"

    def _reduce_stmt(
        self, target: str, reduce_op: str, expr: str, is_vector: bool, var: bool = False
    ) -> str:
        if reduce_op == "+":
            return "%s += %s" % (target, expr)
        fn = {"min": "minimum", "max": "maximum"}[reduce_op]
        if is_vector and not var:
            return "np.%s(%s, %s, out=%s)" % (fn, target, expr, target)
        if is_vector and var:
            return "np.%s(%s, %s, out=%s)" % (fn, target, expr, target)
        py = {"min": "min", "max": "max"}[reduce_op]
        return "%s = %s(%s, %s)" % (target, py, target, expr)

    def _combine(self, parts: List[str], combine_op: str) -> str:
        if not parts:
            return "0.0"
        return (" %s " % combine_op).join(parts)

    def _condition(
        self, block: Block, nest: LoopNest, filter_realized: bool = True
    ) -> Optional[str]:
        """Render the block's pattern disjunction, pruning patterns that the
        nest filter makes unreachable and dropping the test entirely when
        the remaining patterns cover everything the filter admits.

        ``filter_realized`` is False when no packed sparse view actually
        restricts this nest's coordinates (e.g. a *dense* symmetric input):
        the strict/diagonal distinction must then be tested explicitly.
        """
        if block.factor_table is not None:
            return None
        if not self.plan.permutable or len(self.plan.permutable) < 2:
            return None
        if not filter_realized and nest.tensor_filter in (
            FILTER_STRICT,
            FILTER_DIAGONAL,
        ):
            kept = [
                p
                for p in block.patterns
                if (p.is_strict if nest.tensor_filter == FILTER_STRICT else not p.is_strict)
            ]
            if not kept:
                return "False"
            terms = []
            for pattern in kept:
                comps = [
                    "%s %s %s" % (a, rel, b)
                    for (a, rel, b) in pattern.conditions()
                ]
                terms.append(" and ".join(comps) if comps else "True")
            if len(terms) == 1:
                return terms[0]
            return " or ".join("(%s)" % t for t in terms)
        if nest.tensor_filter == FILTER_STRICT:
            kept = [p for p in block.patterns if p.is_strict]
            if kept:
                return None  # the strict view admits exactly this pattern
            return "False"
        if nest.tensor_filter == FILTER_DIAGONAL:
            kept = [p for p in block.patterns if not p.is_strict]
            total = 2 ** (len(self.plan.permutable) - 1) - 1
            if len({p.relations for p in kept}) >= total:
                return None
        else:
            kept = list(block.patterns)
            if len({p.relations for p in kept}) >= 2 ** (len(self.plan.permutable) - 1):
                return None
        if not kept:
            return "False"
        terms = []
        for pattern in kept:
            comps = [
                "%s %s %s" % (a, rel, b) for (a, rel, b) in pattern.conditions()
            ]
            terms.append(" and ".join(comps) if comps else "True")
        if len(terms) == 1:
            return terms[0]
        return " or ".join("(%s)" % t for t in terms)

    def _emit_lut(self, block: Block) -> Tuple[str, str]:
        n = len(self.plan.permutable)
        size = 2 ** (n - 1)
        table = [0.0] * size
        for bitmask, frac in block.factor_table:
            table[bitmask] = float(Fraction(frac))
        name = "_lut%d" % self.lut_counter
        self.lut_counter += 1
        if self.options.dtype == "float32":
            # a float32 kernel must read float32 factors: a plain Python
            # list would hand back float64 scalars and promote the whole
            # product chain (numpy's weak-scalar rules only round *one*
            # python-float operand per operation)
            self.preamble.append(
                "%s = np.array(%r, dtype=np.float32)" % (name, table)
            )
        else:
            self.preamble.append("%s = %r" % (name, table))
        bits = []
        for t, (a, b) in enumerate(zip(self.plan.permutable, self.plan.permutable[1:])):
            if t == 0:
                bits.append("(%s == %s)" % (a, b))
            else:
                bits.append("((%s == %s) << %d)" % (a, b, t))
        return name, " | ".join(bits)


def lower_plan(
    plan: KernelPlan,
    formats: Mapping[str, str],
    options: CompilerOptions,
    sparse_levels: Optional[Mapping[str, Sequence[str]]] = None,
) -> LoweredKernel:
    """Convenience wrapper around :class:`Lowerer`."""
    return Lowerer(plan, formats, options, sparse_levels).lower()
