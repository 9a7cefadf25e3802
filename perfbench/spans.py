"""The benchmark's own span recorder.

Nothing in ``src/`` is modified.  :func:`instrument` wraps the public
functions and methods of each layer of :mod:`repro` with a span, so a
traced run attributes its wall time to named layers.  Each span's *self*
time (its duration minus that of the spans nested in it) is recorded, so
the self times of one thread add up to the time covered by its
outermost spans.

Spans are kept in memory and summarised when the run ends.  A span is
tagged with the operation it ran in (``Recorder.op``) and, for per-kernel
layers, with the kernel being run (looked up from the einsum the layer
is handed).
"""

from __future__ import annotations

import functools
import statistics
import sys
import threading
import time
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional, Tuple


class Recorder:
    """In-memory spans: ``(layer, kernel, op, self_ns, dur_ns, top)``."""

    def __init__(self, kernel_names: Optional[Dict[str, str]] = None):
        #: einsum text (``str(Assignment)``) -> kernel-table name
        self.kernel_names = dict(kernel_names or {})
        #: operation id spans are charged to (set by the workload loop)
        self.op: Optional[int] = None
        #: kernel charged when a layer cannot name one itself
        self.kernel: Optional[str] = None
        self.spans: List[Tuple[str, Optional[str], Optional[int], int, int, bool]] = []
        #: ``(name, kernel, amount)`` observations
        self.counts: List[Tuple[str, Optional[str], float]] = []
        self._local = threading.local()

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, layer: str, kernel: Optional[str] = None):
        stack = self._stack()
        stack.append(0)  # nested time accumulated by children
        t0 = time.perf_counter_ns()
        try:
            yield
        finally:
            dur = time.perf_counter_ns() - t0
            nested = stack.pop()
            if stack:
                stack[-1] += dur
            self.spans.append(
                (layer, kernel or self.kernel, self.op, dur - nested, dur, not stack)
            )

    def record(self, layer: str, dur_ns: int, kernel: Optional[str] = None) -> None:
        """An outermost span timed by the caller (e.g. across processes)."""
        self.spans.append((layer, kernel or self.kernel, self.op, dur_ns, dur_ns, True))

    def count(self, name: str, amount: float, kernel: Optional[str] = None) -> None:
        self.counts.append((name, kernel or self.kernel, amount))

    def count_totals(self) -> Dict[str, float]:
        """Per name: the sum over kernels of each kernel's median."""
        per: Dict[str, Dict[Optional[str], List[float]]] = {}
        for name, kernel, amount in self.counts:
            per.setdefault(name, {}).setdefault(kernel, []).append(amount)
        return {
            name: sum(statistics.median(v) for v in by_kernel.values())
            for name, by_kernel in per.items()
        }

    def kernel_of(self, einsum: Optional[str]) -> Optional[str]:
        return self.kernel_names.get(einsum) if einsum else None

    def covered_ns(self, ops=None) -> int:
        """Time inside outermost spans (of the given operations)."""
        return sum(
            s[4] for s in self.spans if s[5] and (ops is None or s[2] in ops)
        )

    def to_json(self) -> dict:
        return {"spans": self.spans, "counts": self.counts}

    def merge_json(self, doc: dict, op: Optional[int]) -> None:
        """Fold in the spans a child process recorded, charged to *op*.

        The child ran inside the operation, so its outermost spans cover
        part of the operation's wall time.
        """
        for layer, kernel, _op, self_ns, dur, top in doc.get("spans", ()):
            self.spans.append((layer, kernel, op, self_ns, dur, top))
        for name, kernel, amount in doc.get("counts", ()):
            self.counts.append((name, kernel, amount))

    def merge_daemon(self, doc: dict) -> None:
        """Fold in the daemon's spans, one operation per request it read.

        They are nested in the client's ``serve.rtt`` spans, so never
        outermost here.  Their operation ids are negated to stay apart
        from the client's; the daemon's own codec layers get a
        ``daemon.`` prefix to stay apart from the client's codec.
        """
        for layer, kernel, op, self_ns, dur, _top in doc.get("spans", ()):
            if layer.startswith("protocol."):
                layer = "daemon." + layer
            self.spans.append(
                (layer, kernel, -op if op is not None else None, self_ns, dur, False)
            )


def wrap(rec: Recorder, fn: Callable, layer: str, kernel_of=None, after=None):
    """*fn* inside a span of *layer* (``kernel_of(args, kwargs)`` names
    the kernel; ``after(rec, result, kernel)`` records counts)."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        kernel = kernel_of(args, kwargs) if kernel_of is not None else None
        with rec.span(layer, kernel):
            result = fn(*args, **kwargs)
        if after is not None:
            after(rec, result, kernel)
        return result

    return wrapper


def _rebind_everywhere(original: Callable, wrapper: Callable, undo: list) -> None:
    """Replace *original* in every loaded ``repro`` module that holds it
    (``from x import f`` copies the binding into the importing module)."""
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro" or name.startswith("repro.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapper)
                undo.append((module, attr, original))


def _source_bytes(rec: Recorder, rendered, kernel) -> None:
    rec.count("backends.c.source_bytes", len(rendered.source.encode("utf-8")), kernel)


def instrument(rec: Recorder) -> Callable[[], None]:
    """Wrap every layer boundary; returns a function that undoes it."""
    import repro.codegen.backends.c as c_backend
    import repro.codegen.backends.ctoolchain as ctoolchain
    import repro.codegen.lower as lower
    import repro.core.compiler as compiler
    import repro.frontend.parser as parser
    import repro.serve.protocol as protocol
    import repro.service.keys as keys
    from repro.codegen.executor import BoundKernel, ExecutionPlan
    from repro.service.engine import KernelService
    from repro.service.store import DiskStore

    def current(_args, _kwargs):
        return rec.kernel

    def of_einsum_kwarg(_args, kwargs):  # render_c_full(..., einsum=...)
        return rec.kernel or rec.kernel_of(kwargs.get("einsum"))

    def of_compiled(args, _kwargs):  # CompiledKernel method
        return rec.kernel_of(args[0].bound.einsum)

    def of_bound(args, _kwargs):  # BoundKernel method
        return rec.kernel_of(args[0].einsum)

    def of_plan(args, _kwargs):  # ExecutionPlan method
        return rec.kernel_of(args[0].kernel.einsum)

    def of_new_plan(args, kwargs):  # ExecutionPlan.__init__(self, kernel, ...)
        kernel = args[1] if len(args) > 1 else kwargs["kernel"]
        return rec.kernel_of(kernel.einsum)

    functions = [
        (parser.parse_assignment, "frontend.parse", None, None),
        (keys.canonicalize, "service.canonicalize", None, None),
        (compiler.compile_kernel, "core.compile", None, None),
        (compiler.plan_kernel, "core.plan", None, None),
        (lower.lower_plan, "codegen.lower", None, None),
        (c_backend.render_c_full, "backends.c.render", of_einsum_kwarg, _source_bytes),
        (ctoolchain.compile_shared, "ctoolchain.cc", current, None),
        (ctoolchain.probe, "ctoolchain.probe", None, None),
        (ctoolchain.probe_ftz, "ctoolchain.probe", None, None),
        (protocol.encode_frame, "protocol.frame_encode", None, None),
        (protocol.decode_body, "protocol.frame_decode", None, None),
        (protocol.encode_tensor, "protocol.encode", None, None),
        (protocol.decode_tensors, "protocol.decode", None, None),
    ]
    methods = [
        (KernelService, "get_or_compile", "service.get_or_compile", None),
        (DiskStore, "get", "service.rehydrate", None),
        (DiskStore, "put", "service.persist", None),
        (c_backend.CExecutable, "__init__", "backends.c.load", None),
        (compiler.CompiledKernel, "prepare", "executor.prepare", of_compiled),
        (ExecutionPlan, "__init__", "executor.bind", of_new_plan),
        (ExecutionPlan, "__call__", "executor.exec", of_plan),
        (BoundKernel, "run", "executor.exec", of_bound),
        (BoundKernel, "finalize", "runtime.finalize", of_bound),
    ]
    undo: list = []
    for fn, layer, kernel_of, after in functions:
        _rebind_everywhere(fn, wrap(rec, fn, layer, kernel_of, after), undo)
    for cls, attr, layer, kernel_of in methods:
        original = cls.__dict__[attr]
        setattr(cls, attr, wrap(rec, original, layer, kernel_of))
        undo.append((cls, attr, original))

    def restore() -> None:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)

    return restore


# ----------------------------------------------------------------------
# summaries
# ----------------------------------------------------------------------
def layer_samples(rec: Recorder, ops=None) -> Dict[Tuple[str, Optional[str]], List[float]]:
    """``(layer, kernel) -> [self ms per operation]`` over *ops*.

    Every operation in which a layer ran contributes one sample: the sum
    of that layer's self time within the operation.  A ``None`` kernel
    key sums the layer over all kernels.
    """
    per_op: Dict[Tuple[str, Optional[str]], Dict[Optional[int], float]] = {}
    for layer, kernel, op, self_ns, _dur, _top in rec.spans:
        if ops is not None and op not in ops:
            continue
        for key in ((layer, None), (layer, kernel)) if kernel else ((layer, None),):
            bucket = per_op.setdefault(key, {})
            bucket[op] = bucket.get(op, 0.0) + self_ns / 1e6
    return {key: list(bucket.values()) for key, bucket in per_op.items()}
