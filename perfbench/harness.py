"""Shared machinery: the run's state, child processes, checks, statistics."""

from __future__ import annotations

import json
import math
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import contextmanager
from typing import Dict, List, Optional, Tuple

import numpy as np

from data import matches
from spans import Recorder, instrument, layer_samples
from speed import SpeedMeter

HERE = os.path.dirname(os.path.abspath(__file__))
CHILD = os.path.join(HERE, "child.py")

#: seconds any one child may take before the run is failed
CHILD_TIMEOUT = 150
#: seconds between two speed readings while a child runs
CHILD_EVERY_S = 0.04


def quantile(values, q: float) -> float:
    """The ``q`` quantile, linear between order statistics."""
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def geomean(values) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


def call_ms(fn, calls: int) -> List[float]:
    """Wall time (ms) of each of *calls* calls of *fn*."""
    samples = []
    for _ in range(calls):
        start = time.perf_counter()
        fn()
        samples.append((time.perf_counter() - start) * 1e3)
    return samples


class Run:
    """One invocation: options, scratch space, counters, samples, spans."""

    def __init__(self, args, work: str, kernel_names: Dict[str, str]):
        self.seed = args.seed
        self.seconds = args.seconds
        self.traced = bool(args.trace)
        self.tiny = args.tiny
        self.corrupt = args.corrupt
        self.work = work
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []
        #: ``(class, ms, start, end)`` latency samples of the loop, by
        #: tracing state; ``start``/``end`` (``time.monotonic()``) bound
        #: the operation, for :attr:`speed`
        self.latency: Dict[bool, List[Tuple[str, float, float, float]]] = {
            False: [], True: []
        }
        #: timed-region walls (ns) of measured operations, by tracing state
        self.walls: Dict[bool, Dict[int, int]] = {False: {}, True: {}}
        #: ``(start, end)`` (``time.monotonic()``) of each measured operation
        self.when: Dict[int, Tuple[float, float]] = {}
        #: the machine's speed, read between operations and children
        self.speed = SpeedMeter()
        #: cold-round and cold-start times, as measured and corrected for speed
        self.compile_s: Dict[bool, List[float]] = {False: [], True: []}
        self.coldstart_s: Dict[bool, List[float]] = {False: [], True: []}
        #: plan-call times (ms) of the kernel probe, as measured and corrected
        self.kernel_ms: Dict[bool, Dict[str, List[float]]] = {False: {}, True: {}}
        #: peak RSS (MB) of child processes that served the loop (the daemon)
        self.child_peaks_mb: List[float] = []
        self.layer_extra: Dict[str, float] = {}
        self.rec: Optional[Recorder] = Recorder(kernel_names) if self.traced else None
        self._restore = None
        self._next_op = 0
        self._dirs = 0

    # -- scratch space -------------------------------------------------
    def fresh_dir(self, prefix: str) -> str:
        self._dirs += 1
        path = os.path.join(self.work, "%s%d" % (prefix, self._dirs))
        os.makedirs(path)
        return path

    # -- tracing -------------------------------------------------------
    @property
    def tracing(self) -> bool:
        return self._restore is not None

    def trace_on(self) -> None:
        if self.rec is not None and self._restore is None:
            self._restore = instrument(self.rec)

    def trace_off(self) -> None:
        if self._restore is not None:
            self._restore()
            self._restore = None

    @contextmanager
    def span(self, layer: str, kernel: Optional[str] = None):
        if self.tracing:
            with self.rec.span(layer, kernel):
                yield
        else:
            yield

    @contextmanager
    def operation(self, measured: bool = True):
        """One operation; with ``measured`` its wall is a loop sample.

        Yields a dict; the caller may set ``"child"`` to a child's trace
        document, whose spans are charged to this operation.
        """
        self._next_op += 1
        op = self._next_op
        if self.rec is not None:
            self.rec.op = op
        box: Dict = {}
        start = time.monotonic()
        t0 = time.perf_counter_ns()
        try:
            yield box
        finally:
            wall = time.perf_counter_ns() - t0
            self.when[op] = (start, time.monotonic())
            if self.rec is not None:
                self.rec.op = None
                if box.get("child"):
                    self.rec.merge_json(box["child"], op)
            if measured:
                self.walls[self.tracing][op] = wall

    # -- children ------------------------------------------------------
    def child_env(self, cache: str) -> Dict[str, str]:
        """This process's environment (``run.py`` dropped every inherited
        ``REPRO_*`` setting) with the child's own C object cache."""
        env = dict(os.environ)
        env["REPRO_C_CACHE"] = cache
        env["TMPDIR"] = self.work
        # a fresh process of an installed program reads cached bytecode;
        # it is kept beside the runs, so nothing is written elsewhere
        env.pop("PYTHONDONTWRITEBYTECODE", None)
        env["PYTHONPYCACHEPREFIX"] = os.path.join(os.path.dirname(self.work), "pycache")
        return env

    def run_child(self, argv: List[str], cache: str, trace: bool = False) -> List[dict]:
        """Run ``child.py argv``, reading the machine's speed while it runs;
        returns its JSON lines."""
        cmd = [sys.executable, CHILD] + argv + ["--spawn", repr(time.monotonic())]
        if trace:
            cmd.append("--trace")
        proc = subprocess.Popen(
            cmd,
            env=self.child_env(cache),
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        deadline = time.monotonic() + CHILD_TIMEOUT
        try:
            while True:
                try:
                    out, err = proc.communicate(timeout=CHILD_EVERY_S)
                    break
                except subprocess.TimeoutExpired:
                    if time.monotonic() > deadline:
                        raise
                    self.speed.read()
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        if proc.returncode != 0:
            raise RuntimeError(
                "child %s failed (%d):\n%s" % (argv[0], proc.returncode, err[-3000:])
            )
        return [json.loads(line) for line in out.splitlines() if line.startswith("{")]

    def compile_child(self, kernels, store: str, cache: str, naive: bool = False) -> dict:
        """Cold-compile *kernels* into *store* in a fresh process."""
        argv = ["compile", "--store", store, "--kernels", ",".join(kernels)]
        if naive:
            argv.append("--naive")
        doc = self.run_child(argv, cache, trace=self.tracing)[0]
        if doc["compiles"] != len(kernels) * (2 if naive else 1):
            raise RuntimeError("a cold round compiled %d kernels" % doc["compiles"])
        seconds, start = doc["compile_s"], doc["imported"]
        self.compile_s[False].append(seconds)
        self.compile_s[True].append(self.speed.corrected(seconds, start, start + seconds))
        return doc

    def coldstart_child(self, argv: List[str], cache: str) -> List[dict]:
        """Run a cold-start child; returns its JSON lines."""
        spawn = time.monotonic()
        docs = self.run_child(argv, cache, trace=self.tracing)
        seconds = docs[0]["coldstart_s"]
        self.coldstart_s[False].append(seconds)
        self.coldstart_s[True].append(self.speed.corrected(seconds, spawn, spawn + seconds))
        return docs

    # -- correctness ---------------------------------------------------
    def damaged(self, got):
        """*got*, or with ``--corrupt`` the first time a wrong copy of it
        (the self-test's deliberately corrupted output)."""
        if not self.corrupt:
            return got
        self.corrupt = False
        got = np.array(got, dtype=float)
        got.flat[0] = np.nan
        return got

    def check(self, label: str, got, want) -> bool:
        """Compare an output with its independent reference; count it."""
        return self.record(label, matches(self.damaged(got), want))

    def record(self, label: str, ok: bool) -> bool:
        """Count one output checked (by :meth:`check` or in a child)."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.errors.append("%s: output differs from the reference" % label)
        return ok

    def failure(self, label: str, exc: BaseException) -> None:
        self.attempted += 1
        self.failed += 1
        self.errors.append("%s: %s: %s" % (label, type(exc).__name__, exc))

    # -- summaries -----------------------------------------------------
    def layer_samples(self):
        """Per-layer samples from the traced loop; a layer the loop does
        not exercise is taken from the prelude, setup and cold starts."""
        everywhere = layer_samples(self.rec)
        in_loop = layer_samples(self.rec, set(self.walls[True]))
        return {key: in_loop.get(key, values) for key, values in everywhere.items()}

    def layer_metrics(self, names) -> Dict[str, float]:
        """Every per-layer metric named in BENCHMARK.json."""
        samples = self.layer_samples() if self.rec is not None else {}
        counts = self.rec.count_totals() if self.rec is not None else {}
        out = {}
        for name in names:
            if name in self.layer_extra:
                out[name] = self.layer_extra[name]
            elif name in counts:
                out[name] = counts[name]
            elif "_ms" in name:
                layer, _, kernel = name.partition("_ms")
                values = samples.get((layer, kernel[1:] or None))
                out[name] = statistics.median(values) if values else 0.0
            else:
                out[name] = 0.0
        return out

    def coverage(self) -> Dict[str, float]:
        """How much of the traced loop's wall time the spans cover."""
        walls = self.walls[True]
        total = sum(walls.values())
        covered = self.rec.covered_ns(set(walls)) if self.rec is not None else 0
        medians = {}
        for traced in (False, True):
            classes: Dict[str, List[float]] = {}
            for name, ms, *_ in self.latency[traced]:
                classes.setdefault(name, []).append(ms)
            medians[traced] = {k: statistics.median(v) for k, v in classes.items()}
        both = set(medians[False]) & set(medians[True])
        overhead = [medians[True][k] - medians[False][k] for k in both]
        return {
            "trace.coverage": covered / total if total else 0.0,
            "trace.unattributed_ms": (total - covered) / 1e6 / max(1, len(walls)),
            "trace.overhead_ms": statistics.fmean(overhead) if overhead else 0.0,
        }


def peak_rss_mb(run: Run) -> float:
    """Peak resident memory of the processes that ran the workload: this
    one and the children that served its loop (``child_peaks_mb``)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return max([own] + run.child_peaks_mb)


def make_work_dir(root: str) -> str:
    base = os.path.join(root, ".perfbench_work")
    os.makedirs(base, exist_ok=True)
    return tempfile.mkdtemp(prefix="r", dir=base)
