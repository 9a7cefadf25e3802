"""The three workloads.

Each workload is driven the same way (see ``run.py``):

``prelude``
    cold-compiles the kernel table in a fresh child process (fresh store,
    fresh C object cache) and starts fresh processes against the result.
    Yields ``compile_s`` and ``coldstart_s``, and in a traced run the
    compile and cold-start layers.
``setup``
    repeated ``setup_reps`` times; builds the inputs from the seed and
    readies the system (rehydrated kernels, execution plans, a daemon).
    Its median is ``setup_s``.
``op``
    one closed-loop operation; its timed region is one latency sample of
    a class (a kernel, or a request kind).  Outputs are checked outside
    the timed region.
``between``
    an untraced run measures its loop in ``LOOP_CHUNKS`` chunks and runs
    the rest of its samples (a second cold round, cold starts, steps of
    the kernel probe) between them, so the loop and the probe each see
    more of the machine's drift within a run.  All run in fresh
    processes, so they cannot disturb the loop and their memory is not
    charged to the workload.
``traced_extras``
    numbers only the traced run reports.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import time
import zlib
from typing import Dict, List, Tuple

import numpy as np
from repro import KernelService
from repro.kernels.library import KERNELS
from repro.obs import metrics as obs_metrics
from repro.serve import protocol
from repro.serve.client import ServiceClient
from repro.service.keys import canonicalize

import data
from data import get_kernel
from harness import CHILD, CHILD_TIMEOUT, Run, call_ms

#: side of the ssymv matrix the cold-start children multiply with
COLDSTART_N = {False: 10000, True: 200}

#: chunks an untraced run measures its loop in
LOOP_CHUNKS = 4

#: cold starts per untraced run, half before the loop and half between
#: its chunks (so is its second cold round); a traced run makes one cold
#: round and two traced cold starts
COLDSTARTS = 12

Samples = List[Tuple[str, float]]  # (latency class, ms)


def digest(out: np.ndarray) -> Tuple:
    """Shape and CRC-32 of an output's bytes.

    From the same inputs, an output with the digest of one that matched
    the reference is counted as matching too.  (Comparing with a stored
    copy takes as long and doubles the output's memory.)
    """
    out = np.ascontiguousarray(out)
    return out.shape, zlib.crc32(memoryview(out).cast("B"))


class Probe:
    """A ``child.py probe`` process, run step by step between loop chunks.

    Its inputs, plans and references live in that process, so their
    memory is not charged to the workload.
    """

    def __init__(self, workload: "Workload"):
        run = workload.run
        argv = [sys.executable, CHILD, "probe", "--store", workload.store,
                "--seed", str(run.seed)] + (["--tiny"] if run.tiny else [])
        self.proc = subprocess.Popen(
            argv,
            env=run.child_env(workload.cache),
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        self._read()  # ready: the plans are bound

    def ask(self, command: str) -> dict:
        self.proc.stdin.write(command + "\n")
        self.proc.stdin.flush()
        return self._read()

    def _read(self) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            self.close()
            raise RuntimeError("probe child failed:\n" + self.stderr[-3000:])
        return json.loads(line)

    def close(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        _, self.stderr = self.proc.communicate(timeout=CHILD_TIMEOUT)


class Workload:
    name = ""
    #: the kernels the loop runs
    kernels: tuple = ()
    setup_reps = 3
    #: also compile the naive kernels in a traced prelude
    needs_naive = False
    #: kernel-probe rounds per untraced run (0: the loop is the probe).
    #: The other workloads' own kernels take microseconds or are one to
    #: four memory-bound kernels, whose times scattered by 15-35% from
    #: run to run, against 2-9% for the geometric mean over the table.
    probe_rounds = 60

    def __init__(self, run: Run):
        self.run = run
        #: what a cold round compiles: the table and the loop's kernels
        table = data.TABLE[run.tiny]
        self.compiled = table + tuple(k for k in self.kernels if k not in table)
        self.store = None
        self.cache = None
        self.coldstart_input = None
        self._coldstart_ref = None
        self.probe = None

    # -- prelude -------------------------------------------------------
    def cold_round(self) -> None:
        """Compile the kernel table cold into a fresh store + C cache."""
        run = self.run
        store, cache = run.fresh_dir("store"), run.fresh_dir("cc")
        naive = run.tracing and self.needs_naive
        with run.operation(measured=False) as box:
            doc = run.compile_child(self.compiled, store, cache, naive=naive)
            box["child"] = doc["trace"]
        self.store, self.cache = store, cache

    def write_coldstart_input(self) -> None:
        n = COLDSTART_N[self.run.tiny]
        rng = np.random.default_rng([self.run.seed, 1000])
        coords = data.canonical_coords(rng, n, 2, 8 * n)
        vals = rng.random(coords.shape[1]) + 0.1
        x = rng.random(n) + 0.1
        path = os.path.join(self.run.work, "coldstart.npz")
        np.savez(path, n=n, coords=coords, vals=vals, x=x)
        self._coldstart_ref = data.ref_ssymv(data.expand(coords, vals), n, x)
        self.coldstart_input = path

    def coldstart(self) -> None:
        """One fresh process: import, get ssymv from the warm store, call."""
        run = self.run
        argv = ["coldstart", "--store", self.store, "--input", self.coldstart_input]
        with run.operation(measured=False) as box:
            first, steady = run.coldstart_child(argv, self.cache)
            box["child"] = first["trace"]
        if first["compiles"]:
            raise RuntimeError("a cold start against a warm store compiled")
        run.check("coldstart ssymv", first["y"], self._coldstart_ref)
        run.check("coldstart ssymv plan", steady["y"], self._coldstart_ref)

    def prelude(self) -> None:
        self.cold_round()
        self.write_coldstart_input()
        for _ in range(2 if self.run.traced else COLDSTARTS // 2):
            self.coldstart()

    # -- the rest, per workload ----------------------------------------
    def setup(self):
        raise NotImplementedError

    def discard(self, state) -> None:
        pass

    def after_setup(self, state) -> None:
        """Untraced runs: start the kernel probe."""
        if not self.run.traced and self.probe_rounds:
            self.probe = Probe(self)

    def op(self, state, i: int) -> Samples:
        raise NotImplementedError

    def between(self, chunk: int) -> None:
        """Untraced runs, after loop chunk *chunk*: a share of the probe
        rounds, then the second cold round or a share of the cold starts;
        after the last chunk the probe's outputs are checked."""
        run = self.run
        if self.probe is not None:
            doc = self.probe.ask(str(self.probe_rounds // LOOP_CHUNKS))
            for corrected, key in ((False, "kernel_ms"), (True, "kernel_ms_corrected")):
                for name, samples in doc[key].items():
                    run.kernel_ms[corrected].setdefault(name, []).extend(samples)
        if chunk == 1:
            self.cold_round()
        else:
            for _ in range(COLDSTARTS // 2 // (LOOP_CHUNKS - 1)):
                self.coldstart()
        if self.probe is not None and chunk == LOOP_CHUNKS - 1:
            for name, ok in self.probe.ask("check")["ok"].items():
                run.record(name + " probe", ok)

    def traced_extras(self, state) -> None:
        pass

    def finish(self, state) -> None:
        if self.probe is not None:
            self.probe.close()


# ----------------------------------------------------------------------
class KernelSteady(Workload):
    """Prepared execution plans of the 8 kernels, called round robin."""

    name = "kernel_steady"
    kernels = data.KERNEL_ORDER
    needs_naive = True
    probe_rounds = 0

    def setup(self):
        run = self.run
        cases = data.kernel_cases(self.kernels, data.KERNEL_STEADY_SIZES[run.tiny], run.seed)
        service = KernelService(store=self.store)
        kernels, plans = {}, {}
        for name in self.kernels:
            with run.operation(measured=False):
                kernels[name] = get_kernel(service, name)
            with run.operation(measured=False):
                plans[name] = kernels[name].execution_plan(**cases[name].tensors)
        return {"cases": cases, "kernels": kernels, "plans": plans}

    def after_setup(self, state) -> None:
        """One output of each plan, checked in a child."""
        state["verified"] = {}
        self.verify(state, {name: plan() for name, plan in state["plans"].items()})

    def verify(self, state, outputs: Dict[str, np.ndarray]) -> None:
        """Check raw plan outputs in a fresh process, which finalizes them
        and builds the references outside this one."""
        run = self.run
        folder = run.fresh_dir("out")
        for name, out in outputs.items():
            np.save(os.path.join(folder, name + ".npy"), run.damaged(out))
        argv = ["verify", "--store", self.store, "--seed", str(run.seed),
                "--outputs", folder] + (["--tiny"] if run.tiny else [])
        (doc,) = run.run_child(argv, self.cache)
        for name, ok in doc["ok"].items():
            if run.record(name, ok):
                state["verified"][name] = digest(outputs[name])
            os.remove(os.path.join(folder, name + ".npy"))

    def op(self, state, i: int) -> Samples:
        run = self.run
        name = self.kernels[i % len(self.kernels)]
        plan = state["plans"][name]
        try:
            with run.operation():
                start = time.perf_counter()
                out = plan()
                ms = (time.perf_counter() - start) * 1e3
        except Exception as exc:  # counted; the loop goes on
            run.failure(name, exc)
            return []
        # the inputs never change: an output with the digest of a checked
        # one is counted as checked, any other goes to a child
        if digest(out) == state["verified"].get(name):
            run.record(name, True)
        else:
            self.verify(state, {name: out})
        return [(name, ms)]

    def traced_extras(self, state) -> None:
        """``core.symmetry_speedup.<kernel>``: naive plan time / symmetric."""
        run = self.run
        run.trace_off()
        service = KernelService(store=self.store)
        for name in self.kernels:
            naive = get_kernel(service, name, naive=True)
            tensors = state["cases"][name].tensors
            naive_plan = naive.execution_plan(**tensors)
            naive_ms = statistics.median(call_ms(naive_plan, 5))
            run.check(name + " naive", naive.finalize(naive_plan()),
                      state["cases"][name].reference())
            symmetric_ms = statistics.median(call_ms(state["plans"][name], 5))
            run.layer_extra["core.symmetry_speedup." + name] = naive_ms / symmetric_ms


# ----------------------------------------------------------------------
ONESHOT_SIZES = {
    False: {
        "ssymv": {"n": 1024, "density": 16 / 1024},
        "ssyrk": {"n": 512, "density": 0.02},
        "ttm": {"n": 48, "density": 0.05, "rank": 16},
        "mttkrp3d": {"n": 48, "density": 0.05, "rank": 16},
    },
    True: {
        "ssymv": {"n": 64, "density": 0.1},
        "ssyrk": {"n": 48, "density": 0.1},
        "ttm": {"n": 12, "density": 0.1, "rank": 4},
        "mttkrp3d": {"n": 12, "density": 0.1, "rank": 4},
    },
}


class OneshotDense(Workload):
    """``kernel(**tensors)`` on dense operands whose content never repeats."""

    name = "oneshot_dense"
    kernels = ("ssymv", "ssyrk", "ttm", "mttkrp3d")
    setup_reps = 15  # ~20 ms each

    def setup(self):
        run = self.run
        sizes = ONESHOT_SIZES[run.tiny]
        operands = {k: data.dense_operands(k, sizes[k], run.seed) for k in self.kernels}
        service = KernelService(store=self.store)
        kernels = {}
        for name in self.kernels:
            with run.operation(measured=False):
                kernels[name] = get_kernel(service, name)
        rng = np.random.default_rng([run.seed, 2000])
        return {"operands": operands, "kernels": kernels, "rng": rng}

    def op(self, state, i: int) -> Samples:
        run = self.run
        name = self.kernels[i % len(self.kernels)]
        tensors = state["operands"][name]
        # new content for every call, in place: same objects, new values
        with run.span("bench.perturb"):
            for arr in tensors.values():
                arr *= state["rng"].uniform(0.5, 1.5)
        try:
            with run.operation():
                start = time.perf_counter()
                out = state["kernels"][name](**tensors)
                ms = (time.perf_counter() - start) * 1e3
        except Exception as exc:
            run.failure(name, exc)
            return []
        with run.span("bench.check"):
            run.check(name, out, KERNELS[name].reference(**tensors))
        return [(name, ms)]


# ----------------------------------------------------------------------
#: n = 1024 takes ~250 ms a request and n = 512 ~60 ms, too few requests
#: of each kind for a p90 in one run; at 384 a request carries ~1.6 MB
SERVE_N = {False: 384, True: 64}


class ServeMixed(Workload):
    """A ``repro serve`` daemon and one closed-loop client, ssymv with a
    fixed A: half the requests carry a fresh x, half repeat one exactly."""

    name = "serve_mixed"
    kernels = ("ssymv",)
    setup_reps = 7
    #: fresh requests a repeat may copy (well inside the daemon's plan pool)
    history = 8

    def setup(self):
        run = self.run
        n = SERVE_N[run.tiny]
        operands = data.dense_operands("ssymv", {"n": n, "density": 16 / n}, run.seed)
        spec = KERNELS["ssymv"]
        request = canonicalize(
            spec.einsum,
            symmetric=dict(spec.symmetric),
            loop_order=spec.loop_order,
            formats=dict(spec.formats),
            options=data.options(),
        )
        daemon, client, trace_path = self._spawn()
        return {
            "A": operands["A"],
            "rng": np.random.default_rng([run.seed, 3000]),
            "spec": protocol.spec_from_request(request),
            "daemon": daemon,
            "client": client,
            "trace_path": trace_path,
            "sent": [],
        }

    def _spawn(self):
        """Start the daemon and wait until it answers ``health``."""
        run = self.run
        home = run.fresh_dir("d")
        socket = os.path.relpath(os.path.join(home, "s"))  # short: AF_UNIX limit
        trace_path = os.path.join(home, "trace.json") if run.traced else None
        cmd = [sys.executable, CHILD, "daemon", "--socket", socket, "--store", self.store]
        if trace_path:
            cmd += ["--trace", trace_path]
        daemon = subprocess.Popen(
            cmd,
            env=run.child_env(self.cache),
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        try:
            line = daemon.stdout.readline()
            if not line.startswith("serving on"):
                raise RuntimeError("daemon did not start: %r" % line)
            client = ServiceClient(socket)
            client.health()
        except BaseException:
            daemon.kill()
            _, err = daemon.communicate(timeout=CHILD_TIMEOUT)
            sys.stderr.write(err[-3000:])
            raise
        return daemon, client, trace_path

    def discard(self, state) -> None:
        self._stop(state)

    @staticmethod
    def _stop(state) -> None:
        daemon, client = state["daemon"], state["client"]
        try:
            client.shutdown()
        except Exception:
            pass  # stopping it anyway
        client.close()
        try:
            daemon.communicate(timeout=30)
        except subprocess.TimeoutExpired:
            daemon.kill()
            daemon.communicate()

    def after_setup(self, state) -> None:
        super().after_setup(state)
        # the client's retry counter (``service.remote.retries``)
        if self.run.traced:
            obs_metrics.enable()

    def op(self, state, i: int) -> Samples:
        run = self.run
        sent = state["sent"]
        if i % 2 and sent:
            kind = "repeat"  # an exact repeat of a recent request
            x = sent[int(state["rng"].integers(len(sent)))]
        else:
            kind = "fresh"
            x = state["rng"].random(state["A"].shape[0]) + 0.1
            sent.append(x)
            del sent[: -self.history]
        try:
            with run.operation():
                start = time.perf_counter()
                with run.span("protocol.encode"):
                    tensors = protocol.encode_tensors({"A": state["A"], "x": x})
                with run.span("serve.rtt"):
                    reply = state["client"].call(
                        "execute", {"spec": state["spec"], "tensors": tensors}
                    )
                with run.span("protocol.decode"):
                    y = protocol.decode_tensor(reply["result"])
                ms = (time.perf_counter() - start) * 1e3
        except Exception as exc:
            run.failure("serve ssymv", exc)
            return []
        if run.tracing:
            size = sum(len(t["data"]) for t in tensors.values())
            run.rec.count("protocol.request_bytes", size, "ssymv")
        run.check("serve ssymv", y, state["A"] @ x)
        return [(kind, ms)]

    def finish(self, state) -> None:
        run = self.run
        try:
            stats = state["client"].stats()
            run.child_peaks_mb.append(vm_hwm_mb(state["daemon"].pid))
        finally:
            self._stop(state)
            super().finish(state)
        if run.traced:
            pool = stats["server"]["plan_pool"]
            lookups = pool["hits"] + pool["misses"]
            run.layer_extra["daemon.plan_pool_hit_ratio"] = (
                pool["hits"] / lookups if lookups else 0.0
            )
            run.layer_extra["service.hit_ratio"] = stats["stats"]["memory"]["hit_rate"]
            retries = obs_metrics.registry().counter("service.remote.retries").value
            run.layer_extra["client.retries"] = float(retries)
            with open(state["trace_path"]) as handle:
                run.rec.merge_daemon(json.load(handle))


def vm_hwm_mb(pid: int) -> float:
    """Peak resident memory of a live process (Linux ``VmHWM``)."""
    with open("/proc/%d/status" % pid) as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM for process %d" % pid)


WORKLOADS: Dict[str, type] = {
    cls.name: cls for cls in (KernelSteady, OneshotDense, ServeMixed)
}
