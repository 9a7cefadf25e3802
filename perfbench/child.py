"""Child processes of the benchmark: cold compile, cold start, daemon.

Each runs in a fresh interpreter, so the per-process memos of the
toolchain (``ctoolchain.build_dir()``, ``probe()``) start empty.  The
parent passes ``--spawn``, its ``time.monotonic()`` just before it
started the child; CLOCK_MONOTONIC is system-wide on Linux, so the child
can charge interpreter start-up and ``import repro`` to a span.

Results go to stdout as one JSON object per line.

    python3 perfbench/child.py compile --store DIR --kernels a,b [--naive]
    python3 perfbench/child.py coldstart --store DIR --input FILE.npz
    python3 perfbench/child.py daemon --socket PATH --store DIR
    python3 perfbench/child.py verify --store DIR --seed N --outputs DIR [--tiny]
    python3 perfbench/child.py probe --store DIR --seed N [--tiny]  (steps on stdin)

``verify`` and ``probe`` build the kernel_steady inputs and their
references here, so the memory they take is not charged to the process
that runs a workload.
"""

import time

_START = time.monotonic()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import data  # noqa: E402
from spans import Recorder, instrument  # noqa: E402
from speed import SpeedMeter  # noqa: E402


def _emit(doc: dict) -> None:
    sys.stdout.write(json.dumps(doc) + "\n")
    sys.stdout.flush()


def _start(args):
    """Import the library and, when traced, install the span recorder.

    Returns ``(imported, recorder or None)``; spawn-to-imported is
    charged to ``coldstart.import``.
    """
    import repro  # noqa: F401

    imported = time.monotonic()
    rec = None
    if args.trace:
        rec = _recorder()
        rec.record("coldstart.import", int((imported - args.spawn) * 1e9))
    return imported, rec


def _recorder():
    from repro.frontend.parser import parse_assignment
    from repro.kernels.library import KERNELS

    names = {str(parse_assignment(s.einsum)): n for n, s in KERNELS.items()}
    rec = Recorder(names)
    instrument(rec)
    return rec


def cmd_compile(args) -> None:
    """Compile kernels cold into a fresh store (one process = one round)."""
    imported, rec = _start(args)
    from repro import KernelService

    service = KernelService(store=args.store)
    per_kernel = {}
    for naive in (False, True) if args.naive else (False,):
        for name in args.kernels.split(","):
            if rec is not None:
                rec.kernel = name + ("@naive" if naive else "")
            start = time.perf_counter()
            kernel = data.get_kernel(service, name, naive)
            per_kernel[name + ("@naive" if naive else "")] = (
                time.perf_counter() - start
            ) * 1e3
            if kernel.backend != "c":
                raise SystemExit("%s compiled to %s, not c" % (name, kernel.backend))
    _emit({
        "import_s": imported - args.spawn,
        "imported": imported,
        "compile_s": time.monotonic() - imported,
        "kernel_ms": per_kernel,
        "compiles": service.stats().compiles,
        "trace": rec.to_json() if rec is not None else None,
    })


def cmd_coldstart(args) -> None:
    """Import, fetch ssymv from a warm store, run one call, report."""
    imported, rec = _start(args)
    import numpy as np
    from repro import COO, KernelService, Tensor

    saved = np.load(args.input)
    n = int(saved["n"])
    A = Tensor(
        COO(saved["coords"], saved["vals"], (n, n), sum_duplicates=False),
        symmetric_modes=((0, 1),),
        canonical=True,
    )
    x = saved["x"]
    service = KernelService(store=args.store)
    kernel = data.get_kernel(service, "ssymv")
    got = time.monotonic()
    if rec is not None:
        with rec.span("coldstart.first_call", "ssymv"):
            y = kernel(A=A, x=x)
    else:
        y = kernel(A=A, x=x)
    done = time.monotonic()
    _emit({
        "import_s": imported - args.spawn,
        "get_s": got - imported,
        "first_call_s": done - got,
        "coldstart_s": done - args.spawn,
        "compiles": service.stats().compiles,
        "y": y.tolist(),
        "trace": rec.to_json() if rec is not None else None,
    })
    # after the cold start is reported: the same call through a plan
    plan = kernel.execution_plan(A=A, x=x)
    _emit({"y": kernel.finalize(plan()).tolist()})


def cmd_verify(args) -> None:
    """Check raw plan outputs (``<kernel>.npy`` files in ``--outputs``)
    of the kernel_steady inputs: finalized, against the references."""
    import numpy as np
    from repro import KernelService

    names = sorted(f[: -len(".npy")] for f in os.listdir(args.outputs))
    cases = data.kernel_cases(names, data.KERNEL_STEADY_SIZES[args.tiny], args.seed)
    service = KernelService(store=args.store)
    ok = {}
    for name in names:
        raw = np.load(os.path.join(args.outputs, name + ".npy"))
        got = data.get_kernel(service, name).finalize(raw)
        ok[name] = data.matches(got, cases[name].reference())
    _emit({"ok": ok})


def cmd_probe(args) -> None:
    """Plan calls of each kernel of the table on the kernel_steady inputs,
    in steps read from stdin.

    Prints ``{"ready"}`` once the plans are bound.  A line holding a
    number R runs R rounds (each kernel once, round robin) and prints
    their times; ``check`` prints whether each kernel's output matches
    its reference and ends the process.
    """
    from repro import KernelService

    names = data.TABLE[args.tiny]
    cases = data.kernel_cases(names, data.KERNEL_STEADY_SIZES[args.tiny], args.seed)
    service = KernelService(store=args.store)
    kernels = {name: data.get_kernel(service, name) for name in names}
    plans = {name: k.execution_plan(**cases[name].tensors) for name, k in kernels.items()}
    _emit({"ready": True})
    for line in sys.stdin:
        if line.strip() == "check":
            _emit({"ok": {
                name: data.matches(kernels[name].finalize(plans[name]()),
                                   cases[name].reference())
                for name in names
            }})
            return
        meter = SpeedMeter()
        timed = {name: [] for name in names}  # (ms, start, end)
        for _ in range(int(line)):
            meter.maybe_read()
            for name, plan in plans.items():
                start = time.monotonic()
                plan()
                end = time.monotonic()
                timed[name].append(((end - start) * 1e3, start, end))
        meter.read()
        _emit({
            "kernel_ms": {name: [ms for ms, _, _ in v] for name, v in timed.items()},
            "kernel_ms_corrected": {
                name: [meter.corrected(*sample) for sample in v] for name, v in timed.items()
            },
        })


def cmd_daemon(args) -> None:
    """``repro serve`` with the span recorder installed when traced."""
    from repro.cli import main
    import repro.serve.protocol as protocol

    rec = None
    if args.trace:
        import repro.serve.daemon as daemon
        from spans import wrap

        rec = _recorder()
        decode_body = protocol.decode_body

        def next_request(body):
            # every frame the daemon parses starts a new operation
            rec.op = (rec.op or 0) + 1
            return decode_body(body)

        protocol.decode_body = next_request
        # the daemon's own steps: request digest and the worker's body
        daemon._execute_digest = wrap(rec, daemon._execute_digest, "daemon.digest")
        server = daemon.KernelServer
        server._execute = wrap(rec, server._execute, "daemon.execute")
    try:
        code = main(["serve", "--socket", args.socket, "--dir", args.store])
    finally:
        if rec is not None:
            with open(args.trace, "w") as handle:
                json.dump(rec.to_json(), handle)
    raise SystemExit(code)


def main() -> None:
    parser = argparse.ArgumentParser()
    sub = parser.add_subparsers(dest="cmd", required=True)
    commands = {
        "compile": cmd_compile, "coldstart": cmd_coldstart, "daemon": cmd_daemon,
        "verify": cmd_verify, "probe": cmd_probe,
    }
    for name in commands:
        p = sub.add_parser(name)
        p.add_argument("--store", required=True)
        p.add_argument("--spawn", type=float, default=_START)
    for name in ("verify", "probe"):
        sub.choices[name].add_argument("--seed", type=int, required=True)
        sub.choices[name].add_argument("--tiny", action="store_true")
    sub.choices["verify"].add_argument("--outputs", required=True)
    sub.choices["compile"].add_argument("--kernels", required=True)
    sub.choices["compile"].add_argument("--naive", action="store_true")
    sub.choices["compile"].add_argument("--trace", action="store_true")
    sub.choices["coldstart"].add_argument("--input", required=True)
    sub.choices["coldstart"].add_argument("--trace", action="store_true")
    sub.choices["daemon"].add_argument("--socket", required=True)
    sub.choices["daemon"].add_argument("--trace", default=None)
    args = parser.parse_args()
    commands[args.cmd](args)


if __name__ == "__main__":
    main()
