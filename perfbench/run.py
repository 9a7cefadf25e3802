"""The repository benchmark: one workload, one seed, every metric.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                             [--tiny] [--corrupt]

Run from the repository root.  The metric names, units and workloads are
those of ``BENCHMARK.json``.  With ``--trace 0`` the last line of stdout
is ``{"correct", "attempted", "failed", "metrics"}`` with every
end-to-end metric; with ``--trace 1`` it carries every per-layer metric,
measured by the benchmark's own span recorder (``spans.py``).  The line
before it stamps the run: seed, machine fingerprint, resolved config,
sample counts and every layer the trace saw.

``--tiny`` shrinks every input (the self-test, ``selftest.py``, uses it);
``--corrupt`` damages the first checked output, which must then be
counted as a failure.  Inherited ``REPRO_*`` settings are dropped; all
scratch files live under ``.perfbench_work/`` and are removed at exit.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--corrupt", action="store_true")
    return parser.parse_args(argv)


def load_spec(root: str) -> dict:
    with open(os.path.join(root, "BENCHMARK.json")) as handle:
        return json.load(handle)


#: operations a measured chunk runs at least, whatever the clock says
MIN_OPS = 20


def measure(workload, run, seconds: float, state, start_index: int) -> int:
    """The closed loop: one operation at a time until *seconds* pass.

    An operation is not started when the time left is shorter than the
    slowest one seen so far, unless ``MIN_OPS`` are not yet done.
    """
    deadline = time.monotonic() + seconds
    slowest = 0.0
    i = 0
    while True:
        run.speed.maybe_read()
        left = deadline - time.monotonic()
        if i >= MIN_OPS and left < slowest:
            return i
        t0 = time.monotonic()
        samples = workload.op(state, start_index + i)
        t1 = time.monotonic()
        run.latency[run.tracing].extend((name, ms, t0, t1) for name, ms in samples)
        slowest = max(slowest, t1 - t0)
        i += 1


def execute(workload, run) -> dict:
    """Prelude, setup repetitions, the measured loop(s), the extras."""
    from speed import LONG_TICKS
    from workloads import LOOP_CHUNKS

    run.trace_on()  # a no-op unless traced: the prelude and setup are traced too
    workload.prelude()
    setups, state = [], None
    try:
        for _ in range(workload.setup_reps):
            if state is not None:
                workload.discard(state)
                state = None
            run.speed.read(LONG_TICKS)
            t0 = time.monotonic()
            state = workload.setup()
            t1 = time.monotonic()
            setups.append((t1 - t0, t0, t1))
            run.speed.read(LONG_TICKS)
    except BaseException:
        if state is not None:
            workload.discard(state)
        raise
    try:
        run.trace_off()
        workload.after_setup(state)
        if run.traced:
            # untraced then traced halves: their difference is the overhead
            done = measure(workload, run, run.seconds / 2, state, 0)
            run.trace_on()
            done += measure(workload, run, run.seconds / 2, state, done)
            run.trace_off()
            workload.traced_extras(state)
        else:
            done = 0
            for chunk in range(LOOP_CHUNKS):
                done += measure(workload, run, run.seconds / LOOP_CHUNKS, state, done)
                workload.between(chunk)
    finally:
        workload.finish(state)
    return {"setups": setups, "ops": done}


def latency_classes(run, corrected: bool = False) -> dict:
    """The untraced loop's latency samples by class, as measured or
    corrected for the machine's speed (``speed.py``)."""
    classes: dict = {}
    for name, ms, start, end in run.latency[False]:
        if corrected:
            ms = run.speed.corrected(ms, start, end)
        classes.setdefault(name, []).append(ms)
    return classes


def kernel_ms_geomean(run, corrected: bool) -> float:
    """Geometric mean over the table of the median plan call: of the
    kernel probe, or of kernel_steady's loop, which has none."""
    from harness import geomean

    samples = run.kernel_ms[corrected] or latency_classes(run, corrected)
    return geomean([statistics.median(v) for v in samples.values() if v])


def end_to_end(run, loop: dict, corrected: bool = True) -> dict:
    """The untraced run's metrics; every time is *corrected* for the
    machine's speed unless told otherwise.

    Latency quantiles are taken per class (kernel or request kind) and
    combined by geometric mean, so a mix of fast and slow classes does
    not put a percentile on the gap between two of them.
    """
    from harness import geomean, peak_rss_mb, quantile

    speed = run.speed.corrected if corrected else (lambda seconds, *_: seconds)
    classes = latency_classes(run, corrected)
    busy_s = sum(speed(wall / 1e9, *run.when[op]) for op, wall in run.walls[False].items())
    return {
        "setup_s": statistics.median(speed(*setup) for setup in loop["setups"]),
        "compile_s": statistics.median(run.compile_s[corrected]),
        "coldstart_s": statistics.median(run.coldstart_s[corrected]),
        "kernel_ms_geomean": kernel_ms_geomean(run, corrected),
        "latency_ms_p50": geomean([quantile(v, 0.5) for v in classes.values()]),
        "latency_ms_p90": geomean([quantile(v, 0.9) for v in classes.values()]),
        "throughput_per_s": loop["ops"] / busy_s,
        "peak_rss_mb": peak_rss_mb(run),
    }


def stamp(run, args, loop: dict, layers_seen: dict) -> dict:
    """What makes two runs comparable: machine, config, seed, samples."""
    from repro import tune
    from repro.bench.harness import fingerprint_class, machine_fingerprint
    from repro.codegen.backends.cpasses import active_pass_config
    from data import options

    fp = machine_fingerprint()
    resolved = options()
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
        "fingerprint": fp,
        "fingerprint_class": fingerprint_class(fp),
        "config": {
            "backend": resolved.backend,
            "threads": resolved.threads,
            "passes": active_pass_config().signature(),
            "tuner": "on" if tune.active() is not None else "off",
        },
        "samples": {
            "latency": len(run.latency[False]) + len(run.latency[True]),
            "operations": loop["ops"],
            "setups": len(loop["setups"]),
            "compile_rounds": len(run.compile_s[False]),
            "coldstarts": len(run.coldstart_s[False]),
            "speed_readings": len(run.speed.readings),
            "per_class": {name: len(v) for name, v in latency_classes(run).items()},
        },
        "latency_p50_ms": {
            name: round(statistics.median(v), 4) for name, v in latency_classes(run).items()
        },
        "errors": run.errors[:10],
        "layers": layers_seen,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    sys.dont_write_bytecode = True  # this process writes nothing outside its scratch
    # a terminated run still stops its children and removes its files
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "repro", "__init__.py")):
        print("error: run from the repository root (no src/repro here)", file=sys.stderr)
        return 2
    spec = load_spec(root)
    workloads = {w["name"] for w in spec["workloads"]}
    if args.workload not in workloads:
        print("error: unknown workload %r (have: %s)"
              % (args.workload, ", ".join(sorted(workloads))), file=sys.stderr)
        return 2
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    # the run and every child on one CPU, so the speed meter (speed.py)
    # reads the CPU the work runs on: the CPUs of a shared VM change speed
    # independently of each other
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    # numpy's BLAS on one thread here and in every child: its idle worker
    # threads spin for ~0.1 s after a call
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    sys.path[:0] = [os.path.join(root, "src"), HERE]

    from harness import Run, make_work_dir

    work = make_work_dir(root)
    # the library's own scratch files (C objects, temp files) stay in it
    os.environ["REPRO_C_CACHE"] = os.path.join(work, "cc-main")
    os.environ["TMPDIR"] = work
    tempfile.tempdir = work
    try:
        from repro.frontend.parser import parse_assignment
        from repro.kernels.library import KERNELS

        import workloads as wl

        names = {str(parse_assignment(s.einsum)): n for n, s in KERNELS.items()}
        run = Run(args, work, names)
        workload = wl.WORKLOADS[args.workload](run)
        loop = execute(workload, run)
        if run.traced:
            run.layer_extra.update(run.coverage())
            run.layer_extra["error_rate"] = run.failed / max(1, run.attempted)
            metric_specs = spec["per_layer"]
            values = run.layer_metrics([m["name"] for m in metric_specs])
            seen = {
                layer: round(statistics.median(v), 4)
                for (layer, kernel), v in run.layer_samples().items()
                if kernel is None
            }
            seen = dict(sorted(seen.items()))
        else:
            metric_specs = spec["end_to_end"]
            values = end_to_end(run, loop)
            seen = {}
        stamped = stamp(run, args, loop, seen)
        if not run.traced:
            stamped["as_measured"] = end_to_end(run, loop, corrected=False)
            stamped["speed_ms"] = run.speed.median_ms()
        print(json.dumps({"perfbench": stamped}))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in metric_specs
        },
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
