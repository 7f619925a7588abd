"""projsum benchmark: one command, every metric by name with its unit.

    python3 bench/run.py --workload sweep-n4k1 --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``.  With ``--trace 0`` the run reports the end-to-end metrics:
set-up time from fresh processes, then untraced passes over the workload
for ``--seconds``.  With ``--trace 1`` it alternates untraced and traced
passes and reports the per-layer metrics.  Every output is checked; the
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  A run record and the spans are
written under ``.bench_out/``.  The exit code is 0 when every check passed,
1 when one failed, 2 when the sources are missing.

``--write-reference`` regenerates ``reference.json`` from the current code.
"""
from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
REFERENCE = BENCH / "reference.json"
# the keys of workloads.WORKLOADS, which cannot be imported before the BLAS
# thread variables are set
WORKLOAD_NAMES = ("sweep-n4k1", "sweep-n4k5", "ladder-certify")
SETUP_PROBES = 7
PROBE_TIMEOUT_S = 120
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true", help=argparse.SUPPRESS)
    # internal: one fresh-process set-up, timed by the parent run
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not args.write_reference and args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    return args


def blas_threads() -> int:
    """Thread budget: the CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without CPU affinity
        return os.cpu_count() or 1


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


# -- modes ---------------------------------------------------------------------


def setup_probe(workload, seed):
    workdir = OUT / f"probe-{workload.name}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload.warm_up(workload.make_inputs(seed, workdir), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


def probe_setup_times(args):
    """Set-up seconds of fresh processes that import, build inputs and warm up.

    The probes are scaled to the calibrated host speed, like the timed
    calls, by the median of interpreter calibrations run between them.
    """
    from workloads import INTERPRETER

    command = [sys.executable, str(Path(__file__).resolve()), "--setup-probe"]
    command += ["--workload", args.workload, "--seed", str(args.seed)]
    times, calibrations = [], [INTERPRETER.seconds()]
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        done = subprocess.run(
            command,
            cwd=ROOT,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            text=True,
            timeout=PROBE_TIMEOUT_S,
        )
        times.append(time.perf_counter() - start)
        if done.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{done.stderr}")
        calibrations.append(INTERPRETER.seconds())
    scale = INTERPRETER.usual_s / statistics.median(calibrations)
    return [t * scale for t in times]


def write_reference():
    from workloads import REFERENCE_SEED, WORKLOADS, Verdicts, run_pass

    data = {"seed": REFERENCE_SEED, "workloads": {}}
    for workload in WORKLOADS.values():
        workdir = OUT / f"reference-{workload.name}-{os.getpid()}"
        workdir.mkdir(parents=True, exist_ok=True)
        try:
            inputs = workload.make_inputs(REFERENCE_SEED, workdir, reference=True)
            calls = run_pass(workload, inputs, workdir).calls
            verdicts = Verdicts(workload, inputs)
            verdicts.record(calls)
            if verdicts.failed:
                print("\n".join(verdicts.messages), file=sys.stderr)
                return 1
            data["workloads"][workload.name] = {
                c.label: workload.scalars(i, c.output) for i, c in zip(inputs, calls)
            }
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    REFERENCE.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    print(f"wrote {REFERENCE}")
    return 0


def timed_passes(args, workload, inputs, workdir, tracer):
    """Passes until --seconds have elapsed; with tracing, every second one is traced.

    Returns the passes, the counters of each traced pass and the process's
    peak resident set after the first pass.  Later passes only add the
    outputs kept for checking, and heap growth that varies from run to run.
    """
    from collections import Counter

    from workloads import run_pass

    passes, counters, peak_rss_mb = [], [], None
    deadline = time.perf_counter() + args.seconds
    while len(passes) < 1 + args.trace or time.perf_counter() < deadline:
        gc.collect()
        if args.trace and len(passes) % 2 == 1:
            tracer.counters = Counter()
            with tracer.installed():
                passes.append(run_pass(workload, inputs, workdir, tracer, len(passes)))
            counters.append(dict(tracer.counters))
        else:
            passes.append(run_pass(workload, inputs, workdir))
        if peak_rss_mb is None:
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return passes, counters, peak_rss_mb


def end_to_end_samples(passes, setup_times, peak_rss_mb):
    """(unit, samples) per end-to-end metric, from the untraced passes."""
    items = sum(c.items for c in passes[0].calls)
    walls = [p.scaled_seconds for p in passes]
    # the top-level call with the largest median, and its time in each pass
    per_call = [[c.scaled_seconds for c in calls] for calls in zip(*(p.calls for p in passes))]
    slowest = max(per_call, key=statistics.median)
    return {
        "setup_s": ("s", setup_times),
        "wall_s": ("s", walls),
        "trials_per_s": ("1/s", [items / w for w in walls]),
        "cert_max_s": ("s", slowest),
        "peak_rss_mb": ("MB", [peak_rss_mb]),
    }


def per_layer_samples(passes, counters, tracer, peak_traced_mb):
    """(unit, samples) per per-layer metric, from the traced passes."""
    from tracer import COUNTERS, SPAN_NAMES

    traced = [i for i, p in enumerate(passes) if p.traced]
    layers = [tracer.layer_times(f"{i}/") for i in traced]
    samples = {}
    for name in SPAN_NAMES:
        samples[f"{name}_calls"] = ("count", [layers[0][name][0]])
        samples[f"{name}_total_ms"] = ("ms", [1e3 * t[name][1] for t in layers])
        samples[f"{name}_self_ms"] = ("ms", [1e3 * t[name][2] for t in layers])
    for name, unit in COUNTERS:
        samples[name] = (unit, [counters[0].get(name, 0)])
    samples["linalg.peak_traced_mb"] = ("MB", [peak_traced_mb])
    traced_walls = [passes[i].seconds for i in traced]
    untraced_walls = [p.seconds for p in passes if not p.traced]
    samples["trace.wall_s"] = ("s", traced_walls)
    overhead = statistics.median(traced_walls) - statistics.median(untraced_walls)
    samples["trace.overhead_s"] = ("s", [overhead])
    return samples


def measure(args, workload, threads):
    import tracemalloc

    import numpy as np

    from tracer import Tracer
    from workloads import INTERPRETER, LAPACK, REFERENCE_SEED, Verdicts, run_pass, sha256

    for calibration in (INTERPRETER, LAPACK):
        calibration.seconds()  # the first large eigensolve starts LAPACK's threads
    setup_times = [] if args.trace else probe_setup_times(args)
    workdir = OUT / f"work-{workload.name}-{os.getpid()}"
    (workdir / "reference").mkdir(parents=True, exist_ok=True)
    tracer = Tracer()
    try:
        inputs = workload.make_inputs(args.seed, workdir)
        inputs_sha256 = sha256(workload.input_bytes(i) for i in inputs)
        workload.warm_up(inputs, workdir)
        passes, counters, peak_rss_mb = timed_passes(args, workload, inputs, workdir, tracer)
        checked = list(passes)
        if args.trace:
            gc.collect()
            tracemalloc.start()
            try:
                checked.append(run_pass(workload, inputs, workdir))
                peak_traced_mb = tracemalloc.get_traced_memory()[1] / 2**20
            finally:
                tracemalloc.stop()

        verdicts = Verdicts(workload, inputs)
        for p in checked:
            verdicts.record(p.calls)
        ref_inputs = workload.make_inputs(REFERENCE_SEED, workdir / "reference", reference=True)
        ref_calls = run_pass(workload, ref_inputs, workdir / "reference").calls
        reference = {}
        if REFERENCE.is_file():
            reference = json.loads(REFERENCE.read_text())["workloads"].get(workload.name, {})
        ref_verdicts = Verdicts(workload, ref_inputs)
        ref_verdicts.record(ref_calls, reference=reference)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = verdicts.attempted + ref_verdicts.attempted
    failed = verdicts.failed + ref_verdicts.failed
    messages = verdicts.messages + ref_verdicts.messages
    untraced = [p for p in passes if not p.traced]
    OUT.mkdir(exist_ok=True)
    if args.trace:
        samples = per_layer_samples(passes, counters, tracer, peak_traced_mb)
        trace_path = OUT / f"{workload.name}-seed{args.seed}.trace.json"
        fields = ["name", "start", "end", "parent", "item"]
        trace_path.write_text(
            json.dumps({"fields": fields, "spans": tracer.spans, "counters": counters})
        )
    else:
        samples = end_to_end_samples(untraced, setup_times, peak_rss_mb)
    metrics = {
        name: {"value": statistics.median(values), "unit": unit}
        for name, (unit, values) in samples.items()
    }

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    record = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_commit": git_commit(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"), "threads": threads},
        "nproc": os.cpu_count(),
        "cpus_usable": blas_threads(),
        "passes": len(passes),
        "unscaled_wall_s": statistics.median(p.seconds for p in untraced),
        "host_speed": statistics.median(c.scale for p in untraced for c in p.calls),
        "attempted": attempted,
        "failed": failed,
        "fail_ratio": failed / attempted,
        "failures": messages[:50],
        "inputs_sha256": inputs_sha256,
        "outputs_sha256": sha256(workload.digest(c.output) for c in passes[0].calls if c.output),
        "metrics": {
            name: {"value": metrics[name]["value"], "unit": unit, "samples": len(values)}
            for name, (unit, values) in samples.items()
        },
    }
    record_path = OUT / f"{workload.name}-seed{args.seed}-trace{args.trace}.record.json"
    record_path.write_text(json.dumps(record, indent=1) + "\n")

    for name, entry in record["metrics"].items():
        print(f"{name:44s} {entry['value']:14.6g} {entry['unit']:6s} (median of {entry['samples']})")
    print(f"unscaled wall_s {record['unscaled_wall_s']:.6g} s, host speed {record['host_speed']:.4g}")
    print(f"fail_ratio {failed}/{attempted} = {failed / attempted:.6g}")
    for message in messages[:10]:
        print(f"FAILED {message}")
    print(f"run record: {record_path.relative_to(ROOT)}")
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0 if failed == 0 else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "projsum" / "__init__.py").is_file():
        print(f"error: projsum sources not found under {SRC}", file=sys.stderr)
        return 2
    # BLAS reads its thread count when numpy is first imported
    threads = blas_threads()
    for var in THREAD_VARS:
        os.environ[var] = str(threads)
    sys.path[:0] = [str(SRC), str(BENCH)]
    import projsum

    if Path(projsum.__file__).resolve().parent != SRC / "projsum":
        print(f"error: imported projsum from {projsum.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.write_reference:
        return write_reference()
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    if args.setup_probe:
        return setup_probe(workload, args.seed)
    return measure(args, workload, threads)


if __name__ == "__main__":
    sys.exit(main())
