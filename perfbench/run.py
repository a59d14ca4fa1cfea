"""Benchmark of the mimofusion package, run from the repository root:

    python3 perfbench/run.py --workload design_grid --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10

One workload per process.  The run sets up the workload (import plus inputs),
repeats whole passes of it for --seconds and until every input set of the
workload has been timed, checks every output outside the timed region, and
prints a readable report.  Its last line is one JSON object
with the keys correct, attempted, failed and metrics: the end-to-end metrics
of BENCHMARK.json with --trace 0, its per-layer metrics with --trace 1.
`--workload all` runs every workload in a fresh process of its own.

Outputs go to perfbench/out/<workload>-seed<seed>-trace<trace>/: the CSVs and
manifests under data/, the run record (run.json) and, with --trace 1, the
spans (trace.json) beside it.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOAD_NAMES = ("desk_recipes", "large_array", "design_grid")
# set-up is timed this many times per run (this process plus fresh ones)
SETUP_SAMPLES = 11
CHILD_TIMEOUT_S = 170


class BenchError(RuntimeError):
    pass


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for the smoke test")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--out-dir", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("need --seed >= 0 and --seconds > 0")
    return args


def _setup(args, out_dir):
    """Import the package and build the workload's inputs; return both and the time."""
    sys.path.insert(0, SRC)
    t0 = time.perf_counter()
    import workloads  # imports mimofusion, and with it numpy

    workload = workloads.WORKLOADS[args.workload](args.seed, out_dir, args.smoke)
    workload.setup()
    elapsed = time.perf_counter() - t0
    import mimofusion

    if os.path.dirname(os.path.abspath(mimofusion.__file__)) != os.path.join(SRC, "mimofusion"):
        raise BenchError(f"imported mimofusion from {mimofusion.__file__}, not from the checkout")
    return workload, elapsed


def _setup_samples(args, out_dir, first):
    """Set-up times: this process's, then fresh processes' that import anew."""
    samples = [first]
    for k in range(1, SETUP_SAMPLES):
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
               "--seed", str(args.seed), "--setup-only",
               "--out-dir", os.path.join(out_dir, f"setup{k}")]
        cmd += ["--smoke"] if args.smoke else []
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S, cwd=ROOT)
        if proc.returncode != 0:
            raise BenchError(f"set-up process failed: {proc.stderr.strip()}")
        samples.append(float(proc.stdout.split()[-1]))
    return samples


def _measure(workload, seconds):
    """Run whole passes until `seconds` have gone by and every input set of
    the workload's pool has been timed at least once.

    The first pass warms up (lazy imports, first allocations) and is left out
    of the timings; its outputs are still checked.
    """
    results = []
    start = time.perf_counter()
    while len(results) <= workload.pool or time.perf_counter() - start < seconds:
        results.append(workload.run_pass(len(results)))
    return results[1:]


def _quantile(values, q):
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _end_to_end(passes, setup_samples, peak_rss_mb):
    import workloads

    ops_per_s, latencies = workloads.summarize(passes)
    latencies_ms = [1e3 * t for t in latencies]
    return {
        "setup_s": statistics.median(setup_samples),
        "ops_per_s": ops_per_s,
        "latency_p50_ms": _quantile(latencies_ms, 50),
        "latency_p95_ms": _quantile(latencies_ms, 95),
        "peak_rss_mb": peak_rss_mb,
    }


def _traced(workload, seconds, out_dir):
    """Untraced passes for half the time, then as many traced passes.

    Returns the untraced passes, which alone give the end-to-end figures, and
    the per-layer metrics of the traced ones."""
    import tracing

    plain = _measure(workload, seconds / 2)
    tracer = tracing.Tracer()
    restore = tracing.install(tracer)
    samples = []
    traced = []
    try:
        for p in plain:  # the same input sets as the untraced passes
            tracer.reset()
            result = workload.run_pass(p.index)
            traced.append(result)
            sample = tracing.layer_metrics(tracer)
            sample["cli.bytes_written"] = result.bytes_written
            samples.append(sample)
    finally:
        restore()
    tracer.write_spans(os.path.join(out_dir, "trace.json"))
    metrics = {name: statistics.median(s[name] for s in samples) for name in samples[0]}
    metrics["trace.overhead_frac"] = (
        statistics.median(p.seconds for p in traced) / statistics.median(p.seconds for p in plain)
        - 1.0
    )
    return plain, metrics


def _git_commit():
    head = os.path.join(ROOT, ".git", "HEAD")
    if not os.path.isfile(head):
        return None
    with open(head) as fh:
        ref = fh.read().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = os.path.join(ROOT, ".git", ref)
    if os.path.isfile(loose):
        with open(loose) as fh:
            return fh.read().strip()
    packed = os.path.join(ROOT, ".git", "packed-refs")
    if os.path.isfile(packed):
        with open(packed) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    return None


def _run_record(args, passes, report_lines):
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_commit": _git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "blas_threads_env": {
            k: os.environ.get(k)
            for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
        "nproc": len(os.sched_getaffinity(0)),
        "finished_unix": time.time(),
        "passes": [{"index": p.index, "seconds": p.seconds, "work": p.work,
                    "latencies": p.latencies} for p in passes],
        "report": report_lines,
    }


def _contract():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {m["name"]: m for m in spec["end_to_end"]}, {m["name"]: m for m in spec["per_layer"]}


def _report(args, workload, passes, e2e, checks):
    """The readable report, under the names each workload's metrics go by."""
    harness = workload.name != "design_grid"
    rate, unit, lat = (
        ("trials_per_s", "row-trials/s", "run") if harness
        else ("design_points_per_s", "points/s", "design")
    )
    n_lat = len(passes[0].latencies)
    lines = [
        f"workload {workload.name}  seed {args.seed}  passes {len(passes)}  "
        f"measured {sum(p.seconds for p in passes):.2f} s  trace {args.trace}",
        f"setup_s {e2e['setup_s']:.6g} s (lower; median of {SETUP_SAMPLES})",
        f"{rate} {e2e['ops_per_s']:.6g} {unit} (higher; from typical latencies)",
        f"{lat}_p50_ms {e2e['latency_p50_ms']:.6g} ms (lower; {n_lat} samples)",
        f"{lat}_p95_ms {e2e['latency_p95_ms']:.6g} ms (lower; {n_lat} samples)",
        f"peak_rss_mb {e2e['peak_rss_mb']:.6g} MiB (lower)",
        f"fail_share {checks.failed / max(checks.attempted, 1):.6g} failed/attempted (lower)  "
        f"ops_total {checks.attempted}  ops_failed {checks.failed}",
    ]
    for name, (examined, failed) in checks.checks.items():
        lines.append(f"check {name}: {failed} failed of {examined}")
    lines.append(f"check reproducible: {checks.reproducible}")
    return lines


def run_one(args) -> int:
    if not os.path.isfile(os.path.join(SRC, "mimofusion", "__init__.py")):
        raise BenchError(f"no package source at {os.path.relpath(SRC)}; run from a checkout")
    out_dir = args.out_dir or os.path.join(
        HERE, "out", f"{args.workload}-seed{args.seed}-trace{args.trace}"
    )
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir)
    workload, setup_s = _setup(args, out_dir)
    if args.setup_only:
        print(repr(setup_s))
        return 0
    e2e_spec, layer_spec = _contract()

    if args.trace:
        passes, layers = _traced(workload, args.seconds, out_dir)
    else:
        passes = _measure(workload, args.seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    checks = workload.check()
    e2e = _end_to_end(passes, _setup_samples(args, out_dir, setup_s), peak_rss_mb)

    lines = _report(args, workload, passes, e2e, checks)
    values, spec = (layers, layer_spec) if args.trace else (e2e, e2e_spec)
    if set(values) != set(spec):
        raise BenchError(f"metrics {sorted(set(values) ^ set(spec))} disagree with BENCHMARK.json")
    if args.trace:
        lines += [f"{name} {values[name]:.6g} {spec[name]['unit']}" for name in spec]
    for line in lines:
        print(line)

    record = _run_record(args, passes, lines)
    with open(os.path.join(out_dir, "run.json"), "w") as fh:
        json.dump(record, fh, indent=2)
    result = {
        "correct": checks.reproducible,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {name: {"value": values[name], "unit": spec[name]["unit"]} for name in spec},
    }
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Every workload, each in a fresh process; stops at the first failure."""
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
        code = subprocess.run(cmd, cwd=ROOT, timeout=CHILD_TIMEOUT_S).returncode
        if code != 0:
            return code
    return 0


def main(argv=None) -> int:
    args = _parse_args(argv)
    try:
        return run_all(args) if args.workload == "all" else run_one(args)
    except (BenchError, FileNotFoundError, subprocess.SubprocessError) as exc:
        print(f"perfbench: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
