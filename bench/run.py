"""Run one benchmark workload and print its metrics.

    python3 bench/run.py --workload run-4x --seed 0 --seconds 38 --trace 0

Run from the root of a checkout; the library is imported from `src/`.
With `--trace 0` the run repeats whole cases until the next one would
overrun `--seconds` (at least one), times the set-up in short blocks
between them, and reports the end-to-end metrics: median case wall time,
median set-up time, sweeps per case and the peak resident memory of the
first case.  With `--trace 1` it runs one case untraced and one traced,
checks that both give the same sweeps and bit-identical results, reports
the per-layer metrics, and writes the spans to `bench/out/`.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# Set-up is timed in short blocks spread over the run, one before each
# case and one after the last, so that its median covers the same span
# of time as the cases.
SETUP_BLOCK_SECONDS = 0.5
SETUP_BLOCK_MIN_REPS = 2


def _import_library():
    src = ROOT / "src"
    if not (src / "oswr" / "__init__.py").is_file():
        sys.exit(f"error: no oswr package under {src}; run from the root of a checkout")
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))


def _case(wl, problems):
    """Run one case; an unexpected exception fails the whole case."""
    import workloads

    try:
        return wl.run()
    except Exception:
        problems.append(f"{wl.name}: unexpected error\n{traceback.format_exc()}")
        return workloads.Outcome(wl.cases, wl.cases, 0, [], [])


def _time_setup(wl):
    import workloads

    times = []
    start = time.perf_counter()
    while len(times) < SETUP_BLOCK_MIN_REPS or time.perf_counter() - start < SETUP_BLOCK_SECONDS:
        t0 = time.perf_counter()
        workloads.setup(wl.config_text)
        times.append(time.perf_counter() - t0)
    return times


def _same(a, b):
    return len(a) == len(b) and all(
        x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()
        for x, y in zip(a, b)
    )


def measure(wl, seconds):
    import tracing

    before = tracing.snapshot()
    problems, outcomes, walls, setup_times = [], [], [], []
    start = time.perf_counter()
    while not walls or time.perf_counter() - start + max(walls) + SETUP_BLOCK_SECONDS <= seconds:
        setup_times += _time_setup(wl)
        gc.collect()
        t0 = time.perf_counter()
        out = _case(wl, problems)
        walls.append(time.perf_counter() - t0)
        if not outcomes:
            # Later cases would add whatever the first left to the peak.
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        outcomes.append(out)
        problems.extend(out.problems)
    setup_times += _time_setup(wl)
    changed = tracing.changed_names(before)
    if changed:
        problems.append("names rebound with tracing off: " + ", ".join(changed))
    attempted = sum(o.attempted for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    metrics = {
        "wall_s": (statistics.median(walls), "s"),
        "setup_s": (statistics.median(setup_times), "s"),
        "sweeps": (statistics.median(o.sweeps for o in outcomes), "count"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    print(f"{wl.name}: {len(walls)} case(s), {len(setup_times)} set-up(s)")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<12} {value:.6g} {unit}")
    print(f"  {'fail_rate':<12} {failed / attempted:.6g} ({failed}/{attempted} cases)")
    return problems, attempted, failed, metrics


def measure_traced(wl, seed):
    import tracing

    before = tracing.snapshot()
    problems = []
    gc.collect()
    t0 = time.perf_counter()
    plain = _case(wl, problems)
    plain_wall = time.perf_counter() - t0

    tracer = tracing.Tracer()
    tracer.install()
    try:
        gc.collect()
        t0 = time.perf_counter()
        traced = _case(wl, problems)
        traced_wall = time.perf_counter() - t0
    finally:
        tracer.uninstall()
    problems.extend(plain.problems + traced.problems)
    changed = tracing.changed_names(before)
    if changed:
        problems.append("names not restored after tracing: " + ", ".join(changed))
    if plain.sweeps != traced.sweeps or not _same(plain.fingerprint, traced.fingerprint):
        problems.append(
            f"traced run differs from untraced run (sweeps {traced.sweeps} vs {plain.sweeps})"
        )
    layer = tracer.metrics()
    if layer["driver.sweeps"][0] != traced.sweeps:
        problems.append(f"traced sweeps {layer['driver.sweeps'][0]} != case sweeps {traced.sweeps}")
    metrics = {name: (value, unit) for name, (value, unit, _) in layer.items()}
    metrics["trace.overhead_s"] = (traced_wall - plain_wall, "s")

    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    span_file = out_dir / f"trace-{wl.name}-seed{seed}.json"
    tracer.write(span_file)
    print(f"{wl.name}: untraced {plain_wall:.3f} s, traced {traced_wall:.3f} s, "
          f"{len(tracer.spans)} spans in {span_file.relative_to(ROOT)}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<32} {value:.6g} {unit}")
    attempted = plain.attempted + traced.attempted
    failed = plain.failed + traced.failed
    return problems, attempted, failed, metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=38.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _import_library()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(workloads.WORKLOADS)}")
    # The program runs with its default threading.
    os.environ.pop("OSWR_THREADS", None)
    wl = workloads.WORKLOADS[args.workload](args.seed)
    if args.trace:
        problems, attempted, failed, metrics = measure_traced(wl, args.seed)
    else:
        problems, attempted, failed, metrics = measure(wl, args.seconds)
    for line in problems:
        print(f"CHECK FAILED: {line}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))


if __name__ == "__main__":
    main()
