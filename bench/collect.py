"""Repeat benchmark runs over seeds and summarise their spread.

    python3 bench/collect.py --workloads run-4x,sweep-grid --seeds 0-9 --out summary.json

Runs `bench/run.py` once per (workload, seed), one after another, with the
settings from BENCHMARK.json, and prints for each metric the median, the
quartiles (`statistics.quantiles(values, n=4)`) and the quartile distance
as a share of the median, next to the metric's bound.  `--trace 1`
collects the per-layer metrics instead.  Run from the root of a checkout.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _seeds(text):
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def run_once(bench, workload, seed, trace):
    cmd = bench["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(bench["run_seconds"]), "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarise(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "values": values}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default="")
    parser.add_argument("--seeds", default="0-9")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out")
    args = parser.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    names = [w["name"] for w in bench["workloads"]]
    workloads = args.workloads.split(",") if args.workloads else names
    seeds = _seeds(args.seeds)

    summary = {}
    for wl in workloads:
        runs = []
        for seed in seeds:
            res = run_once(bench, wl, seed, args.trace)
            runs.append(res)
            vals = " ".join(f"{k}={v['value']:.6g}" for k, v in res["metrics"].items())
            print(f"{wl} seed {seed}: correct={res['correct']} "
                  f"failed={res['failed']}/{res['attempted']} {vals}", flush=True)
        units = {k: v["unit"] for k, v in runs[0]["metrics"].items()}
        metrics = {}
        for name, unit in units.items():
            values = [r["metrics"][name]["value"] for r in runs]
            metrics[name] = dict(summarise(values), unit=unit)
            if args.trace == 0:
                bound = bounds.get(name)
                m = metrics[name]
                print(f"  {wl} {name}: median {m['median']:.6g} {unit}, "
                      f"quartiles {m['q1']:.6g}..{m['q3']:.6g}, spread {m['spread']:.4f}"
                      + (f" (bound {bound}, {m['spread'] / bound:.2f} of it)" if bound else ""),
                      flush=True)
        summary[wl] = {
            "seeds": seeds,
            "correct": all(r["correct"] for r in runs),
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "metrics": metrics,
        }
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
    return 0 if all(s["correct"] for s in summary.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
