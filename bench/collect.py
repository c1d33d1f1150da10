#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarise each metric.

    python3 bench/collect.py --workload infer-default --seeds 101-110 --seconds 20 \
        [--trace 0] [--out summary.json]

Runs ``bench/run.py`` once per seed, one run at a time, and prints for each
metric the median, the first and third quartiles
(``statistics.quantiles(values, n=4)``) and their distance as a share of the
median, next to the metric's bound from BENCHMARK.json. With ``--out`` the
summary, with every run's values, is written as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seeds(spec):
    out = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        out += range(int(lo), int(hi or lo) + 1)
    return out


def quartiles(values):
    """Median, first and third quartile, and their distance over the median."""
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return med, q1, q3, (q3 - q1) / med if med else 0.0


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    env = next((json.loads(x[5:]) for x in lines if x.startswith("env: ")), None)
    raw = next((json.loads(x[5:]) for x in lines if x.startswith("raw: ")), {})
    return json.loads(lines[-1]), raw, env


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", required=True, help="e.g. 101-110 or 1,5,9")
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out")
    args = p.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}
    runs = []
    env = None
    for seed in seeds(args.seeds):
        res, raw, env = run_once(args.workload, seed, args.seconds, args.trace)
        runs.append({"seed": seed, **res, "raw": raw})
        print(f"seed {seed}: correct={res['correct']} attempted={res['attempted']} "
              f"failed={res['failed']}", file=sys.stderr)

    summary = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        med, q1, q3, spread = quartiles(values)
        summary[name] = {"unit": runs[0]["metrics"][name]["unit"], "median": med,
                         "q1": q1, "q3": q3, "spread": spread, "values": values}
        bound = bounds.get(name)
        flag = ""
        if bound is not None:
            flag = f"bound {bound:.2f}" + ("  OVER bound/3" if spread > bound / 3 else "")
        if name in runs[0]["raw"]:
            raw = summary[name]["raw"] = [r["raw"][name] for r in runs]
            raw_med, _, _, raw_spread = quartiles(raw)
            flag += f"  (unscaled: median {raw_med:.4f}, spread {raw_spread:.2%})"
        print(f"{name:<54} {med:>14.4f} {summary[name]['unit']:<5} "
              f"spread {spread:7.2%}  {flag}")
    failed = sum(r["failed"] for r in runs)
    print(f"runs {len(runs)}, all correct: {all(r['correct'] for r in runs)}, "
          f"failed operations: {failed}")
    if args.out:
        out = Path(args.out)
        merged = json.loads(out.read_text()) if out.is_file() else {}
        merged.setdefault(args.workload, {})[f"trace{args.trace}"] = {
            "env": env, "seconds": args.seconds, "seeds": [r["seed"] for r in runs],
            "correct": all(r["correct"] for r in runs),
            "attempted": sum(r["attempted"] for r in runs), "failed": failed,
            "summary": summary}
        out.write_text(json.dumps(merged, indent=1) + "\n")


if __name__ == "__main__":
    main()
