"""Run the benchmark over several seeds and report the spread of each metric.

    python3 perfbench/repeat.py --workloads grid_scan point_probe --seeds 1-10

For every end-to-end metric of BENCHMARK.json (per-layer with --trace 1)
this prints the unit, the median, the quartiles
(``statistics.quantiles(values, n=4)``) and the interquartile range as a
share of the median, next to the metric's bound.  Runs go one at a time,
each in its own process, from the checkout root.  ``--json`` writes the
same summary, with every run's values and the settings the runs used, to a
file.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _seeds(text: str):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarize(values, bound=None):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    out = {"n": len(values), "median": statistics.median(values), "q1": q1, "q3": q3,
           "spread": (q3 - q1) / q2 if q2 else 0.0}
    if bound is not None:
        out["bound"] = bound
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", nargs="+")
    ap.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--json", help="write the summary here")
    args = ap.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    declared = bench["per_layer" if args.trace else "end_to_end"]
    bounds = {m["name"]: m.get("bound") for m in declared}
    units = {m["name"]: m["unit"] for m in declared}
    summary = {}
    settings = {"command": bench["command"], "run_seconds": bench["run_seconds"],
                "seeds": args.seeds, "trace": args.trace}
    for workload in args.workloads or names:
        runs = []
        for seed in _seeds(args.seeds):
            cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                                      "--seconds", str(bench["run_seconds"]),
                                      "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                  timeout=900, check=True)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            values = {k: v["value"] for k, v in result["metrics"].items()}
            runs.append({"seed": seed, "correct": result["correct"],
                         "attempted": result["attempted"], "failed": result["failed"],
                         "metrics": values})
            print(f"{workload} seed {seed}: correct={result['correct']} " + " ".join(
                f"{k}={v:.6g}" for k, v in values.items()), flush=True)
        metrics = {name: summarize([r["metrics"][name] for r in runs], bounds.get(name))
                   for name in runs[0]["metrics"]}
        summary[workload] = {"runs": runs, "metrics": metrics}
        for name, s in metrics.items():
            flag = ""
            if s.get("bound") is not None:
                flag = "ok" if s["spread"] <= s["bound"] / 3 else (
                    "within bound" if s["spread"] <= s["bound"] else "TOO WIDE")
            print(f"  {name:40s} {units[name]:10s} median {s['median']:12.6g}  q1 {s['q1']:12.6g}  "
                  f"q3 {s['q3']:12.6g}  spread {s['spread']:.3f}"
                  + (f"  bound {s['bound']}  {flag}" if s.get("bound") is not None else ""))
    if args.json:
        Path(args.json).write_text(json.dumps({**settings, "workloads": summary},
                                              indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
