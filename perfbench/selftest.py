"""Self-test of the benchmark harness, one pass per workload.

    python3 perfbench/selftest.py [--seed N]

Checks, and exits 1 if any fails:

- the same seed gives the same argv list and the same output digests, and
  the next seed gives different inputs;
- traced and untraced runs of every journey print byte-identical stdout;
- each named per-layer counter is non-zero on the workload that should use
  it, and stays zero where that layer has no work;
- each workload's dominant layer shows as a count: on grid_scan the unread
  c1 sampling under estimate_velocity is most of the evaluator points, on
  point_probe refine_oscillation leads, on lfd_bridge rl_integral leads;
- the traced metrics are exactly the per-layer ones BENCHMARK.json declares;
- a known-issue journey is excused only for its documented symptom: its
  report, altered to converge past the round-off bound, counts as failed.

The non-zero expectations describe the program as it is measured today.  A
change that removes a layer's work on purpose (lazy c1, batched scans) is
expected to turn one of them off; update the table with that change.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import sys

import journeys
import run

ALL = ("zoo.eval.calls", "zoo.eval.points", "zoo.eval.busy_s",
       "zoo.eval.points.variation_values", "diffops.variation_values.self_s",
       "estimator.estimate_velocity.calls", "estimator.estimate_velocity.self_s",
       "estimator.classify_limit.busy_s", "estimator.schedule.kept_ratio",
       "cli.parse_args.busy_s", "cli.build_function.busy_s",
       "cli.emit_report.busy_s", "cli.emit_report.bytes", "trace.overhead_ratio")

REFINE = ("zoo.eval.points.refine_oscillation", "diffops.refine_oscillation.calls",
          "diffops.refine_oscillation.self_s", "diffops.refine_oscillation.samples",
          "diffops.refine_oscillation.settled_ratio")

QUADRATURE = ("zoo.eval.points.rl_integral", "rlcalc.rl_integral.calls",
              "rlcalc.rl_integral.self_s", "rlcalc.quad_passes", "rlcalc.quad_nodes",
              "rlcalc.kg_lfd.self_s")

SCANNER = ("scanner.scan_change_set.self_s", "scanner.verify.self_s",
           "scanner.velocity_calls_per_point")

# workload -> (counters that must be non-zero, counters that must be zero)
EXPECTED = {
    "grid_scan": (ALL + SCANNER + ("zoo.eval.points.estimate_velocity",),
                  REFINE + QUADRATURE),
    "point_probe": (ALL + REFINE + ("estimator.estimate_holder_exponent.self_s",
                                    "wrong_fraction"),
                    SCANNER + QUADRATURE + ("zoo.eval.points.estimate_velocity",)),
    "lfd_bridge": (ALL + QUADRATURE + ("zoo.eval.points.estimate_velocity",),
                   SCANNER + REFINE),
}

SPLIT = ("estimate_velocity", "variation_values", "refine_oscillation", "rl_integral")


def digests(cli, pool):
    out = []
    for j in pool:
        rc, text, _, _ = run.run_journey(cli, j)
        out.append((rc, hashlib.sha256(text.encode()).hexdigest()))
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=1)
    seed = ap.parse_args().seed
    problems = []

    def expect(ok: bool, what: str) -> None:
        print(("ok   " if ok else "FAIL ") + what)
        if not ok:
            problems.append(what)

    cli = run.import_cli()
    for workload in journeys.WORKLOADS:
        pool = journeys.pool(workload, seed)
        expect(pool == journeys.pool(workload, seed), f"{workload}: seed {seed} repeats its argv")
        expect([j.argv for j in pool] != [j.argv for j in journeys.pool(workload, seed + 1)],
               f"{workload}: seed {seed + 1} draws other inputs")
        for j in journeys.warmups(workload, seed):
            run.run_journey(cli, j)
        expect(digests(cli, pool) == digests(cli, pool), f"{workload}: output digests repeat")

        tally = run.Tally()
        metrics, _, _, mismatched = run.measure_traced(cli, pool, 0.0, tally)
        expect(mismatched == 0, f"{workload}: traced and untraced stdout identical")
        expect(tally.failed == 0, f"{workload}: every report agrees with the truth "
                                  f"or is a known issue ({tally.notes})")
        expect(set(metrics) == set(run.declared_units(1)),
               f"{workload}: traced metrics match BENCHMARK.json per_layer")
        nonzero, zero = EXPECTED[workload]
        for name in nonzero:
            expect(metrics[name] > 0, f"{workload}: {name} = {metrics[name]:.6g} > 0")
        for name in zero:
            expect(metrics[name] == 0, f"{workload}: {name} = {metrics[name]:.6g} == 0")

        split = {k: metrics["zoo.eval.points." + k] for k in SPLIT}
        lead = max(split, key=split.get)
        if workload == "grid_scan":
            share = split["estimate_velocity"] / metrics["zoo.eval.points"]
            expect(share > 0.5, f"grid_scan: c1 sampling is {share:.3f} of evaluator points")
        else:
            want = "refine_oscillation" if workload == "point_probe" else "rl_integral"
            expect(lead == want, f"{workload}: {lead} leads evaluator points ({split})")

    known = next(j for j in journeys.pool("point_probe", seed) if j.known_issue)
    rc, text, _, err = run.run_journey(cli, known)
    report = json.loads(text)
    for side in report["reports"].values():
        side.update(status="converged",
                    value=known.truth["velocity"] + 2.0 * known.truth["roundoff"] + 1.0)
    tally = run.Tally()
    tally.record(known, rc, json.dumps(report), err)
    expect(tally.failed == 1, f"{known.kind}: a converged wrong value is not excused")

    print(f"{len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
