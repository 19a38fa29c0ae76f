"""fracvel benchmark: seeded CLI journeys, timed end to end, traced per layer.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload grid_scan --seed 1 --seconds 30 --trace 0

One process runs one workload with one client in a closed loop: each
journey is a ``fracvel.cli.main(argv)`` call made in-process, with stdout
captured in memory, and the next starts when it returns.  The loop runs
whole passes over the seeded journey pool until ``--seconds`` have gone,
and a journey's time is the fastest of its runs.  Every report is checked
against closed-form truth (truth.py).

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs every
journey untraced and traced in turn, checks the two outputs are
byte-identical, and prints the per-layer metrics (per pass over the pool)
with the tracing overhead.  The last stdout line is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""
from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import math
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

import journeys
import truth
from journeys import Journey

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# Set-up runs in this many fresh interpreters (plus this process), spread
# over the run; the median is reported, since one import swings with the host.
SETUP_PROBES = 10

# The tail is the highest percentile of the pool's journey times with at
# least this many journeys beyond it.
TAIL_BEYOND = 10


def _check_sources() -> None:
    if not (SRC / "fracvel" / "cli.py").is_file():
        raise SystemExit(f"no fracvel sources under {SRC}: run from a source checkout")


def import_cli():
    _check_sources()
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    cli = importlib.import_module("fracvel.cli")
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"fracvel imported from {cli.__file__}, not from {SRC}")
    return cli


def run_journey(cli, j: Journey) -> Tuple[Optional[int], str, float, str]:
    """One main() call: exit code (None if it raised), stdout, seconds, error text."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            rc = cli.main(list(j.argv))
        except SystemExit as e:
            rc = e.code if isinstance(e.code, int) else 2
        except Exception:
            rc = None
            err.write(traceback.format_exc())
        elapsed = time.perf_counter() - t0
    return rc, out.getvalue(), elapsed, err.getvalue()


class Tally:
    """Outcome counts of the journeys a run attempted."""

    def __init__(self) -> None:
        self.attempted = 0
        self.errors = 0
        self.wrong = 0
        self.unexpected = 0
        self.notes: Dict[str, str] = {}

    def record(self, j: Journey, rc: Optional[int], out: str, err: str) -> None:
        self.attempted += 1
        if rc != 0:
            self.errors += 1
            self.notes.setdefault(j.kind, f"exit {rc}: {err.strip()[-300:]}")
            return
        why = truth.check(j, out)
        if why is None:
            return
        self.wrong += 1
        known = truth.shows_known_issue(j, out)
        if not known:
            self.unexpected += 1
        self.notes.setdefault(j.kind, why + (f" [known: {j.known_issue}]" if known else ""))

    @property
    def failed(self) -> int:
        # wrong answers that show a documented limitation's own symptom
        # count in wrong_fraction and right_fraction, not here
        return self.errors + self.unexpected


def set_up(workload: str, seed: int, tally: Optional[Tally] = None):
    """Import the CLI and run one warm-up journey of each kind; return (cli, seconds)."""
    t0 = time.perf_counter()
    cli = import_cli()
    for j in journeys.warmups(workload, seed):
        rc, out, _, err = run_journey(cli, j)
        if tally is not None:
            tally.record(j, rc, out, err)
    return cli, time.perf_counter() - t0


def _probe_setup(workload: str, seed: int) -> float:
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
         "--workload", workload, "--seed", str(seed)],
        capture_output=True, text=True, timeout=120, check=True)
    return float(proc.stdout.strip().splitlines()[-1])


def tail(times: List[float]) -> Tuple[float, float, int]:
    """(value, percentile, journeys above it) of the latency tail."""
    s = sorted(times)
    beyond = min(len(s) - 1, TAIL_BEYOND)
    i = len(s) - 1 - beyond
    return s[i], 100.0 * (i + 1) / len(s), beyond


def measure(cli, pool: List[Journey], seconds: float, tally: Tally,
            setup_probe: Callable[[], float]) -> Tuple[Dict[str, float], List[float]]:
    """End-to-end metrics but set-up, and the set-up probes' seconds.

    Between passes, at evenly spaced times, a set-up probe runs in a fresh
    interpreter, so the probes meet the host's quiet and slow stretches
    alike rather than sharing the state of the run's first seconds; probe
    time does not count against ``seconds``.
    """
    # Each journey is deterministic, so its runs differ only by what the
    # host does meanwhile; its time is the fastest of its runs.  The shared
    # host slows every process by up to 2x for seconds at a time, which
    # per-journey medians follow and per-journey minima do not.
    best = [math.inf] * len(pool)
    setups: List[float] = []
    passes = 0
    probing = 0.0
    t0 = time.perf_counter()
    while passes == 0 or time.perf_counter() - t0 - probing < seconds:
        for i, j in enumerate(pool):
            rc, out, elapsed, err = run_journey(cli, j)
            best[i] = min(best[i], elapsed)
            tally.record(j, rc, out, err)
        passes += 1
        if len(setups) * seconds <= SETUP_PROBES * (time.perf_counter() - t0 - probing):
            p0 = time.perf_counter()
            setups.append(setup_probe())
            probing += time.perf_counter() - p0
    wall = time.perf_counter() - t0 - probing
    while len(setups) < SETUP_PROBES:
        setups.append(setup_probe())
    tail_value, tail_pct, beyond = tail(best)
    print(f"{passes} passes of {len(pool)} journeys in {wall:.2f} s "
          f"({passes * len(pool) / wall:.3f} journeys/s of wall time)")
    print(f"latency_tail_ms is p{tail_pct:.2f} of the {len(pool)} journeys' "
          f"best times ({beyond} beyond)")
    return {
        "journeys_per_s": len(pool) / sum(best),
        "latency_p50_ms": 1e3 * statistics.median(best),
        "latency_tail_ms": 1e3 * tail_value,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "right_fraction": (tally.attempted - tally.errors - tally.wrong) / tally.attempted,
    }, setups


def measure_traced(cli, pool: List[Journey], seconds: float, tally: Tally):
    """Per-layer metrics per pass; returns (metrics, tracer, passes, mismatched)."""
    from tracing import Tracer  # imports numpy, so not before set-up is timed

    tracer = Tracer()
    plain = traced = 0.0
    mismatched = 0
    passes = 0
    t0 = time.perf_counter()
    while passes == 0 or time.perf_counter() - t0 < seconds:
        for j in pool:
            # alternate which run goes first, so neither always meets cold caches
            outputs = {}
            for with_trace in ((False, True) if passes % 2 == 0 else (True, False)):
                if with_trace:
                    with tracer.installed():
                        rc, out, elapsed, err = run_journey(cli, j)
                    traced += elapsed
                else:
                    rc, out, elapsed, err = run_journey(cli, j)
                    plain += elapsed
                tally.record(j, rc, out, err)
                outputs[with_trace] = (rc, out)
            if outputs[True] != outputs[False]:
                mismatched += 1
                tally.notes.setdefault("trace", f"traced output differs: {' '.join(j.argv)}")
        passes += 1
    metrics = tracer.metrics(passes)
    metrics["trace.overhead_ratio"] = traced / plain
    metrics["error_fraction"] = tally.errors / tally.attempted
    metrics["wrong_fraction"] = tally.wrong / tally.attempted
    return metrics, tracer, passes, mismatched


def declared_units(trace: int) -> Dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them for this mode."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}


def main(argv: Optional[List[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=journeys.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help="time one set-up in this interpreter and print the seconds")
    args = ap.parse_args(argv)

    if args.setup_probe:
        print(repr(set_up(args.workload, args.seed)[1]))
        return 0

    _check_sources()  # fail before any output when there is nothing to run
    units = declared_units(args.trace)
    warm = Tally()
    cli, own_setup = set_up(args.workload, args.seed, warm)

    pool = journeys.pool(args.workload, args.seed)
    print(f"workload {args.workload} seed {args.seed}: {len(pool)} journeys per pass")
    tally = Tally()
    mismatched = 0
    if args.trace:
        metrics, tracer, passes, mismatched = measure_traced(cli, pool, args.seconds, tally)
        print(f"{passes} traced passes; per-layer figures are per pass")
        for row in tracer.table(passes):
            print(row)
    else:
        timed, setups = measure(cli, pool, args.seconds, tally,
                                lambda: _probe_setup(args.workload, args.seed))
        setups.append(own_setup)
        metrics = {"setup_s": statistics.median(setups), **timed}
        print("set-up samples: " + " ".join(f"{s:.3f}" for s in setups))
    if set(metrics) != set(units):
        raise SystemExit(f"metrics {sorted(set(metrics) ^ set(units))} "
                         "do not match BENCHMARK.json")
    print(f"attempted {tally.attempted}, errors {tally.errors}, wrong {tally.wrong} "
          f"({tally.wrong - tally.unexpected} of them known issues)")
    for kind, note in sorted({**warm.notes, **tally.notes}.items()):
        print(f"  {kind}: {note}")
    for name, value in metrics.items():
        print(f"{name:44s} {value:14.6g} {units[name]}")
    failed = min(tally.attempted, tally.failed + mismatched)
    result = {
        "correct": failed == 0 and warm.failed == 0,
        "attempted": tally.attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
