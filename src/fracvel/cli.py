"""Command line front end.

Subcommands::

    zoo list   print the built-in test functions as JSON lines
    analyze    fractional velocity report at a point
    holder     oscillation-regression exponent estimate at a point
    scan       change-set scan over an interval
    lfd        local fractional derivative against the scaled velocity
    verify     interval theorem checks (rolle, mean_value, weak_darboux)

Functions are given as ``kind:key=val,...`` with kinds cusp, chirp,
weierstrass, poly (coefficients semicolon-separated), or ``file:path``
for sampled data in CSV form: a header row, then at least 16 rows of
strictly increasing abscissa,value pairs.  Output is deterministic:
the same invocation yields byte-identical bytes.

Exit status: 0 on success, 1 when the analysis itself fails (domain or
precondition violations, malformed data files), 2 on usage errors.
"""
from __future__ import annotations

import argparse
import csv
import enum
import functools
import io
import json
import math
import sys
from dataclasses import dataclass, fields
from typing import Optional, Sequence, Tuple

import numpy as np

from . import __version__
from .diffops import Direction
from .errors import (
    DomainError,
    LocallyConstantError,
    PreconditionError,
    QuadratureError,
    ScheduleUnderflowError,
)
from .estimator import (
    EpsilonSchedule,
    VelocityReport,
    estimate_holder_exponent,
    estimate_velocity,
)
from .rlcalc import QuadScheme, QuadratureConfig, check_lfd_equivalence
from .scanner import (
    Theorem,
    scan_change_set,
    verify_mean_value,
    verify_rolle,
    verify_weak_darboux,
)
from .zoo import default_zoo, make_chirp, make_polynomial, make_power_cusp, make_weierstrass

__all__ = [
    "UsageError",
    "DataError",
    "RunConfig",
    "SampledFunction",
    "load_samples",
    "build_function",
    "parse_args",
    "emit_report",
    "main",
]

MIN_SAMPLE_ROWS = 16

# Probe increments for sampled data are floored at this many minimum gaps;
# below that the interpolant is linear and every estimate is an artifact.
SAMPLE_FLOOR_GAPS = 4.0

# Largest --count and --approach-count.  A schedule allocates all its
# steps before the round-off floor cuts it, and a scan compares every
# grid point with every step as one (--n x --count) array, so this cap
# and MAX_GRID_N together bound a run's memory.
MAX_COUNT = 1024

# Largest --n for scan and verify.
MAX_GRID_N = 65536


class UsageError(ValueError):
    """Bad command line input; maps to exit status 2."""


class DataError(ValueError):
    """Malformed sample file; maps to exit status 1."""


_ANALYSIS_ERRORS = (
    DomainError,
    PreconditionError,
    ScheduleUnderflowError,
    QuadratureError,
    LocallyConstantError,
    DataError,
    OSError,
    ValueError,
)

_DIRECTIONS = {"fwd": Direction.FORWARD, "bwd": Direction.BACKWARD}


@dataclass
class SampledFunction:
    """Linear interpolant over a strictly increasing sample grid."""

    id: str
    xs: np.ndarray
    ys: np.ndarray

    @property
    def domain(self) -> Tuple[float, float]:
        return (float(self.xs[0]), float(self.xs[-1]))

    @property
    def resolution(self) -> float:
        return float(np.min(np.diff(self.xs)))

    @property
    def eps_floor(self) -> float:
        return SAMPLE_FLOOR_GAPS * self.resolution

    def __call__(self, t):
        arr = np.asarray(t, dtype=float)
        lo, hi = self.domain
        if arr.size and (arr.min() < lo or arr.max() > hi):
            raise DomainError(f"sample query outside [{lo:g}, {hi:g}]")
        out = np.interp(arr, self.xs, self.ys)
        return float(out) if arr.ndim == 0 else out


def load_samples(path: str) -> SampledFunction:
    """Read a sampled function file: header row, then x,value rows."""
    with open(path, "r", newline="") as fh:
        rows = [r for r in csv.reader(fh) if r and any(c.strip() for c in r)]
    if not rows:
        raise DataError(f"{path}: empty file")
    header = rows[0]
    try:
        float(header[0])
    except (ValueError, IndexError):
        pass
    else:
        raise DataError(f"{path}: missing header row")
    data = rows[1:]
    if len(data) < MIN_SAMPLE_ROWS:
        raise DataError(f"{path}: need at least {MIN_SAMPLE_ROWS} rows, got {len(data)}")
    xs, ys = [], []
    for i, row in enumerate(data, start=2):
        if len(row) < 2:
            raise DataError(f"{path}:{i}: need two columns")
        try:
            xs.append(float(row[0]))
            ys.append(float(row[1]))
        except ValueError as e:
            raise DataError(f"{path}:{i}: {e}") from None
    xs = np.asarray(xs)
    ys = np.asarray(ys)
    if not (np.all(np.isfinite(xs)) and np.all(np.isfinite(ys))):
        raise DataError(f"{path}: non-finite entries")
    if not np.all(np.diff(xs) > 0.0):
        raise DataError(f"{path}: abscissae must be strictly increasing")
    return SampledFunction(f"file:{path}", xs, ys)


def _parse_params(rest: str) -> dict:
    params = {}
    for item in rest.split(","):
        if not item.strip():
            continue
        key, sep, val = item.partition("=")
        if not sep:
            raise UsageError(f"malformed function parameter {item!r}, expected key=value")
        params[key.strip().lower()] = val.strip()
    return params


def _pop_float(params: dict, key: str, default: float) -> float:
    raw = params.pop(key, None)
    if raw is None:
        return default
    try:
        return float(raw)
    except ValueError:
        raise UsageError(f"parameter {key}={raw!r} is not a number") from None


def build_function(spec: str):
    """Turn a --fn string into an evaluator."""
    kind, _, rest = spec.partition(":")
    kind = kind.strip().lower()
    if kind == "file":
        if not rest:
            raise UsageError("file: needs a path, e.g. file:data.csv")
        return load_samples(rest)
    if kind not in ("cusp", "chirp", "weierstrass", "poly"):
        raise UsageError(f"unknown function kind {kind!r}")
    params = _parse_params(rest)
    try:
        if kind == "cusp":
            f = make_power_cusp(_pop_float(params, "a", 0.0),
                                _pop_float(params, "beta", 0.5),
                                _pop_float(params, "k", 1.0),
                                _pop_float(params, "c0", 0.0))
        elif kind == "chirp":
            f = make_chirp(_pop_float(params, "gamma", 0.5),
                           _pop_float(params, "a", 0.0))
        elif kind == "weierstrass":
            f = make_weierstrass(_pop_float(params, "amp", 0.5),
                                 int(_pop_float(params, "freq", 3)),
                                 int(_pop_float(params, "n_terms", 24)))
        elif kind == "poly":
            raw = params.pop("coeffs", None)
            if raw is None:
                raise UsageError("poly needs coeffs=c0;c1;...")
            try:
                coeffs = tuple(float(c) for c in raw.split(";") if c.strip())
            except ValueError:
                raise UsageError(f"bad coefficient list {raw!r}") from None
            dom = params.pop("domain", None)
            if dom is None:
                f = make_polynomial(coeffs)
            else:
                try:
                    lo, hi = (float(c) for c in dom.split(";"))
                except ValueError:
                    raise UsageError(f"bad domain {dom!r}, expected lo;hi") from None
                f = make_polynomial(coeffs, (lo, hi))
        else:
            raise UsageError(f"unknown function kind {kind!r}")
    except (ValueError, OverflowError) as e:   # int() of an infinite count overflows
        if isinstance(e, UsageError):
            raise
        raise UsageError(str(e)) from None
    if params:
        raise UsageError(f"unknown {kind} parameters: {', '.join(sorted(params))}")
    return f


@dataclass
class RunConfig:
    """Parsed command line, one flat record for all subcommands."""

    command: str
    fn: Optional[str] = None
    x: Optional[float] = None
    beta: Optional[float] = None
    direction: str = "both"
    tol: Optional[float] = None
    eps0: float = 2.0 ** -4
    ratio: float = 0.5
    count: int = 40
    interval: Optional[Tuple[float, float]] = None
    n: Optional[int] = None
    threshold: Optional[float] = None
    theorem: Optional[str] = None
    target: Optional[float] = None
    kg_tol: float = 1e-3
    approach_count: int = 16
    scheme: str = "graded_product"
    nodes: int = 64
    fmt: str = "json"
    out: Optional[str] = None
    zoo_action: Optional[str] = None


def _add_common(p, with_direction=True, both_ok=True):
    p.add_argument("--fn", required=True, help="function spec, kind:key=val,...")
    p.add_argument("--tol", type=float, default=None,
                   help="limit classification tolerance")
    p.add_argument("--eps0", type=float, default=2.0 ** -4,
                   help="largest probe increment")
    p.add_argument("--ratio", type=float, default=0.5,
                   help="geometric decay of the increments")
    p.add_argument("--count", type=int, default=40,
                   help="number of schedule steps")
    if with_direction:
        choices = ["fwd", "bwd"] + (["both"] if both_ok else [])
        p.add_argument("--direction", choices=choices,
                       default="both" if both_ok else "fwd")


def _add_output(p):
    p.add_argument("--format", dest="fmt", choices=["json", "csv"], default="json")
    p.add_argument("--out", default=None, help="output path (default stdout)")


@functools.lru_cache(maxsize=None)
def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="fracvel",
        description="Fractional velocity and local regularity estimation.")
    ap.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("zoo", help="inspect the built-in test functions")
    p.add_argument("zoo_action", choices=["list"])
    _add_output(p)

    p = sub.add_parser("analyze", help="velocity estimate at a point")
    _add_common(p)
    p.add_argument("--x", type=float, required=True)
    p.add_argument("--beta", type=float, required=True)
    _add_output(p)

    p = sub.add_parser("holder", help="pointwise exponent by regression")
    _add_common(p, both_ok=False)
    p.add_argument("--x", type=float, required=True)
    _add_output(p)

    p = sub.add_parser("scan", help="change-set scan over an interval")
    _add_common(p, with_direction=False)
    p.add_argument("--interval", required=True, help="lo,hi")
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--n", type=int, required=True, help="grid points")
    p.add_argument("--threshold", type=float, default=None,
                   help="flag |velocity| above this (default 10*tol)")
    _add_output(p)

    p = sub.add_parser("lfd", help="local fractional derivative cross-check")
    _add_common(p, both_ok=False)
    p.add_argument("--x", type=float, required=True, help="base point")
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--kg-tol", dest="kg_tol", type=float, default=1e-3)
    p.add_argument("--approach-count", dest="approach_count", type=int, default=16)
    p.add_argument("--scheme", choices=[s.value for s in QuadScheme],
                   default=QuadScheme.GRADED_PRODUCT.value)
    p.add_argument("--nodes", type=int, default=64)
    _add_output(p)

    p = sub.add_parser("verify", help="interval theorem checks")
    _add_common(p, with_direction=False)
    p.add_argument("--theorem", required=True, choices=[t.value for t in Theorem])
    p.add_argument("--interval", required=True, help="lo,hi")
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--n", type=int, default=101)
    p.add_argument("--target", type=float, default=None,
                   help="target velocity (weak_darboux at order 1)")
    _add_output(p)
    return ap


def _parse_interval(text: str) -> Tuple[float, float]:
    parts = text.split(",")
    if len(parts) != 2:
        raise UsageError(f"interval must be lo,hi, got {text!r}")
    try:
        lo, hi = float(parts[0]), float(parts[1])
    except ValueError:
        raise UsageError(f"interval must be numeric, got {text!r}") from None
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise UsageError(f"interval ends must be finite, got {text!r}")
    if not lo < hi:
        raise UsageError(f"interval must be ordered, got {text!r}")
    return (lo, hi)


def parse_args(argv: Optional[Sequence[str]] = None) -> RunConfig:
    ns = _build_parser().parse_args(argv)
    known = {f.name for f in fields(RunConfig)}
    cfg = RunConfig(**{k: v for k, v in vars(ns).items() if k in known})
    if getattr(ns, "interval", None) is not None:
        cfg.interval = _parse_interval(ns.interval)
    for flag, value in (("--x", cfg.x), ("--target", cfg.target)):
        if value is not None and not math.isfinite(value):
            raise UsageError(f"{flag} must be finite, got {value}")
    if cfg.command in ("analyze", "scan", "verify") and cfg.beta is not None:
        if not 0.0 < cfg.beta <= 1.0:
            raise UsageError(f"--beta must lie in (0, 1], got {cfg.beta}")
    if cfg.command == "lfd" and not 0.0 < (cfg.beta or 0.0) < 1.0:
        raise UsageError(f"--beta must lie in (0, 1) for lfd, got {cfg.beta}")
    if cfg.command == "verify" and cfg.theorem == Theorem.MEAN_VALUE.value:
        if not 0.0 < (cfg.beta or 0.0) < 1.0:
            raise UsageError("mean_value needs --beta strictly below 1")
    if not 0.0 < cfg.ratio < 1.0:
        raise UsageError(f"--ratio must lie in (0, 1), got {cfg.ratio}")
    if not (math.isfinite(cfg.eps0) and cfg.eps0 > 0.0):
        raise UsageError(f"--eps0 must be positive and finite, got {cfg.eps0}")
    for flag, value in (("--tol", cfg.tol), ("--kg-tol", cfg.kg_tol),
                        ("--threshold", cfg.threshold)):
        if value is not None and not (math.isfinite(value) and value >= 0.0):
            raise UsageError(f"{flag} must be nonnegative and finite, got {value}")
    if cfg.count < 4:
        raise UsageError(f"--count must be at least 4, got {cfg.count}")
    for flag, value, cap in (("--count", cfg.count, MAX_COUNT),
                             ("--approach-count", cfg.approach_count, MAX_COUNT),
                             ("--n", cfg.n, MAX_GRID_N)):
        if value is not None and value > cap:
            raise UsageError(f"{flag} must be at most {cap}, got {value}")
    if cfg.command == "zoo" and cfg.fmt != "json":
        raise UsageError("zoo list emits JSON lines only")
    return cfg


def _default_tol(cfg: RunConfig) -> float:
    if cfg.tol is not None:
        return cfg.tol
    return {"scan": 1e-4, "verify": 1e-3}.get(cfg.command, 1e-6)


def _effective_schedule(cfg: RunConfig, f) -> EpsilonSchedule:
    """The command line's schedule, cut at a sampled function's floor."""
    base = EpsilonSchedule(cfg.eps0, cfg.ratio, cfg.count)
    floor = getattr(f, "eps_floor", -math.inf)
    fitted = base.fitted(floor=floor)
    if fitted is None:
        kept = int(np.sum(base.raw() > floor))
        raise DataError(
            f"sample spacing leaves only {kept} usable increments; "
            "coarsen the schedule or resample the data")
    return fitted


# ---------------------------------------------------------------------------
# deterministic rendering

def _float_token(v: float) -> str:
    if not math.isfinite(v):
        return "null"
    return repr(float(v))


def _plain(obj):
    """obj with enums as their values, numpy scalars as Python numbers,
    tuples and arrays as lists and non-finite floats as None."""
    if isinstance(obj, enum.Enum):
        return _plain(obj.value)
    if isinstance(obj, dict):
        return {k: _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple, np.ndarray)):
        return [_plain(v) for v in obj]
    if isinstance(obj, (float, np.floating)):
        v = float(obj)
        return v if math.isfinite(v) else None
    if isinstance(obj, np.integer):
        return int(obj)
    return obj


def render_json(obj) -> str:
    """Compact JSON with sorted keys; floats via repr, non-finite as null."""
    return json.dumps(_plain(obj), sort_keys=True, separators=(",", ":"),
                      allow_nan=False)


def _csv_cell(v) -> str:
    if isinstance(v, enum.Enum):
        return str(v.value)
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (float, np.floating)):
        return _float_token(float(v))
    return str(v)


def render_csv(header, rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_csv_cell(c) for c in row])
    return buf.getvalue()


@dataclass
class RunResult:
    payload: object           # dict, or list of dicts for line-oriented output
    csv_header: Optional[Tuple[str, ...]] = None
    csv_rows: Optional[list] = None
    json_lines: bool = False


def emit_report(result: RunResult, fmt: str = "json",
                dest: Optional[str] = None) -> str:
    """Serialize a run result and write it to dest (stdout when None)."""
    if fmt == "json":
        if result.json_lines:
            text = "".join(render_json(item) + "\n" for item in result.payload)
        else:
            text = render_json(result.payload) + "\n"
    elif fmt == "csv":
        if result.csv_header is None:
            raise UsageError("this command has no CSV form")
        text = render_csv(result.csv_header, result.csv_rows or [])
    else:
        raise UsageError(f"unknown format {fmt!r}")
    if dest is None:
        sys.stdout.write(text)
    else:
        with open(dest, "w", newline="") as fh:
            fh.write(text)
    return text


# ---------------------------------------------------------------------------
# command handlers

def _meta() -> dict:
    return {"tool": "fracvel", "version": __version__}


def _fn_info(f) -> dict:
    lo, hi = getattr(f, "domain", (-math.inf, math.inf))
    return {"id": getattr(f, "id", "callable"), "domain": [lo, hi]}


def _limit_dict(est) -> dict:
    return {
        "status": est.status,
        "value": est.value,
        "residual": est.residual,
        "tail_values": list(est.tail_values),
    }


def _velocity_dict(rep: VelocityReport) -> dict:
    d = _limit_dict(rep.limit)
    d["c1_constant"] = rep.c1_constant
    d["c1_holds"] = rep.c1_holds
    return d


def _schedule_dict(schedule: EpsilonSchedule, x: float) -> dict:
    eps = schedule.increments(x)
    return {
        "eps0": schedule.eps0,
        "ratio": schedule.ratio,
        "count": schedule.count,
        "effective_count": int(eps.size),
        "eps_min": float(eps[-1]),
    }


def _run_zoo(cfg: RunConfig) -> RunResult:
    items = []
    for f in default_zoo():
        items.append({
            "id": f.id,
            "domain": [f.domain[0], f.domain[1]],
            "marks": [{
                "x": m.x,
                "holder_exponent": m.holder_exponent,
                "velocity_plus": m.velocity_plus,
                "velocity_minus": m.velocity_minus,
            } for m in f.marks],
        })
    return RunResult(items, json_lines=True)


def _run_analyze(cfg: RunConfig) -> RunResult:
    f = build_function(cfg.fn)
    tol = _default_tol(cfg)
    schedule = _effective_schedule(cfg, f)
    dirs = ([_DIRECTIONS[cfg.direction]] if cfg.direction in _DIRECTIONS
            else [Direction.FORWARD, Direction.BACKWARD])
    reports = {}
    for d in dirs:
        rep = estimate_velocity(f, cfg.x, cfg.beta, d, schedule, tol)
        reports[d.value] = _velocity_dict(rep)
    payload = {
        "command": "analyze",
        "function": _fn_info(f),
        "x": cfg.x,
        "beta": cfg.beta,
        "tol": tol,
        "schedule": _schedule_dict(schedule, cfg.x),
        "reports": reports,
        "meta": _meta(),
    }
    header = ("direction", "status", "value", "residual",
              "c1_constant", "c1_holds")
    rows = [(name, r["status"], r["value"], r["residual"],
             r["c1_constant"], r["c1_holds"])
            for name, r in sorted(reports.items())]
    return RunResult(payload, header, rows)


def _run_holder(cfg: RunConfig) -> RunResult:
    f = build_function(cfg.fn)
    schedule = _effective_schedule(cfg, f)
    d = _DIRECTIONS[cfg.direction]
    est = estimate_holder_exponent(f, cfg.x, d, schedule)
    payload = {
        "command": "holder",
        "function": _fn_info(f),
        "x": cfg.x,
        "direction": d,
        "schedule": _schedule_dict(schedule, cfg.x),
        "estimate": {
            "exponent": est.exponent,
            "constant": est.constant,
            "r_squared": est.r_squared,
            "scale_range": [est.scale_range[0], est.scale_range[1]],
            "low_confidence": est.low_confidence,
            "superlinear": est.superlinear,
        },
        "meta": _meta(),
    }
    header = ("x", "direction", "exponent", "constant", "r_squared",
              "scale_min", "scale_max", "low_confidence")
    rows = [(cfg.x, d, est.exponent, est.constant, est.r_squared,
             est.scale_range[0], est.scale_range[1], est.low_confidence)]
    return RunResult(payload, header, rows)


def _run_scan(cfg: RunConfig) -> RunResult:
    f = build_function(cfg.fn)
    tol = _default_tol(cfg)
    schedule = _effective_schedule(cfg, f)
    rep = scan_change_set(f, cfg.interval, cfg.beta, cfg.n,
                          cfg.threshold, schedule, tol)
    payload = {
        "command": "scan",
        "function": _fn_info(f),
        "interval": [rep.interval[0], rep.interval[1]],
        "beta": rep.beta,
        "n": rep.grid_points,
        "tol": tol,
        "flag_threshold": rep.flag_threshold,
        "flagged": [{"x": x, "value": v, "direction": d}
                    for x, v, d in rep.flagged],
        "flagged_fraction": rep.flagged_fraction,
        "meta": _meta(),
    }
    header = ("x", "direction", "status", "value", "flagged")
    rows = [(p.x, p.direction, p.status, p.value, p.flagged)
            for p in rep.points]
    return RunResult(payload, header, rows)


def _run_lfd(cfg: RunConfig) -> RunResult:
    f = build_function(cfg.fn)
    schedule = _effective_schedule(cfg, f)
    velocity_tol = _default_tol(cfg)
    approach = EpsilonSchedule(cfg.eps0, cfg.ratio, cfg.approach_count)
    config = QuadratureConfig(cfg.nodes, QuadScheme(cfg.scheme))
    rep = check_lfd_equivalence(f, cfg.x, cfg.beta, _DIRECTIONS[cfg.direction],
                                schedule, velocity_tol, approach, config,
                                cfg.kg_tol)
    payload = {
        "command": "lfd",
        "function": _fn_info(f),
        "a": rep.a,
        "beta": rep.beta,
        "direction": rep.direction,
        "lfd": _limit_dict(rep.lfd),
        "velocity": rep.velocity,
        "velocity_scaled": rep.velocity_scaled,
        "equivalence_gap": rep.equivalence_gap,
        "combined_tolerance": rep.combined_tolerance,
        "passed": rep.passed,
        "scheme": cfg.scheme,
        "meta": _meta(),
    }
    header = ("a", "beta", "direction", "lfd_status", "lfd_value",
              "velocity_scaled", "equivalence_gap", "passed")
    rows = [(rep.a, rep.beta, rep.direction, rep.lfd.status, rep.lfd.value,
             rep.velocity_scaled, rep.equivalence_gap, rep.passed)]
    return RunResult(payload, header, rows)


def _run_verify(cfg: RunConfig) -> RunResult:
    f = build_function(cfg.fn)
    tol = _default_tol(cfg)
    schedule = _effective_schedule(cfg, f)
    a, b = cfg.interval
    theorem = Theorem(cfg.theorem)
    if theorem is Theorem.ROLLE:
        verdict = verify_rolle(f, a, b, cfg.beta, cfg.n, schedule, tol)
    elif theorem is Theorem.MEAN_VALUE:
        verdict = verify_mean_value(f, a, b, cfg.beta, schedule, tol,
                                    grid_n=cfg.n)
    else:
        verdict = verify_weak_darboux(f, a, b, cfg.beta, cfg.n, schedule,
                                      tol, cfg.target)
    payload = {
        "command": "verify",
        "function": _fn_info(f),
        "theorem": verdict.theorem,
        "interval": [a, b],
        "beta": cfg.beta,
        "n": cfg.n,
        "tol": tol,
        "holds": verdict.holds,
        "witness": verdict.witness,
        "notes": verdict.notes,
        "meta": _meta(),
    }
    witness_text = ("" if verdict.witness is None else
                    ";".join(f"{k}={_float_token(float(v))}"
                             for k, v in sorted(verdict.witness.items())))
    header = ("theorem", "holds", "witness", "notes")
    rows = [(verdict.theorem, verdict.holds, witness_text, verdict.notes)]
    return RunResult(payload, header, rows)


_HANDLERS = {
    "zoo": _run_zoo,
    "analyze": _run_analyze,
    "holder": _run_holder,
    "scan": _run_scan,
    "lfd": _run_lfd,
    "verify": _run_verify,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        cfg = parse_args(argv)
    except UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    try:
        result = _HANDLERS[cfg.command](cfg)
        emit_report(result, cfg.fmt, cfg.out)
    except UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except _ANALYSIS_ERRORS as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
