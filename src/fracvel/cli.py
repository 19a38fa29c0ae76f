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
from dataclasses import dataclass
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
    DEFAULT_TOL,
    EpsilonSchedule,
    _count_above,
    _holder_estimate,
    _velocity_reports,
)
from .rlcalc import (_RULES, DEFAULT_APPROACH, KG_TOL, MIN_NODES, QuadratureConfig,
                     QuadScheme, check_lfd_equivalence)
from .scanner import (
    SCAN_TOL,
    VERIFY_TOL,
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

# Largest --count and --approach-count.  A schedule allocates its steps
# before any cut, and a scan holds a few columns per probe and evaluates at
# most EVAL_CALL_POINTS points a call, so with MAX_GRID_N this bounds memory.
MAX_COUNT = 1024

# Largest --n for scan and verify.
MAX_GRID_N = 65536

# render_csv renders a table this many rows at a time.
CSV_CHUNK_ROWS = 4096


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


# Each --fn kind's maker and keywords in argument order, named in lower case
# (k for K); a keyword left out takes the maker's own default.
_MAKERS = {
    "cusp": (make_power_cusp, ("a", "beta", "K", "c0")),
    "chirp": (make_chirp, ("gamma", "a")),
    "weierstrass": (make_weierstrass, ("amp", "freq", "n_terms")),
}


def _pop_float(params: dict, key: str) -> float:
    raw = params.pop(key)
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
    if kind != "poly" and kind not in _MAKERS:
        raise UsageError(f"unknown function kind {kind!r}")
    params = _parse_params(rest)
    try:
        if kind in _MAKERS:
            maker, keywords = _MAKERS[kind]
            f = maker(**{kw: _pop_float(params, kw.lower())
                         for kw in keywords if kw.lower() in params})
        else:
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
    except (ValueError, OverflowError) as e:   # int() of an infinite freq or n_terms overflows
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
    eps0: float = EpsilonSchedule.eps0
    ratio: float = EpsilonSchedule.ratio
    count: int = EpsilonSchedule.count
    interval: Optional[Tuple[float, float]] = None
    n: Optional[int] = None
    threshold: Optional[float] = None
    theorem: Optional[str] = None
    target: Optional[float] = None
    kg_tol: float = KG_TOL
    approach_count: int = DEFAULT_APPROACH.count
    scheme: str = QuadratureConfig.scheme.value
    nodes: int = QuadratureConfig.n_nodes
    fmt: str = "json"
    out: Optional[str] = None
    zoo_action: Optional[str] = None


def _add_common(p, with_direction=True, both_ok=True):
    p.add_argument("--fn", required=True, help="function spec, kind:key=val,...")
    p.add_argument("--tol", type=float, default=None,
                   help="limit classification tolerance")
    p.add_argument("--eps0", type=float, default=RunConfig.eps0,
                   help="largest probe increment")
    p.add_argument("--ratio", type=float, default=RunConfig.ratio,
                   help="geometric decay of the increments")
    p.add_argument("--count", type=int, default=RunConfig.count,
                   help="number of schedule steps")
    if with_direction:
        choices = ["fwd", "bwd"] + (["both"] if both_ok else [])
        p.add_argument("--direction", choices=choices,
                       default="both" if both_ok else "fwd")


def _add_output(p):
    p.add_argument("--format", dest="fmt", choices=["json", "csv"], default="json")
    p.add_argument("--out", default=None, help="output path (default stdout)")


@functools.lru_cache(maxsize=None)
def _build_parser() -> Tuple[argparse.ArgumentParser, dict]:
    """The command line parser and its subparsers by command name."""
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
    p.add_argument("--kg-tol", dest="kg_tol", type=float, default=RunConfig.kg_tol)
    p.add_argument("--approach-count", dest="approach_count", type=int,
                   default=RunConfig.approach_count)
    p.add_argument("--scheme", choices=[s.value for s in QuadScheme],
                   default=RunConfig.scheme)
    p.add_argument("--nodes", type=int, default=RunConfig.nodes)
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
    return ap, sub.choices


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


def _parse_values(argv: Optional[Sequence[str]]) -> dict:
    """The parsed values of argv by name, command included, exactly as the
    full parser's parse_args gives them, or its usage error and exit.

    The full pass hands everything after the command to that command's
    subparser, having only classified each argument as an option or not.
    That classification fails on its own only for an abbreviation of more
    than one top-level option (-h, --help, --version), so only for a
    prefix of "-" or "--".  argparse takes an argument's prefix as the
    whole argument, or as its part before "=" ("--" arguments, and in
    later versions "-" ones too), and "-" and "--" alone are a positional
    and the separator: only an argument that starts with "-=" or "--="
    can fail there.  So argv that starts with a command and holds no such
    argument goes straight to the subparser; the full pass reports any
    leftovers, in its own words.
    """
    parser, commands = _build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    sub = commands.get(argv[0]) if argv else None
    if sub is None or any(a.startswith(("-=", "--=")) for a in argv):
        return vars(parser.parse_args(argv))
    ns, extras = sub.parse_known_args(argv[1:])
    if extras:
        return vars(parser.parse_args(argv))
    values = vars(ns)
    values["command"] = argv[0]
    return values


def parse_args(argv: Optional[Sequence[str]] = None) -> RunConfig:
    cfg = RunConfig(**_parse_values(argv))
    if cfg.interval is not None:
        cfg.interval = _parse_interval(cfg.interval)
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
    if (cfg.command == "verify" and cfg.theorem == Theorem.WEAK_DARBOUX.value
            and cfg.beta == 1.0 and cfg.target is None):
        raise UsageError("weak_darboux at --beta 1 needs --target")
    if not 0.0 < cfg.ratio < 1.0:
        raise UsageError(f"--ratio must lie in (0, 1), got {cfg.ratio}")
    if not (math.isfinite(cfg.eps0) and cfg.eps0 > 0.0):
        raise UsageError(f"--eps0 must be positive and finite, got {cfg.eps0}")
    for flag, value in (("--tol", cfg.tol), ("--kg-tol", cfg.kg_tol),
                        ("--threshold", cfg.threshold)):
        if value is not None and not (math.isfinite(value) and value >= 0.0):
            raise UsageError(f"{flag} must be nonnegative and finite, got {value}")
    for flag, value in (("--count", cfg.count), ("--approach-count", cfg.approach_count)):
        if value < 4:
            raise UsageError(f"{flag} must be at least 4, got {value}")
    if cfg.command == "lfd":
        # the first doubling of the starting nodes must stay under the cap
        _, cap = _RULES[QuadScheme(cfg.scheme)]
        if not MIN_NODES <= cfg.nodes <= cap // 2:
            raise UsageError(f"--nodes must lie in [{MIN_NODES}, {cap // 2}] "
                             f"for {cfg.scheme}, got {cfg.nodes}")
    for flag, value, cap in (("--count", cfg.count, MAX_COUNT),
                             ("--approach-count", cfg.approach_count, MAX_COUNT),
                             ("--n", cfg.n, MAX_GRID_N)):
        if value is not None and value > cap:
            raise UsageError(f"{flag} must be at most {cap}, got {value}")
    if cfg.command == "zoo" and cfg.fmt != "json":
        raise UsageError("zoo list emits JSON lines only")
    return cfg


def _effective_schedule(cfg: RunConfig, f, count: int) -> EpsilonSchedule:
    """The CLI's one ladder builder: count steps, cut at a sampled function's floor."""
    base = EpsilonSchedule(cfg.eps0, cfg.ratio, count)
    floor = getattr(f, "eps_floor", -math.inf)
    fitted = base.fitted(floor=floor)
    if fitted is None:
        raise DataError(
            f"sample spacing leaves only {_count_above(base.raw(), floor)} usable increments; "
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
    tuples and arrays as lists and non-finite floats as None.  The exact
    scalar types of a report's values are tested first."""
    kind = type(obj)
    if kind is float:
        return obj if math.isfinite(obj) else None
    if kind is str or kind is bool or kind is int or obj is None:
        return obj
    if isinstance(obj, dict):
        return {k: _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple, np.ndarray)):
        return [_plain(v) for v in obj]
    if isinstance(obj, enum.Enum):
        return _plain(obj.value)
    if isinstance(obj, (float, np.floating)):
        v = float(obj)
        return v if math.isfinite(v) else None
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.bool_):
        return bool(obj)
    return obj


_JSON = json.JSONEncoder(sort_keys=True, separators=(",", ":"), allow_nan=False)


def render_json(obj) -> str:
    """Compact JSON with sorted keys; floats via repr, non-finite as null."""
    return _JSON.encode(_plain(obj))


def _csv_cell(v) -> str:
    if isinstance(v, enum.Enum):
        return str(v.value)
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if isinstance(v, (float, np.floating)):
        return _float_token(float(v))
    return str(v)


def _csv_column(cells) -> Tuple[list, bool]:
    """_csv_cell of every cell, by one renderer when all cells share a type,
    and whether that type's tokens never need quoting: float reprs and
    null, true and false, and the values of an enum whose values are all
    identifiers."""
    kinds = set(map(type, cells))
    kind = kinds.pop() if len(kinds) == 1 else None
    if kind is str:
        return list(cells), False
    if kind is float:
        return [repr(v) if math.isfinite(v) else "null" for v in cells], True
    if kind in (bool, np.bool_):
        return ["true" if v else "false" for v in cells], True
    if kind is not None and issubclass(kind, enum.Enum):
        return ([str(v._value_) for v in cells],
                all(str(m._value_).isidentifier() for m in kind))
    return list(map(_csv_cell, cells)), False


def _csv_lines(lines, plain: bool) -> str:
    """lines as CSV text: joined directly when plain, else by csv.writer."""
    if plain:
        return "\n".join(map(",".join, lines)) + "\n"
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(lines)
    return buf.getvalue()


def render_csv(header, columns) -> str:
    """Header names over columns of cells, as CSV with "\\n" line ends,
    every cell rendered as _csv_cell renders it, a column at a time.  When
    the header names are identifiers and _csv_column finds every column's
    tokens free of quoting, the lines are joined directly; otherwise
    csv.writer (QUOTE_MINIMAL) writes them, and it alone quotes.  Columns
    of unequal length, or a header whose length is not the number of
    columns, raise ValueError.

    The rows are rendered CSV_CHUNK_ROWS at a time, the header with the
    first chunk, so a large table's tokens never exist all at once beside
    its text; a table of one chunk is rendered from its columns as given.
    Each line's quoting depends on its own cells alone, so the chunks
    join to the bytes one pass over the whole table gives."""
    if len(columns) != len(header):
        raise ValueError(f"{len(header)} header names over {len(columns)} columns")
    n = len(columns[0]) if columns else 0
    if any(len(cells) != n for cells in columns):
        raise ValueError("columns of unequal length")
    head, plain_head = (header,), all(map(str.isidentifier, header))
    parts = []
    # a table of no rows is one chunk: its header line alone
    for start in range(0, max(n, 1), CSV_CHUNK_ROWS):
        chunk = (columns if n <= CSV_CHUNK_ROWS
                 else [cells[start:start + CSV_CHUNK_ROWS] for cells in columns])
        rendered = [_csv_column(cells) for cells in chunk]
        rows = zip(*[tokens for tokens, _ in rendered])
        parts.append(_csv_lines((*head, *rows),
                                plain_head and all(plain for _, plain in rendered)))
        head, plain_head = (), True
    return "".join(parts)


@dataclass
class RunResult:
    payload: object           # dict, or list of dicts for line-oriented output
    table: Optional[Sequence[Tuple[str, Sequence]]] = None   # CSV (name, column) pairs
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
        if result.table is None:
            raise UsageError("this command has no CSV form")
        text = render_csv(*zip(*result.table))
    else:
        raise UsageError(f"unknown format {fmt!r}")
    if dest is None:
        sys.stdout.write(text)
    else:
        with open(dest, "w", newline="") as fh:
            fh.write(text)
    return text


# ---------------------------------------------------------------------------
# command handlers: each takes the command line, its function, the schedule
# cut for it and its tolerance, and returns its own keys and CSV table

def _limit_dict(est) -> dict:
    return {
        "status": est.status,
        "value": est.value,
        "residual": est.residual,
        "tail_values": list(est.tail_values),
    }


def _schedule_dict(schedule: EpsilonSchedule, eps: np.ndarray) -> dict:
    """The schedule's keys, eps being its increments at the point."""
    return {
        "eps0": schedule.eps0,
        "ratio": schedule.ratio,
        "count": schedule.count,
        "effective_count": int(eps.size),
        "eps_min": float(eps[-1]),
    }


def _one_row(**cells) -> list:
    """A CSV table of one row: each cell a column of its own."""
    return [(name, (v,)) for name, v in cells.items()]


def _run_zoo() -> RunResult:
    return RunResult([{
        "id": f.id,
        "domain": [f.domain[0], f.domain[1]],
        "marks": [{
            "x": m.x,
            "holder_exponent": m.holder_exponent,
            "velocity_plus": m.velocity_plus,
            "velocity_minus": m.velocity_minus,
        } for m in f.marks],
    } for f in default_zoo()], json_lines=True)


def _run_analyze(cfg: RunConfig, f, schedule: EpsilonSchedule, tol: float) -> RunResult:
    dirs = ((_DIRECTIONS[cfg.direction],) if cfg.direction in _DIRECTIONS
            else (Direction.FORWARD, Direction.BACKWARD))
    eps = schedule.increments(cfg.x)
    reports = {rep.direction.value: dict(_limit_dict(rep.limit), c1_constant=rep.c1_constant,
                                         c1_holds=rep.c1_holds)
               for rep in _velocity_reports(f, cfg.x, cfg.beta, dirs, eps, tol)}
    ordered = sorted(reports.items())
    table = [("direction", [Direction(name) for name, _ in ordered])]
    table += [(key, [r[key] for _, r in ordered])
              for key in ("status", "value", "residual", "c1_constant", "c1_holds")]
    return RunResult({
        "x": cfg.x,
        "beta": cfg.beta,
        "tol": tol,
        "schedule": _schedule_dict(schedule, eps),
        "reports": reports,
    }, table)


def _run_holder(cfg: RunConfig, f, schedule: EpsilonSchedule, tol: float) -> RunResult:
    d = _DIRECTIONS[cfg.direction]
    eps = schedule.increments(cfg.x)
    est = _holder_estimate(f, cfg.x, d, eps)
    lo, hi = est.scale_range
    return RunResult({
        "x": cfg.x,
        "direction": d,
        "schedule": _schedule_dict(schedule, eps),
        "estimate": {
            "exponent": est.exponent,
            "constant": est.constant,
            "r_squared": est.r_squared,
            "scale_range": [lo, hi],
            "low_confidence": est.low_confidence,
            "superlinear": est.superlinear,
        },
    }, _one_row(x=cfg.x, direction=d, exponent=est.exponent, constant=est.constant,
                r_squared=est.r_squared, scale_min=lo, scale_max=hi,
                low_confidence=est.low_confidence))


def _run_scan(cfg: RunConfig, f, schedule: EpsilonSchedule, tol: float) -> RunResult:
    rep = scan_change_set(f, cfg.interval, cfg.beta, cfg.n,
                          cfg.threshold, schedule, tol)
    return RunResult({
        "interval": [rep.interval[0], rep.interval[1]],
        "beta": rep.beta,
        "n": rep.grid_points,
        "tol": tol,
        "flag_threshold": rep.flag_threshold,
        "flagged": [{"x": x, "value": v, "direction": d}
                    for x, v, d in rep.flagged],
        "flagged_fraction": rep.flagged_fraction,
    }, list(zip(rep.points._fields, rep.points)))


def _run_lfd(cfg: RunConfig, f, schedule: EpsilonSchedule, tol: float) -> RunResult:
    approach = _effective_schedule(cfg, f, cfg.approach_count)
    config = QuadratureConfig(cfg.nodes, QuadScheme(cfg.scheme))
    rep = check_lfd_equivalence(f, cfg.x, cfg.beta, _DIRECTIONS[cfg.direction],
                                schedule, tol, approach, config, cfg.kg_tol)
    return RunResult({
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
    }, _one_row(a=rep.a, beta=rep.beta, direction=rep.direction,
                lfd_status=rep.lfd.status, lfd_value=rep.lfd.value,
                velocity_scaled=rep.velocity_scaled,
                equivalence_gap=rep.equivalence_gap, passed=rep.passed))


def _run_verify(cfg: RunConfig, f, schedule: EpsilonSchedule, tol: float) -> RunResult:
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
    witness_text = ("" if verdict.witness is None else
                    ";".join(f"{k}={_float_token(float(v))}"
                             for k, v in sorted(verdict.witness.items())))
    return RunResult({
        "theorem": verdict.theorem,
        "interval": [a, b],
        "beta": cfg.beta,
        "n": cfg.n,
        "tol": tol,
        "holds": verdict.holds,
        "witness": verdict.witness,
        "notes": verdict.notes,
    }, _one_row(theorem=verdict.theorem, holds=verdict.holds, witness=witness_text,
                notes=verdict.notes))


_HANDLERS = {
    "analyze": _run_analyze,
    "holder": _run_holder,
    "scan": _run_scan,
    "lfd": _run_lfd,
    "verify": _run_verify,
}


def _run(cfg: RunConfig) -> RunResult:
    """The report of cfg's command.  For every command but zoo, this is the
    one place that builds the function, cuts its schedule and picks its
    tolerance for the handler, and that adds the keys command, function
    and meta to the handler's own."""
    if cfg.command == "zoo":
        return _run_zoo()
    f = build_function(cfg.fn)
    schedule = _effective_schedule(cfg, f, cfg.count)
    tol = cfg.tol if cfg.tol is not None else (
        {"scan": SCAN_TOL, "verify": VERIFY_TOL}.get(cfg.command, DEFAULT_TOL))
    result = _HANDLERS[cfg.command](cfg, f, schedule, tol)
    result.payload.update(command=cfg.command,
                          function={"id": f.id, "domain": list(f.domain)},
                          meta={"tool": "fracvel", "version": __version__})
    return result


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        cfg = parse_args(argv)
    except UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    try:
        emit_report(_run(cfg), cfg.fmt, cfg.out)
    except UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except _ANALYSIS_ERRORS as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
