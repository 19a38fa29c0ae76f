"""Closed-form checks of one journey's report.

The expected facts travel with the journey (see journeys.py) and were
computed from the drawn spec parameters alone; nothing here reads a number
the program produced except the report under test.
"""
from __future__ import annotations

import csv
import io
import json
from typing import Optional

from journeys import ORDER1_FLOOR, Journey

# Tolerances the checks state.  Velocities are compared at the report's own
# classification tolerance; exponents by oscillation regression are only
# good to a few hundredths on the default schedule.
VELOCITY_TOL = 1e-6
SCAN_TOL = 1e-4
VERIFY_TOL = 1e-3
KG_TOL = 1e-3
HOLDER_TOL = 0.05


def _rows(out: str):
    return list(csv.DictReader(io.StringIO(out)))


def _scan(j: Journey, out: str) -> Optional[str]:
    rows = _rows(out)
    n = int(j.truth["n"])
    if len(rows) != 2 * n - 2:
        return f"{len(rows)} rows for n={n}"
    flagged = [r for r in rows if r["flagged"] == "true"]
    if j.kind == "scan.weierstrass":
        return f"{len(flagged)} points flagged, expected none" if flagged else None
    # the cusp sits on an interior grid point: flagged from both sides, alone,
    # so the flagged fraction is exactly 1/n
    xs = {float(r["x"]) for r in flagged}
    if xs != {j.truth["a"]} or len(flagged) != 2:
        return f"flagged {sorted(xs)} ({len(flagged)} rows), expected {{{j.truth['a']!r}}}"
    for r in flagged:
        if abs(float(r["value"]) - j.truth["k"]) > SCAN_TOL:
            return f"cusp velocity {r['value']}, expected {j.truth['k']!r}"
    return None


def _verify(j: Journey, out: str) -> Optional[str]:
    (row,) = _rows(out)
    if row["holds"] != "true":
        return f"{row['theorem']} does not hold: {row['notes']}"
    witness = dict(kv.split("=") for kv in row["witness"].split(";") if kv)
    if j.kind == "verify.mean_value":
        # r = (f(b)-f(a))/(b-a)**beta equals k, attained at the cusp itself
        if float(witness["x"]) != j.truth["a"]:
            return f"witness at {witness['x']}, expected the cusp {j.truth['a']!r}"
        if abs(float(witness["velocity"]) - j.truth["k"]) > VERIFY_TOL:
            return f"witness velocity {witness['velocity']}, expected {j.truth['k']!r}"
    elif j.kind == "verify.rolle":
        # a point qualifies when |p'(x)| = 2|c2||x-m| is within the tolerance
        reach = j.truth["step"] + VERIFY_TOL / (2.0 * abs(j.truth["c2"]))
        if abs(float(witness["x"]) - j.truth["m"]) > reach:
            return f"witness at {witness['x']}, extremum at {j.truth['m']!r}"
    return None


def _converged_to(rep: dict, value: float, tol: float) -> Optional[str]:
    if rep["status"] != "converged":
        return f"{rep['status']} (residual {rep['residual']!r}), expected {value!r}"
    if abs(rep["value"] - value) > tol:
        return f"value {rep['value']!r}, expected {value!r}"
    return None


def _analyze(j: Journey, rep: dict) -> Optional[str]:
    fwd, bwd = rep["reports"]["forward"], rep["reports"]["backward"]
    if j.kind == "analyze.chirp":
        # forward variation traces sin(1/eps) and never settles; the
        # backward side is flat
        if fwd["status"] == "converged":
            return f"forward converged to {fwd['value']!r}, expected no limit"
        return _converged_to(bwd, 0.0, VELOCITY_TOL)
    tol = rep["tol"]
    for side, r in (("forward", fwd), ("backward", bwd)):
        why = _converged_to(r, j.truth["velocity"], tol)
        if why:
            return f"{side} {why}"
    return None


def _holder(j: Journey, rep: dict) -> Optional[str]:
    got = rep["estimate"]["exponent"]
    if abs(got - j.truth["exponent"]) > HOLDER_TOL:
        return f"exponent {got!r}, expected {j.truth['exponent']!r}"
    return None


def _lfd(j: Journey, rep: dict) -> Optional[str]:
    if not rep["passed"]:
        return f"equivalence gap {rep['equivalence_gap']!r} failed"
    if abs(rep["velocity"] - j.truth["velocity"]) > VELOCITY_TOL:
        return f"velocity {rep['velocity']!r}, expected {j.truth['velocity']!r}"
    return _converged_to(rep["lfd"], j.truth["lfd"], KG_TOL + VELOCITY_TOL)


def shows_known_issue(j: Journey, out: str) -> bool:
    """Whether a wrong report shows the journey's documented symptom and no other.

    At the order-1 round-off floor the difference quotients of the deepest
    increments are rounding noise: a side reports ``oscillatory``, or the
    quotients round to one value and the side converges to it, within the
    closed-form round-off bound of p'(x).  A side converged further off,
    or a wrong answer of a journey without a known issue, is unexpected.
    """
    if j.known_issue != ORDER1_FLOOR:
        return False
    try:
        sides = json.loads(out)["reports"].values()
        return all(r["status"] == "oscillatory"
                   or _converged_to(r, j.truth["velocity"], j.truth["roundoff"]) is None
                   for r in sides)
    except (KeyError, ValueError, TypeError, AttributeError):
        return False


_JSON_CHECKS = {"analyze": _analyze, "holder": _holder, "lfd": _lfd}


def check(j: Journey, out: str) -> Optional[str]:
    """None when the report agrees with the closed-form truth, else why not."""
    command = j.argv[0]
    try:
        if command == "scan":
            return _scan(j, out)
        if command == "verify":
            return _verify(j, out)
        return _JSON_CHECKS[command](j, json.loads(out))
    except (KeyError, ValueError, TypeError) as e:
        return f"malformed report: {type(e).__name__}: {e}"
