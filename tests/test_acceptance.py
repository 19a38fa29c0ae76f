"""End-to-end acceptance checks, one test per shipped criterion.

Each test exercises a contract at its stated tolerance and prints one
PASS line (visible with -s; the -v test line carries the same verdict).
"""

import json
import math
import time

import numpy as np
import pytest
from scipy.special import gamma as G

from common import GAMMA_15, SCHED24, WEIER_EXPONENT, WEIER_FIT, WEIER_SLOPES
from fracvel import (
    Direction,
    EpsilonSchedule,
    LimitStatus,
    SMOOTH,
    check_lfd_equivalence,
    default_zoo,
    estimate_holder_exponent,
    estimate_velocity,
    kg_lfd,
    make_power_cusp,
    make_weierstrass,
    null_measure_trend,
    rl_integral,
    scan_change_set,
    verify_mean_value,
    verify_rolle,
)
from fracvel.cli import main

FWD = Direction.FORWARD
BWD = Direction.BACKWARD
DIRS = (FWD, BWD)

CUSP_COUNT = 3


def _ok(n, label):
    print(f"ACCEPTANCE {n} {label}: PASS")


def _critical_order(mark) -> float:
    return 1.0 if mark.holder_exponent == SMOOTH else float(mark.holder_exponent)


def _member_tol(fid: str) -> float:
    if fid.startswith("weierstrass"):
        return 1e-3
    if fid.startswith("poly"):
        return 1e-4
    return 1e-6


def _member_schedule(fid: str):
    # order-1 members need a shallower ladder: at machine-scale eps the
    # increment cancels to noise and the quotient drowns
    return SCHED24 if fid.startswith("poly") else None


def _zoo_critical_runs():
    """Velocity report per (member, mark, direction) at the critical order."""
    runs = []
    for f in default_zoo():
        tol = _member_tol(f.id)
        sched = _member_schedule(f.id)
        for m in f.marks:
            beta = _critical_order(m)
            for d in DIRS:
                rep = estimate_velocity(f, m.x, beta, d, sched, tol)
                runs.append((f, m, d, beta, tol, sched, rep))
    return runs


def triple_cusp(t):
    t = np.asarray(t, dtype=float)
    out = np.zeros_like(t)
    for a in (0.2, 0.5, 0.8):
        out = out + np.sign(t - a) * np.abs(t - a) ** 0.5
    return out


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out


def test_criterion_01_chirp_critical_order(capsys):
    start = time.perf_counter()
    code, out = run_cli(["analyze", "--fn", "chirp:gamma=0.5", "--x", "0",
                         "--beta", "0.5"], capsys)
    assert code == 0
    fwd = json.loads(out)["reports"]["forward"]
    assert fwd["status"] == "oscillatory"
    assert fwd["residual"] == pytest.approx(2.0, abs=0.05)
    # below the critical order the same point converges to zero; the
    # classification tolerance covers the eps**(1/4) window drift
    code, out = run_cli(["analyze", "--fn", "chirp:gamma=0.5", "--x", "0",
                         "--beta", "0.25", "--tol", "0.02"], capsys)
    assert code == 0
    fwd = json.loads(out)["reports"]["forward"]
    assert fwd["status"] == "converged"
    assert abs(fwd["value"]) <= 1e-3
    assert time.perf_counter() - start < 1.0
    _ok(1, "chirp critical order")


def test_criterion_02_cusp_velocity():
    start = time.perf_counter()
    g = make_power_cusp(0.0, 0.5, 1.0, 0.0)
    for d in DIRS:
        rep = estimate_velocity(g, 0.0, 0.5, d)
        assert rep.limit.status is LimitStatus.CONVERGED
        assert rep.limit.value == pytest.approx(1.0, abs=1e-6)
    # off the cusp the quotient needs a wider window tolerance than the
    # default before its eps**(1/2) decay registers as convergence
    for x in (0.5, -0.5):
        for d in DIRS:
            rep = estimate_velocity(g, x, 0.5, d, tol=1e-5)
            assert rep.limit.status is LimitStatus.CONVERGED
            assert abs(rep.limit.value) <= 1e-6
    assert time.perf_counter() - start < 1.0
    _ok(2, "cusp velocity")


def test_criterion_03_lfd_equivalence():
    start = time.perf_counter()
    cusp = make_power_cusp(0.0, 0.5, 1.0, 0.0)
    rep = check_lfd_equivalence(cusp, 0.0, 0.5, FWD)
    assert rep.lfd.status is LimitStatus.CONVERGED
    assert rep.lfd.value == pytest.approx(GAMMA_15, abs=1e-3)
    assert rep.equivalence_gap <= 1e-3
    assert rep.passed

    f08 = lambda t: np.abs(np.asarray(t, dtype=float)) ** 0.8
    est = kg_lfd(f08, 0.0, 0.5, FWD,
                 approach=EpsilonSchedule(2.0 ** -4, 0.5, 36), tol=2e-3)
    assert est.status is LimitStatus.CONVERGED
    assert abs(est.value) <= 1e-3
    assert time.perf_counter() - start < 10.0
    _ok(3, "lfd equivalence")


def test_criterion_04_beta_integral_identity():
    start = time.perf_counter()
    for K in (1.0, 2.0):
        for beta in (0.3, 0.5, 0.7):
            for h in (0.25, 1.0):
                f = lambda t: K * np.abs(np.asarray(t, dtype=float)) ** beta
                got = rl_integral(f, 0.0, 1.0 - beta, h)
                assert got == pytest.approx(G(1.0 + beta) * K * h, rel=1e-4)
    assert time.perf_counter() - start < 5.0
    _ok(4, "beta integral identity")


def test_criterion_05_order_monotonicity():
    start = time.perf_counter()
    checked = 0
    for f, m, d, beta, tol_m, sched, rep in _zoo_critical_runs():
        if rep.limit.status is not LimitStatus.CONVERGED:
            continue
        marked = [abs(v) for v in (m.velocity_plus, m.velocity_minus)
                  if isinstance(v, float)]
        k_star = max(marked) if marked else 1.0
        eps = (sched or EpsilonSchedule(2.0 ** -4, 0.5, 40)).increments(m.x)
        tail_start = float(eps[-max(4, eps.size // 4)])
        for alpha in (beta / 2.0, 3.0 * beta / 4.0):
            # below the critical order the variation decays like
            # K* eps**(beta-alpha); the window spread matches, so the
            # classification tolerance has to scale the same way
            tol_run = max(tol_m, 3.0 * k_star * tail_start ** (beta - alpha))
            sub = estimate_velocity(f, m.x, alpha, d, sched, tol_run)
            assert sub.limit.status is LimitStatus.CONVERGED, \
                f"{f.id} x={m.x} {d.value} alpha={alpha}"
            assert abs(sub.limit.value) <= 10.0 * tol_run
            checked += 1
    assert checked >= 2 * CUSP_COUNT  # the gate is non-vacuous
    assert time.perf_counter() - start < 30.0
    _ok(5, "order monotonicity across the zoo")


def test_criterion_06_c2_biconditional():
    violations = []
    for f, m, d, beta, tol_m, sched, rep in _zoo_critical_runs():
        converged = rep.limit.status is LimitStatus.CONVERGED
        small_c2 = rep.c2_oscillation <= tol_m
        if converged != small_c2:
            violations.append((f.id, m.x, d.value, rep.limit.status,
                               rep.c2_oscillation))
    assert violations == []
    _ok(6, "oscillation biconditional")


def test_criterion_07_null_measure_trend():
    start = time.perf_counter()
    single = make_power_cusp(0.0, 0.5, 1.0, 0.0)
    trend = null_measure_trend(single, (-1.0, 1.0), 0.5, [11, 101, 1001],
                               flag_threshold=1e-3)
    fractions = [fr for _, fr in trend]
    assert fractions[0] > fractions[1] > fractions[2]
    for (n, fr) in trend:
        assert 0.5 / n <= fr <= 2.0 / n

    for n in (11, 101, 1001):
        rep = scan_change_set(triple_cusp, (0.0, 1.0), 0.5, n,
                              flag_threshold=1e-3)
        xs = sorted({x for x, _, _ in rep.flagged})
        assert xs == [0.2, 0.5, 0.8]
        assert 0.5 * 3.0 / n <= rep.flagged_fraction <= 2.0 * 3.0 / n
    assert time.perf_counter() - start < 60.0
    _ok(7, "null measure trend")


def test_criterion_08_change_set_isolation():
    cusps = [f for f in default_zoo() if f.id.startswith("cusp")]
    assert len(cusps) == 2
    cases = [(f, (-1.0, 1.0), _critical_order(f.marks[0])) for f in cusps]
    cases.append((triple_cusp, (0.0, 1.0), 0.5))
    saw_multi = False
    for f, interval, beta in cases:
        for n in (11, 101, 1001):
            rep = scan_change_set(f, interval, beta, n, flag_threshold=1e-3)
            xs = sorted({x for x, _, _ in rep.flagged})
            step = (interval[1] - interval[0]) / (n - 1)
            if len(xs) > 1:
                saw_multi = True
                assert min(np.diff(xs)) > 1.5 * step
    assert saw_multi  # the triple construction makes the check real
    _ok(8, "change set isolation")


def test_criterion_09_holder_regression():
    start = time.perf_counter()
    for beta in (0.3, 0.5, 0.7, 0.9):
        f = make_power_cusp(0.0, beta, 1.0, 0.0)
        est = estimate_holder_exponent(f, 0.0, FWD)
        assert est.exponent == pytest.approx(beta, abs=0.01)

    w = make_weierstrass(0.5, 3, 24)
    slopes = {}
    for m, key in zip(w.marks, ("1/pi", "sqrt2-1", "0.7")):
        est = estimate_holder_exponent(w, m.x, FWD, WEIER_FIT)
        assert est.exponent == pytest.approx(WEIER_EXPONENT, abs=0.05)
        slopes[key] = est.exponent
    # regression pins: the fit is deterministic up to BLAS reassociation
    for key, slope in slopes.items():
        assert slope == pytest.approx(WEIER_SLOPES[key], abs=1e-6)
    assert time.perf_counter() - start < 10.0
    _ok(9, "holder regression accuracy")


def test_criterion_10_interval_theorems():
    start = time.perf_counter()
    hump = lambda t: -np.abs(np.asarray(t, dtype=float) - 0.5) ** 0.5
    verdict = verify_rolle(hump, 0.0, 1.0, 0.5)
    assert verdict.holds
    assert verdict.witness["x"] == 0.5

    cusp = make_power_cusp(0.0, 0.5, 1.0, 0.0)
    verdict = verify_mean_value(cusp, 0.0, 1.0, 0.5)
    assert verdict.holds
    assert verdict.witness["x"] == 0.0  # attained at the left endpoint
    assert time.perf_counter() - start < 5.0
    _ok(10, "interval theorem verifiers")


def test_criterion_11_determinism(tmp_path, capsys):
    journeys = [
        ["analyze", "--fn", "cusp:beta=0.5", "--x", "0", "--beta", "0.5"],
        ["scan", "--fn", "cusp:", "--interval=-1,1", "--beta", "0.5",
         "--n", "21", "--format", "csv"],
        ["zoo", "list"],
    ]
    for argv in journeys:
        _, first = run_cli(argv, capsys)
        _, second = run_cli(argv, capsys)
        assert first == second
        assert first.strip()
    dest = tmp_path / "out.json"
    _, streamed = run_cli(journeys[0], capsys)
    code, _ = run_cli(journeys[0] + ["--out", str(dest)], capsys)
    assert code == 0
    assert dest.read_text() == streamed
    _ok(11, "deterministic output")
