"""No command loads scipy: every command, lfd included, starts on numpy alone.

Each check runs in a fresh interpreter, since the test process itself
has scipy loaded (tests/test_rlcalc.py checks Gamma and the Gauss-Jacobi
rule against it).
"""
import json
import math
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

COMMANDS = [["zoo", "list"]] + [
    argv + ["--format", fmt]
    for argv in (
        ["analyze", "--fn", "cusp:beta=0.5", "--x", "0", "--beta", "0.5"],
        ["holder", "--fn", "weierstrass:", "--x", "0.7", "--direction", "fwd"],
        ["scan", "--fn", "cusp:", "--interval=-1,1", "--beta", "0.5", "--n", "11"],
        ["verify", "--fn", "cusp:", "--theorem", "mean_value", "--interval", "0,1",
         "--beta", "0.5"],
    )
    for fmt in ("json", "csv")
]

LFD = [["lfd", "--fn", "cusp:", "--x", "0", "--beta", "0.5", "--scheme", scheme]
       for scheme in ("graded_product", "jacobi_weighted")]

# Prints, as JSON, the exit codes of the command lines in argv[1] and the
# scipy modules loaded after the import and after the commands.
_RUN_COMMANDS = """
import contextlib, io, json, sys
import fracvel, fracvel.cli as cli
def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
report = {"imported": scipy_modules(), "codes": []}
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        report["codes"].append(cli.main(argv))
report["ran"] = scipy_modules()
print(json.dumps(report))
"""


def run_fresh(code, *args):
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run([sys.executable, "-c", code, *args], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_import_and_commands_other_than_lfd_leave_scipy_unloaded():
    report = run_fresh(_RUN_COMMANDS, json.dumps(COMMANDS))
    assert report["codes"] == [0] * len(COMMANDS)
    assert report["imported"] == []
    assert report["ran"] == []


def test_lfd_leaves_scipy_unloaded():
    report = run_fresh(_RUN_COMMANDS, json.dumps(LFD))
    assert report["codes"] == [0, 0]
    assert report["imported"] == []
    assert report["ran"] == []


def test_lfd_runs_with_scipy_blocked():
    report = run_fresh('import sys; sys.modules["scipy"] = None\n' + _RUN_COMMANDS,
                       json.dumps(LFD))
    assert report["codes"] == [0, 0]


def test_bare_rl_integral_leaves_scipy_unloaded():
    report = run_fresh("""
import json, sys
import fracvel
value = fracvel.rl_integral(lambda t: t, 0.0, 0.5, 1.0)
print(json.dumps(["scipy" in sys.modules, value]))
""")
    assert report[0] is False
    assert math.isclose(report[1], 4.0 / (3.0 * math.sqrt(math.pi)), rel_tol=1e-4)
