"""Only quadrature loads scipy: every other command starts on numpy alone.

Each check runs in a fresh interpreter, since the test process itself
has scipy loaded (tests/common.py uses its Gamma for reference values).
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

LFD = ["lfd", "--fn", "cusp:", "--x", "0", "--beta", "0.5"]

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


def test_lfd_loads_scipy():
    report = run_fresh(_RUN_COMMANDS, json.dumps([LFD]))
    assert report["codes"] == [0]
    assert report["imported"] == []
    assert "scipy.special" in report["ran"]


def test_bare_rl_integral_loads_scipy():
    report = run_fresh("""
import json, sys
import fracvel
before = "scipy" in sys.modules
value = fracvel.rl_integral(lambda t: t, 0.0, 0.5, 1.0)
print(json.dumps([before, "scipy.special" in sys.modules, value]))
""")
    assert report[:2] == [False, True]
    assert math.isclose(report[2], 4.0 / (3.0 * math.sqrt(math.pi)), rel_tol=1e-4)
