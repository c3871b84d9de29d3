"""The package needs numpy alone at run time: importing it loads no scipy
module, and no command imports one on the way."""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def run_fresh(script, cwd=None):
    """Last stdout line of ``script`` run in a fresh interpreter that
    imports the package from this checkout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, cwd=cwd, timeout=120, check=True
    )
    return done.stdout.splitlines()[-1]


def test_package_import_loads_no_scipy_module():
    script = (
        "import json, sys\n"
        "import resolvent_kit, resolvent_kit.cli\n"
        "print(json.dumps(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.'))))\n"
    )
    assert json.loads(run_fresh(script)) == []


# A meta-path finder placed first refuses every scipy module, so an import
# of scipy anywhere on a command's path, at module level or inside a
# function, fails the run.
REFUSE_SCIPY = """
import sys

class RefuseScipy:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError(f"{name} imported at run time")
        return None

sys.meta_path.insert(0, RefuseScipy())
"""


def test_commands_run_with_scipy_refused(tmp_path):
    runs = [
        ["selftest"],
        ["resonances", "--lambda", "1.0", "--N", "60", "--potential", "7.5*r^2*exp(-r)",
         "--e-min", "0.5", "--e-max", "8.0", "--steps", "300", "--csv", "barrier.csv", "--json", "barrier.json"],
        ["bound-states", "--lambda", "20", "--N", "15", "--potential", "5*exp(-(r-3.5)^2/4) - 8*exp(-r^2/5)",
         "--csv", "bs.csv", "--json", "bs.json"],
        ["dos", "--family", "oscillator", "--lambda", "0.45", "--N", "100", "--potential", "7.5*r^2*exp(-r)",
         "--e-min", "0.05", "--e-max", "8", "--steps", "400", "--csv", "dos.csv", "--json", "dos.json"],
        ["resolvent", "--N", "12", "--potential", "7.5*r^2*exp(-r)", "--e-min", "0.2", "--e-max", "4.0",
         "--steps", "30", "--im-z", "0.3", "--csv", "g.csv", "--json", "g.json"],
    ]
    script = REFUSE_SCIPY + (
        "import json\n"
        "from resolvent_kit import cli\n"
        f"codes = [cli.main(args) for args in {runs!r}]\n"
        "print(json.dumps([codes, sorted(m for m in sys.modules if m.startswith('scipy'))]))\n"
    )
    codes, loaded = json.loads(run_fresh(script, cwd=tmp_path))
    assert codes == [0] * len(runs) and loaded == []
    for out in ("barrier.csv", "bs.json", "dos.csv", "g.csv"):
        assert (tmp_path / out).stat().st_size > 0
