"""The package import stays light: it loads numpy and scipy.linalg, and
none of scipy.special or the scipy subpackages that take most of a
second to import."""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
HEAVY = ("scipy.special", "scipy.signal", "scipy.stats", "scipy.optimize", "scipy.interpolate")


def test_package_import_leaves_heavy_scipy_modules_unloaded():
    script = (
        "import json, sys\n"
        "import resolvent_kit, resolvent_kit.cli\n"
        f"print(json.dumps([m for m in {HEAVY!r} if m in sys.modules]))\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120, check=True
    )
    assert json.loads(done.stdout.splitlines()[-1]) == []
