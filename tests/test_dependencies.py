import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def test_import_does_not_load_numpy():
    # localarith has no runtime dependencies; keep numpy from returning via an import
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    subprocess.run(
        [sys.executable, "-c", "import localarith, sys; assert 'numpy' not in sys.modules"],
        env=env,
        check=True,
        timeout=60,
    )
