"""The README's library quick start runs as written.

Its fenced block is the first example a reader copies, so a rename in the
package must not leave it importing a name that is gone. It runs in a fresh
interpreter against this checkout's sources and prints lhs and rhs of one
chain-rule comparison, which must agree to Monte Carlo accuracy.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def quick_start_block() -> str:
    readme = (ROOT / "README.md").read_text()
    section = readme.split("## Library quick start", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_readme_quick_start_runs(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", quick_start_block()],
                          cwd=tmp_path, env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    lhs, rhs = (float(v) for v in proc.stdout.split())
    assert abs(lhs - rhs) < 1e-3, (lhs, rhs)
