"""The benchmark harness still runs against this source tree.

``perfbench/spans.py`` wraps library functions by module attribute name, so
renaming or deleting one of them breaks the traced benchmark run.  The
harness's own self-check runs every workload once per mode on tiny inputs
and must exit 0.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_perfbench_selfcheck_passes():
    proc = subprocess.run(
        [sys.executable, "perfbench/selfcheck.py"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
