"""The single pure-Python kernel path and the import footprint."""

import os
import subprocess
import sys
from pathlib import Path

import e2crit

SRC = Path(__file__).resolve().parent.parent / "src"


def test_backend_reports_name():
    assert e2crit.backend_name() == "python"


def test_import_leaves_numpy_out():
    # the package has no runtime dependency; numpy serves the tests only
    env = dict(os.environ, PYTHONPATH=str(SRC))
    code = "import sys, e2crit; print(sorted(m for m in sys.modules if m.split('.')[0] == 'numpy'))"
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"
