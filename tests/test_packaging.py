"""What pyproject.toml declares about the package holds for the code."""

import os
import re
import subprocess
import sys
from pathlib import Path

import ddemagnus

ROOT = Path(__file__).resolve().parents[1]


def test_the_package_imports_no_scipy():
    # numpy is the only runtime dependency; scipy is test-only
    code = ("import sys, ddemagnus, ddemagnus.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(ROOT / "src")}, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"


def test_the_version_is_the_declared_one():
    pyproject = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    project = pyproject.split("[project]", 1)[1].split("\n[", 1)[0]
    assert ddemagnus.__version__ == re.search(r'^version = "([^"]+)"$', project, re.M).group(1)
