"""A fresh interpreter, for checks of what a process has imported."""

import os
import subprocess
import sys

import ddseries

SRC = os.path.dirname(os.path.dirname(ddseries.__file__))


def run_fresh(code: str) -> str:
    """Run code in a new interpreter that imports ddseries from this
    checkout; returns the last line it printed."""
    done = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, timeout=60, env=dict(os.environ, PYTHONPATH=SRC),
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()[-1]
