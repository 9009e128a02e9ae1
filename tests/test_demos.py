"""Every demo script runs to completion against the package under test."""

import glob
import os
import subprocess
import sys

import pytest
from conftest import cli_env

DEMOS = sorted(
    glob.glob(os.path.join(os.path.dirname(__file__), "..", "demos", "*.py"))
)


def test_demos_found():
    assert DEMOS


@pytest.mark.parametrize("path", DEMOS, ids=[os.path.basename(p) for p in DEMOS])
def test_demo_runs(path, tmp_path):
    proc = subprocess.run(
        [sys.executable, path], cwd=tmp_path, env=cli_env(),
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
