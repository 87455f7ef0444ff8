"""The console checks of the installed entry point: the script parses, and
CI runs it once the package is installed."""

from __future__ import annotations

import shutil
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = "tests/console_checks.sh"


def test_console_checks_script_parses():
    bash = shutil.which("bash")
    if bash is None:
        pytest.skip("no bash")
    proc = subprocess.run([bash, "-n", str(ROOT / SCRIPT)], capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == 0, proc.stderr


def test_workflow_runs_console_checks_after_install():
    workflow = (ROOT / ".github/workflows/tests.yml").read_text("utf-8")
    step = workflow[workflow.index("- name: Console script"):]
    step = step[:step.find("\n      - name:")]
    lines = [line.strip() for line in step.splitlines()]
    assert lines.index(f"bash {SCRIPT}") > lines.index("python -m pip install .")
