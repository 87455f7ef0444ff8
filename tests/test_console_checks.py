"""CI's committed check scripts: each parses, and its workflow step runs it.
The console checks run once the package is installed; the benchmark smoke
reads the package from src/."""

from __future__ import annotations

import shutil
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = "tests/console_checks.sh"
BENCH_SMOKE = "tests/bench_smoke.sh"


def _parses(script: str) -> None:
    bash = shutil.which("bash")
    if bash is None:
        pytest.skip("no bash")
    proc = subprocess.run([bash, "-n", str(ROOT / script)], capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == 0, proc.stderr


def _step(name: str) -> list[str]:
    """The stripped lines of the workflow step called name."""
    workflow = (ROOT / ".github/workflows/tests.yml").read_text("utf-8")
    step = workflow[workflow.index(f"- name: {name}"):]
    step = step[:step.find("\n      - name:")]
    return [line.strip() for line in step.splitlines()]


def test_console_checks_script_parses():
    _parses(SCRIPT)


def test_workflow_runs_console_checks_after_install():
    lines = _step("Console script")
    assert lines.index(f"bash {SCRIPT}") > lines.index("python -m pip install .")


def test_bench_smoke_script_parses():
    _parses(BENCH_SMOKE)


def test_workflow_runs_bench_smoke():
    assert f"run: bash {BENCH_SMOKE}" in _step("Benchmark smoke")
