"""README's library example runs as written and prints what its comments say."""

from __future__ import annotations

import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_readme_library_example_runs():
    (code,) = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text("utf-8"), re.S)
    proc = subprocess.run([sys.executable, "-c", code], env={"PYTHONPATH": str(ROOT / "src")},
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    # each print is one line of output; a trailing comment states that line
    prints = [line for line in code.splitlines() if line.startswith("print(")]
    out = proc.stdout.splitlines()
    assert len(out) == len(prints)
    said = {i: line.split("# ", 1)[1] for i, line in enumerate(prints) if "# " in line}
    assert said == {0: "Stable", 1: "z1^4 - 1"}
    assert all(out[i] == text for i, text in said.items())
