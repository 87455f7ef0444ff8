"""The CLI's plain text, byte for byte: every ``--help`` screen, the
``--version`` line and the ``InputError`` lines of malformed command lines.

The expected text is ``cli_text.json``, captured with ``COLUMNS=80`` from the
CLI that built the whole argparse tree on every call.  It changes only when a
screen is meant to change; then rewrite it with

    COLUMNS=80 PYTHONPATH=src python tests/test_cli_text.py
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
from pathlib import Path

from cohiggs.cli import COMMANDS, main

GOLDEN = Path(__file__).with_name("cli_text.json")

MALFORMED = [
    "nosuch", "ext", "cohomology --a 1", "ext dims --u -1/2 --v 1",
    # a stray option before the second word: argparse still descends into dims
    "ext --x dims --u 1 --v 2", "higgs check", "-5 ext",
]


def _run(argv: list[str]) -> dict:
    """Exit code and stdout of one in-process CLI call."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        try:
            code = main(argv)
        except SystemExit as exc:  # --help and --version exit through argparse
            code = exc.code
    return {"exit": code, "stdout": buf.getvalue()}


def capture() -> dict:
    """The help screens of the program and of every row of COMMANDS, and the rest."""
    paths = ["", *(c.words for c in COMMANDS)]
    return {
        "help": {path: _run([*path.split(), "--help"]) for path in paths},
        "version": _run(["--version"]),
        "malformed": {line: _run(line.split()) for line in MALFORMED},
    }


def test_cli_text_is_unchanged(monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    assert capture() == json.loads(GOLDEN.read_text(encoding="utf-8"))


if __name__ == "__main__":
    if os.environ.get("COLUMNS") != "80":
        sys.exit("run with COLUMNS=80")
    GOLDEN.write_text(json.dumps(capture(), indent=1, ensure_ascii=False) + "\n", encoding="utf-8")
