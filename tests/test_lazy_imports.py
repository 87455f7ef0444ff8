"""What each import and each CLI call loads, seen from fresh interpreters:
``import cohiggs`` loads no submodule, ``cohiggs.cli`` no domain module, and
a command only the modules it uses."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from cohiggs import jsonio
from cohiggs.cohomology import LineBundle as O
from cohiggs.exactalg import Z1, Z2
from cohiggs.higgs import DecomposableBundle, field

SRC = str(Path(__file__).resolve().parents[1] / "src")
# today's re-exports of the package, by the module that defines each
EXPORTS = {
    "exactalg": ["BiPoly", "PolyMat2", "Rat", "RatFn"],
    "cohomology": ["LineBundle", "h_dims"],
    "chern": ["ChernData", "NumericalInvariants", "ReducedClass", "ReducedTag"],
    "higgs": ["DecomposableBundle", "HiggsField", "SpectralData", "StabilityClass"],
    "spectral": ["SpectralPoint"],
}


def _loaded_after(code: str, log: str | None = None) -> dict:
    """Run code in a fresh interpreter, with COHIGGS_LOG set to log if given:
    the cohiggs submodules it loads (after the point where it sets
    ``before``, if it does) and whether logging is loaded at the end."""
    report = ("import json, sys\n"
              "new = sorted(set(sys.modules) - globals().get('before', set()))\n"
              "print(json.dumps({'cohiggs': [m for m in new if m.startswith('cohiggs.')],"
              " 'logging': 'logging' in sys.modules}))")
    env = {k: v for k, v in os.environ.items() if k != "COHIGGS_LOG"}
    env["PYTHONPATH"] = SRC
    if log is not None:
        env["COHIGGS_LOG"] = log
    proc = subprocess.run([sys.executable, "-c", f"{code}\n{report}"], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def _cli_call(argv: list[str]) -> str:
    """Import cohiggs.cli, note what is loaded, then run one command in-process."""
    return (
        "import io, contextlib, sys, cohiggs.cli\n"
        "before = set(sys.modules)\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert cohiggs.cli.main({argv!r}) == 0\n"
    )


def test_import_cohiggs_loads_no_submodule():
    assert _loaded_after("import cohiggs") == {"cohiggs": [], "logging": False}


def test_import_cli_loads_no_domain_module():
    assert _loaded_after("import cohiggs.cli") == {
        "cohiggs": ["cohiggs.cli", "cohiggs.errors"], "logging": False}


@pytest.mark.parametrize("argv, modules", [
    ("cohomology --a 1 --b -2", ["cohiggs.cohomology"]),
    ("moduli nonempty --alpha 1 --beta 1 --gamma 0", ["cohiggs.chern", "cohiggs.cohomology"]),
    ("moduli nonempty --batch {grid}", ["cohiggs.chern", "cohiggs.cohomology"]),
])
def test_command_adds_only_its_modules(tmp_path, argv, modules):
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({"tuples": [[1, 1, 0], [0, -1, 0]]}), encoding="utf-8")
    loaded = _loaded_after(_cli_call(argv.format(grid=grid).split()))
    assert loaded == {"cohiggs": modules, "logging": False}


def test_cohiggs_log_never_loads_logging(tmp_path):
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps([[1, 1, 0]]), encoding="utf-8")
    code = _cli_call(["moduli", "nonempty", "--batch", str(grid)])
    assert _loaded_after(code, log="DEBUG") == {
        "cohiggs": ["cohiggs.chern", "cohiggs.cohomology"], "logging": False}


def test_higgs_check_never_loads_extension(tmp_path):
    path = tmp_path / "field.json"
    f = field(DecomposableBundle(O(0, 0), O(0, 0)), a1=Z1, a2=Z2)
    path.write_text(json.dumps(jsonio.field_to_json(f)), encoding="utf-8")
    loaded = _loaded_after(_cli_call(["higgs", "check", "--field", str(path)]))["cohiggs"]
    assert "cohiggs.higgs" in loaded and "cohiggs.jsonio" in loaded
    assert "cohiggs.extension" not in loaded and "cohiggs.spectral" not in loaded


def test_higgs_check_on_o_plus_o_never_loads_elimination(tmp_path):
    # the common eigenvector of an O+O field is a closed form, with no rows
    path = tmp_path / "field.json"
    f = field(DecomposableBundle(O(0, 0), O(0, 0)), a1=Z1, b1=Z1 + 1, c1=Z1 * Z1)
    path.write_text(json.dumps(jsonio.field_to_json(f)), encoding="utf-8")
    loaded = _loaded_after(_cli_call(["higgs", "check", "--field", str(path)]))["cohiggs"]
    assert "cohiggs.higgs" in loaded
    assert "cohiggs.linalg" not in loaded and "cohiggs._univariate" not in loaded


def test_higgs_normal_form_on_the_split_bundle_loads_no_extension(tmp_path):
    # the split bundle's normal form lives in cohiggs.higgs with the other two
    path = tmp_path / "field.json"
    f = field(DecomposableBundle(O(0, -1), O(-1, 1)), a2=Z2, b2=2 * Z1 - 2)
    path.write_text(json.dumps(jsonio.field_to_json(f)), encoding="utf-8")
    loaded = _loaded_after(_cli_call(["higgs", "normal-form", "--field", str(path)]))["cohiggs"]
    assert "cohiggs.higgs" in loaded
    assert "cohiggs.extension" not in loaded and "cohiggs.linalg" not in loaded


def test_every_reexport_resolves():
    names = [name for names in EXPORTS.values() for name in names]
    code = "import cohiggs\n" + "".join(
        f"assert cohiggs.{name} is __import__('cohiggs.{mod}', fromlist=['_']).{name}\n"
        for mod, names in EXPORTS.items() for name in names)
    assert set(_loaded_after(code)["cohiggs"]) >= {f"cohiggs.{mod}" for mod in EXPORTS}
    import cohiggs

    assert sorted(cohiggs.__all__) == sorted(names)


def test_unknown_attribute_raises_attribute_error():
    code = ("import cohiggs\ntry:\n    cohiggs.nosuch\nexcept AttributeError as exc:\n"
            "    assert 'nosuch' in str(exc)\nelse:\n    raise SystemExit(1)\n")
    assert _loaded_after(code)["cohiggs"] == []
