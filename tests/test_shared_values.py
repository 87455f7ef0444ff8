"""The zero values that ``exactalg`` shares are never written.

``BiPoly.zero()``, every product with a zero factor and every zero scalar
operand return the one module value ``exactalg._ZERO``, and
``PolyMat2.zero()`` returns one module matrix.  That is sound only while no
code writes a value's storage after it is built.  The scan below fails if a
module of ``src/`` assigns to ``._terms``, ``._den`` or ``._e`` outside
``exactalg.py``, or if any module changes one of them in place; the
runtime check runs seeded fields through the library and then reads the
shared zeros back.
"""

from __future__ import annotations

import ast
import random
from fractions import Fraction as F
from pathlib import Path

from cohiggs import exactalg
from cohiggs.cohomology import LineBundle as O
from cohiggs.exactalg import BiPoly, PolyMat2
from cohiggs.extension import TWIST_02, TWIST_20, ExtParams, Phi1Params, Phi2Params
from cohiggs.extension import build_phi1, build_phi2, glue_check
from cohiggs.higgs import DecomposableBundle, field, normal_form_F0, stability_classify
from cohiggs.spectral import hitchin_map
from oracles import random_integrable_field, random_rat, random_univariate

SRC = Path(__file__).resolve().parents[1] / "src" / "cohiggs"
STORAGE = {"_terms", "_den", "_e"}
MUTATORS = {"update", "pop", "popitem", "setdefault", "clear"}


def _storage(node) -> bool:
    return isinstance(node, ast.Attribute) and node.attr in STORAGE


def _targets(node):
    """The expressions an assignment, augmented assignment or del writes."""
    if isinstance(node, (ast.Assign, ast.Delete)):
        todo = list(node.targets)
    elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
        todo = [node.target]
    else:
        return
    while todo:
        t = todo.pop()
        if isinstance(t, (ast.Tuple, ast.List)):
            todo += t.elts
        else:
            yield t


def _writes(tree: ast.AST) -> tuple[list[int], list[int]]:
    """(lines that bind a storage attribute, lines that change one in place)."""
    binds, mutates = [], []
    for node in ast.walk(tree):
        for t in _targets(node):
            if _storage(t):
                binds.append(t.lineno)
            elif isinstance(t, ast.Subscript) and _storage(t.value):
                mutates.append(t.lineno)
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr in MUTATORS and _storage(node.func.value)):
            mutates.append(node.lineno)
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id in ("setattr", "delattr") and len(node.args) > 1
                and isinstance(node.args[1], ast.Constant) and node.args[1].value in STORAGE):
            binds.append(node.lineno)
    return binds, mutates


def test_only_exactalg_binds_storage_and_nothing_changes_it_in_place():
    found = {}
    for path in sorted(SRC.glob("*.py")):
        binds, mutates = _writes(ast.parse(path.read_text("utf-8")))
        bad = mutates + (binds if path.name != "exactalg.py" else [])
        if bad:
            found[path.name] = sorted(bad)
    assert found == {}


def test_the_scan_sees_every_kind_of_write():
    cases = ["p._terms = {}", "p._den += 1", "a, p._e = 1, 2", "del p._terms",
             "setattr(p, '_den', 2)", "p._terms[(0, 0)] = 1", "del p._terms[t]",
             "p._terms.update(x)", "p._terms.pop(t)", "p._terms.setdefault(t, 0)",
             "p._terms.clear()", "p._terms[t] += 1"]
    for source in cases:
        assert _writes(ast.parse(source)) != ([], []), source
    for source in ["x = p._terms", "terms = dict(p._terms)", "terms[t] = p._terms[t]",
                   "q._other = 1", "p._terms.get(t)"]:
        assert _writes(ast.parse(source)) == ([], []), source


def test_shared_zeros_survive_a_seeded_run():
    rng = random.Random(29)
    oo, f0 = DecomposableBundle(O(0, 0), O(0, 0)), DecomposableBundle(O(0, 0), O(-1, 0))
    for _ in range(60):
        for bundle in (oo, f0, DecomposableBundle(O(1, 0), O(-1, 0))):
            f = random_integrable_field(rng, bundle)
            hitchin_map(f)
            stability_classify(f)
        c = BiPoly.zero()
        while not c.coeff(1, 0):
            c = random_univariate(rng, 1, 1)
        rep, _ = normal_form_F0(field(f0, a1=random_univariate(rng, 2, 1), b1=0, c1=c))
        hitchin_map(rep)
        stability_classify(rep)
        e = ExtParams(random_rat(rng) * rng.randrange(2), random_rat(rng) or F(1))
        assert glue_check(e, build_phi1(e, Phi1Params(c01=random_rat(rng))), TWIST_20)
        assert glue_check(e, build_phi2(e, Phi2Params(b10=F(rng.randint(-5, 5)))), TWIST_02)
    zero = PolyMat2.zero()
    assert exactalg._ZERO._terms == {} and exactalg._ZERO._den == 1
    assert BiPoly.zero() is exactalg._ZERO and zero is PolyMat2.zero()
    assert all(zero.entry(i, j) is exactalg._ZERO for i in (0, 1) for j in (0, 1))
