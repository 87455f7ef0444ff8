"""A Higgs field derives each of its facts once: the slot and integrability
verdicts, the stability class, the Hitchin triple and the graded object.

The entry points still run their checks on every call, so a field that fails
them raises the same error each time; a field whose facts are filled in
compares, hashes, prints, copies and pickles like a fresh one; and every
answer equals the answer for a freshly built field.
"""

from __future__ import annotations

import copy
import dataclasses
import pickle
import random
from fractions import Fraction as F

import pytest

from cohiggs import extension as ext
from cohiggs import higgs, spectral
from cohiggs.cohomology import LineBundle as O
from cohiggs.errors import CoHiggsError, NotIntegrable, SlotViolation
from cohiggs.exactalg import BiPoly, Z1, Z2
from cohiggs.higgs import DecomposableBundle, HiggsField, field
from oracles import random_field, random_integrable_field, random_strictly_semistable_field

B_OO = DecomposableBundle(O(0, 0), O(0, 0))
B_F0 = DecomposableBundle(O(0, 0), O(-1, 0))
B_PM1 = DecomposableBundle(O(1, 0), O(-1, 0))
BUNDLES = (B_OO, B_F0, B_PM1, ext.TRIVIAL_EXTENSION_BUNDLE)

# strictly semistable on O+O: upper triangular with B_i = 2 A_i, so the two
# components commute; the fibre over (1, 2) is unramified
SEMISTABLE = field(B_OO, a1=Z1 + 3, b1=2 * Z1 + 6, a2=Z2 * Z2 - 2, b2=2 * Z2 * Z2 - 4)


def fresh(f: HiggsField) -> HiggsField:
    """An equal field built from the same entries, with nothing derived yet."""
    return field(f.bundle, *f.entries())


def chain(f: HiggsField) -> tuple:
    """Every entry point that reads a fact of a strictly semistable field."""
    return (
        higgs.validate_field(f),
        higgs.is_integrable(f),
        higgs.stability_classify(f),
        spectral.hitchin_map(f),
        spectral.fibre_over_point(f, F(1), F(2)),
        higgs.graded_object(f),
        higgs.s_equiv_rep(f),
    )


def outcome(call, f: HiggsField):
    """call(f), or the type and detail of the domain error it raises."""
    try:
        return call(f)
    except CoHiggsError as e:
        return type(e), str(e)


ANSWERS = (
    higgs.validate_field,
    higgs.is_integrable,
    higgs.stability_classify,
    spectral.hitchin_map,
    lambda f: spectral.fibre_over_point(f, F(2), F(-1)),
    higgs.graded_object,
    higgs.s_equiv_rep,
    lambda f: higgs.normal_form_F0(f)[0],
    higgs.normal_form_pm1,
    ext.trivial_extension_normal_form,
)


def test_each_fact_is_computed_once(monkeypatch):
    # the one helper behind each fact: the slot boxes, integrability, the
    # Hitchin triple (two determinants), the eigenvector quadratics that the
    # class on O+O and the graded object both read, the class, the graded object
    helpers = ("higgs_shape", "commute", "det2", "_coefficient_matrices", "_share_a_root",
               "_rational_common_eigenvector")
    calls = dict.fromkeys(helpers + ("BiPoly.__mul__",), 0)

    def counting(name, real):
        def wrapper(*args):
            calls[name] += 1
            return real(*args)
        return wrapper

    for name in helpers:
        monkeypatch.setattr(higgs, name, counting(name, getattr(higgs, name)))
    monkeypatch.setattr(BiPoly, "__mul__", counting("BiPoly.__mul__", BiPoly.__mul__))
    f = fresh(SEMISTABLE)
    first = chain(f)
    once = dict(calls)
    assert first[2] is higgs.StabilityClass.STRICTLY_SEMISTABLE
    assert {k: once[k] for k in helpers} == {
        "higgs_shape": 1, "commute": 1, "det2": 2, "_coefficient_matrices": 1,
        "_share_a_root": 1, "_rational_common_eigenvector": 1}
    assert once["BiPoly.__mul__"] > 0
    assert chain(f) == first
    assert calls == once  # the second pass reads every fact back


@pytest.mark.parametrize("bad", [
    field(B_F0, b1=Z1**4),  # B1 lies in O(3,0)
    field(B_OO, b1=BiPoly.const(1), c2=BiPoly.const(1)),  # B1 C2 != C1 B2
], ids=["slot_violation", "not_integrable"])
def test_a_failing_check_raises_the_same_error_on_every_call(bad):
    for call in ANSWERS[2:7]:
        first = outcome(call, bad)
        assert isinstance(first, tuple) and issubclass(first[0], CoHiggsError), call
        assert outcome(call, bad) == first == outcome(call, fresh(bad))
    assert not (higgs.validate_field(bad) and higgs.is_integrable(bad))
    assert "_stability" not in vars(bad) and "_hitchin" not in vars(bad)


def _count_spectral_data(monkeypatch) -> list:
    """The SpectralData instances built from now on."""
    built = []
    real = higgs.SpectralData.__post_init__

    def counting(self):
        built.append(self)
        real(self)

    monkeypatch.setattr(higgs.SpectralData, "__post_init__", counting)
    return built


def test_the_spectral_datum_is_built_once_per_field(monkeypatch):
    built = _count_spectral_data(monkeypatch)
    f = fresh(SEMISTABLE)
    s = spectral.hitchin_map(f)
    assert spectral.hitchin_map(f) is s
    fibre = spectral.fibre_over_point(f, F(1), F(2))
    assert len(built) == 1 and built[0] is s
    g = fresh(SEMISTABLE)
    assert spectral.hitchin_map(g) == s and spectral.fibre_over_point(g, F(1), F(2)) == fibre


@pytest.mark.parametrize("bad, error", [
    (field(B_F0, b1=Z1**4), (SlotViolation, "field violates its shape slots")),
    (field(B_OO, b1=BiPoly.const(1), c2=BiPoly.const(1)),
     (NotIntegrable, "Hitchin map needs an integrable field")),
], ids=["slot_violation", "not_integrable"])
def test_the_hitchin_path_raises_the_same_error_on_every_call(bad, error, monkeypatch):
    built = _count_spectral_data(monkeypatch)
    for _ in range(3):
        assert outcome(spectral.hitchin_map, bad) == error
        assert outcome(lambda f: spectral.fibre_over_point(f, F(1), F(2)), bad) == error
    assert built == [] and "_hitchin" not in vars(bad)


def test_derived_facts_leave_value_semantics_alone():
    f = fresh(SEMISTABLE)
    chain(f)
    assert {"_valid", "_integrable", "_stability", "_hitchin", "_quadratics",
            "_graded"} <= vars(f).keys()
    g = fresh(SEMISTABLE)
    assert f == g and hash(f) == hash(g) and repr(f) == repr(g)
    names = [x.name for x in dataclasses.fields(f)]
    assert names == [x.name for x in dataclasses.fields(g)] == ["bundle", "phi1", "phi2"]
    for twin in (copy.copy(f), copy.deepcopy(f), pickle.loads(pickle.dumps(f))):
        assert twin == g and hash(twin) == hash(g) and repr(twin) == repr(g)
        assert [x.name for x in dataclasses.fields(twin)] == names
        assert chain(twin) == chain(g)


def _fields(rng: random.Random, bundle: DecomposableBundle) -> list[HiggsField]:
    out = [field(bundle), random_field(rng, bundle)]
    out += [random_integrable_field(rng, bundle) for _ in range(4)]
    if bundle == B_OO:
        out += [random_strictly_semistable_field(rng) for _ in range(4)]
    return out


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("bundle", BUNDLES, ids=str)
def test_every_answer_equals_that_of_a_fresh_field(seed, bundle):
    rng = random.Random(seed)
    for f in _fields(rng, bundle):
        first = [outcome(call, f) for call in ANSWERS]  # fills in the facts
        assert [outcome(call, f) for call in ANSWERS] == first
        assert [outcome(call, fresh(f)) for call in ANSWERS] == first


@pytest.mark.parametrize("seed", range(6))
def test_s_equiv_rep_of_a_field_is_that_of_its_graded_object(seed):
    rng = random.Random(seed)
    fields = [field(B_OO)] + [random_strictly_semistable_field(rng) for _ in range(8)]
    for f in fields:
        assert higgs.s_equiv_rep(f) == higgs.s_equiv_rep(higgs.graded_object(f))
