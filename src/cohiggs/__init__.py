"""Exact computations for rank-2 co-Higgs bundles on P1 x P1.

Modules by theme:

* :mod:`cohiggs.exactalg` - rationals, bivariate polynomials, 2x2 matrices
  and general conjugation (the arithmetic substrate);
* :mod:`cohiggs.cohomology` - line bundles O(a,b): cohomology dimensions
  and slopes for the polarization C0 + F;
* :mod:`cohiggs.chern` - Chern-class reduction and the moduli existence
  decision procedures;
* :mod:`cohiggs.higgs` - Higgs fields on split bundles: shapes,
  integrability, stability classification, graded objects, normal forms;
* :mod:`cohiggs.extension` - the c1 = -F, c2 = 1 family on extensions of
  O(-1,1) by O(0,-1): chart transitions, closed-form sections, dimension
  counts, the integrability dichotomy and the moduli strata;
* :mod:`cohiggs.spectral` - the Hitchin map, its image constraint, spectral
  fibres and decomposability diagnostics;
* :mod:`cohiggs.cli` - the ``cohiggs`` command-line tool (JSON in/out).

``import cohiggs`` loads no submodule; each name of ``__all__`` loads its own
module on first use.
"""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    "exactalg": "BiPoly PolyMat2 Rat RatFn",
    "cohomology": "LineBundle h_dims",
    "chern": "ChernData NumericalInvariants ReducedClass ReducedTag",
    "higgs": "DecomposableBundle HiggsField SpectralData StabilityClass",
    "spectral": "SpectralPoint",
}
__all__ = [name for names in _EXPORTS.values() for name in names.split()]


def __getattr__(name: str):  # PEP 562
    for module, names in _EXPORTS.items():
        if name in names.split():
            return getattr(import_module(f".{module}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
