"""Domain error hierarchy.

Every failure of a mathematical precondition raises a subclass of
:class:`CoHiggsError`; the class name doubles as the machine-readable
``kind`` reported by the CLI.  Malformed input (bad JSON, missing files,
unparseable flags) is *not* a domain error and is handled separately by
the CLI with exit code 2; ``int_from_json`` is the one check of a JSON
integer, kept here so that the CLI can use it without the JSON codecs.
"""

from __future__ import annotations


def int_from_json(obj, what: str) -> int:
    # bool is a subclass of int, but true/false are not JSON integers
    if not isinstance(obj, int) or isinstance(obj, bool):
        raise ValueError(f"{what} must be an integer, got {obj!r}")
    return obj


class CoHiggsError(Exception):
    """Base class for all domain errors."""

    @property
    def kind(self) -> str:
        return type(self).__name__


class SingularAutomorphism(CoHiggsError):
    """Conjugation attempted by a matrix with identically zero determinant."""


class BundleMismatch(CoHiggsError):
    """Operation requires matching underlying bundles."""


class NotIntegrable(CoHiggsError):
    """Higgs field fails the integrability (vanishing wedge) condition."""


class NotStrictlySemistable(CoHiggsError):
    """Graded-object machinery applied outside the strictly semistable locus."""


class IrrationalEigenvector(CoHiggsError):
    """Common eigenvector exists only over a quadratic extension of the rationals."""


class LeadingCoefficientZero(CoHiggsError):
    """Normal form needs the relevant leading coefficient to be nonzero."""


class NotInNormalFormDomain(CoHiggsError):
    """Field is outside the domain of the requested normal form."""


class ZeroC1(CoHiggsError):
    """The lower-left entry of the first Higgs component vanishes identically."""


class ZeroC(CoHiggsError):
    """The lower-left datum of a pulled-back field vanishes identically."""


class SlotViolation(CoHiggsError):
    """A section does not fit the degree box of its slot."""


class TrivialExtension(CoHiggsError):
    """Operation defined only for non-trivial extension classes."""


class InconsistentPoint(CoHiggsError):
    """Moduli point whose stratum tag contradicts its data."""


class InconsistentRho(CoHiggsError):
    """Spectral datum violating the image constraint of the Hitchin map."""


class NotUnivariate(CoHiggsError):
    """Polynomial expected to depend on a single chart variable."""
