"""Exception hierarchy shared by all fig8torsion modules."""


class Fig8Error(Exception):
    """Base class for all errors raised by this package."""


class SingularMatrix(Fig8Error):
    """Matrix inversion attempted on a (numerically) singular matrix."""


class DegenerateLeadingCoefficient(Fig8Error):
    """Quadratic solver called with |a| below the degeneracy tolerance."""


class DimensionMismatch(Fig8Error):
    """Chain complex data with inconsistent dimensions or nonzero d o d."""


class NotAcyclic(Fig8Error):
    """Torsion requested for a complex whose homology does not vanish."""


class WordParseError(Fig8Error):
    """Unparseable group-word text."""


class SingularParameter(Fig8Error):
    """Representation parameter s = 0 (or otherwise out of domain)."""


class DegenerateU(Fig8Error):
    """Meridian trace u at a zero of u^2(u^2-5); closed forms blow up."""


class InvalidSlope(Fig8Error):
    """Surgery slope (p, q) not coprime or equal to (0, 0)."""
