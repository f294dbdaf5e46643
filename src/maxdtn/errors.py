"""Exception hierarchy shared by all maxdtn modules."""


class MaxdtnError(Exception):
    """Base class for all errors raised by this package."""


class AmbiguousBranch(MaxdtnError):
    """Upper-half-plane square root requested on the branch cut [0, +inf)."""


class ZeroConstantTerm(MaxdtnError):
    """Jet inversion / square root with vanishing constant term."""


class OrderUnderflow(MaxdtnError):
    """Differentiation of an order-0 jet."""


class FocalDegeneracy(MaxdtnError):
    """Singular boundary Jacobian (chart degenerate at the base point)."""


class RealFrequency(MaxdtnError):
    """Spectral parameter with Im lambda = 0 (theta > 0 is required)."""


class ZeroFrequencyCovector(MaxdtnError):
    """Operation requiring r0 > 0 called with a vanishing covector."""


class DegenerateRho(MaxdtnError):
    """|rho| below the admissible floor in a transport/eikonal step."""


class OutsideRetainedRegion(MaxdtnError):
    """Evaluation point beyond the retained normal-variable region."""


class OrderBudgetExceeded(MaxdtnError):
    """Recursion depth exceeds the jet order budget."""


class ContourThroughZero(MaxdtnError):
    """Contour value too close to zero after maximal edge refinement."""


class InteriorResonance(MaxdtnError):
    """Per-mode impedance denominator vanishes (interior resonance)."""


class CoincidentMedia(MaxdtnError):
    """eps1*mu1 == eps2*mu2 where the two-media symbol requires otherwise."""


class ConfigError(MaxdtnError):
    """Invalid run configuration."""
