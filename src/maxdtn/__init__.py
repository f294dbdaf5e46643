"""Semiclassical boundary-symbol calculus for the Maxwell DtN map."""

from .config import RunConfig, load_config
from .crosssys import CrossSystemInput, solve_cross_system
from .eikonal import PhaseSeries, eikonal_coeffs, eikonal_residual
from .errors import (AmbiguousBranch, CoincidentMedia, ConfigError,
                     ContourThroughZero, DegenerateRho, InteriorResonance,
                     MaxdtnError, OrderBudgetExceeded, OutsideRetainedRegion,
                     RealFrequency, ZeroFrequencyCovector)
from .geometry import (GammaSeries, MediaField, ScalarField, SurfaceChart,
                       beta_jets, beta_pointwise, gamma_pointwise)
from .jets import Jet, NormalSeries
from .mie import RiccatiPair, dtn_compare, exact_mode_impedance, riccati_bessel
from .numerics import cross, dot, sqrt_upper
from .quantizer import (AliasWarning, ConvergenceWarning, GridOperator,
                        boundedness_check, composition_defect, operator_norm,
                        quantize)
from .spectral import (SpectralParameter, cutoff_eta, m0_matrix, m_matrix,
                       split_lambda, symbol_m)
from .transmission import (TransmissionConfig, calibrate_C, count_zeros,
                           locate_zeros, mode_determinant, region_is_free,
                           region_scan, symbol_T)
from .transport import (AmplitudeTable, BoundarySymbol, boundary_symbol,
                        maxwell_residual, transport_coeffs)

__version__ = "0.1.0"
