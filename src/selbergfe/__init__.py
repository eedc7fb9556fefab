"""Functional equations and numerics for twisted Selberg zeta functions.

The spectrum names in _GEODESICS_NAMES resolve on first read, which
imports selbergfe.geodesics and numpy with it; the exact layers and the
special functions start without numpy.
"""

from .laurent import (AutomorphyClass, LaurentPoly, SymmetryKind, binom_power,
                      detect_automorphy, eval_at_one, has_symmetry, normalize,
                      parse_poly, reverse)
from .formal import (FormalProduct, Verdict, canonicalize, derive_base_zeta_fe,
                     from_motive_Z, from_motive_zeta, quotient, reflect_Z,
                     reflect_zeta, s_motive_factor, verify_theorem2,
                     verify_theorem3, verify_Z_fe)
from .special import (DomainError, PoleError, SpecialValue, SurfaceParams,
                      gamma_M, gamma_r, hurwitz_zeta, hurwitz_zeta_dw,
                      log_gamma_r, multiple_hurwitz_zeta, s_M,
                      selberg_fe_factor, sine_r)

__version__ = "0.1.0"

_GEODESICS_NAMES = frozenset({
    "BOLZA_LENGTH", "LengthSpectrum", "bolza_group", "enumerate_spectrum",
    "euler_zeta", "geodesic_count", "load_spectrum", "pgt_table",
    "save_spectrum", "selberg_Z", "zeta_motive_numeric"})


def __getattr__(name):
    if name in _GEODESICS_NAMES:
        from . import geodesics
        return getattr(geodesics, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
