"""padicdyn: exact p-adic machinery for orbit certification of rational
self-maps of affine space.

The toolkit reduces a map modulo a good prime, finds a purely periodic point
with a clear orbit over a small finite field, Hensel-lifts it, builds the
invariant neighborhood on which a power of the map acts by integral power
series, interpolates orbits by Mahler series, and emits replayable
certificates that explicit rational points are not preperiodic.
"""

__version__ = "0.1.0"

from .certify import (Certificate, ClassifyResult, PeriodBound, classify,
                      find_witness, make_certificate, period_bound,
                      run_pipeline, verify_certificate)
from .dynamics import (CLEAR, INDETERMINATE, RAMIFIED, PeriodicPointRecord,
                       ReducedMap, find_periodic_point, locus_check,
                       reduce_map)
from .mahler import (MahlerInterpolation, analyticity_exponent,
                     analyticity_margins, evaluate, mahler_coefficients,
                     orbit)
from .mapfile import MapConfig, load_map_file
from .neighborhood import (GoodPrimeReport, IteratedMap, PadicNeighborhood,
                           build_neighborhood, choose_good_prime,
                           context_for_record, hensel_lift,
                           reduced_affine_order, validate_prime)
from .padics import (INFINITY, PadicContext, PadicElement, binomial_eval,
                     factorial_valuation)
from .polynomials import MultiPoly, RationalSelfMap, parse_poly, poly_text
from .series import TruncatedSeries, expand_at, poly_eval, series_compose

__all__ = [
    "Certificate", "ClassifyResult", "PeriodBound", "classify",
    "find_witness", "make_certificate", "period_bound", "run_pipeline",
    "verify_certificate",
    "CLEAR", "INDETERMINATE", "RAMIFIED", "PeriodicPointRecord",
    "ReducedMap", "find_periodic_point", "locus_check", "reduce_map",
    "MahlerInterpolation", "analyticity_exponent", "analyticity_margins",
    "evaluate", "mahler_coefficients", "orbit",
    "MapConfig", "load_map_file",
    "GoodPrimeReport", "IteratedMap", "PadicNeighborhood",
    "build_neighborhood", "choose_good_prime", "context_for_record",
    "hensel_lift", "reduced_affine_order", "validate_prime",
    "INFINITY", "PadicContext", "PadicElement", "binomial_eval",
    "factorial_valuation",
    "MultiPoly", "RationalSelfMap", "parse_poly", "poly_text",
    "TruncatedSeries", "expand_at", "poly_eval", "series_compose",
    "__version__",
]
