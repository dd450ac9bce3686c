"""Exception types shared across the toolkit.

Errors that a caller is expected to branch on (indeterminacy, non-unit
division, exhausted searches) get their own class; plain misuse stays a
ValueError at the call site.
"""


class PadicDynError(Exception):
    """Base class for all toolkit errors."""


class ContextMismatchError(PadicDynError):
    """Operands belong to different p-adic contexts."""


class NonUnitError(PadicDynError):
    """Division by a non-unit; callers treat this as a ramification or
    indeterminacy signal."""


class PrecisionError(PadicDynError):
    """Working precision cannot resolve the requested quantity.

    ``reason`` says what ran short; ``advice``, when given, names the
    command-line options that would help and follows it in the message.
    """

    def __init__(self, reason, advice=""):
        super().__init__(f"{reason}; {advice}" if advice else reason)
        self.reason = reason


class BadReductionError(PadicDynError):
    """A coefficient has negative p-valuation at the chosen prime."""


class IndeterminacyError(PadicDynError):
    """A denominator vanishes (or is a non-unit) where a unit is required."""


class InseparableError(PadicDynError):
    """The reduced map has identically vanishing Jacobian determinant."""


class RecenteringError(PadicDynError):
    """Series composition was attempted with a nonzero inner constant term."""


class DivisibilityError(PadicDynError):
    """The normalized local series violates its coefficient divisibility
    invariant; signals a bug or a bad prime."""


class RamificationLeakError(PadicDynError):
    """The linear part of the reduced local map is singular."""


class OrbitNotClearError(PadicDynError):
    """An orbit member hits the indeterminacy or ramification locus."""


class ResidueMismatchError(PadicDynError):
    """The residue field of the context does not match the finite-field
    point being lifted."""


class NotDominantError(PadicDynError):
    """The map's Jacobian determinant vanishes identically over Q."""


class NoPeriodicPointError(PadicDynError):
    """Exhaustive search found no clear periodic point up to m_max."""


class NoGoodPrimeError(PadicDynError):
    """No prime in the scan range passed the reduction checks."""


class TheoryViolationError(PadicDynError):
    """A proved valuation bound failed on computed data; must never fire."""


class InternalInconsistencyError(PadicDynError):
    """Exact and p-adic computations disagree; indicates a bug."""


class FieldMismatchError(PadicDynError):
    """Finite-field operands belong to different fields."""


class OrderCapError(PadicDynError):
    """An affine map raised to its group exponent is not the identity."""


class UnsupportedExtensionError(PadicDynError):
    """The requested ring extension is outside the supported tower shape."""


class CertificateFormatError(PadicDynError):
    """A certificate file is malformed or has missing fields."""


class SearchBudgetError(PadicDynError):
    """Witness scan exhausted its budget without a certificate.

    Carries the classification results of the scanned sample so callers can
    report periods found and whether the map looks like it has finite order.
    """

    def __init__(self, message, periods=None, finite_order_suspected=False,
                 scanned=0):
        super().__init__(message)
        self.periods = list(periods or [])
        self.finite_order_suspected = finite_order_suspected
        self.scanned = scanned
