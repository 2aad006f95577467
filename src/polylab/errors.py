"""Exception hierarchy shared by all polylab modules.

The CLI maps these onto process exit codes; library callers catch the
base classes.  Keep the taxonomy flat: one class per failure mode that a
caller can act on differently.
"""


class PolylabError(Exception):
    """Base class for all errors raised by polylab."""


class InvalidInputError(PolylabError):
    """Malformed input: bad schema, violated type invariant, bad flag value."""


class DomainError(PolylabError):
    """Mathematically inadmissible arguments (log of a nonpositive number, ...)."""


class DegenerateExponentError(DomainError):
    """Exponent nu == 1: the geometric-sum closed forms degenerate."""


class RangeError(DomainError):
    """A derived quantity left its admissible range (e.g. a mark outside (0,1))."""


class SolverError(PolylabError):
    """A numerical procedure failed to produce a trustworthy result."""


class BracketError(SolverError):
    """Root bracketing failed within the expansion budget."""


class ModelViolationError(SolverError):
    """Observed behaviour contradicts a structural assumption (monotonicity, psi >= -1)."""


class ReconstructionError(SolverError):
    """No invariant pair is consistent with the observed interleaving word."""


class TieError(SolverError):
    """Two progression values collided within tolerance; order is undefined."""

    def __init__(self, message, n=None, m=None):
        super().__init__(message)
        self.n = n
        self.m = m


class AmbiguityError(SolverError):
    """More than one integer shift matches within tolerance (density too close to rational)."""


class InsufficientDataError(SolverError):
    """Not enough overlapping data to decide (e.g. word overlap below minimum)."""


class PrecisionError(PolylabError):
    """Configured precision cannot resolve the requested computation."""

    def __init__(self, message, required_bits=None):
        super().__init__(message)
        self.required_bits = required_bits
