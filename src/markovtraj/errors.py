"""Exception hierarchy shared by all modules.

The CLI maps these onto exit codes: malformed model files exit 2,
domain/precondition violations exit 3 (as does a query that runs out of
memory, a MemoryError), internal invariant violations exit 4, failed
verification checks exit 1.
"""


class MarkovTrajError(ValueError):
    """Base class for all errors raised by this package."""


class DomainError(MarkovTrajError):
    """An argument is outside an operation's domain (unknown state,
    mismatched spaces, depth out of range, map value outside the target)."""


class PreconditionError(MarkovTrajError):
    """A mathematical hypothesis of an operation is violated (non-disjoint
    cylinder family, non-nested sequence, content below the requested bound)."""


class ModelFormatError(MarkovTrajError):
    """A model file or model description is malformed."""


class InvariantError(MarkovTrajError):
    """An internal invariant failed; indicates a bug, not a caller error."""
