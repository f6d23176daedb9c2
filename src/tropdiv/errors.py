"""Exception types shared across the package."""


class TropdivError(Exception):
    """Base class for all library errors."""


class InputError(TropdivError):
    """Malformed or out-of-contract input (bad JSON, bad indices, ...)."""


class Disconnected(InputError):
    """The edge list does not connect all vertices."""


class IndexOutOfRange(InputError):
    """A vertex or edge index is outside the declared range."""


class SizeMismatch(InputError):
    """Objects built over different graphs (or of different lengths) were mixed."""


class EmptyOrFullSubset(InputError):
    """A firing subset must be a proper nonempty subset of the vertices."""


class EmptySubgraph(InputError):
    """A chip-firing subgraph must be nonempty (and proper)."""


class NotMember(InputError):
    """The function is not a member of the linear system it was tested against."""


class DegenerateCone(TropdivError):
    """The graded cone is degenerate (only reachable with a disconnected model)."""


class InvalidPL(InputError):
    """Breakpoint data violates continuity or the integer-slope requirement."""


class HypothesisFailure(TropdivError):
    """A pipeline was run on an instance whose hypotheses do not hold."""


class CertificateError(TropdivError):
    """A proof leg of a certificate failed its check: the claim does not hold."""


class BudgetExceeded(TropdivError):
    """A configured search budget (vertices, degrees, product count) was exceeded."""


class DegreeOverflow(BudgetExceeded):
    """A requested graded degree exceeds the configured bound."""
