"""Exception hierarchy shared by all modules."""


class DyntwistError(Exception):
    """Base class for all library errors."""


class SchemaError(DyntwistError):
    """Malformed input document."""


class AlgebraError(DyntwistError):
    """Structure constants violate antisymmetry or the Jacobi identity."""


class DecompositionError(DyntwistError):
    """The h/m split does not satisfy the requirements of the chosen mode."""


class SpaceMismatch(DyntwistError):
    """Operands live in incompatible spaces."""


class GradingMismatch(DyntwistError):
    """Requested grading does not apply to the element's space."""


class NotInvariant(DyntwistError):
    """Operation requires an h-invariant element."""


class NotMaurerCartan(DyntwistError):
    """Element fails the Maurer-Cartan equation within truncation."""

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class NoSolution(DyntwistError):
    """Linear solve has no solution; carries the residual for diagnosis.

    A failing coboundary solve also names its slice: the arity of the
    target and its total PBW length.
    """

    def __init__(self, message, residual=None, arity=None, length=None):
        super().__init__(message)
        self.residual = residual
        self.arity = arity
        self.length = length


class NotInImage(DyntwistError):
    """Element is not in the image of the symmetrization map."""


class NotInvertible(DyntwistError):
    """Series or gauge element has no inverse mod hbar^(N+1)."""


class ContractFailure(DyntwistError):
    """Contraction identities violated on an encountered element."""


class MorphismUnsound(DyntwistError):
    """A morphism tower failed its defining relations at a needed arity."""


class ObstructionNotRepaired(DyntwistError):
    """Order-by-order solver got stuck on a cohomology obstruction.

    `order` is the hbar order and `length` the total length of the slice
    that has no solution (None when no single slice is to blame).
    """

    def __init__(self, message, order=None, obstruction=None, length=None):
        super().__init__(message)
        self.order = order
        self.obstruction = obstruction
        self.length = length


class ValuationViolated(DyntwistError):
    """Algebraic twist lacks the valuation property needed for K -> J."""


class StraighteningStalled(DyntwistError):
    """Classical reduction flow failed to make progress."""

    def __init__(self, message, order=None, residual=None):
        super().__init__(message)
        self.order = order
        self.residual = residual


class TruncationTooSmall(DyntwistError):
    """Rank stabilization failed; increase truncation bounds."""
