"""Exception types shared across the package."""


class WkaError(Exception):
    """Base class for all package-specific errors."""


class Inconsistent(WkaError):
    """Affine system has no solution within tolerance; `space` holds the
    least-squares solution and its residual when the solver got that far."""

    def __init__(self, message, space=None):
        super().__init__(message)
        self.space = space


class NotSemisimple(WkaError):
    """Presented algebra has a degenerate GNS form."""


class NotStarClosed(WkaError):
    """Presented involution violates the *-algebra axioms."""


class CartanMismatch(WkaError):
    """Factor spans of Delta(1) fail the Cartan subalgebra relations."""


class GramDegenerate(WkaError):
    """Sesquilinear form required to be positive definite is singular."""


class NonIntegralMultiplicity(WkaError):
    """Fusion coefficient is not a nonnegative integer within tolerance."""


class NoSolution(WkaError):
    """Defining linear system admits no solution within tolerance."""


class NonUnique(WkaError):
    """Defining linear system has a nontrivial solution space."""


class NoUnit(WkaError):
    """Convolution algebra of the dual has no unit within tolerance."""


class NotFaithful(WkaError):
    """Functional required to be faithful has a degenerate Gram matrix."""


class NotTracial(WkaError):
    """Functional required to be tracial fails phi(xy) = phi(yx)."""


class NotCounital(WkaError):
    """Bialgebra fails the counital-algebra preconditions."""


class InvalidGroupoid(WkaError):
    """Composition/inverse tables violate a groupoid axiom."""


class InvalidCocycle(WkaError):
    """Twist data is not a hermitian unimodular cocycle."""


class InvalidAction(WkaError):
    """Group action does not respect the weak Kac structure."""


class ParseError(WkaError):
    """Text input could not be parsed."""


class IndexOutOfRange(WkaError):
    """Serialized entry refers to a basis index outside the algebra."""
