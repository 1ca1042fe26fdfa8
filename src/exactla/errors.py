"""Exception hierarchy shared by all modules."""


class ExactLAError(Exception):
    """Base class for every error raised by this package."""


class NotDivisible(ExactLAError):
    """Exact division requested but no quotient exists in the ring."""


class ZeroDivisor(ExactLAError):
    """Division by zero or by a zero divisor."""


class IntegerNotInvertible(ExactLAError):
    """Division by an integer k whose image k*1 is zero or a zero divisor."""


class NonTriangularIdeal(ExactLAError):
    """Quotient-ring ideal is not triangular (generator i not monic in variable i)."""


class DftUnavailable(ExactLAError):
    """Ring lacks the principal root of unity (or invertible 2) needed for the DFT."""


class NonUnitConstantTerm(ExactLAError):
    """Power-series inversion requires an invertible constant term."""


class DegreeTooHigh(ExactLAError):
    """Polynomial degree exceeds the reciprocal order."""


class DimensionMismatch(ExactLAError):
    """Matrix/vector shapes are not conformable."""


class NotInvertibleDiagonal(ExactLAError):
    """Triangular inversion hit a non-invertible diagonal entry."""


class NotSurjective(ExactLAError):
    """LUP decomposition found a pivot row without a nonzero candidate."""


class ExactDivisionFailed(ExactLAError):
    """A fraction-free elimination step left the ring (broken precondition)."""


class ZeroConnectedMinor(ExactLAError):
    """Dodgson condensation hit a zero connected minor (the method's known failure mode)."""


class SingularHankelSystem(ExactLAError):
    """The Hankel system of the minimal-polynomial solver is singular."""


class ZeroSequence(ExactLAError):
    """Berlekamp-Massey input sequence is identically zero."""


class RetriesExhausted(ExactLAError):
    """Probabilistic routine failed to reach the requested target within its retries."""


class AdjointVanishes(ExactLAError):
    """Adj(lambda*I - A) = 0: the eigenvalue has geometric multiplicity >= 2."""


class NoCandidateWithinBound(ExactLAError):
    """CRT reconstruction found no representative within the stated bound."""


class PrimePoolExhausted(ExactLAError):
    """The embedded prime ladder is too small for the requested modulus product."""


class GramCoefficientZero(ExactLAError):
    """The Gram coefficient a_r used as denominator vanishes (rank < r)."""


class Inconsistent(ExactLAError):
    """Linear system has no solution (A * pinv * V != V)."""


class InvalidGroupParams(ExactLAError):
    """Benchmark case has an invalid group number or ring parameters."""


class ConfigError(ExactLAError):
    """Benchmark configuration file could not be parsed."""


class ParseError(ExactLAError):
    """Ring literal or matrix file could not be parsed."""


class UnknownAlgorithm(ExactLAError):
    """No characteristic-polynomial algorithm has the requested id."""


class NotApplicable(ExactLAError):
    """The algorithm does not apply to the matrix's ring (and no lift does)."""


class Unsupported(ExactLAError, NotImplementedError):
    """The ring lacks an operation this build needs (for example a gcd)."""


# what inverse_of_unit raises for an element that is not a unit
NOT_A_UNIT = (NotDivisible, ZeroDivisor, NonUnitConstantTerm)
