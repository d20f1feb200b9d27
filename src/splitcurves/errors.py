"""Exception types shared across the package."""


class SplitCurvesError(Exception):
    """Base class for all package-specific errors."""


class ReducibleMinimalPolynomial(SplitCurvesError):
    pass


class FieldMismatch(SplitCurvesError):
    pass


class ParseError(SplitCurvesError):
    """Syntax error in polynomial text; carries the offending position."""

    def __init__(self, message, position):
        super().__init__("%s (at position %d)" % (message, position))
        self.position = position


class NotHomogeneous(SplitCurvesError):
    pass


class InhomogeneousImage(SplitCurvesError):
    pass


class PointNotOnConic(SplitCurvesError):
    pass


class ConicNotSmooth(SplitCurvesError):
    pass


class CommonComponent(SplitCurvesError):
    pass


class ShearExhausted(SplitCurvesError):
    pass


class TooManyNodes(SplitCurvesError):
    pass


class DegreeMismatch(SplitCurvesError):
    pass


class NotTangentLine(SplitCurvesError):
    pass


class SearchBudgetExceeded(SplitCurvesError):
    pass


class WrongNodeCount(SplitCurvesError):
    pass


class NodeDegenerate(SplitCurvesError):
    pass


class LineThroughNode(SplitCurvesError):
    pass


class HyperplaneThroughNode(SplitCurvesError):
    pass


class QuadricSingularAtNode(SplitCurvesError):
    pass


class UnknownExample(SplitCurvesError):
    pass


class CannotCertify(SplitCurvesError):
    """Raised when an exact decision procedure cannot settle the question.

    This is an honest "don't know", never a verdict.
    """
