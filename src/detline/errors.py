"""Exception taxonomy.

Two families matter for callers.  ValidationError and its subclasses mean the
input was malformed or violated a precondition; the computation never started.
MathematicalRefusal and its subclasses mean the input was well formed but the
requested quantity does not exist (kernel present, integral divergent, ...).
The CLI maps the first family to exit code 1 and the second to exit code 2.
A refusal never carries a numerical answer.
"""


class DetlineError(Exception):
    pass


class ValidationError(DetlineError):
    pass


class ParseError(ValidationError):
    pass


class ShapeMismatch(ValidationError):
    pass


class AlgebraMismatch(ValidationError):
    """Operands live over different algebras or different modules."""


class NonAssociativeTable(ValidationError):
    """The multiplication table fails the group axioms."""


class DecompositionFailure(DetlineError):
    """Numerical block decomposition could not be completed or verified."""


class NotInCommutant(ValidationError):
    """Matrix does not commute with the algebra action to tolerance."""


class NotSelfAdjoint(ValidationError):
    pass


class NegativeSpectrum(ValidationError):
    """Operator claimed positive has eigenvalues below tolerance."""


class NotAdmissible(ValidationError):
    """Candidate scalar product fails one of the admissibility conditions."""


class NotIso(ValidationError):
    """Morphism is not invertible."""


class NotExact(ValidationError):
    """Sequence is not exact at the middle term."""


class DuplicateDegree(ValidationError):
    pass


class RelationViolation(ValidationError):
    """Boundary relations do not hold through the given representation."""


class InvalidSubdivision(ValidationError):
    pass


class NotHermitianSymbol(ValidationError):
    pass


class BackendUnsupported(ValidationError):
    pass


class MathematicalRefusal(DetlineError):
    """Requested quantity is mathematically undefined for this input."""


class NonInvertible(MathematicalRefusal):
    pass


class KernelDetected(MathematicalRefusal):
    """Positive operator has spectral mass at zero; log-determinant is -inf."""


class IndeterminateConvergence(MathematicalRefusal):
    """A torus determinant cannot be trusted: the computed roots do not
    reproduce the polynomial, or the quadrature panels do not settle within
    their budget."""


class IllConditionedKernel(MathematicalRefusal):
    """Zero and nonzero spectrum are not separated well enough to trust."""


class NotDeterminantClass(MathematicalRefusal):
    pass


class NotUnimodular(MathematicalRefusal):
    """A generator image has Fuglede-Kadison determinant different from 1."""


class NotDenselyExact(MathematicalRefusal):
    """Quotient map is not an isomorphism in the extended (dense) sense."""
