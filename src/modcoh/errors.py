"""Exception types shared across the package."""


class ModcohError(Exception):
    """Base class for all errors raised by this package."""


# field construction / arithmetic
class NotPrime(ModcohError):
    pass


class ReducibleModulus(ModcohError):
    pass


class NoBuiltinModulus(ModcohError):
    pass


class DivisionByZero(ModcohError, ZeroDivisionError):
    pass


class MixedContexts(ModcohError):
    pass


# linear algebra
class ShapeMismatch(ModcohError):
    pass


class Singular(ModcohError):
    pass


# polynomials
class BadDegree(ModcohError):
    pass


# groups
class SingularGenerator(ModcohError):
    pass


class OrderCapExceeded(ModcohError):
    pass


class NotAdditivelyClosed(ModcohError):
    pass


class BadCharacteristic(ModcohError):
    pass


# modules and cohomology
class GroupMismatch(ModcohError):
    pass


class NotACocycle(ModcohError):
    pass


class BadProjection(ModcohError):
    pass


class NotEquivariant(ModcohError):
    pass


class NotFixed(ModcohError):
    pass


# pipeline
class HypothesisNotSatisfied(ModcohError):
    pass


class TheoremViolation(ModcohError):
    """A computation contradicted a proved statement; always a hard error."""


# report verification
class CorruptReport(ModcohError):
    pass


class FailedCheck(ModcohError):
    pass
