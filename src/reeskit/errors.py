"""Exception types shared across the toolkit."""


class ReesKitError(Exception):
    """Base class for every error raised by this package."""


class InvalidInstance(ReesKitError, ValueError):
    """Input data violates a structural precondition."""


class ZeroVector(InvalidInstance):
    pass


class EmptyFamily(InvalidInstance):
    pass


class UnequalCardinalities(InvalidInstance):
    """Two members of a basis family have different sizes."""

    def __init__(self, first, second):
        self.first = tuple(first)
        self.second = tuple(second)
        super().__init__(f"members {self.first} and {self.second} have different sizes")


class BadRank(InvalidInstance):
    pass


class EmptyInput(InvalidInstance):
    pass


class UnequalModuli(InvalidInstance):
    """Two vectors of a polymatroid base family have different moduli."""

    def __init__(self, first, second):
        self.first = tuple(first)
        self.second = tuple(second)
        super().__init__(f"vectors {self.first} and {self.second} have different moduli")


class VariableAbsent(InvalidInstance):
    pass


class ParseError(ReesKitError):
    """Instance file cannot be parsed into the wire format."""


class DegenerateCone(ReesKitError):
    """Generators fail to span the full ambient dimension."""


class PreconditionFailed(ReesKitError):
    pass


class CapExceeded(ReesKitError):
    """A configured resource budget was exceeded before completion."""


class IntegrityError(ReesKitError):
    """An internal invariant that should be unbreakable was broken."""


class MethodDisagreement(IntegrityError):
    """Two independent certification routes returned different verdicts."""


class TheoremCounterexample(ReesKitError):
    """A checked structural theorem failed on a concrete instance.

    Carries the check code and a JSON-ready witness payload so the finding
    survives into reports instead of being swallowed.
    """

    def __init__(self, check, witness):
        self.check = check
        self.witness = witness
        super().__init__(f"{check}: counterexample {witness!r}")
