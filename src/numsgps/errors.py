"""Exception types shared by every module in the package."""

__all__ = [
    "ChainTooLong",
    "FrobeniusTooLarge",
    "GcdNotOne",
    "GenusTooLarge",
    "LevelTooLarge",
    "MultiplicityTooLarge",
    "NotAMember",
    "NotASemigroup",
    "SemigroupError",
    "TypeTooLarge",
    "WholeMonoid",
]


class SemigroupError(ValueError):
    """Base class for all errors raised by this package."""


class GcdNotOne(SemigroupError):
    """The generators have gcd > 1, so the complement would be infinite."""


class NotASemigroup(SemigroupError):
    """A candidate element set is not closed under addition.

    Carries ``witness``, a pair (a, b) of members whose sum is missing.
    """

    def __init__(self, message: str, witness: tuple[int, int] | None = None):
        super().__init__(message)
        self.witness = witness


class NotAMember(SemigroupError):
    """An operation needed a nonzero member and was given something else."""


class WholeMonoid(SemigroupError):
    """The operation is undefined on the full monoid of nonnegative integers."""


class TypeTooLarge(SemigroupError):
    """Refusing a 2^type subset enumeration beyond the configured guard."""


class GenusTooLarge(SemigroupError):
    """Refusing an exhaustive search beyond the configured genus guard."""


class LevelTooLarge(SemigroupError):
    """A genealogy level exceeded the configured node cap."""


class FrobeniusTooLarge(SemigroupError):
    """The Frobenius number of the requested semigroup exceeds the guard."""


class MultiplicityTooLarge(SemigroupError):
    """The multiplicity of the requested semigroup exceeds the guard."""


class ChainTooLong(SemigroupError):
    """A chain would have more links than the configured guard."""
