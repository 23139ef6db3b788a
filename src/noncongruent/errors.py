"""Exception types shared across the package."""


class NoncongruentError(Exception):
    """Base class for all package-specific errors."""


class ZeroOrNegative(NoncongruentError):
    """Input must be a positive integer."""


class NotSquareFree(NoncongruentError):
    """Input has a repeated prime factor."""


class NotCoprime(NoncongruentError):
    """Arguments share a common factor where coprimality is required."""


class NoRoot(NoncongruentError):
    """No square root exists at the requested modulus."""


class IllDefined(NoncongruentError):
    """Quadratic-field residue symbol is not well defined for these arguments."""


class NoRepresentation(NoncongruentError):
    """The requested norm-form representation does not exist."""


class OutOfRange(NoncongruentError):
    """Argument lies outside the supported range."""


class NotRankTwo(NoncongruentError):
    """Operation requires pure 2-Selmer rank exactly 2."""


class VerificationFailed(NoncongruentError):
    """A posteriori check of a computed quantity failed (internal bug signal)."""


class PrecisionExhausted(NoncongruentError):
    """The descent oracle's Hensel frontier outgrew its cap or stayed live
    at its last level; nothing else raises it."""


class NotFundamental(NoncongruentError):
    """Discriminant is not a fundamental field discriminant."""


class TooLarge(NoncongruentError):
    """Input exceeds the supported desk-scale bound."""
