"""Exception types shared across modules."""


class LsrpError(Exception):
    """Base class for every error raised by this package."""


class EmptyField(LsrpError, ValueError):
    """A required byte-string input (id, salt, password) was empty."""


class DimensionMismatch(LsrpError, ValueError):
    pass


class ModulusMismatch(LsrpError, ValueError):
    pass


class NonIntegerEntries(LsrpError, TypeError):
    """Matrix input of a non-integer dtype, which a cast would truncate."""


class InvalidState(LsrpError, RuntimeError):
    """Session operation called out of order."""


class VerificationFailed(LsrpError):
    """Key confirmation tag did not verify."""


class InvalidTrialCount(LsrpError, ValueError):
    pass
