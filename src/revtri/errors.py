"""Exception taxonomy shared across the toolkit."""


class RevtriError(Exception):
    """Base class for all toolkit errors."""


class InputError(RevtriError, ValueError):
    """A caller supplied data violating a documented precondition."""


class InfeasibilityError(InputError):
    """The request is mathematically impossible (e.g. n orthonormal vectors in K^d with n > d)."""


class DegeneracyError(RevtriError, ArithmeticError):
    """A quantity required to be nonzero collapsed below tolerance."""


class OrthonormalityError(InputError):
    """A vector family failed orthonormality validation.

    Carries the offending :class:`~revtri.hilbert.GramReport` as ``report``.
    """

    def __init__(self, message, report):
        super().__init__(message)
        self.report = report


class ScenarioError(InputError):
    """A scenario file failed parsing or validation; ``path`` locates the bad field."""

    def __init__(self, path, message):
        super().__init__(f"{path}: {message}")
        self.path = path
        self.reason = message


class ParamError(ScenarioError):
    """A bound parameter is missing or out of range; ``path`` is its file key (``[i]`` for
    an entry of a family list), relative to the bound's ``params``."""
