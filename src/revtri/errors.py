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


#: How many characters of a bad input value an error message quotes.
QUOTE_LIMIT = 80


def quoted(value) -> str:
    """``repr(value)`` when it has at most :data:`QUOTE_LIMIT` characters, else its first
    ``QUOTE_LIMIT`` and ``...``.  Lists, tuples, dicts and long strings are rendered piece
    by piece, only until the limit is passed, so a huge value is never rendered whole."""
    text = ""
    for piece in _repr_pieces(value):
        text += piece
        if len(text) > QUOTE_LIMIT:
            return text[:QUOTE_LIMIT] + "..."
    return text


def _repr_pieces(value):
    """The pieces of ``repr(value)`` in order; a string longer than the limit gives the
    repr of its first ``QUOTE_LIMIT + 1`` characters, which :func:`quoted` cuts."""
    kind = type(value)
    if isinstance(value, str) and len(value) > QUOTE_LIMIT:
        yield repr(value[:QUOTE_LIMIT + 1])
    elif kind is dict:
        yield "{"
        for i, (key, item) in enumerate(value.items()):
            yield ", " if i else ""
            yield from _repr_pieces(key)
            yield ": "
            yield from _repr_pieces(item)
        yield "}"
    elif kind in (list, tuple):
        yield "[" if kind is list else "("
        for i, item in enumerate(value):
            yield ", " if i else ""
            yield from _repr_pieces(item)
        yield "]" if kind is list else ",)" if len(value) == 1 else ")"
    else:
        yield repr(value)
