"""Exception types shared across the package, and the file-reading wrapper that raises them."""

import functools


class MirrorBoostError(Exception):
    """Base class for all package errors."""


class DomainError(MirrorBoostError, ValueError):
    """Input outside the domain of a potential or projection."""


class DegenerateInputError(MirrorBoostError, ValueError):
    """Input that makes the operation ill-posed (e.g. all-zero vector)."""


class ConfigurationError(MirrorBoostError, ValueError):
    """Invalid or infeasible configuration (caps, flags, set pairs)."""


class UsageError(MirrorBoostError, ValueError):
    """Caller misuse: mismatched lengths, empty ensembles, bad flags."""


class NoWeakLearnabilityError(MirrorBoostError, RuntimeError):
    """The weak learner returned a non-positive edge on the first round."""


class BoundViolationError(MirrorBoostError, AssertionError):
    """A theoretical training-error bound was violated during a run."""


class ParseError(MirrorBoostError, ValueError):
    """Malformed input file; carries the offending line number."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


def reads_file(load):
    """Wrap ``load(path, ...)``: an unreadable path is a UsageError, bad UTF-8 a ParseError."""

    @functools.wraps(load)
    def wrapper(path, *args, **kwargs):
        try:
            return load(path, *args, **kwargs)
        except OSError as exc:
            raise UsageError(f"cannot read {path!r}: {exc.strerror or exc}") from None
        except UnicodeDecodeError as exc:
            raise ParseError(f"{path!r} is not UTF-8 text: {exc.reason}") from None

    return wrapper
