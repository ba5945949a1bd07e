"""Exception types shared across the package, the formatting of the values
they refuse, the file-opening wrapper that raises them, and the writer of
output files."""

import functools
import os
import stat


class MirrorBoostError(Exception):
    """Base class for all package errors."""


class DomainError(MirrorBoostError, ValueError):
    """Input outside the domain of a mirror map, divergence or projection."""


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


def shown(value) -> str:
    """``repr(value)`` for a refusal message, with an int too long for repr (past
    ``sys.get_int_max_str_digits()`` digits) shortened to its bit length."""
    try:
        return repr(value)
    except ValueError:  # the int, or an int inside a container
        if isinstance(value, int):
            return f"<an int of {value.bit_length()} bits>"
        return f"<a {type(value).__name__} holding an int too long to show>"


def opens_file(verb: str, at: int = 0):
    """Wrap a function whose positional argument ``at`` is a file path: an
    OSError is a UsageError "cannot <verb> '<path>': <reason>", bad UTF-8 a ParseError."""

    def wrap(func):
        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            try:
                return func(*args, **kwargs)
            except OSError as exc:
                raise UsageError(f"cannot {verb} {args[at]!r}: {exc.strerror or exc}") from None
            except UnicodeDecodeError as exc:
                raise ParseError(f"{args[at]!r} is not UTF-8 text: {exc.reason}") from None
        return wrapper
    return wrap


def write_over(path: str, text: str) -> None:
    """Write ``text`` as UTF-8 over the file at ``path``, then cut a regular file
    to that length: cheaper than truncating first, and a device such as
    /dev/null or a pipe takes the text as from ``open(path, "w")``. A write
    that fails leaves the file's content undefined."""
    data = text.encode("utf-8")
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    try:
        rest = memoryview(data)
        while rest:
            rest = rest[os.write(fd, rest):]
        if stat.S_ISREG(os.fstat(fd).st_mode):
            os.ftruncate(fd, len(data))
    finally:
        os.close(fd)
