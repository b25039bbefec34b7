"""Shared exception types and the process exit codes the CLI maps them to."""


class SynchroError(Exception):
    """Base class for all toolkit errors."""

    exit_code = 1


class ParseError(SynchroError):
    """Malformed automaton file; carries the offending 1-based line number."""

    exit_code = 2

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(message if line is None else f"line {line}: {message}")


class NotSynchronizing(SynchroError):
    exit_code = 3


class NotTransitive(SynchroError):
    exit_code = 4


class ResourceCap(SynchroError):
    """A configured search cap (visited subsets, enumeration size) was hit."""

    exit_code = 5


class InternalContradiction(SynchroError):
    """A step that is guaranteed to succeed failed; always an implementation bug."""

    exit_code = 6


class CapExceeded(SynchroError):
    """A group's order exceeds the configured cap.

    ``partial_count`` is a proven lower bound on the order that already
    exceeds the cap (it equals the order when the cap is the order minus 1).
    """

    exit_code = 7

    def __init__(self, message: str, partial_count: int | None = None):
        self.partial_count = partial_count
        super().__init__(message)


class NotStronglyConnected(SynchroError):
    exit_code = 8


class NotAPermutation(SynchroError):
    exit_code = 9


class WrongDefect(SynchroError):
    exit_code = 10


class NoDeficientLetters(SynchroError):
    exit_code = 11


class NoDefectOneLetters(SynchroError):
    exit_code = 12


class UnsupportedAlphabet(SynchroError):
    exit_code = 13


class RetryExhausted(SynchroError):
    exit_code = 14
