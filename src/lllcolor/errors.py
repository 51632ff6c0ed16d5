"""Exception types shared across the package, and the record reader that
turns a bad record of a text artifact into a line-numbered ``ParseError``."""

from __future__ import annotations

from collections.abc import Iterable
from itertools import chain


class LLLColorError(Exception):
    """Base class for all package errors."""


class InvalidInstanceError(LLLColorError):
    """A variable/event description is internally inconsistent."""


class InvalidInputError(LLLColorError):
    """An argument violates an operation's stated precondition."""


class InvalidParameterError(LLLColorError):
    """A numeric parameter is out of its admissible range.

    ``least_valid`` carries the smallest admissible value when one exists.
    """

    def __init__(self, message: str, least_valid: int | None = None):
        super().__init__(message)
        self.least_valid = least_valid


class UnsatisfiableEventError(LLLColorError):
    """A single event forbids its entire cube; no assignment can avoid it."""

    def __init__(self, event_id: int):
        super().__init__(f"event {event_id} forbids every assignment of its variables")
        self.event_id = event_id


class NonConvergenceError(LLLColorError):
    """The resampler exhausted its budget before reaching quiescence."""

    def __init__(self, resamplings: int, trace: list[int], violated: list[int]):
        super().__init__(
            f"no quiescence after {resamplings} resamplings; "
            f"{len(violated)} events still violated"
        )
        self.resamplings = resamplings
        self.trace = trace
        self.violated = violated


class StreamIntegrityError(LLLColorError):
    """A stream's locality oracle disagrees with its enumeration, or an
    item violates a structural stream invariant."""

    def __init__(self, message: str, witness: tuple | None = None):
        super().__init__(message)
        self.witness = witness


class ConstructionFailureError(LLLColorError):
    """The phased colorer could not extend the committed prefix.

    This is honest incompleteness of the commitment strategy, never a
    silently wrong coloring.
    """

    def __init__(self, phase: int, constraint_ids: tuple[int, ...], message: str):
        super().__init__(f"phase {phase}: {message} (constraints {list(constraint_ids)})")
        self.phase = phase
        self.constraint_ids = tuple(constraint_ids)


class InsufficientHorizonError(LLLColorError):
    """A query needs coloring bits beyond the committed prefix."""


class WrongStreamError(LLLColorError):
    """A coloring is being checked against a stream it was not built from."""


class ParseError(LLLColorError):
    """A text artifact does not follow its interchange format."""


class RecordReader:
    """The nonblank, stripped lines of ``text.splitlines()``, the text given
    whole or in chunks that each end at a line break.  Read inside ``with``,
    a ValueError, IndexError or ZeroDivisionError from a record becomes a
    ParseError "line N: malformed record '<raw>'", any other package error
    "line N: <message>"; a decode error names no record and passes."""

    def __init__(self, source: str | Iterable[str]):
        self.chunks = (source,) if isinstance(source, str) else source
        self.lineno = 0
        self.raw = ""

    def __iter__(self):
        lines = chain.from_iterable(map(str.splitlines, self.chunks))
        for self.lineno, self.raw in enumerate(lines, start=1):
            if line := self.raw.strip():
                yield line

    def error(self, message: str, lineno: int = 0) -> ParseError:
        return ParseError(f"line {lineno or self.lineno}: {message}")

    def __enter__(self) -> RecordReader:
        return self

    def __exit__(self, kind, exc, tb) -> None:
        if kind is None or issubclass(kind, (ParseError, UnicodeDecodeError)):
            return
        if issubclass(kind, (ValueError, IndexError, ZeroDivisionError)):
            raise self.error(f"malformed record {self.raw!r}") from exc
        if issubclass(kind, LLLColorError):
            raise self.error(str(exc)) from exc
