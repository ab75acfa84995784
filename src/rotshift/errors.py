"""Shared exception types.

cli.main reports every RotshiftError as one `error:` line.  A graph
defect is one GraphValidationError: its kind names the defect and its
witness() is the JSON the reports carry under `validation`.  Every
size cap raises CapExceeded, which names the cap.
"""

from __future__ import annotations


class RotshiftError(Exception):
    """Base class for every error raised by this package."""


class CapExceeded(RotshiftError):
    """A requested computation exceeds a documented size cap."""

    def __init__(self, what: str, requested, cap):
        self.what = what
        self.requested = requested
        self.cap = cap
        super().__init__(f"{what}: requested {requested}, cap is {cap}")


class ContextMismatch(RotshiftError):
    """Exact angles from unrelated generator contexts were combined."""


class MissingGeneratorValue(RotshiftError):
    """A float evaluation needs a numeric value for an undeclared generator."""

    def __init__(self, generator: str):
        self.generator = generator
        super().__init__(f"no numeric value supplied for generator {generator!r}")


class AngleSyntaxError(RotshiftError):
    """An angle expression does not match the accepted grammar."""


class GraphValidationError(RotshiftError):
    """A structural defect of a labeled graph.

    kind names the defect; it is the witness's `error` value, which is
    part of the JSON contract: empty-graph, duplicate-edge,
    unknown-vertex, unknown-symbol, not-left-resolving, not-essential,
    unused-symbol.  fields name the witness (a vertex, symbol, edge or
    direction), JSON-ready.
    """

    def __init__(self, kind: str, message: str, **fields):
        self.kind = kind
        self.fields = fields
        super().__init__(message)

    def witness(self) -> dict:
        """JSON-ready description of the defect."""
        return {"error": self.kind, **self.fields}


class NotInvariantSaturated(RotshiftError):
    """Quotients are only formed along invariant saturated vertex subsets."""


class ParseError(RotshiftError):
    """A system description file is malformed."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
