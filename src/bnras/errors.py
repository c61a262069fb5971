"""Exception types shared across the package."""


class BnrasError(Exception):
    """Base class for every error this package raises deliberately."""


class NetworkFormatError(BnrasError):
    """A network document or evidence string could not be parsed.

    Carries the 1-based line and column of the offending token when known,
    and ``message``, the text without that location.
    """

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        self.message = message
        self.line = line
        self.column = column
        if line is not None:
            message = f"line {line}, column {column or 1}: {message}"
        super().__init__(message)


class NetworkValidationError(BnrasError):
    """An operation required a structurally valid network and did not get one."""


class CycleError(NetworkValidationError):
    """The parent relation contains a directed cycle."""


class CapacityError(BnrasError):
    """A state enumeration or transition matrix exceeds its configured cap."""


class ImpossibleEvidenceError(BnrasError):
    """The evidence assignment has probability zero under the network."""


class DeterministicConflictError(BnrasError):
    """Every candidate outcome of a node has zero conditional weight.

    Either hard 0/1 table entries conflict with the state, or the products
    of a node with very many children underflow to 0.0; the message says
    which. ``node`` is the node's index when a sampler step raised it.
    """

    def __init__(self, message: str, node: int | None = None):
        self.node = node
        super().__init__(message)


class PositivityError(BnrasError):
    """A table contains entries equal to 0 or 1; the convergence analysis
    requires probabilities strictly inside (0, 1)."""


class MixingOverflowError(BnrasError):
    """A bound input or requirement leaves the range of 64-bit floats, so no
    finite trial or transition count can be stated at this precision: p0 is
    so small that 1 - p0^2/8 rounds to 1, the exact or factored Pi
    underflows to 0.0, so does the total of a node's full conditional,
    which p0 divides by, or the tolerances ask for more trials or
    transitions per trial than any double holds."""
