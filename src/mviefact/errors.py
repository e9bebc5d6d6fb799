"""Exception hierarchy shared across the package.

Two branches matter for the CLI exit-code mapping: ``ParameterError``
(caller passed something invalid, exit code 2) and ``NumericalError``
(a computation failed or degenerated, exit code 3).
"""


class MviefactError(Exception):
    """Base class for all package-specific errors.

    ``stage`` names the pipeline stage the error came from ("dimred",
    "hull", "solve" or "recover"); ``recovery.run_pipeline`` sets it,
    and it is None for errors raised outside the pipeline.
    """

    stage: str | None = None


class ParameterError(MviefactError, ValueError):
    """Invalid argument or configuration supplied by the caller."""


class NumericalError(MviefactError, ArithmeticError):
    """A numerical procedure failed, degenerated, or did not converge."""


# -- parameter-side errors ---------------------------------------------------

class NonSquare(ParameterError):
    pass


class BadRank(ParameterError):
    pass


class BadDims(ParameterError):
    pass


class DimMismatch(ParameterError):
    pass


class TooFewPoints(ParameterError):
    pass


class LibraryTooSmall(ParameterError):
    pass


class InfeasiblePurity(ParameterError):
    pass


class WrongCount(ParameterError):
    pass


class ZeroColumn(ParameterError):
    pass


# -- numerical-side errors ---------------------------------------------------

class NotFinite(NumericalError):
    pass


class ConvergenceFailure(NumericalError):
    pass


class RejectionStall(NumericalError):
    pass


class RankDeficientData(NumericalError):
    pass


class RankDeficientA(NumericalError):
    pass


class DegenerateInput(NumericalError):
    pass


class EmptyInterior(NumericalError):
    pass


class Divergence(NumericalError):
    pass


class NoContacts(NumericalError):
    pass


class TooFewContacts(NumericalError):
    pass
