"""Exception types shared by all ncairy modules."""

__all__ = ["NcairyError", "DomainError", "OverflowRisk", "ConvergenceFailure",
           "NoContraction", "OutOfRange", "PoleEncountered"]


class NcairyError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(NcairyError):
    """Input outside the mathematical domain of the operation (NaN, Inf, ...)."""


class OverflowRisk(NcairyError):
    """The requested unscaled quantity would exceed the double-precision range."""


class ConvergenceFailure(NcairyError):
    """An iterative procedure exhausted its budget without converging."""


class NoContraction(NcairyError):
    """Fixed-point sweeps diverged; the tail start point is too far left."""


class OutOfRange(NcairyError):
    """Evaluation point not covered by the stored solution grid."""


class PoleEncountered(NcairyError):
    """The matrix Painleve II solution blew up during continuation.

    Carries the bracketed blow-up location and the grid above it, which
    stays valid.
    """

    def __init__(self, pole_at: float, grid):
        self.pole_at = pole_at
        self.grid = grid
        super().__init__(f"solution blow-up detected near S = {pole_at:.6f}")
