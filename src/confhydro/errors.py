"""Exception types shared across the package."""

__all__ = [
    "ConvergenceError", "DomainError", "EvaluationError", "UnsupportedDegreeError",
]


class DomainError(ValueError):
    """Argument outside the mathematical domain of an operator."""


class EvaluationError(RuntimeError):
    """A user-supplied function could not be evaluated at a probe point."""


class ConvergenceError(RuntimeError):
    """Successive quadrature refinements disagree beyond tolerance.

    Carries both estimates so the caller can inspect the disagreement; a
    caller that knows what was being integrated names it in ``where``.
    """

    def __init__(self, coarse: float, fine: float, rtol: float, where: str = ""):
        self.coarse = coarse
        self.fine = fine
        self.rtol = rtol
        message = f"quadrature refinements disagree: {coarse!r} vs {fine!r} (rtol={rtol:g})"
        super().__init__(f"{message} in {where}" if where else message)


class UnsupportedDegreeError(ValueError):
    """A polynomial degree past the ceiling that a routine supports: the
    Rodrigues oracle's, or the degree recurrences' of the special functions."""
