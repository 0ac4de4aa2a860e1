"""Exception types shared across the package."""

from __future__ import annotations


class BellchainError(Exception):
    """Base class for all package-specific errors."""


class ValidationError(BellchainError):
    """Raised when an input violates a documented precondition."""


class DimensionMismatchError(ValidationError):
    """Raised when operator and state dimensions are incompatible."""


class ConvergenceError(BellchainError):
    """Raised when an iterative solver cannot reach the requested tolerance."""


class PairNotPureError(BellchainError):
    """Raised when a boundary pair is too entangled with the rest of the
    chain to be swapped out exactly.

    Attributes
    ----------
    purity : float
        The measured purity of the boundary-pair reduced state.
    """

    def __init__(self, purity: float, threshold: float):
        self.purity = float(purity)
        self.threshold = float(threshold)
        super().__init__(
            f"boundary pair purity {self.purity:.12f} is below the "
            f"extraction threshold {self.threshold:.12f}"
        )
