"""Exception types shared across the package."""

from __future__ import annotations


class DomainError(ValueError):
    """An argument lies outside the real domain a routine is valid on."""


class ToleranceUnattainable(ArithmeticError):
    """The requested tolerance is below the accuracy floor of the series.

    Divergent asymptotic series cannot be summed past the index of their
    smallest term; the smallest reachable bound is reported so callers can
    decide whether it is good enough.

    Attributes:
        best_bound: smallest certified error bound achievable at this argument.
        k_best: truncation index attaining ``best_bound``.
    """

    def __init__(self, message, best_bound, k_best):
        super().__init__(message)
        self.best_bound = best_bound
        self.k_best = k_best


class QuadratureNonConvergence(RuntimeError):
    """A quadrature spent its node budget before two refinement levels met
    the error target.

    Attributes:
        value: best value computed so far.
        error: a-posteriori estimate (difference of the last two levels).
    """

    def __init__(self, message, value=None, error=None):
        super().__init__(message)
        self.value = value
        self.error = error
