"""Exception taxonomy shared across the solver stack, and the one damped
fixed-point loop whose failures raise ConvergenceError."""

import numpy as np


class RotstarError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(RotstarError):
    """Invalid or inconsistent run configuration."""


class DomainError(RotstarError, ValueError):
    """Argument outside the mathematical domain of an operation."""


class SeriesDomainError(DomainError):
    """Expansion variable left the configured convergence region."""


class ConvergenceError(RotstarError):
    """An iteration failed to reach its tolerance."""

    def __init__(self, message, residual=None, iterations=None):
        super().__init__(message)
        self.residual = residual
        self.iterations = iterations


def damped_iteration(step, state, tol, max_iter, what, stall=None):
    """Iterate state = step(state) until the change step returns falls below
    tol; returns (state, changes), one change per step.

    stall = (after, lag), after >= lag: past step `after`, a change larger
    than the one `lag` steps earlier means the map stopped contracting.
    That and the cap max_iter raise ConvergenceError naming `what`.
    """
    changes = []
    for it in range(1, max_iter + 1):
        state, change = step(state)
        changes.append(change)
        if change < tol:
            return state, changes
        if stall and it > stall[0] and change > changes[-1 - stall[1]]:
            raise ConvergenceError(f"{what} stopped contracting", residual=change, iterations=it)
    raise ConvergenceError(f"{what} did not converge in {max_iter} steps",
                           residual=changes[-1], iterations=max_iter)


def contraction_ratio(changes):
    """Median ratio of successive changes over the last eight steps (0 when
    there is no ratio to take)."""
    ratios = [b / a for a, b in zip(changes[:-1], changes[1:]) if a > 0]
    return float(np.median(ratios[-8:])) if ratios else 0.0


class RegimeError(RotstarError):
    """Parameter regime assumption (small rotation / weak field) violated."""


class ErgoViolationError(RegimeError):
    """The 4-velocity normalization quantity lost positivity somewhere."""


class DecayError(RotstarError):
    """Field decays too slowly for its declared index."""


class SolverError(RotstarError):
    """Linear-algebra stage failed (near-singular system etc.)."""

    def __init__(self, message, smallest_singular_value=None):
        super().__init__(message)
        self.smallest_singular_value = smallest_singular_value


class AsymptoticsError(RotstarError):
    """Far-field extrapolation did not stabilize."""


class VerificationError(RotstarError):
    """A computed result failed its verification bounds."""
