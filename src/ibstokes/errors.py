"""Exception types shared across the package."""


class IBStokesError(Exception):
    """Base class for all package errors."""


class InvalidGridError(IBStokesError, ValueError):
    """Grid or sample array has an unusable shape (odd length, empty, non-square)."""


class SymmetryError(IBStokesError, ValueError):
    """A Fourier symbol lacks the conjugate symmetry needed for real output."""


class DomainError(IBStokesError, ValueError):
    """Argument outside the mathematical domain of a special function."""


class InvalidGeometryError(IBStokesError, ValueError):
    """Degenerate curve geometry (collapsed axis, coincident nodes)."""


class DegenerateParameterizationError(IBStokesError, ValueError):
    """Arclength derivative is non-positive somewhere."""


class ParameterError(IBStokesError, ValueError):
    """Invalid physical or numerical parameter (e.g. dt <= 0)."""


class BlowupError(IBStokesError, RuntimeError):
    """Simulation produced NaN/Inf or runaway velocities.

    Carries the step index at which the blowup was detected.
    """

    def __init__(self, step, message=""):
        self.step = step
        super().__init__(message or f"solution blew up at step {step}")


class SolverStallError(IBStokesError, RuntimeError):
    """Iterative linear solve failed to reach the requested tolerance."""
