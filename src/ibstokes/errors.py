"""Exception types shared across the package."""


class IBStokesError(Exception):
    """Base class for all package errors."""


class ParameterError(IBStokesError, ValueError):
    """Invalid input: a parameter, an array shape, a Fourier symbol, a geometry
    or a snapshot field."""


class BlowupError(IBStokesError, RuntimeError):
    """Simulation produced NaN/Inf or runaway velocities.

    Carries the step index at which the blowup was detected.
    """

    def __init__(self, step, message=""):
        self.step = step
        super().__init__(message or f"solution blew up at step {step}")


class SolverStallError(IBStokesError, RuntimeError):
    """Iterative linear solve failed to reach the requested tolerance."""
