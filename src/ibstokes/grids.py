"""Discrete geometry constants of the periodic Eulerian grid."""

from dataclasses import dataclass

from .errors import ParameterError


@dataclass(frozen=True)
class GridSpec:
    """N x N periodic fluid grid of size length, with n_boundary interface
    nodes for the initial curve.  The node spacing belongs to the interface
    (``InterfaceState.dalpha``), not to the grid."""

    n: int
    length: float
    n_boundary: int

    def __post_init__(self):
        if self.n <= 0 or self.n % 2 != 0:
            raise ParameterError(f"grid count N must be even and positive, got {self.n}")
        if self.n_boundary <= 0 or self.n_boundary % 2 != 0:
            raise ParameterError(f"N_b must be even and positive, got {self.n_boundary}")

    @property
    def h(self):
        return self.length / self.n

    @classmethod
    def make(cls, n, length=1.0, n_boundary=None):
        """Default boundary resolution: two interface nodes per mesh width."""
        return cls(n=n, length=length, n_boundary=2 * n if n_boundary is None else n_boundary)
