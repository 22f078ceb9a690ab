"""Discrete geometry constants of the periodic Eulerian grid."""

from dataclasses import dataclass

from .errors import ParameterError
from .params import finite_real


@dataclass(frozen=True)
class GridSpec:
    """N x N periodic fluid grid of size length, with n_boundary interface
    nodes for the initial curve.  The node spacing belongs to the interface
    (``InterfaceState.dalpha``), not to the grid.  The counts are Python
    ints, as a run's JSON-dumped config holds them."""

    n: int
    length: float
    n_boundary: int

    def __post_init__(self):
        for name in ("n", "n_boundary"):
            v = getattr(self, name)
            if not isinstance(v, int) or v <= 0 or v % 2 != 0:
                raise ParameterError(f"{name}: must be a positive even integer, got {v!r}")
        if not (finite_real(self.length) and self.length > 0):
            raise ParameterError(f"length: must be positive and finite, got {self.length!r}")

    @property
    def h(self):
        return self.length / self.n

    @classmethod
    def make(cls, n, length=1.0, n_boundary=None):
        """Default boundary resolution: two interface nodes per mesh width."""
        return cls(n=n, length=length, n_boundary=2 * n if n_boundary is None else n_boundary)
