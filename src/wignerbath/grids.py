"""Phase-space grids with the momentum spacing forced by the e^{2ip.z} kernel."""

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class PhaseSpaceGrid:
    """Uniform position grid plus its conjugate momentum grid.

    The Wigner kernel e^{2ip.z} halves the conjugate spacing relative to a
    plain Fourier pair: dp = pi/(n_x*dx), not 2*pi/(n_x*dx).  Momentum nodes
    are p_j = (j - n_x/2)*dp.  The same node layout is used on every axis;
    `x_min` is the leftmost position node (applied per axis).

    Natural units hbar = 1; positions carry 1/mass, momenta carry mass.
    """

    d: int
    n_x: int
    dx: float
    x_min: float

    def __post_init__(self):
        if self.d not in (1, 3):
            raise ValueError(f"spatial dimension must be 1 or 3, got {self.d}")
        if self.n_x % 2 != 0 or self.n_x < 8:
            raise ValueError(f"n_x must be even and >= 8, got {self.n_x}")
        if not (self.dx > 0.0 and np.isfinite(self.dx)):
            raise ValueError(f"dx must be positive and finite, got {self.dx}")
        if not np.isfinite(self.x_min):
            raise ValueError("x_min must be finite")

    @property
    def dp(self):
        return np.pi / (self.n_x * self.dx)

    @property
    def x_nodes(self):
        """Position nodes along one axis."""
        return self.x_min + self.dx * np.arange(self.n_x)

    @property
    def p_nodes(self):
        """Momentum nodes along one axis, centered on zero."""
        return (np.arange(self.n_x) - self.n_x // 2) * self.dp

    @property
    def cell_volume(self):
        """Phase-space volume element dx^d * dp^d."""
        return (self.dx * self.dp) ** self.d

    def value_shape(self):
        """Array shape for phase-space samples: d position axes then d momentum axes."""
        return (self.n_x,) * self.d + (self.n_x,) * self.d

    def density_shape(self):
        """Array shape for density-matrix samples: d row axes then d column axes."""
        return (self.n_x,) * self.d + (self.n_x,) * self.d
