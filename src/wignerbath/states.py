"""Closed-form initial states: Gaussian packets and two-packet cats.

A Gaussian packet with center x0, mean momentum p0 and width sigma has

    psi(z) = (2 pi sigma^2)^{-d/4} exp(-|z - x0|^2/(4 sigma^2) + i p0.(z - x0))
    W(x,p) = (1/pi^d) exp(-|x - x0|^2/(2 sigma^2) - 2 sigma^2 |p - p0|^2)

A cat is the normalized sum of two such packets displaced by +/- sep/2 along
the first axis, with a relative phase applied to the second packet.  Its
Wigner function is the two displaced Gaussians plus an oscillatory
interference ridge at the midpoint.
"""

from dataclasses import dataclass

import numpy as np

from .grids import PhaseSpaceGrid
from .wigner import WignerFunction

BOUNDARY_TOL = 1e-7   # max |W| on the box boundary relative to the peak
NORM_TOL = 1e-6
# least squared norm of a cat's packet sum: its four Wigner atoms are each
# about 1/norm in size, so their sum keeps NORM_TOL relative accuracy
CAT_NORM_FLOOR = 4.0 * np.finfo(float).eps / NORM_TOL


@dataclass(frozen=True)
class InitialStateSpec:
    """Parameters of a closed-form initial state."""

    kind: str                 # "gaussian" | "cat"
    x0: tuple = (0.0,)
    p0: tuple = (0.0,)
    sigma: float = 1.0
    separation: float = 0.0   # cat only, along the first axis
    phase: float = 0.0        # cat only, relative phase of the second packet

    def __post_init__(self):
        if self.kind not in ("gaussian", "cat"):
            raise ValueError(f"unknown state kind {self.kind!r}")
        object.__setattr__(self, "x0", tuple(float(v) for v in np.atleast_1d(self.x0)))
        object.__setattr__(self, "p0", tuple(float(v) for v in np.atleast_1d(self.p0)))
        for name in ("x0", "p0", "sigma", "separation", "phase"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise ValueError(f"{name} must be finite")
        if not (self.sigma > 0.0):
            raise ValueError("sigma must be positive")
        if self.separation < 0.0:
            raise ValueError("cat separation must be >= 0")
        if len(self.x0) != len(self.p0):
            raise ValueError("x0 and p0 must have the same dimension")
        if self.kind == "cat" and not self.cat_norm() >= CAT_NORM_FLOOR:
            raise ValueError(
                f"cat (separation {self.separation:.6g}, phase {self.phase:.6g}) has "
                f"squared norm {self.cat_norm():.3g}, below {CAT_NORM_FLOOR:.1e}: "
                "its two packets cancel")

    @property
    def d(self):
        return len(self.x0)

    def cat_norm(self):
        """Squared norm of psi_plus + e^{i phase} psi_minus,
        2 + 2 ov cos(phase + p0 s) with ov = exp(-s^2/(8 sigma^2)), taken as
        -2 expm1(-s^2/(8 sigma^2)) + 4 ov cos^2((phase + p0 s)/2): a sum of
        two non-negative terms, so no cancellation where the packets do."""
        s = self.separation
        arg = -s**2 / (8.0 * self.sigma**2)
        return float(-2.0 * np.expm1(arg)
                     + 4.0 * np.exp(arg) * np.cos(0.5 * (self.phase + self.p0[0] * s))**2)


def wigner_atoms(spec):
    """Decompose the closed-form Wigner function into Gaussian-phase atoms.

    Each atom is (C, x_c, p_c, kappa) contributing
        C * exp(-|x - x_c|^2/(2 s^2) - 2 s^2 |p - p_c|^2) * exp(i kappa.p)
    with s = spec.sigma.  The atom list is conjugate-paired, so the sum is
    real.
    """
    d = spec.d
    s2 = spec.sigma
    x0 = np.array(spec.x0)
    p0 = np.array(spec.p0)
    zero = np.zeros(d)
    if spec.kind == "gaussian":
        return [(1.0 / np.pi**d + 0.0j, x0, p0, zero)]
    sep = np.zeros(d)
    sep[0] = spec.separation
    norm = spec.cat_norm()
    amp = 1.0 / (norm * np.pi**d)
    return [
        (amp + 0.0j, x0 + sep / 2.0, p0, zero),
        (amp + 0.0j, x0 - sep / 2.0, p0, zero),
        (amp * np.exp(1j * spec.phase), x0, p0, sep),
        (amp * np.exp(-1j * spec.phase), x0, p0, -sep),
    ]


def wigner_closed(spec, x, p):
    """Evaluate the closed-form Wigner function at phase-space points.

    For d = 1, `x` and `p` are arrays of positions/momenta; for d > 1 the
    last axis indexes the spatial components.  Real atoms (kappa = 0, real
    amplitude) are evaluated in real arithmetic, so a Gaussian equals its
    closed form (1/pi^d) exp(...) to the last bit.
    """
    d = spec.d
    x = np.asarray(x, dtype=float)
    p = np.asarray(p, dtype=float)
    if d > 1 and (x.shape[-1] != d or p.shape[-1] != d):
        raise ValueError("x and p must have last axis of length d")
    sig = spec.sigma
    total = np.zeros(np.broadcast(x, p).shape[: x.ndim - (1 if d > 1 else 0)]) \
        if d > 1 else np.zeros(np.broadcast(x, p).shape)
    for C, xc, pc, kappa in wigner_atoms(spec):
        if d == 1:
            expo = (-((x - xc[0]) ** 2) / (2 * sig**2)
                    - 2 * sig**2 * (p - pc[0]) ** 2)
            phase = kappa[0] * p
        else:
            expo = (-np.sum((x - xc) ** 2, axis=-1) / (2 * sig**2)
                    - 2 * sig**2 * np.sum((p - pc) ** 2, axis=-1))
            phase = np.sum(kappa * p, axis=-1)
        if np.imag(C) == 0.0 and not np.any(kappa):
            total = total + np.real(C) * np.exp(expo)
        else:
            total = total + (C * np.exp(expo + 1j * phase)).real
    return total


def psi_closed(spec, z):
    """Closed-form one-dimensional wavefunction (d = 1 states only)."""
    if spec.d != 1:
        raise ValueError("psi_closed supports d = 1 states only")
    z = np.asarray(z, dtype=float)
    sig = spec.sigma
    p0 = spec.p0[0]

    def packet(center):
        return (2 * np.pi * sig**2) ** (-0.25) * np.exp(
            -((z - center) ** 2) / (4 * sig**2) + 1j * p0 * (z - center)
        )

    if spec.kind == "gaussian":
        return packet(spec.x0[0])
    a_plus = spec.x0[0] + spec.separation / 2.0
    a_minus = spec.x0[0] - spec.separation / 2.0
    return (packet(a_plus) + np.exp(1j * spec.phase) * packet(a_minus)) / np.sqrt(
        spec.cat_norm()
    )


def density_closed(spec, x, y):
    """Closed-form pure-state density matrix rho(x, y) (d = 1 only)."""
    return psi_closed(spec, x) * np.conj(psi_closed(spec, y))


def balanced_grid(spec, n_x, scale=1.0):
    """Grid sized so position and momentum tails truncate equally.

    For width sigma the box half-sizes obey x_half * p_half = n pi / 4 with
    equal Gaussian suppression at x_half = sigma * sqrt(n pi / 2); the node
    window is centered on the packet.  `scale` stretches the position box at
    the cost of momentum coverage.
    """
    sigma = spec.sigma
    dx = scale * sigma * np.sqrt(2.0 * np.pi / n_x)
    x_center = float(np.mean(np.atleast_1d(spec.x0)))
    x_min = x_center - (n_x / 2.0 - 0.5) * dx
    return PhaseSpaceGrid(d=spec.d, n_x=n_x, dx=dx, x_min=x_min)


def sample_closed(spec, grid, shear=0.0):
    """Closed-form W(x - shear * p, p) at the grid nodes.

    shear = t/m gives the ballistic (zeroth-order) evolution of the state by
    a time t, evaluated in closed form rather than on the sampled grid.
    """
    if spec.d != grid.d:
        raise ValueError(f"state dimension {spec.d} != grid dimension {grid.d}")
    d, n = grid.d, grid.n_x
    x = grid.x_nodes
    p = grid.p_nodes
    if d == 1:
        x, p = x[:, None], p[None, :]
    else:
        mx = np.stack(np.meshgrid(*([x] * d), indexing="ij"), axis=-1)
        mp = np.stack(np.meshgrid(*([p] * d), indexing="ij"), axis=-1)
        x = mx.reshape((n,) * d + (1,) * d + (d,))
        p = mp.reshape((1,) * d + (n,) * d + (d,))
    if shear != 0.0:
        x = x - shear * p
    return wigner_closed(spec, x, p)


def make_initial_wigner(spec, grid, boundary_tol=BOUNDARY_TOL):
    """Sample the closed-form Wigner function on a grid.

    Rejects states whose tails at the box boundary exceed `boundary_tol`
    relative to the peak, naming the offending node in the diagnostic.  The
    norm must be 1 within max(NORM_TOL, 10 boundary_tol).
    """
    norm_tol = max(NORM_TOL, 10.0 * boundary_tol)
    vals = sample_closed(spec, grid)
    d, n = grid.d, grid.n_x
    peak = float(np.max(np.abs(vals)))
    for axis in range(2 * d):
        for edge in (0, n - 1):
            shell = np.take(vals, edge, axis=axis)
            worst = float(np.max(np.abs(shell)))
            if worst > boundary_tol * peak:
                flat = int(np.argmax(np.abs(shell)))
                kind = "x" if axis < d else "p"
                raise ValueError(
                    f"state leaks past the box: |W| = {worst:.3e} "
                    f"(> {boundary_tol:.1e} * peak) on the {kind}-boundary "
                    f"axis {axis % d}, edge node {edge}, flat index {flat}; "
                    "enlarge the box or shrink the state"
                )

    w = WignerFunction(grid=grid, t=0.0, values=vals, normalized=True, source=spec)
    norm = w.norm()
    if abs(norm - 1.0) > norm_tol:
        raise ValueError(
            f"sampled state norm {norm:.8f} deviates from 1 beyond {norm_tol:.1e}; "
            "the grid under-resolves the state"
        )
    return w
