"""Closed-form system propagators and spectral scalar-bath two-point functions.

System particle (nonrelativistic, mass m_s): the time-ordered (Feynman) and
anti-time-ordered (Dyson) propagators have the exact closed forms

    G_F(a;b) = theta(a.t - b.t) (m/(2 pi i dt))^{d/2} exp(i m |dx|^2 / (2 dt))
    G_D(a;b) = theta(b.t - a.t) (same kernel, principal branch)

obtained by closing the frequency contour of the (omega, k) representation;
the i*epsilon limit is taken analytically so no numerical epsilon appears
here.  G_D(a;b) = conj(G_F(b;a)) holds identically.

Environment (relativistic real scalar, mass m_e, hard momentum cutoff
lambda_uv): the fixed-order two-point function <phi(1) phi(2)> is evaluated
by a deterministic composite Gauss-Legendre quadrature of its spectral
representation; Feynman/Dyson/Wightman orderings are assembled from it.  A
thermal state adds Bose-Einstein weighted positive/negative frequency parts.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

_EXP_CUT = 700.0  # exp underflow guard for Bose factors
_CHUNK_BYTES = 1 << 23  # 8 MiB: the largest array of one chunk, in every chunked loop
_AMP_NODES = 24       # Gauss-Legendre nodes per k panel in wightman_amp


def chunk_len(item_bytes):
    """Items per chunk when each item adds item_bytes to a chunk's largest
    array: _CHUNK_BYTES // item_bytes, at least 1.  The budget is read at
    call time, so patching it resizes every chunked loop of the package."""
    return max(1, _CHUNK_BYTES // item_bytes)


@dataclass(frozen=True)
class ModelParams:
    """Physical constants of the particle + scalar-bath model.

    Units: natural (hbar = c = 1); masses/momenta/temperature in the same
    mass unit, times and lengths in its inverse.
    """

    d: int
    m_s: float
    m_e: float
    g: float
    t_env: float = 0.0
    lambda_uv: float = 50.0

    def __post_init__(self):
        if self.d not in (1, 3):
            raise ValueError(f"spatial dimension must be 1 or 3, got {self.d}")
        for name in ("m_s", "m_e", "g", "t_env", "lambda_uv"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if not (self.m_s > 0.0):
            raise ValueError("m_s must be positive")
        if not (self.m_e > 0.0):
            raise ValueError("m_e must be positive")
        if not (self.lambda_uv > self.m_e):
            raise ValueError("lambda_uv must exceed m_e")
        if self.t_env < 0.0:
            raise ValueError("t_env must be >= 0")


@dataclass(frozen=True)
class SpacetimePoint:
    t: float
    x: tuple

    def __post_init__(self):
        object.__setattr__(self, "x", tuple(float(v) for v in np.atleast_1d(self.x)))
        if not (np.isfinite(self.t) and all(np.isfinite(v) for v in self.x)):
            raise ValueError("spacetime point components must be finite")


def free_kernel(dt, dx2, m_s, d):
    """(m/(2 pi i dt))^{d/2} exp(i m dx^2/(2 dt)); principal branch, dt != 0."""
    pref = (m_s / (2j * np.pi * dt)) ** (d / 2.0)
    return pref * np.exp(1j * m_s * dx2 / (2.0 * dt))


def _delta_xsq(a, b, d):
    if len(a.x) != d or len(b.x) != d:
        raise ValueError("point dimension does not match params.d")
    return sum((ax - bx) ** 2 for ax, bx in zip(a.x, b.x))


def sys_feynman(a, b, params):
    """Time-ordered system propagator; vanishes identically for a.t < b.t."""
    dt = a.t - b.t
    if dt == 0.0:
        raise ValueError(
            "equal-time system propagator is a nascent delta; evaluate it "
            "inside a kernel integral, not pointwise"
        )
    if dt < 0.0:
        return 0.0j
    return complex(free_kernel(dt, _delta_xsq(a, b, params.d), params.m_s, params.d))


def sys_dyson(a, b, params):
    """Anti-time-ordered system propagator; vanishes identically for a.t > b.t."""
    dt = a.t - b.t
    if dt == 0.0:
        raise ValueError(
            "equal-time system propagator is a nascent delta; evaluate it "
            "inside a kernel integral, not pointwise"
        )
    if dt > 0.0:
        return 0.0j
    return complex(free_kernel(dt, _delta_xsq(a, b, params.d), params.m_s, params.d))


@lru_cache(maxsize=None)
def legendre_rule(n):
    """Gauss-Legendre nodes/weights of order n on [-1, 1], built once.

    The arrays are shared between callers, so they are read-only.
    """
    base_x, base_w = np.polynomial.legendre.leggauss(n)
    base_x.flags.writeable = False
    base_w.flags.writeable = False
    return base_x, base_w


@lru_cache(maxsize=None)
def kronrod_rule(n):
    """Gauss-Kronrod pair of order n on [-1, 1], built once: the 2n + 1
    nodes, ascending, and a (2n + 1, 2) weight matrix whose columns are the
    Kronrod weights and the embedded Gauss weights (zero at the n + 1
    Kronrod nodes).  The Gauss nodes are `legendre_rule(n)`'s, bitwise.

    Laurie's algorithm (Math. Comp. 66, 1133 (1997)) extends the Legendre
    recurrence to the Kronrod-Jacobi matrix; its diagonal stays zero for a
    symmetric weight, so only the squared off-diagonals b are carried.  One
    symmetric eigensolve gives the nodes and, from the first eigenvector
    components, the weights (Golub-Welsch).  The arrays are shared between
    callers, so they are read-only.
    """
    size = 2 * n + 1
    b = [2.0] + [k * k / (4.0 * k * k - 1.0) for k in range(1, (3 * n + 1) // 2 + 1)]
    b += [0.0] * (size - len(b))
    s, t = [0.0] * (n // 2 + 2), [0.0] * (n // 2 + 2)
    t[1] = b[n + 1]
    for m in range(n - 1):
        u = 0.0
        for k in range((m + 1) // 2, -1, -1):
            u += b[k + n + 1] * s[k] - b[m - k] * s[k + 1]
            s[k + 1] = u
        s, t = t, s
    s[1:] = s[:-1]
    for m in range(n - 1, 2 * n - 2):
        u = 0.0
        for k in range(m + 1 - n, (m - 1) // 2 + 1):
            j = n - 1 - (m - k)
            u += b[m - k] * s[j + 2] - b[k + n + 1] * s[j + 1]
            s[j + 1] = u
        if m % 2:
            b[(m + 1) // 2 + n + 1] = s[j + 1] / s[j + 2]
        s, t = t, s
    off = np.sqrt(b[1:])
    nodes, vecs = np.linalg.eigh(np.diag(off, 1) + np.diag(off, -1))
    weights = np.zeros((size, 2))
    weights[:, 0] = b[0] * vecs[0] ** 2
    weights[:, 0] = 0.5 * (weights[:, 0] + weights[::-1, 0])
    nodes[0::2] = 0.5 * (nodes[0::2] - nodes[-1::-2])
    nodes[1::2], weights[1::2, 1] = legendre_rule(n)
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return nodes, weights


def gauss_panels(lo, hi, n_nodes, n_panels):
    """Composite Gauss-Legendre nodes/weights on [lo, hi]: n_nodes on each
    of n_panels equal panels.

    lo and hi may be arrays (broadcast together); the rules then stack
    along a last axis, each row as the scalar call would build it.
    """
    base_x, base_w = legendre_rule(n_nodes)
    edges = np.linspace(lo, hi, n_panels + 1, axis=-1)
    half = 0.5 * (edges[..., 1:] - edges[..., :-1])
    mid = 0.5 * (edges[..., 1:] + edges[..., :-1])
    shape = np.broadcast_shapes(np.shape(lo), np.shape(hi)) + (-1,)
    nodes = (mid[..., None] + half[..., None] * base_x).reshape(shape)
    weights = (half[..., None] * base_w).reshape(shape)
    return nodes, weights


def bose_occupation(omega, t_env):
    """1/(e^{omega/T} - 1), zero for the vacuum."""
    if t_env <= 0.0:
        return np.zeros_like(np.asarray(omega, dtype=float))
    arg = np.minimum(np.asarray(omega, dtype=float) / t_env, _EXP_CUT)
    return 1.0 / np.expm1(arg)


def wightman_amp(dt, dx, params):
    """<phi(1) phi(2)> for separations dt = t1 - t2, dx = x1 - x2 (vectorized).

    Spectral form with the hard cutoff |k| <= lambda_uv:
        d=1:  (1/2pi) Int_0^L dk cos(k dx)/omega * [phases]
        d=3:  (1/4pi^2) Int_0^L dk k^2 sinc(k r)/omega * [phases]
    where [phases] = (1+n) e^{-i omega dt} + n e^{+i omega dt}.

    The k nodes are summed in chunks whose (batch, k chunk) complex arrays
    stay within the chunk budget (`chunk_len`); the nodes are those of one
    composite rule, so the chunking changes only the summation order.
    """
    dt = np.asarray(dt, dtype=float)
    lam = params.lambda_uv
    if params.d == 1:
        r = np.abs(np.asarray(dx, dtype=float))
    else:
        dx = np.asarray(dx, dtype=float)
        if dx.shape[-1] != params.d:
            raise ValueError("dx must have last axis of length d")
        r = np.sqrt(np.sum(dx**2, axis=-1))
    # deterministic panel count from the largest phase across the batch
    phase = lam * (float(np.max(np.abs(dt), initial=0.0)) + float(np.max(r, initial=0.0)) + 1.0)
    panels = max(8, int(np.ceil(phase / (2.0 * _AMP_NODES))))
    k, w = gauss_panels(0.0, lam, _AMP_NODES, panels)
    omega = np.sqrt(k**2 + params.m_e**2)
    occ = bose_occupation(omega, params.t_env)

    dt_b = dt[..., None]
    r_b = r[..., None]
    shape = np.broadcast_shapes(dt.shape, r.shape)
    step = chunk_len(16 * max(1, int(np.prod(shape))))
    total = np.zeros(shape, dtype=complex)
    for k0 in range(0, k.size, step):
        kc, wc, om, oc = (a[k0:k0 + step] for a in (k, w, omega, occ))
        phases = (1.0 + oc) * np.exp(-1j * om * dt_b) + oc * np.exp(1j * om * dt_b)
        if params.d == 1:
            integrand = np.cos(kc * r_b) / om * phases
        else:
            ang = np.where(r_b > 0, np.sin(kc * r_b) / np.where(r_b > 0, kc * r_b, 1.0), 1.0)
            integrand = kc**2 * ang / om * phases
        total += np.sum(wc * integrand, axis=-1)
    return total / (2.0 * np.pi if params.d == 1 else 4.0 * np.pi**2)


def env_wightman(a, b, params):
    """Fixed-order bath propagator Delta^<_{ab} = <phi(b) phi(a)>."""
    dt = b.t - a.t
    if params.d == 1:
        dx = b.x[0] - a.x[0]
    else:
        dx = np.array(b.x) - np.array(a.x)
    return complex(np.ravel(wightman_amp(np.array(dt), dx, params))[0])


def env_feynman(a, b, params):
    """Time-ordered bath propagator."""
    if a.t >= b.t:
        return env_wightman(b, a, params)
    return env_wightman(a, b, params)


def env_dyson(a, b, params):
    """Anti-time-ordered bath propagator."""
    if a.t >= b.t:
        return env_wightman(a, b, params)
    return env_wightman(b, a, params)
