"""Independent brute-force validation of the second-order evolution.

Everything here evaluates the position-space form of the evolved Wigner
function for closed-form (Gaussian / cat) initial states, with no use of the
momentum-space reduction that powers the production path:

  * the initial density matrix is a product of closed-form packets,
    rho0(z, z') = psi0(z) conj(psi0(z')), so the z / z' integrals are free
    packet evolutions psi(x, s) done analytically;
  * the outer Wigner integral over y and the vertex center-of-mass integral
    over xi = (x' + y')/2 are complex-Gaussian integrals, done exactly with
    a small quadratic-form engine (the y integrand of the cross-branch term
    is a pure Fresnel phase, so it must never be attempted numerically);
  * the rest is done in one way for all three terms (`_spectral_sum`): the
    relative vertex coordinate eta = y' - x' in closed form against each
    spectral component e^{ik eta} of the bath propagator, then the bath
    momentum k by quadrature, and the two times by quadrature after the
    substitution tau = lambda^2 that removes the |t1 - t2|^{-1/2} Fresnel
    ridge of the integrand.

After the xi integral every integrand is a complex Gaussian in eta, so its
eta integral is exact at each k.  The same-branch (loss) terms carry the
internal particle line's nascent-delta Fresnel factor exp(+-i m eta^2 /
2 tau), which no fixed eta mesh could track down to tau -> 0; in closed
form it is one more term of the Gaussian.  The cross-branch (gain) term's
Gaussian decays in k as well, so its k sum covers only its envelope
(`_gain_k_window`); the loss terms take all of [-lambda, lambda].

Certification (`certify_instance`) climbs a ladder of oracle rules per term,
cheapest first (_RUNGS), and stops at the first two rules whose values
agree to _LADDER_TOL at every probe; their difference is the oracle's error
estimate, as QUADPACK estimates its error by comparing two rules.  Where the
cheap rules disagree the ladder ends at oracle_diagram's default rule.

Certification instances are small by construction; a runtime budget returns
partial results with per-probe status rather than running over.
"""

from dataclasses import dataclass
import time

import numpy as np

from .grids import PhaseSpaceGrid
from .propagators import ModelParams, bose_occupation, chunk_len, gauss_panels
from .states import InitialStateSpec
from .wigner import signed_mode_numbers

DEFAULT_EPS = (1e-2, 1e-3, 1e-4)   # contour regulators, relative to the scale
_PROBE_SIDE = 3             # the default probes are a 3 x 3 sub-lattice
_CERTIFY_REL_TOL = 1e-5     # probe agreement that passes whatever the estimates
# oracle rules (n_lambda, n_inner) that certification climbs, cheapest
# first; the last one is oracle_diagram's default.  Where the ladder climbs
# to the top the first rung is pure overhead, so it is kept cheap: 6 time
# nodes still agree with (20, 18) to 2e-11 on the test instances.
_RUNGS = ((12, 6), (20, 18), (28, 24))
_LADDER_TOL = 1e-3 * _CERTIFY_REL_TOL   # two rungs that agree this well end it
_ENVELOPE_NATS = 40.0       # the gain's k range: its envelope down by e^-40


# ---------------------------------------------------------------------------
# complex-Gaussian engine
# ---------------------------------------------------------------------------

@dataclass
class Quad2:
    """Quadratic form q(x', y') with numpy-broadcast coefficients."""

    cxx: object
    cyy: object
    cxy: object
    cx: object
    cy: object
    c0: object

    def __add__(self, other):
        return Quad2(self.cxx + other.cxx, self.cyy + other.cyy,
                     self.cxy + other.cxy, self.cx + other.cx,
                     self.cy + other.cy, self.c0 + other.c0)

    @staticmethod
    def from_x(a2, a1, a0):
        """a2 x'^2 + a1 x' + a0."""
        return Quad2(a2, 0.0, 0.0, a1, 0.0, a0)

    @staticmethod
    def from_y(a2, a1, a0):
        """a2 y'^2 + a1 y' + a0."""
        return Quad2(0.0, a2, 0.0, 0.0, a1, a0)

    @staticmethod
    def from_linear_square(l0, lx, ly, scale):
        """scale * (l0 + lx x' + ly y')^2."""
        return Quad2(scale * lx * lx, scale * ly * ly, 2.0 * scale * lx * ly,
                     2.0 * scale * l0 * lx, 2.0 * scale * l0 * ly,
                     scale * l0 * l0)

    def integrate_xi(self):
        """Substitute x' = xi - eta/2, y' = xi + eta/2, integrate out xi.

        Returns (pref, h2, h1, h0): the xi integral is
        pref * exp(h2 eta^2 + h1 eta + h0).
        """
        A = self.cxx + self.cyy + self.cxy
        B = self.cx + self.cy
        C = self.cyy - self.cxx
        D = 0.25 * (self.cxx + self.cyy) - 0.25 * self.cxy
        E = 0.5 * (self.cy - self.cx)
        F = self.c0
        pref = np.sqrt(-np.pi / A)
        return pref, D - C * C / (4.0 * A), E - B * C / (2.0 * A), F - B * B / (4.0 * A)


def packet_coeffs(center, p0, sigma, m, s):
    """Freely evolved packet psi(x, s) = P exp(a x^2 + b x + c).

    The packet starts as (2 pi sigma^2)^{-1/4} exp(-(z - center)^2/(4 sigma^2)
    + i p0 (z - center)); for s > 0 it is propagated by the exact free kernel
    via one complex-Gaussian integral.
    """
    norm = (2.0 * np.pi * sigma**2) ** (-0.25)
    a0 = -1.0 / (4.0 * sigma**2)
    b0 = center / (2.0 * sigma**2) + 1j * p0
    c00 = -(center**2) / (4.0 * sigma**2) - 1j * p0 * center
    s_arr = np.asarray(s, dtype=float)
    if np.all(s_arr == 0.0):
        z = np.zeros(s_arr.shape, dtype=complex)
        return norm + z, a0 + z, b0 + z, c00 + z
    c2z = 1j * m / (2.0 * s_arr) + a0
    pref = (m / (2j * np.pi * s_arr)) ** 0.5 * norm * np.sqrt(-np.pi / c2z)
    lin_x = -1j * m / s_arr          # z-linear coefficient is b0 + lin_x * x
    quad_x = 1j * m / (2.0 * s_arr)  # z-free term is c00 + quad_x * x^2
    a = quad_x - lin_x * lin_x / (4.0 * c2z)
    b = -b0 * lin_x / (2.0 * c2z)
    c = c00 - b0 * b0 / (4.0 * c2z)
    return pref, a, b, c


def state_components(spec):
    """(amplitude, center) packet components of the closed-form pure state."""
    if spec.kind == "gaussian":
        return [(1.0 + 0.0j, spec.x0[0])]
    nrm = 1.0 / np.sqrt(spec.cat_norm())
    return [(nrm + 0.0j, spec.x0[0] + spec.separation / 2.0),
            (nrm * np.exp(1j * spec.phase), spec.x0[0] - spec.separation / 2.0)]


def _sigma_t(sigma, m, t):
    """Free-spreading width of a packet after time t."""
    return sigma * np.sqrt(1.0 + (t / (2.0 * m * sigma**2)) ** 2)


# ---------------------------------------------------------------------------
# probe sets
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ProbeSet:
    """Phase-space probe points plus the instance they belong to."""

    points: tuple
    grid: PhaseSpaceGrid
    params: ModelParams
    t: float

    def __post_init__(self):
        pts = tuple((float(x), float(p)) for x, p in self.points)
        object.__setattr__(self, "points", pts)
        if not (3 <= len(pts) <= 25):
            raise ValueError("probe sets carry between 3 and 25 points")
        g = self.grid
        for x, p in pts:
            if not (g.x_nodes[0] <= x <= g.x_nodes[-1]
                    and g.p_nodes[0] <= p <= g.p_nodes[-1]):
                raise ValueError(f"probe ({x}, {p}) lies outside the grid box")


def default_probes(grid, params, t):
    """A centered 3 x 3 sub-lattice of grid nodes, away from the box edges."""
    n = grid.n_x
    idx = [n // 2 + (i - _PROBE_SIDE // 2) * max(1, n // 8)
           for i in range(_PROBE_SIDE)]
    pts = [(grid.x_nodes[i], grid.p_nodes[j]) for i in idx for j in idx]
    return ProbeSet(points=tuple(pts), grid=grid, params=params, t=t)


# ---------------------------------------------------------------------------
# oracle Wigner transform
# ---------------------------------------------------------------------------

def oracle_wigner_transform(rho, grid, probes):
    """Adaptive z-quadrature of the Wigner integral at probe points, to
    1e-10 relative.

    `rho` is a callable rho(x, y) (closed form) or an (n, n) array, in which
    case the zero-extended trig interpolant is integrated, matching the fast
    transform's semantics.
    """
    from scipy.integrate import quad

    n = grid.n_x
    if callable(rho):
        rho_eval = rho
    else:
        vals = np.asarray(rho, dtype=complex)
        if vals.shape != (n, n):
            raise ValueError("gridded rho must be n_x by n_x")
        if n > 64:
            raise ValueError("the oracle transform is limited to grids <= 64")
        two = 2 * n
        pad = np.zeros((two, two), dtype=complex)
        pad[:n, :n] = vals
        cf = np.fft.fft2(pad) / two**2
        fr, wts = signed_mode_numbers(two)
        idx = fr % two
        cmat = cf[np.ix_(idx, idx)] * np.outer(wts, wts)

        def rho_eval(xa, xb):
            ia = (np.asarray(xa) - grid.x_min) / grid.dx
            ib = (np.asarray(xb) - grid.x_min) / grid.dx
            ea = np.exp(2j * np.pi * np.multiply.outer(fr, ia) / two)
            eb = np.exp(2j * np.pi * np.multiply.outer(fr, ib) / two)
            return np.einsum("m...,l...,ml->...", ea, eb, cmat)

    z_hi = 0.5 * n * grid.dx
    values, status = [], []
    for x, p in probes.points:
        vr, er = quad(lambda z: np.real(rho_eval(x - z, x + z)
                                        * np.exp(2j * p * z)),
                      -z_hi, z_hi, limit=400, epsabs=1e-13, epsrel=1e-10)
        vi, ei = quad(lambda z: np.imag(rho_eval(x - z, x + z)
                                        * np.exp(2j * p * z)),
                      -z_hi, z_hi, limit=400, epsabs=1e-13, epsrel=1e-10)
        values.append((vr + 1j * vi) / np.pi)
        err = float(max(er, ei) / np.pi)
        status.append({"converged": bool(err < 1e-8), "err_est": err})
    return np.array(values), status


# ---------------------------------------------------------------------------
# epsilon-extrapolated system propagator (frequency-contour oracle)
# ---------------------------------------------------------------------------

def _frequency_factors(dt, eps):
    """Int_0^inf nu sin(nu dt)/(nu^2 + eps^2) and Int_0^inf cos(nu dt)/(nu^2 + eps^2).

    QUADPACK's Fourier-integral routine (QAWF) alone misses the peak of
    width eps at nu = 0 once eps |dt| is small: at eps = 1e-4, dt = 0.18 the
    cos integral comes out near zero instead of pi/(2 eps).  The first two
    periods are therefore summed with Gauss-Legendre panels graded
    geometrically from eps (each panel stays well clear of the poles at
    +-i eps), and QAWF takes only the tail, where the integrand is smooth on
    the scale of one period.
    """
    from scipy.integrate import quad

    head = 4.0 * np.pi / abs(dt)
    edges = [0.0]
    e = min(eps, head)
    while e < head:
        edges.append(e)
        e *= 2.0
    edges.append(head)
    s_int = c_int = 0.0
    for lo, hi in zip(edges[:-1], edges[1:]):
        panels = max(1, int(np.ceil((hi - lo) * abs(dt) / 4.0)))
        nu, w = gauss_panels(lo, hi, 24, panels)
        s_int += np.sum(w * nu * np.sin(nu * dt) / (nu**2 + eps**2))
        c_int += np.sum(w * np.cos(nu * dt) / (nu**2 + eps**2))
    s_int += quad(lambda nu: nu / (nu**2 + eps**2), head, np.inf,
                  weight="sin", wvar=dt, epsabs=1e-13)[0]
    c_int += quad(lambda nu: 1.0 / (nu**2 + eps**2), head, np.inf,
                  weight="cos", wvar=dt, epsabs=1e-13)[0]
    return s_int, c_int


def _contour_value(dt, dxv, params, eps):
    """Numerical (omega, k) evaluation with explicit i*eps regulators.

    The p sum runs over `chunk_len` 32-node Gauss-Legendre panels at a
    time: its range grows like eps^{-1/2}, and at small eps it needs tens of
    millions of nodes.
    """
    s_int, c_int = _frequency_factors(dt, eps)
    j_val = -2j * (s_int + eps * c_int)
    m = params.m_s
    p_hi = np.sqrt(2.0 * m * 45.0 / eps)
    rate = abs(dxv) + p_hi * abs(dt) / (2.0 * m)
    panels = max(8, int(np.ceil(2.0 * p_hi * rate / 64.0)))
    edges = np.linspace(-p_hi, p_hi, panels + 1)
    kval = 0.0 + 0.0j
    step = chunk_len(16 * 32)
    for i0 in range(0, panels, step):
        i1 = min(panels, i0 + step)
        pn, pw = gauss_panels(edges[i0], edges[i1], 32, i1 - i0)
        e_p = pn**2 / (2.0 * m)
        kval += np.sum(pw * np.exp(1j * pn * dxv - 1j * e_p * dt - eps * e_p))
    return (-1.0 / (2j * np.pi)) * j_val * kval / (2.0 * np.pi)


def epsilon_extrapolated_propagator(a, b, params, anti=False):
    """Richardson extrapolation eps -> 0 of the regulated contour integral.

    Certifies the closed-form time-ordered propagator, or with anti=True the
    anti-time-ordered one (conjugated contour).  Returns (value, record);
    the record's `converged` says the extrapolation moved the smallest-eps
    value by less than 1e-4.

    DEFAULT_EPS is relative to the scale s = |dt| min(1, |dt|/(m dx^2)): the
    regulated integral's expansion in eps has a radius of about |dt| and
    coefficients that grow like (m dx^2/dt^2)^k, so a fixed absolute ladder
    leaves a Richardson error of 5.7e-6 at dt = 0.109, dx = 0.705.
    """
    dt = a.t - b.t
    if dt == 0.0:
        raise ValueError("the contour oracle needs dt != 0")
    dxv = a.x[0] - b.x[0]
    spread = params.m_s * dxv**2
    scale = abs(dt) * (1.0 if spread <= abs(dt) else abs(dt) / spread)
    e = scale * np.asarray(DEFAULT_EPS)
    if anti:
        vals = [np.conj(_contour_value(-dt, -dxv, params, ei)) for ei in e]
    else:
        vals = [_contour_value(dt, dxv, params, ei) for ei in e]
    val = 0.0 + 0.0j
    for i in range(len(e)):
        li = 1.0
        for jj in range(len(e)):
            if jj != i:
                li *= (0.0 - e[jj]) / (e[i] - e[jj])
        val += li * vals[i]
    resid = abs(val - vals[-1])
    return val, {"residual": float(resid), "converged": bool(resid < 1e-4)}


# ---------------------------------------------------------------------------
# diagram oracle
# ---------------------------------------------------------------------------

def _gain_eta_coeffs(x, p, t, t1, t2, params, spec, ci, cj):
    """Combined prefactor and eta-quadratic of the cross-branch integrand.

    t1 and t2 carry any leading batch axes (...).  Returns (pref, h2, h1,
    h0), each of shape (..., 1), such that the xi-integrated integrand
    before the bath propagator is pref * exp(h2 eta^2 + h1 eta + h0).
    """
    m = params.m_s
    sig = spec.sigma
    p0 = spec.p0[0]
    T1 = (t - t1)[..., None]
    T2 = (t - t2)[..., None]
    pk_i, a_i, b_i, c_i = packet_coeffs(ci, p0, sig, m, t1)
    pk_j, a_j, b_j, c_j = packet_coeffs(cj, p0, sig, m, t2)
    pref_psi = (pk_i * np.conj(pk_j))[..., None]
    a_i, b_i, c_i = a_i[..., None], b_i[..., None], c_i[..., None]
    a_j = np.conj(a_j)[..., None]
    b_j = np.conj(b_j)[..., None]
    c_j = np.conj(c_j)[..., None]

    # y integral of e^{ipy} G_F(x - y/2, t; x', t1) G_D(y', t2; x + y/2, t)
    c2 = 1j * m / 8.0 * (1.0 / T1 - 1.0 / T2)
    l0 = 1j * p - 1j * m * x / (2.0 * T1) - 1j * m * x / (2.0 * T2)
    lx = 1j * m / (2.0 * T1)
    ly = 1j * m / (2.0 * T2)
    q = Quad2.from_linear_square(l0, lx, ly, -1.0 / (4.0 * c2))
    q = q + Quad2(1j * m / (2.0 * T1), -1j * m / (2.0 * T2), 0.0,
                  -1j * m * x / T1, 1j * m * x / T2,
                  1j * m * x**2 / 2.0 * (1.0 / T1 - 1.0 / T2))
    pref_y = ((1.0 / (2.0 * np.pi))
              * (m / (2j * np.pi * T1)) ** 0.5
              * (m / (-2j * np.pi * T2)) ** 0.5
              * np.sqrt(-np.pi / c2))
    q = q + Quad2(a_i, a_j, 0.0, b_i, b_j, c_i + c_j)

    pref_xi, h2, h1, h0 = q.integrate_xi()
    return pref_y * pref_psi * pref_xi, h2, h1, h0


def _loss_eta_coeffs(x, p, t, tau, tb, params, spec, ci, cj, left):
    """Combined prefactor and eta-quadratic of the same-branch integrand.

    tau has shape (..., 1) and the time nodes tb shape (..., n): one row of
    time nodes per tau.  Returns (pref, h2, h1, h0), each of shape
    (..., n, 1), such that the integrand before the bath propagator is
    pref * exp(h2 eta^2 + h1 eta + h0); h2 already includes the internal
    Fresnel line.
    """
    m = params.m_s
    sig = spec.sigma
    p0 = spec.p0[0]

    if left:
        # ket-branch chain, tau = t1 - t2 > 0, t2 on the nodes
        t2 = tb
        t1 = tb + tau
        T1 = (t - t1)[..., None]
        pk_t, a_t, b_t, c_t = packet_coeffs(cj, p0, sig, m, t)     # bra at t
        a_t, b_t, c_t, pk_t = np.conj(a_t), np.conj(b_t), np.conj(c_t), np.conj(pk_t)
        pk_2, a_2, b_2, c_2 = packet_coeffs(ci, p0, sig, m, t2)    # ket at t2
        pref_psi = pk_t * pk_2[..., None]
        a_2, b_2, c_2 = a_2[..., None], b_2[..., None], c_2[..., None]

        # y integral: e^{ipy} G_F(x - y/2, t; x', t1) conj(psi)(x + y/2, t)
        c2 = 1j * m / (8.0 * T1) + a_t / 4.0
        l0 = 1j * p - 1j * m * x / (2.0 * T1) + a_t * x + b_t / 2.0
        lx = 1j * m / (2.0 * T1)
        q = Quad2.from_linear_square(l0, lx, 0.0, -1.0 / (4.0 * c2))
        q = q + Quad2.from_x(1j * m / (2.0 * T1), -1j * m * x / T1,
                             1j * m * x**2 / (2.0 * T1)
                             + a_t * x**2 + b_t * x + c_t)
        q = q + Quad2.from_y(a_2, b_2, c_2)
        pref_y = ((1.0 / (2.0 * np.pi)) * (m / (2j * np.pi * T1)) ** 0.5
                  * np.sqrt(-np.pi / c2))
        # internal time-ordered line, Fresnel in eta = y' - x'
        fres_pref = (m / (2j * np.pi * tau[..., None])) ** 0.5
        fres_eta2 = 1j * m / (2.0 * tau[..., None])
    else:
        # bra-branch chain, tau = t2 - t1 > 0, t1 on the nodes
        t1 = tb
        t2 = tb + tau
        T2 = (t - t2)[..., None]
        pk_t, a_t, b_t, c_t = packet_coeffs(ci, p0, sig, m, t)     # ket at t
        pk_1, a_1, b_1, c_1 = packet_coeffs(cj, p0, sig, m, t1)    # bra at t1
        pref_psi = pk_t * np.conj(pk_1)[..., None]
        a_1 = np.conj(a_1)[..., None]
        b_1 = np.conj(b_1)[..., None]
        c_1 = np.conj(c_1)[..., None]

        # y integral: e^{ipy} psi(x - y/2, t) G_D(y', t2; x + y/2, t)
        c2 = a_t / 4.0 - 1j * m / (8.0 * T2)
        l0 = 1j * p - a_t * x - b_t / 2.0 - 1j * m * x / (2.0 * T2)
        ly = 1j * m / (2.0 * T2)
        q = Quad2.from_linear_square(l0, 0.0, ly, -1.0 / (4.0 * c2))
        q = q + Quad2.from_y(-1j * m / (2.0 * T2), 1j * m * x / T2,
                             a_t * x**2 + b_t * x + c_t
                             - 1j * m * x**2 / (2.0 * T2))
        q = q + Quad2.from_x(a_1, b_1, c_1)
        pref_y = ((1.0 / (2.0 * np.pi)) * (m / (-2j * np.pi * T2)) ** 0.5
                  * np.sqrt(-np.pi / c2))
        # internal anti-time-ordered line
        fres_pref = (m / (-2j * np.pi * tau[..., None])) ** 0.5
        fres_eta2 = -1j * m / (2.0 * tau[..., None])

    pref_xi, h2, h1, h0 = q.integrate_xi()
    h2 = h2 + fres_eta2
    return pref_y * pref_psi * pref_xi * fres_pref, h2, h1, h0


def _gain_k_window(h2, h1, lam_uv):
    """Per tau, the k range of the gain's Gaussian envelope in k.

    |exp(-(h1 + ik)^2/(4 h2))| is a Gaussian in k, exp(Re(c) (k - k0)^2)
    times its peak, with c = 1/(4 h2) and k0 = -Im(c h1)/Re(c).  The range
    covers every time node's k0 +- sqrt(_ENVELOPE_NATS/(-Re c)), clipped to
    [-lambda, lambda]; a tau with an envelope that does not decay
    (Re c >= 0) or an empty range takes all of [-lambda, lambda].
    """
    c = 1.0 / (4.0 * h2)
    with np.errstate(divide="ignore", invalid="ignore"):
        k0 = -(c * h1).imag / c.real
        half = np.sqrt(-_ENVELOPE_NATS / c.real)
    lo = np.maximum(np.min(k0 - half, axis=(1, 2)), -lam_uv)
    hi = np.minimum(np.max(k0 + half, axis=(1, 2)), lam_uv)
    full = np.any(c.real >= 0.0, axis=(1, 2)) | ~(lo < hi)
    return np.where(full, -lam_uv, lo), np.where(full, lam_uv, hi)


def _spectral_sum(tau, jac, wt, h2, h1, h0, k_lo, k_hi, params, n_per):
    """Time and spectral sums of one component over all tau nodes.

    wt (taus, time nodes) holds each tau's time weights times the
    integrand's prefactor, and h2, h1, h0 (taus, time nodes, 1) its
    eta-quadratic.  The eta integral is closed per spectral node k,

        Int deta exp(h2 eta^2 + (h1 + ik) eta + h0)
            = sqrt(-pi/h2) exp(h0 - (h1 + ik)^2/(4 h2)),

    against the bath weight [(1 + n) e^{i w tau} + n e^{-i w tau}]/(2 pi 2 w)
    at the signed tau, over [k_lo, k_hi] per tau.  Each tau's panel count
    follows the phase rates of the closed form over its k range (a quadratic
    chirp), which steepen near the time-node corners.  Taus that share a
    panel count are evaluated together, in chunks, each built in place in
    one buffer for all chunks, so the heap is not refaulted.
    """
    n_inner = wt.shape[1]
    rate_lin = np.max(np.abs(h1 / (2.0 * h2)), axis=(1, 2))
    rate_quad = np.max(np.abs(1.0 / (4.0 * h2)), axis=(1, 2))
    # quadratic chirp: budget panels for the edge-local frequency
    local_rate = 2.0 * np.maximum(np.abs(k_lo), np.abs(k_hi)) * rate_quad + rate_lin
    phase = (k_hi - k_lo) * local_rate + 2.0 * np.pi
    panels = np.maximum(4, np.ceil(phase / (1.1 * n_per)).astype(int))

    total = 0.0 + 0.0j
    buf = np.empty(0, dtype=complex)
    for count in np.unique(panels):
        n_k = n_per * int(count)
        group = np.flatnonzero(panels == count)
        step = chunk_len(16 * n_inner * n_k)
        for i in range(0, group.size, step):
            b = group[i:i + step]
            kq, kw = gauss_panels(k_lo[b], k_hi[b], n_per, int(count))
            omega = np.sqrt(kq**2 + params.m_e**2)
            occ = bose_occupation(omega, params.t_env)
            fwd = np.exp(1j * omega * tau[b, None])
            meas = (((1.0 + occ) * fwd + occ * np.conj(fwd))
                    / (2.0 * np.pi * 2.0 * omega) * kw)
            size = len(b) * n_inner * n_k
            buf = buf if buf.size >= size else np.empty(size, dtype=complex)
            val = buf[:size].reshape(len(b), n_inner, n_k)
            np.add(h1[b], 1j * kq[:, None, :], out=val)
            val *= val
            val /= 4.0 * h2[b]
            np.subtract(h0[b], val, out=val)
            np.exp(val, out=val)
            val *= np.sqrt(-np.pi / h2[b])
            per_t = (val @ meas[..., None])[..., 0]
            total += jac[b] @ np.sum(wt[b] * per_t, axis=1)
    return total


def oracle_diagram(term_id, w0, params, t, probes, n_lambda=28, n_inner=24,
                   budget_s=600.0):
    """Position-space evaluation of one evolution term at probe points.

    Requires a d = 1 closed-form initial state (the oracle integrates the
    true packets, not grid samples).  Returns (values, status): values are
    complex (the two loss terms are individually complex, their sum is
    real), and each probe's status is "ok", or "budget_exceeded" for a
    probe not started because budget_s had run out.  One rule carries no
    error estimate; `certify_instance` gets one by comparing rules.

    The tau = +-lambda^2 nodes (n_lambda of them per sign for the gain term,
    12 per panel on max(12, n_lambda) panels for the loss terms) are
    evaluated as arrays, not one by one, through `_spectral_sum`: each
    keeps its own n_inner-node time rule (on [|tau|/2, t - |tau|/2] for the
    gain's mean time, on [0, t - tau] for the losses' earlier vertex) and
    its own k range and spectral panel count (nodes are grouped by count,
    never padded).  Each group runs in chunks whose largest complex array,
    (taus, time nodes, k nodes), stays within the chunk budget
    (`propagators.chunk_len`) unless one node alone exceeds it; the
    batching changes only the summation order.
    """
    if term_id not in ("zeroth", "gain", "loss_left", "loss_right"):
        raise ValueError(f"unknown term {term_id!r}")
    if params.d != 1:
        raise ValueError("the diagram oracle is restricted to d = 1")
    spec = w0.source
    if not isinstance(spec, InitialStateSpec):
        raise ValueError("the diagram oracle needs a closed-form initial state")
    if t < 0.0:
        raise ValueError("t must be >= 0")

    m = params.m_s
    sig = spec.sigma
    comps = state_components(spec)
    start = time.time()
    values, status = [], []

    if term_id == "zeroth":
        st = _sigma_t(sig, m, t)
        drift = max(abs(p) for _, p in probes.points) * t / m + abs(spec.p0[0]) * t / m
        span = 2.0 * (abs(spec.x0[0]) + spec.separation / 2.0 + 8.0 * st
                      + drift + max(abs(x) for x, _ in probes.points))
        for x, p in probes.points:
            rate = (abs(p) + abs(spec.p0[0]) + m * (abs(x) + span / 2.0)
                    / max(t, 0.25))
            yn, yw = gauss_panels(-span, span, 24,
                                  max(8, int(np.ceil(span * rate / 30.0))))
            total = 0.0 + 0.0j
            for amp_i, ci in comps:
                pi_, ai, bi, c0i = packet_coeffs(ci, spec.p0[0], sig, m, t)
                for amp_j, cj in comps:
                    pj_, aj, bj, c0j = packet_coeffs(cj, spec.p0[0], sig, m, t)
                    xm = x - yn / 2.0
                    xp_ = x + yn / 2.0
                    f = (amp_i * np.conj(amp_j) * pi_ * np.conj(pj_)
                         * np.exp(ai * xm**2 + bi * xm + c0i
                                  + np.conj(aj) * xp_**2 + np.conj(bj) * xp_
                                  + np.conj(c0j) + 1j * p * yn))
                    total += np.sum(yw * f)
            values.append(total / (2.0 * np.pi))
            status.append({"status": "ok"})
        return np.array(values), status

    if t == 0.0:
        vals = np.zeros(len(probes.points), dtype=complex)
        return vals, [{"status": "ok"} for _ in probes.points]

    lam_uv = params.lambda_uv
    if term_id == "gain":
        # tau = t1 - t2 = +-lambda^2, t1,2 = tb +- tau/2
        lam_nodes, lam_w = gauss_panels(0.0, np.sqrt(t), n_lambda, 1)
        tau = np.concatenate([lam_nodes**2, -lam_nodes**2])
        jac = np.tile(2.0 * lam_nodes * lam_w, 2)
        tb, tb_w = gauss_panels(np.abs(tau) / 2.0, t - np.abs(tau) / 2.0, n_inner, 1)
        bath_tau = tau
    else:
        # the bath correlation's log(tau) layer between 1/lambda_uv and
        # 1/m_e needs composite lambda panels; tau = |t1 - t2| > 0, the
        # earlier vertex on the time node tb
        left = term_id == "loss_left"
        lam_g, lam_gw = gauss_panels(0.0, np.sqrt(t), 12, max(12, n_lambda))
        keep = t - lam_g**2 > 0.0
        tau, jac = lam_g[keep]**2, 2.0 * lam_g[keep] * lam_gw[keep]
        tb, tb_w = gauss_panels(0.0, t - tau, n_inner, 1)
        k_lo, k_hi = np.full(tau.shape, -lam_uv), np.full(tau.shape, lam_uv)
        bath_tau = -tau if left else tau
    # the spectral integral needs high per-panel order for its quadratic chirp
    n_per = max(40, 2 * n_inner)

    for x, p in probes.points:
        if time.time() - start > budget_s:
            values.append(np.nan + 0.0j)
            status.append({"status": "budget_exceeded"})
            continue
        total = 0.0 + 0.0j
        for amp_i, ci in comps:
            for amp_j, cj in comps:
                if term_id == "gain":
                    pref, h2, h1, h0 = _gain_eta_coeffs(
                        x, p, t, tb + tau[:, None] / 2.0, tb - tau[:, None] / 2.0,
                        params, spec, ci, cj)
                    k_lo, k_hi = _gain_k_window(h2, h1, lam_uv)
                else:
                    pref, h2, h1, h0 = _loss_eta_coeffs(x, p, t, tau[:, None], tb,
                                                        params, spec, ci, cj, left)
                part = _spectral_sum(bath_tau, jac, tb_w * pref[..., 0], h2, h1, h0,
                                     k_lo, k_hi, params, n_per)
                total += amp_i * np.conj(amp_j) * part
        values.append(total)
        status.append({"status": "ok"})

    return np.array(values), status


def certify_instance(w0, params, t, probes, quad, terms=("gain", "loss_left",
                                                         "loss_right"),
                     budget_s=600.0, backend="auto"):
    """Compare the momentum-space fast path against the oracle at probes, d = 1.

    The fast values come from `evolution._second_order`, as in `evolve`, so
    the oracle's own loss_right checks the mirror loss_right = conj(loss_left).
    backend = "grid" drops the closed form for the fast path only.

    Emits a JSON-ready record with the instance description, both values,
    self-declared error estimates, and per-probe/per-term pass flags; each
    term's "fast_report" is its quadrature report, phase-space "trace"
    included (see `evolution._second_order`).  A probe passes when the
    relative difference is within _CERTIFY_REL_TOL or within the fast
    term's rel_err_est plus the oracle's error estimate.

    Each term climbs a ladder of oracle rules, _RUNGS (each an
    `oracle_diagram` call that batches its tau nodes as described there).
    A probe's oracle error estimate is the difference between the current
    rung and the one below, relative to the larger of the fast and oracle
    values.  The ladder stops at the first rung where every probe's
    estimate is within _LADDER_TOL, at the last rung, or once the runtime
    budget is spent, and reports that rung's values; the term's record
    names the rule ("oracle_rule"), the rungs run ("oracle_rungs") and
    whether the ladder converged ("oracle_converged").
    """
    from .evolution import _fast_input, _second_order

    if params.d != 1:
        raise ValueError("certification is restricted to d = 1, as the oracle is")
    grid = probes.grid
    ix = [int(round((x - grid.x_min) / grid.dx)) for x, _ in probes.points]
    ip = [int(round((p - grid.p_nodes[0]) / grid.dp)) for _, p in probes.points]
    record = {
        "instance": {
            "d": params.d, "m_s": params.m_s, "m_e": params.m_e,
            "g": params.g, "t_env": params.t_env,
            "lambda_uv": params.lambda_uv, "t": t,
            "n_x": grid.n_x, "dx": grid.dx, "x_min": grid.x_min,
            "state": None if w0.source is None else vars(w0.source) | {},
            "quad": {"n_k": quad.n_k, "k_max": quad.resolved_k_max(params)},
        },
        "probes": [list(pt) for pt in probes.points],
        "terms": {},
        "all_passed": True,
    }
    start = time.time()
    second = _second_order(_fast_input(w0, backend), params, t, quad, terms=terms)
    for term in terms:
        fast, rep = second[term]
        fvals = np.array([fast[i, j] for i, j in zip(ix, ip)])
        orc = np.full(len(fvals), np.nan)
        for rungs, (n_lambda, n_inner) in enumerate(_RUNGS, 1):
            lower = orc
            remaining = max(10.0, budget_s - (time.time() - start))
            orc, st = oracle_diagram(term, w0, params, t, probes, n_lambda=n_lambda,
                                     n_inner=n_inner, budget_s=remaining)
            ok = [s["status"] == "ok" for s in st]
            scale = [max(abs(f), abs(o), 1e-300) for f, o in zip(fvals, orc)]
            # nan on the first rung and where the budget skipped a probe
            o_err = [abs(o - lo) / sc for o, lo, sc in zip(orc, lower, scale)]
            converged = all(e <= _LADDER_TOL for e in o_err)
            if converged or not all(ok) or time.time() - start > budget_s:
                break
        entries = []
        term_pass = True
        for i, (x, p) in enumerate(probes.points):
            rel = abs(fvals[i] - orc[i]) / scale[i]
            passed = bool(ok[i] and rel <= max(_CERTIFY_REL_TOL,
                                                rep["rel_err_est"] + o_err[i]))
            term_pass &= passed
            entries.append({
                "probe": [x, p],
                "fast": [float(np.real(fvals[i])), float(np.imag(fvals[i]))],
                "oracle": [float(np.real(orc[i])), float(np.imag(orc[i]))],
                "rel_diff": float(rel),
                "oracle_err_est": float(o_err[i]),
                "status": st[i]["status"],
                "passed": passed,
            })
        record["terms"][term] = {
            "fast_report": rep,
            "probes": entries,
            "passed": bool(term_pass),
            "oracle_rule": [n_lambda, n_inner],
            "oracle_rungs": rungs,
            "oracle_converged": converged,
        }
        record["all_passed"] = bool(record["all_passed"] and term_pass)
    record["runtime_s"] = time.time() - start
    return record
