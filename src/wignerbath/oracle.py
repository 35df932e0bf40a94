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
  * the remaining vertex variables are integrated numerically: the relative
    coordinate eta = y' - x' on a graded mesh against a position-space table
    of the bath propagator (cross-branch term), and the two times via the
    substitution tau = lambda^2 that removes the |t1 - t2|^{-1/2} Fresnel
    ridge of the integrand.

For the same-branch (loss) terms the internal particle line contributes a
nascent-delta Fresnel factor exp(+-i m eta^2 / 2 tau) whose oscillation no
fixed eta mesh can track down to tau -> 0; for those two terms the eta
integral is instead done in closed form against each spectral component of
the bath propagator, and the single bath-momentum integral is numerical.
The propagator chains, orderings and signs under test are identical either
way.

Certification instances are small by construction; a runtime budget returns
partial results with per-probe status rather than running over.
"""

from dataclasses import dataclass
import time

import numpy as np
from scipy.integrate import quad

from .grids import PhaseSpaceGrid
from .propagators import (ModelParams, gauss_panels, legendre_rule, wightman_amp,
                          bose_occupation)
from .states import InitialStateSpec
from .wigner import signed_mode_numbers

DEFAULT_EPS = (1e-2, 1e-3, 1e-4)
_P_CHUNK_PANELS = 1 << 14   # 32-node panels per chunk of the contour p sum
_BATCH_BYTES = 1 << 23      # largest complex array of one chunk of tau nodes


# ---------------------------------------------------------------------------
# complex-Gaussian engine
# ---------------------------------------------------------------------------

def gauss1d(c2, c1, c0):
    """Int exp(c2 v^2 + c1 v + c0) dv over R (Re c2 <= 0, principal branch)."""
    return np.sqrt(-np.pi / c2) * np.exp(c0 - c1 * c1 / (4.0 * c2))


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


def default_probes(grid, params, t, count=9):
    """A centered sub-lattice of grid nodes, away from the box edges."""
    n = grid.n_x
    side = int(np.round(np.sqrt(count)))
    idx = [n // 2 + (i - side // 2) * max(1, n // 8) for i in range(side)]
    pts = [(grid.x_nodes[i], grid.p_nodes[j]) for i in idx for j in idx]
    return ProbeSet(points=tuple(pts), grid=grid, params=params, t=t)


# ---------------------------------------------------------------------------
# oracle Wigner transform
# ---------------------------------------------------------------------------

def oracle_wigner_transform(rho, grid, probes, rel_tol=1e-10):
    """Adaptive z-quadrature of the Wigner integral at probe points.

    `rho` is a callable rho(x, y) (closed form) or an (n, n) array, in which
    case the zero-extended trig interpolant is integrated, matching the fast
    transform's semantics.
    """
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
                      -z_hi, z_hi, limit=400, epsabs=1e-13, epsrel=rel_tol)
        vi, ei = quad(lambda z: np.imag(rho_eval(x - z, x + z)
                                        * np.exp(2j * p * z)),
                      -z_hi, z_hi, limit=400, epsabs=1e-13, epsrel=rel_tol)
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

    The p sum runs over _P_CHUNK_PANELS Gauss-Legendre panels at a time: its
    range grows like eps^{-1/2}, and at small eps it needs tens of millions
    of nodes.
    """
    s_int, c_int = _frequency_factors(dt, eps)
    j_val = -2j * (s_int + eps * c_int)
    m = params.m_s
    p_hi = np.sqrt(2.0 * m * 45.0 / eps)
    rate = abs(dxv) + p_hi * abs(dt) / (2.0 * m)
    panels = max(8, int(np.ceil(2.0 * p_hi * rate / 64.0)))
    edges = np.linspace(-p_hi, p_hi, panels + 1)
    kval = 0.0 + 0.0j
    for i0 in range(0, panels, _P_CHUNK_PANELS):
        i1 = min(panels, i0 + _P_CHUNK_PANELS)
        pn, pw = gauss_panels(edges[i0], edges[i1], 32, i1 - i0)
        e_p = pn**2 / (2.0 * m)
        kval += np.sum(pw * np.exp(1j * pn * dxv - 1j * e_p * dt - eps * e_p))
    return (-1.0 / (2j * np.pi)) * j_val * kval / (2.0 * np.pi)


def epsilon_extrapolated_propagator(a, b, params, eps_list=DEFAULT_EPS,
                                    anti=False, tol=1e-6):
    """Richardson extrapolation eps -> 0 of the regulated contour integral.

    Certifies the closed-form time-ordered propagator, or with anti=True the
    anti-time-ordered one (conjugated contour).  Returns (value, record).

    `eps_list` is relative to the scale s = |dt| min(1, |dt|/(m dx^2)): the
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
    e = scale * np.asarray(eps_list, dtype=float)
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
    return val, {"residual": float(resid), "converged": bool(resid < 100 * tol)}


# ---------------------------------------------------------------------------
# diagram oracle
# ---------------------------------------------------------------------------

def _eta_mesh(eta_max, lam_uv, nodes_per_panel=8):
    """Graded symmetric eta mesh resolving the bath light-cone structure."""
    edges = [0.0, 0.5 / lam_uv, 2.0 / lam_uv, 8.0 / lam_uv]
    step = 8.0 / lam_uv
    while edges[-1] < eta_max:
        step *= 1.5
        edges.append(min(edges[-1] + step, eta_max))
    nodes, weights = [], []
    for lo, hi in zip(edges[:-1], edges[1:]):
        panels = max(1, int(np.ceil((hi - lo) * lam_uv / 4.0)))
        xn, wn = gauss_panels(lo, hi, nodes_per_panel, panels)
        nodes.append(xn)
        weights.append(wn)
    nodes = np.concatenate(nodes)
    weights = np.concatenate(weights)
    return (np.concatenate([-nodes[::-1], nodes]),
            np.concatenate([weights[::-1], weights]))


def _gain_eta_integrand(x, p, t, t1, t2, params, spec, ci, cj, eta):
    """xi-integrated cross-branch integrand on the (time, eta) lattice.

    t1 and t2 carry any leading batch axes; eta is appended as the last axis.
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
    return pref_y * pref_psi * pref_xi * np.exp(h2 * eta**2 + h1 * eta + h0)


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


def _time_rows(lo, hi, n_inner):
    """One inner time rule per tau on [lo, hi], built as gauss_panels(lo, hi,
    n_inner, 1) builds it."""
    base_x, base_w = legendre_rule(n_inner)
    half = (0.5 * (hi - lo))[:, None]
    mid = (0.5 * (hi + lo))[:, None]
    return mid + half * base_x, half * base_w


def _chunks(indices, node_bytes):
    """Split tau-node indices into chunks of at most _BATCH_BYTES // node_bytes
    (at least one) nodes."""
    step = max(1, _BATCH_BYTES // node_bytes)
    return [indices[i:i + step] for i in range(0, len(indices), step)]


def _gain_sum(x, p, t, tau, jac, rows, params, spec, ci, cj, eta, n_inner):
    """Time and eta sums of one cross-branch component over all tau nodes.

    Each tau keeps its own inner time rule on [|tau|/2, t - |tau|/2]; `rows`
    holds the bath propagator times the eta weights, one row per tau.
    """
    lo = np.abs(tau) / 2.0
    hi = t - np.abs(tau) / 2.0
    tb, tb_w = _time_rows(lo, hi, n_inner)
    total = 0.0 + 0.0j
    for b in _chunks(np.flatnonzero(hi > lo), 16 * n_inner * eta.size):
        r = _gain_eta_integrand(x, p, t, tb[b] + tau[b, None] / 2.0,
                                tb[b] - tau[b, None] / 2.0,
                                params, spec, ci, cj, eta)
        per_t = (r @ rows[b][..., None])[..., 0]
        total += jac[b] @ np.sum(tb_w[b] * per_t, axis=1)
    return total


def _loss_sum(x, p, t, tau, jac, params, spec, ci, cj, left, n_inner, n_per):
    """Time and spectral sums of one same-branch component over all tau nodes.

    Each tau keeps its own inner time rule on [0, t - tau].  The eta integral
    is closed per spectral node; each tau's node count follows the actual
    phase rates of the closed form, which steepen near the time-node corner
    t2 -> t - tau.  Taus that share a panel count are evaluated together.
    """
    tb, tb_w = _time_rows(0.0, t - tau, n_inner)
    pref, h2, h1, h0 = _loss_eta_coeffs(x, p, t, tau[:, None], tb, params,
                                        spec, ci, cj, left)
    lam_uv = params.lambda_uv
    rate_lin = np.max(np.abs(h1 / (2.0 * h2)), axis=(1, 2))
    rate_quad = np.max(np.abs(1.0 / (4.0 * h2)), axis=(1, 2))
    # quadratic chirp: budget panels for the edge-local frequency
    local_rate = 2.0 * lam_uv * rate_quad + rate_lin
    phase = 2.0 * lam_uv * local_rate + 2.0 * np.pi
    panels = np.maximum(4, np.ceil(phase / (1.1 * n_per)).astype(int))
    wt = tb_w * pref[..., 0]

    total = 0.0 + 0.0j
    for count in np.unique(panels):
        kq, kw = gauss_panels(-lam_uv, lam_uv, n_per, int(count))
        omega = np.sqrt(kq**2 + params.m_e**2)
        occ = bose_occupation(omega, params.t_env)
        group = np.flatnonzero(panels == count)
        for b in _chunks(group, 16 * n_inner * kq.size):
            fwd = np.exp(1j * omega * tau[b, None])
            if left:
                env_t = (1.0 + occ) * np.conj(fwd) + occ * fwd
            else:
                env_t = (1.0 + occ) * fwd + occ * np.conj(fwd)
            meas = env_t / (2.0 * np.pi * 2.0 * omega) * kw
            # val_eta = sqrt(-pi/h2) exp(h0 - c1e^2/(4 h2)), c1e = h1 + i k,
            # built in place: it is the chunk's one large array
            val = h1[b] + 1j * kq
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
    true packets, not grid samples).  Returns (values, status) with
    per-probe convergence/budget records; values are complex (the two loss
    terms are individually complex, their sum is real).

    The tau = +-lambda^2 nodes (n_lambda of them per sign for the gain term,
    12 per panel on max(12, n_lambda) panels for the loss terms) are
    evaluated as arrays, not one by one: each keeps its own n_inner-node
    time rule and, for the loss terms, its own spectral panel count (nodes
    are grouped by count, never padded).  Each group runs in chunks whose
    largest complex array, (taus, time nodes, eta or k nodes), stays within
    _BATCH_BYTES (8 MiB) unless one node alone exceeds it; the batching
    changes only the summation order.  The gain term's bath-propagator table
    (tau nodes x eta nodes) is built at the first probe inside `budget_s`,
    so a spent budget skips it.
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
            status.append({"converged": True, "err_est": 0.0, "status": "ok"})
        return np.array(values), status

    if t == 0.0:
        vals = np.zeros(len(probes.points), dtype=complex)
        return vals, [{"converged": True, "err_est": 0.0, "status": "ok"}
                      for _ in probes.points]

    if term_id == "gain":
        lam_nodes, lam_w = gauss_panels(0.0, np.sqrt(t), n_lambda, 1)
        jac = 2.0 * lam_nodes * lam_w
        eta_max = (t + 8.0 / params.m_e + 10.0 * _sigma_t(sig, m, t)
                   + spec.separation
                   + 2.0 * max(abs(p) for _, p in probes.points) * t / m
                   + 2.0 * abs(spec.p0[0]) * t / m)
        eta_n, eta_w = _eta_mesh(eta_max, params.lambda_uv)
        branches = None   # bath table, built at the first probe within budget
    else:
        # the bath correlation's log(tau) layer between 1/lambda_uv and
        # 1/m_e needs composite lambda panels; the spectral integral
        # needs high per-panel order for its quadratic chirp
        left = term_id == "loss_left"
        lam_g, lam_gw = gauss_panels(0.0, np.sqrt(t), 12, max(12, n_lambda))
        keep = t - lam_g**2 > 0.0
        tau, jac = lam_g[keep]**2, 2.0 * lam_g[keep] * lam_gw[keep]
        n_per = max(40, 2 * n_inner)

    for x, p in probes.points:
        if time.time() - start > budget_s:
            values.append(np.nan + 0.0j)
            status.append({"converged": False, "err_est": float("nan"),
                           "status": "budget_exceeded"})
            continue
        if term_id == "gain" and branches is None:
            branches = [(tau_s, wightman_amp(-tau_s[:, None], eta_n[None, :],
                                             params) * eta_w)
                        for tau_s in (lam_nodes**2, -lam_nodes**2)]
        total = 0.0 + 0.0j
        for amp_i, ci in comps:
            for amp_j, cj in comps:
                if term_id == "gain":
                    part = sum(_gain_sum(x, p, t, tau_s, jac, rows, params,
                                         spec, ci, cj, eta_n, n_inner)
                               for tau_s, rows in branches)
                else:
                    part = _loss_sum(x, p, t, tau, jac, params, spec, ci, cj,
                                     left, n_inner, n_per)
                total += amp_i * np.conj(amp_j) * part
        values.append(total)
        status.append({"converged": True, "err_est": 0.0, "status": "ok"})

    return np.array(values), status


def certify_instance(w0, params, t, probes, quad, terms=("gain", "loss_left",
                                                         "loss_right"),
                     rel_tol=1e-5, budget_s=600.0, backend="auto"):
    """Compare the momentum-space fast path against the oracle at probes.

    Emits a JSON-ready record with the instance description, both values,
    self-declared error estimates, and per-probe/per-term pass flags.  The
    oracle's error estimate is the difference from a rerun at n_lambda = 20,
    n_inner = 18 (against the default 28 and 24); both runs batch their tau
    nodes as oracle_diagram describes.
    """
    from .evolution import _diagram_with_report

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
            "quad": {"n_k": quad.n_k,
                     "k_max": quad.resolved_k_max(params),
                     "scheme": quad.scheme},
        },
        "probes": [list(pt) for pt in probes.points],
        "terms": {},
        "all_passed": True,
    }
    start = time.time()
    for term in terms:
        fast, rep = _diagram_with_report(term, w0, params, t, quad, backend)
        fvals = np.array([fast[i, j] for i, j in zip(ix, ip)])
        remaining = max(10.0, budget_s - (time.time() - start))
        orc, st = oracle_diagram(term, w0, params, t, probes,
                                 budget_s=remaining)
        orc_lo, _ = oracle_diagram(term, w0, params, t, probes,
                                   n_lambda=20, n_inner=18,
                                   budget_s=remaining)
        entries = []
        term_pass = True
        for i, (x, p) in enumerate(probes.points):
            ok = st[i]["status"] == "ok"
            scale = max(abs(fvals[i]), abs(orc[i]), 1e-300)
            rel = abs(fvals[i] - orc[i]) / scale
            o_err = abs(orc[i] - orc_lo[i]) / scale if ok else float("nan")
            passed = bool(ok and rel <= max(rel_tol, rep["rel_err_est"] + o_err))
            term_pass &= passed
            entries.append({
                "probe": [x, p],
                "fast": [float(np.real(fvals[i])), float(np.imag(fvals[i]))],
                "oracle": [float(np.real(orc[i])), float(np.imag(orc[i]))],
                "rel_diff": float(rel),
                "oracle_err_est": float(o_err),
                "status": st[i]["status"],
                "passed": passed,
            })
        record["terms"][term] = {
            "fast_report": rep,
            "probes": entries,
            "passed": bool(term_pass),
        }
        record["all_passed"] = bool(record["all_passed"] and term_pass)
    record["runtime_s"] = time.time() - start
    return record
