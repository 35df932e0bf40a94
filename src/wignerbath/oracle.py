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
    ridge of the integrand;
  * all probes in one pass: the eta-quadratic's linear coefficient is affine
    in the probe (x, p) and its quadratic one does not depend on it, so on a
    lattice of probe nodes each k node's exponential factors into one
    exponential at the lattice corner times integer powers of one per
    lattice axis: three complex exps per (tau, time node, k) for a 3 x 3
    probe lattice, not nine, and one small matmul per (tau, time node).

The k rule is sized per tau from its integrand (`_k_panels`), one rule for
all probes: Gauss panels over the union of their k ranges, as narrow as the
closed form's phase chirp asks for at the finest probe, with k = 0 a panel
edge and panels graded geometrically toward it on the scale of m_e, so
that none is long next to the branch points of the bath's 1/w at
k = +-i m_e.  The losses' symmetric range takes an even count, two at the
least; on a light bath the grading keeps the rule converged.

After the xi integral every integrand is a complex Gaussian in eta, so its
eta integral is exact at each k.  The same-branch (loss) terms carry the
internal particle line's nascent-delta Fresnel factor exp(+-i m eta^2 /
2 tau), which no fixed eta mesh could track down to tau -> 0; in closed
form it is one more term of the Gaussian.  The cross-branch (gain) term's
Gaussian decays in k as well, so its k sum covers only its envelope
(`_gain_k_window`); the loss terms take all of [-lambda, lambda].

Certification (`certify_instance`) climbs a ladder of oracle rules per term,
cheapest first (_RUNGS), and stops at the first two rules whose values
agree to _LADDER_TOL at every probe; their difference is the finer one's
error estimate, as QUADPACK estimates its error by comparing two rules.  The
second rung only confirms the first; where they disagree the ladder climbs
to oracle_diagram's default rule.  It cannot see the rules its rungs share,
the losses' lambda rule (`_tau_rule`) and the first two's k nodes per panel.

Certification instances are small by construction; a runtime budget,
checked before each pass over the probes, returns partial results with
per-probe status rather than running over.
"""

from dataclasses import dataclass
import time

import numpy as np

from .grids import PhaseSpaceGrid
from .propagators import bose_occupation, chunk_len, gauss_panels, legendre_rule
from .states import InitialStateSpec
from .wigner import signed_mode_numbers

DEFAULT_EPS = (1e-2, 1e-3, 1e-4)   # contour regulators, relative to the scale
_PROBE_SIDE = 3             # the default probes are a 3 x 3 sub-lattice
_NODE_TOL = 1e-9            # a probe this close to a node, in spacings, is on it
_CERTIFY_REL_TOL = 1e-5     # probe agreement that passes whatever the estimates
# oracle rules (n_lambda, n_inner) that certification climbs, cheapest first;
# the last is oracle_diagram's default.  The second only confirms the first: the
# cheapest rule finer in both, 5e-14 from (40, 32) wherever (12, 6) is converged.
_RUNGS = ((12, 6), (16, 8), (28, 24))
_LADDER_TOL = 1e-3 * _CERTIFY_REL_TOL   # two rungs that agree this well end it
_TAU_NODES, _TAU_PHASE = 24, 2.5   # the losses' lambda rule (_tau_rule)
_ENVELOPE_NATS = 40.0       # the gain's k range: its envelope down by e^-40
_GRADE = 6.0                # k panel edges at 0 and +-m_e _GRADE^j, j >= 1
_COEFF_ARRAYS = 12          # (taus, time nodes) arrays per point in the xi integral


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
    """Phase-space probe points on nodes of the grid they were taken from.

    The fast path has values only on the nodes, so a point off them is
    rejected; one within _NODE_TOL of a spacing is taken as its node.
    """

    points: tuple
    grid: PhaseSpaceGrid

    def __post_init__(self):
        pts = tuple((float(x), float(p)) for x, p in self.points)
        if not (3 <= len(pts) <= 25):
            raise ValueError("probe sets carry between 3 and 25 points")
        g = self.grid
        for x, p in pts:
            if not (g.x_nodes[0] <= x <= g.x_nodes[-1]
                    and g.p_nodes[0] <= p <= g.p_nodes[-1]):
                raise ValueError(f"probe ({x}, {p}) lies outside the grid box")
        snapped = tuple((float(g.x_nodes[i]), float(g.p_nodes[j]))
                        for i, j in _nearest_nodes(pts, g))
        for (x, p), (xn, pn) in zip(pts, snapped):
            if abs(x - xn) > _NODE_TOL * g.dx or abs(p - pn) > _NODE_TOL * g.dp:
                raise ValueError(f"probe ({x}, {p}) is not a grid node")
        object.__setattr__(self, "points", snapped)

    @property
    def nodes(self):
        """Each probe's (x, p) node indices on the grid, an (n, 2) int array."""
        return _nearest_nodes(self.points, self.grid)


def _nearest_nodes(points, grid):
    """The (x, p) indices of the grid nodes nearest to the points."""
    offsets = np.array(points) - (grid.x_min, grid.p_nodes[0])
    return np.rint(offsets / (grid.dx, grid.dp)).astype(int)


def default_probes(grid):
    """A centered 3 x 3 sub-lattice of grid nodes, away from the box edges."""
    n = grid.n_x
    idx = [n // 2 + (i - _PROBE_SIDE // 2) * max(1, n // 8)
           for i in range(_PROBE_SIDE)]
    pts = [(grid.x_nodes[i], grid.p_nodes[j]) for i in idx for j in idx]
    return ProbeSet(points=tuple(pts), grid=grid)


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


def _k_panels(k_lo, k_hi, width, m_e):
    """Per tau, the k panels of the spectral sum over [k_lo, k_hi].

    The edges are the window's ends, k = 0 if inside it, and the graded
    breaks +-m_e _GRADE^j (j >= 1) inside it that lie closer to 0 than the
    chirp rule's `width` (per tau); each piece is then cut into equal
    panels no wider than `width`.  So the panels are graded geometrically
    toward k = 0 where the chirp panels alone would be too wide, and each
    is at most _GRADE times as long as its distance from the branch points
    of 1/w at k = +-i m_e (from m_e for a panel that ends at 0).  On a
    symmetric window the count is even.  Returns (mid, half, count): every
    panel's centre and half length, tau after tau, and each tau's panel
    count.
    """
    reach = max(np.max(np.abs(k_lo)), np.max(np.abs(k_hi)))
    grade = m_e * _GRADE ** np.arange(1, np.log(reach / m_e) / np.log(_GRADE) + 1)
    breaks = np.concatenate([-grade[::-1], [0.0], grade])
    # a graded break that the chirp panels would not pass adds nothing
    breaks = np.where(np.abs(breaks) < width[:, None], breaks, np.copysign(np.inf, breaks))
    edges = np.concatenate([k_lo[:, None],
                            np.clip(breaks, k_lo[:, None], k_hi[:, None]),
                            k_hi[:, None]], axis=1)
    seg = np.diff(edges, axis=1)                 # zero outside the window
    cuts = np.ceil(seg / width[:, None]).astype(int).ravel()
    owner = np.repeat(np.arange(cuts.size), cuts)
    sub = np.arange(owner.size) - (np.cumsum(cuts) - cuts)[owner]
    length = (seg.ravel() / np.maximum(cuts, 1))[owner]
    mid = edges[:, :-1].ravel()[owner] + (sub + 0.5) * length
    return mid, 0.5 * length, cuts.reshape(seg.shape).sum(axis=1)


def _tau_rule(term_id, params, t, n_lambda):
    """(panels, nodes per panel) of a term's rule in lambda = sqrt|tau|: the
    gain's n_lambda nodes on one panel; the losses' _TAU_NODES per panel on
    panels uniform in lambda (the bath's log(tau) layer near 0 asks that),
    one per _TAU_PHASE radians of the bath phase lambda_uv t, two at least."""
    if term_id == "gain":
        return 1, n_lambda
    return max(2, int(np.ceil(params.lambda_uv * t / _TAU_PHASE))), _TAU_NODES


def _at_points(coeffs, points, n_elems, *args):
    """coeffs(x, p, *args) at each point in turn, each part of shape (taus,
    time nodes, 1), from calls on batches of points as (batch, 1, 1, 1)
    arrays.

    The xi integral holds about _COEFF_ARRAYS (taus, time nodes) arrays per
    point at its peak, n_elems elements each; a batch keeps them within the
    chunk budget.
    """
    step = chunk_len(16 * _COEFF_ARRAYS * n_elems)
    for i in range(0, len(points), step):
        x, p = np.array(points[i:i + step]).T[..., None, None, None]
        parts = coeffs(x, p, *args)
        shape = np.broadcast_shapes(*(np.shape(part) for part in parts))
        for q in range(len(x)):
            yield tuple(np.broadcast_to(part, shape)[q] for part in parts)


def _power_rows(rows, rate, k, exps, ratio):
    """rows[..., j, :] = rows[..., 0, :] * exp(rate k)**exps[j] for j >= 1.

    exps ascend from exps[0] = 0.  exp(rate k) is taken once, into the
    buffer `ratio`, and each row is the one before times its power.
    """
    if len(exps) > 1:
        np.multiply(rate, k, out=ratio)
        np.exp(ratio, out=ratio)
    for j in range(1, len(exps)):
        gap = exps[j] - exps[j - 1]
        np.multiply(rows[..., j - 1, :], ratio if gap == 1 else ratio**gap,
                    out=rows[..., j, :])


def _spectral_sum(tau, jac, tb_w, coeffs, ab, gain, params, n_per):
    """Time and spectral sums of one component pair at all probes at once.

    `coeffs` yields (pref, h2, h1, h0) of the xi-integrated integrand at
    the probe lattice's corner r, one lattice step from r along x, one
    along p, and then at each probe, one point at a time: each of shape
    (taus, time nodes, 1), such that the integrand before the bath
    propagator is pref * exp(h2 eta^2 + h1 eta + h0).  h2 is the same at
    every point and h1 is affine in (x, p).  ab (P, 2) holds each probe's
    lattice coordinates (a_q, b_q) from r, and tb_w the time weights.  The
    eta integral is closed per spectral node k,

        Int deta exp(h2 eta^2 + (h1 + ik) eta + h0)
            = sqrt(-pi/h2) exp(h0 - c h1^2 - 2i c h1 k + c k^2),  c = 1/(4 h2),

    against the bath weight [(1 + n) e^{i w tau} + n e^{-i w tau}]/(2 pi 2 w)
    at the signed tau.  As h1 is affine, probe q's exponential factors as

        exp(h0_q - c h1_q^2) E U^{a_q} V^{b_q},   E = exp(c k^2 - 2i c h1_r k),

    where U = exp(-2i c dh1_x k), V = exp(-2i c dh1_p k) and dh1_x, dh1_p
    are h1's steps along the lattice's two axes.  So a (tau, time node, k)
    element takes three complex exps whatever the number of probes, not one
    per probe; the powers are running products.  One (A, K) @ (K, B)
    matmul per (tau, time node), over the A distinct a_q and B distinct b_q,
    gives every probe's k sum, and exp(h0_q - c h1_q^2) and sqrt(-pi/h2)
    join the time weights.  Returns the P sums.

    The probes share one k rule per tau (`_k_panels`): over the union of
    their k ranges (the gain's envelopes, `_gain_k_window`, or all of
    [-lambda, lambda] for the losses), with panels as narrow as the finest
    probe's phase rates ask for (a quadratic chirp, which steepens near
    the time-node corners; 1.1 rad of phase per node), with edges at k = 0
    and graded toward it on the scale of m_e, where 1/w varies fastest.
    Taus that share a panel count are evaluated together, in chunks sized
    on all their live (tau, time node, k) arrays (A + B power rows and the
    ratio), all built in place in one buffer for all chunks, so the heap is
    not refaulted.
    """
    lam_uv = params.lambda_uv
    basis, wt, widths, k_lo, k_hi = [], [], [], [], []
    for pref, h2, h1, h0 in coeffs:
        c = 1.0 / (4.0 * h2)        # as h2, the same at every point
        if len(basis) < 3:
            basis.append(-2j * c * h1)
            continue
        wt.append(tb_w * (pref * np.sqrt(-np.pi / h2) * np.exp(h0 - c * h1 * h1))[..., 0])
        lo, hi = (_gain_k_window(h2, h1, lam_uv) if gain
                  else (np.full(tau.shape, -lam_uv), np.full(tau.shape, lam_uv)))
        # quadratic chirp: budget panels for the edge-local frequency
        local_rate = (2.0 * np.maximum(np.abs(lo), np.abs(hi)) * np.max(np.abs(c), axis=(1, 2))
                      + np.max(np.abs(h1 / (2.0 * h2)), axis=(1, 2)))
        phase = (hi - lo) * local_rate + 2.0 * np.pi
        widths.append((hi - lo) * 1.1 * n_per / phase)
        k_lo.append(lo)
        k_hi.append(hi)
    lin_r, lin_x, lin_p = basis[0], basis[1] - basis[0], basis[2] - basis[0]
    wt = np.array(wt)
    n_inner = wt.shape[2]
    mid, half, panels = _k_panels(np.min(k_lo, axis=0), np.max(k_hi, axis=0),
                                  np.min(widths, axis=0), params.m_e)
    first = np.cumsum(panels) - panels
    base_x, base_w = legendre_rule(n_per)
    a_exps, b_exps = (sorted(set(ab[:, i].tolist())) for i in (0, 1))
    a_of, b_of = np.searchsorted(a_exps, ab[:, 0]), np.searchsorted(b_exps, ab[:, 1])
    n_a, n_b = len(a_exps), len(b_exps)

    total = np.zeros(len(ab), dtype=complex)
    buf = np.empty(0, dtype=complex)
    for count in np.flatnonzero(np.bincount(panels)):
        n_k = n_per * int(count)
        group = np.flatnonzero(panels == count)
        # (A + B + 12) rows per tau: the A + B + 1 live rows take under half
        # the chunk budget; fuller chunks raised the peak heap, not the speed
        step = chunk_len(16 * n_inner * n_k * (n_a + n_b + 12))
        for i in range(0, group.size, step):
            b = group[i:i + step]
            rows = first[b, None] + np.arange(count)
            kq = (mid[rows, None] + half[rows, None] * base_x).reshape(len(b), n_k)
            kw = (half[rows, None] * base_w).reshape(len(b), n_k)
            omega = np.sqrt(kq**2 + params.m_e**2)
            occ = bose_occupation(omega, params.t_env)
            fwd = np.exp(1j * omega * tau[b, None])
            meas = (((1.0 + occ) * fwd + occ * np.conj(fwd))
                    / (2.0 * np.pi * 2.0 * omega) * kw)
            size = len(b) * n_inner * n_k
            if buf.size < (n_a + n_b + 1) * size:
                buf = np.empty((n_a + n_b + 1) * size, dtype=complex)
            left, right, ratio = np.split(buf[:(n_a + n_b + 1) * size],
                                          (n_a * size, (n_a + n_b) * size))
            left = left.reshape(len(b), n_inner, n_a, n_k)
            right = right.reshape(len(b), n_inner, n_b, n_k)
            ratio = ratio.reshape(len(b), n_inner, n_k)
            k3 = kq[:, None, :]
            e = left[..., 0, :]
            np.multiply(c[b], k3, out=e)
            e += lin_r[b]
            e *= k3
            np.exp(e, out=e)
            e *= meas[:, None, :]
            _power_rows(left, lin_x[b], k3, a_exps, ratio)
            right[..., 0, :] = 1.0
            _power_rows(right, lin_p[b], k3, b_exps, ratio)
            per_t = (left @ right.swapaxes(-1, -2))[..., a_of, b_of]
            total += np.sum(wt[:, b] * np.moveaxis(per_t, -1, 0), axis=2) @ jac[b]
    return total


def oracle_diagram(term_id, w0, params, t, probes, n_lambda=28, n_inner=24,
                   budget_s=600.0):
    """Position-space evaluation of one evolution term at probe points.

    Requires a d = 1 closed-form initial state (the oracle integrates the
    true packets, not grid samples).  Returns (values, status): values are
    complex (the two loss terms are individually complex, their sum is
    real), and each probe's status is "ok", or "budget_exceeded" when
    budget_s had run out before one of the term's passes (one per pair of
    packet components) started: each pass covers every probe, so then none
    has a value.  One rule carries no error estimate; `certify_instance`
    gets one by comparing rules.  n_lambda sizes the gain's lambda rule
    only; n_inner sizes every term's time rule.

    The tau = +-lambda^2 nodes (n_lambda of them per sign for the gain term,
    `_tau_rule`'s panels sized from lambda_uv t for the loss terms) are
    evaluated as arrays, not one by one, through `_spectral_sum`, and so are
    the probes: the eta-quadratic's h1 is affine in the probe (x, p) and
    the probes lie on a lattice of grid nodes (its steps the gcd of their
    node offsets), so each (tau, time node, k) element takes three complex
    exps for all probes.  Each tau keeps its own n_inner-node time rule (on
    [|tau|/2, t - |tau|/2] for the gain's mean time, on [0, t - tau] for the
    losses' earlier vertex) and one k rule for all probes (graded toward
    k = 0 on the scale of m_e, and as narrow as the finest probe's phase
    chirp asks for: `_k_panels`; taus are grouped by panel count, never
    padded).  Each group runs in chunks sized on their live arrays
    (`propagators.chunk_len`) unless one tau alone exceeds the budget; the
    batching changes only the summation order.  The zeroth term, closed
    form and cheap, is summed probe by probe.
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

    if term_id == "zeroth":
        values = []
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
        return np.array(values), [{"status": "ok"} for _ in probes.points]

    if t == 0.0:
        vals = np.zeros(len(probes.points), dtype=complex)
        return vals, [{"status": "ok"} for _ in probes.points]

    panels, per_panel = _tau_rule(term_id, params, t, n_lambda)
    lam, lam_w = gauss_panels(0.0, np.sqrt(t), per_panel, panels)
    tau, jac = lam**2, 2.0 * lam * lam_w
    if term_id == "gain":
        # tau = t1 - t2 = +-lambda^2, t1,2 = tb +- tau/2
        tau, jac = np.concatenate([tau, -tau]), np.tile(jac, 2)
        tb, tb_w = gauss_panels(np.abs(tau) / 2.0, t - np.abs(tau) / 2.0, n_inner, 1)
        bath_tau = tau

        def coeffs(x, p, ci, cj):
            return _gain_eta_coeffs(x, p, t, tb + tau[:, None] / 2.0,
                                    tb - tau[:, None] / 2.0, params, spec, ci, cj)
    else:
        # tau = |t1 - t2| > 0 (every Gauss node lies inside [0, sqrt t]),
        # the earlier vertex on the time node tb
        left = term_id == "loss_left"
        tb, tb_w = gauss_panels(0.0, t - tau, n_inner, 1)
        bath_tau = -tau if left else tau

        def coeffs(x, p, ci, cj):
            return _loss_eta_coeffs(x, p, t, tau[:, None], tb, params, spec, ci, cj, left)
    # the spectral integral needs high per-panel order for its quadratic chirp
    n_per = max(40, 2 * n_inner)

    # the probes as a lattice: its corner node r, the gcd of the node
    # offsets from r as its steps, and each probe's coordinates on it
    grid = probes.grid
    nodes = probes.nodes
    corner = nodes.min(axis=0)
    steps = np.maximum(np.gcd.reduce(nodes - corner, axis=0), 1)
    ab = (nodes - corner) // steps
    xr, pr = grid.x_nodes[corner[0]], grid.p_nodes[corner[1]]
    points = [(xr, pr), (xr + steps[0] * grid.dx, pr), (xr, pr + steps[1] * grid.dp),
              *probes.points]

    total = np.zeros(len(probes.points), dtype=complex)
    for amp_i, ci in comps:
        for amp_j, cj in comps:
            if time.time() - start > budget_s:
                return (np.full(len(probes.points), np.nan + 0.0j),
                        [{"status": "budget_exceeded"} for _ in probes.points])
            total += amp_i * np.conj(amp_j) * _spectral_sum(
                bath_tau, jac, tb_w, _at_points(coeffs, points, tb.size, ci, cj), ab,
                term_id == "gain", params, n_per)
    return total, [{"status": "ok"} for _ in probes.points]


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
    included (see `evolution._second_order`), and the instance's "quad"
    names n_k and the node count of the fast path's one k rule ("k_nodes",
    after the ball mask); the rule spans |k| <= the instance's "lambda_uv".
    A probe passes when the relative difference is within _CERTIFY_REL_TOL
    or within the fast term's rel_err_est plus the oracle's error estimate.

    Each term climbs the ladder of oracle rules _RUNGS, one `oracle_diagram`
    call per rung.  A probe's oracle error estimate is the difference
    between the current rung and the one below, relative to the larger of
    the fast and oracle values.  The ladder stops at the first rung where
    every probe's estimate is within _LADDER_TOL (the second, where the
    first is converged), at the last rung, or once the runtime budget is
    spent, and reports that rung's values and rule: its lambda rule
    ("oracle_tau_rule", [panels, nodes per panel], see `_tau_rule`) and
    time nodes ("oracle_n_inner"), with the rungs run ("oracle_rungs") and
    whether the ladder converged ("oracle_converged").
    """
    from .evolution import _fast_input, _second_order

    if params.d != 1:
        raise ValueError("certification is restricted to d = 1, as the oracle is")
    grid = probes.grid
    record = {
        "instance": {
            "d": params.d, "m_s": params.m_s, "m_e": params.m_e,
            "g": params.g, "t_env": params.t_env,
            "lambda_uv": params.lambda_uv, "t": t,
            "n_x": grid.n_x, "dx": grid.dx, "x_min": grid.x_min,
            "state": None if w0.source is None else vars(w0.source) | {},
            "quad": {"n_k": quad.n_k},
        },
        "probes": [list(pt) for pt in probes.points],
        "terms": {},
        "all_passed": True,
    }
    start = time.time()
    second = _second_order(_fast_input(w0, backend), params, t, quad, terms=terms)
    record["instance"]["quad"]["k_nodes"] = max(
        (rep["k_nodes"] for _, rep in second.values()), default=0)
    for term in terms:
        fast, rep = second[term]
        fvals = fast[tuple(probes.nodes.T)]
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
            "oracle_tau_rule": list(_tau_rule(term, params, t, n_lambda)),
            "oracle_n_inner": n_inner,
            "oracle_rungs": rungs,
            "oracle_converged": converged,
        }
        record["all_passed"] = bool(record["all_passed"] and term_pass)
    record["runtime_s"] = time.time() - start
    return record
