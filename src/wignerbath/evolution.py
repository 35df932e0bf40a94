"""Direct evolution of Wigner functions: free streaming plus the three
connected second-order bath corrections.

The evolved distribution is assembled as

    W(t) = W_zeroth(t) + g^2 * (gain - loss_left - loss_right)

where W_zeroth is the ballistic shear W0(x - p t/m, p) and the corrections
are the connected second-order terms: the cross-branch term weighted by the
fixed-order bath propagator (gain) and the two same-branch self-energy terms
weighted by the time-ordered/anti-time-ordered bath propagators (losses).

Momentum-space fast path.  Writing the initial data as a trigonometric
polynomial W0(X, Q) = sum_{j,l} c_{jl} e^{i(u_j.X + s_l.Q)}, every spatial
integral in the second-order expressions collapses analytically (free
propagators are diagonal phases in momentum space; each vertex transfers the
bath momentum k), leaving per output point (x, p)

    gain      = Re sum_j e^{i u_j.(x - p t/m)} Int d^dk /((2pi)^d 2 w_k)
                  gq_j(p + k) * I(beta1, beta2; s-window)
    loss_left = Re sum_j gq_j(p) e^{i u_j.(x - p t/m)} Int d^dk /((2pi)^d 2 w_k)
                  Fw(B; tau-window)

with gq_j(Q) = sum_l c_{jl} e^{i s_l.Q} and

    beta1 = -(p.k/m + k^2/2m - w_k) - u_j.k/2m
    beta2 = +(p.k/m + k^2/2m - w_k) - u_j.k/2m
    B     =   p.k/m - k^2/2m - w_k  + u_j.k/2m          (loss_left)
    B~    =  -p.k/m + k^2/2m + w_k  + u_j.k/2m          (loss_right)

I and Fw are closed-form time integrals: the gain's double time integral
factorizes over (t1, t2); the loss integrands depend only on tau = t1 - t2,
so their triangle integral collapses to Int_0^t (t - tau) e^{iB tau} dtau
exactly.  A thermal bath splits each frequency phase into Bose-weighted
(1 + n, n) branches.  The summary above is the derivation's only write-up.

Initial data are treated as zero outside their box (matching the transform
module): evaluation points whose position argument would leave the box are
removed by clipping the analytic time integrals to the admissible
sub-window, and the momentum argument p + k is masked to the box directly.

Only the k integral is numerical: composite Gauss-Legendre (or trapezoid)
panels whose count scales with the analytic phase range, so the oscillatory
UV tail is always resolved; n_k sets the nodes per panel.
"""

from dataclasses import dataclass
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .wigner import WignerFunction, mode_coefficients, density_from_wigner
from .states import InitialStateSpec, sample_closed, wigner_atoms
from .propagators import bose_occupation, gauss_panels

SUPPORT_TOL = 1e-9        # relative mass threshold for the shear support check
SMALL_PHASE = 1e-5        # |gamma|*t below which degenerate series are used
COEF_TRUNC = 1e-19        # closed-form mode coefficient truncation
PHASE_PER_PANEL = 24.0    # analytic phase (radians) covered by one k panel
_CHUNK_BYTES = 1 << 28    # ~256 MB cap for the masked time-integral tensors


# ---------------------------------------------------------------------------
# stable exponential-integral helpers
# ---------------------------------------------------------------------------

def _phi1(z):
    """(e^z - 1)/z with a series branch near 0."""
    z = np.asarray(z, dtype=complex)
    small = np.abs(z) < 1e-6
    zs = np.where(small, 1.0, z)
    return np.where(small, 1.0 + z / 2.0 + z * z / 6.0, (np.exp(zs) - 1.0) / zs)


def _phi2(z):
    """(z e^z - e^z + 1)/z^2 with a series branch near 0."""
    z = np.asarray(z, dtype=complex)
    small = np.abs(z) < 1e-4
    zs = np.where(small, 1.0, z)
    exact = (zs * np.exp(zs) - np.exp(zs) + 1.0) / (zs * zs)
    series = 0.5 + z / 3.0 + z * z / 8.0 + z**3 / 30.0
    return np.where(small, series, exact)


def seg_e0(beta, s1, s2):
    """Int_{s1}^{s2} e^{i beta s} ds, vectorized, stable for small beta."""
    d = s2 - s1
    z = 1j * np.asarray(beta, dtype=complex) * d
    return np.exp(1j * np.multiply(beta, s1)) * d * _phi1(z)


def seg_e1(beta, s1, s2):
    """Int_{s1}^{s2} s e^{i beta s} ds."""
    d = s2 - s1
    z = 1j * np.asarray(beta, dtype=complex) * d
    return np.exp(1j * np.multiply(beta, s1)) * (s1 * d * _phi1(z) + d * d * _phi2(z))


def window_loss_integral(B, t, ta, tb):
    """Int_{ta}^{tb} (t - tau) e^{i B tau} dtau with [ta, tb] clipped to [0, t]."""
    ta = np.maximum(np.asarray(ta, dtype=float), 0.0)
    tb = np.minimum(np.asarray(tb, dtype=float), float(t))
    empty = tb <= ta
    ta_s = np.where(empty, 0.0, ta)
    tb_s = np.where(empty, 0.0, tb)
    val = t * seg_e0(B, ta_s, tb_s) - seg_e1(B, ta_s, tb_s)
    return np.where(empty, 0.0 + 0.0j, val)


def strip_gain_integral(b1, b2, t, s_lo, s_hi):
    """Double time integral of e^{i(b1 t1 + b2 t2)} over [0,t]^2 restricted to
    the strip s_lo <= t1 + t2 <= s_hi.

    Rotating to s = t1 + t2, the transverse integral is elementary and the
    s-integral has closed antiderivatives on [0, t] and [t, 2t]; the
    degenerate direction b1 -> b2 uses a series-safe form.  For the full
    strip [0, 2t] this reduces to E0(b1; 0, t) * E0(b2; 0, t).
    """
    b1 = np.asarray(b1, dtype=complex)
    b2 = np.asarray(b2, dtype=complex)
    gamma = b1 - b2
    bbar = 0.5 * (b1 + b2)
    small = np.abs(gamma) * (2.0 * t) < SMALL_PHASE
    gam_s = np.where(small, 1.0, gamma)

    lo = np.maximum(np.asarray(s_lo, dtype=float), 0.0)
    hi = np.minimum(np.asarray(s_hi, dtype=float), 2.0 * t)

    a1 = np.clip(lo, 0.0, t)
    c1 = np.clip(hi, 0.0, t)
    empty1 = c1 <= a1
    a1s = np.where(empty1, 0.0, a1)
    c1s = np.where(empty1, 0.0, c1)
    seg1 = np.where(
        empty1, 0.0 + 0.0j,
        np.where(small, seg_e1(bbar, a1s, c1s),
                 (seg_e0(b1, a1s, c1s) - seg_e0(b2, a1s, c1s)) / (1j * gam_s)))

    a2 = np.clip(lo, t, 2.0 * t)
    c2 = np.clip(hi, t, 2.0 * t)
    empty2 = c2 <= a2
    a2s = np.where(empty2, t, a2)
    c2s = np.where(empty2, t, c2)
    seg2 = np.where(
        empty2, 0.0 + 0.0j,
        np.where(small,
                 2.0 * t * seg_e0(bbar, a2s, c2s) - seg_e1(bbar, a2s, c2s),
                 (np.exp(1j * gamma * t) * seg_e0(b2, a2s, c2s)
                  - np.exp(-1j * gamma * t) * seg_e0(b1, a2s, c2s)) / (1j * gam_s)))
    return seg1 + seg2


# ---------------------------------------------------------------------------
# quadrature spec
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class QuadratureSpec:
    """Controls for the numerical momentum-transfer integral.

    n_t is validated and recorded but read by no computation: the fast path
    integrates time analytically and reports it as exact, and the
    certification oracle sizes its time quadrature with its own n_lambda and
    n_inner.  k_max = 0 means "use the model's UV cutoff".
    """

    n_t: int = 16
    n_k: int = 24
    k_max: float = 0.0
    rel_tol: float = 1e-6
    scheme: str = "gauss-legendre"

    def __post_init__(self):
        if self.n_t < 8:
            raise ValueError("n_t must be >= 8")
        if self.n_k < 16:
            raise ValueError("n_k must be >= 16")
        if self.k_max < 0.0:
            raise ValueError("k_max must be >= 0 (0 selects the UV cutoff)")
        if self.rel_tol <= 0.0:
            raise ValueError("rel_tol must be positive")
        if self.scheme not in ("gauss-legendre", "trapezoid"):
            raise ValueError("scheme must be 'gauss-legendre' or 'trapezoid'")

    def resolved_k_max(self, params):
        k = self.k_max if self.k_max > 0.0 else params.lambda_uv
        if k > params.lambda_uv:
            raise ValueError("k_max must not exceed the UV cutoff lambda_uv")
        return k


# ---------------------------------------------------------------------------
# mode representation of the initial data
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ModeRep:
    """W0(X, Q) = sum_{j,l} coef[j,l] e^{i(u[j].X + s[l].Q)} inside its box."""

    u: np.ndarray          # (M, d) position-frequency vectors
    s: np.ndarray          # (L, d) momentum-frequency vectors
    coef: np.ndarray       # (M, L) complex coefficients
    x_box: np.ndarray      # (d, 2) support box in position
    q_box: np.ndarray      # (d, 2) support box in momentum

    @property
    def u_max(self):
        return float(np.max(np.abs(self.u))) if self.u.size else 0.0


def _tensor_freqs(per_axis):
    grids = np.meshgrid(*per_axis, indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=-1)


def modes_from_grid(w0):
    """Split-Nyquist interpolant modes of the gridded samples."""
    grid = w0.grid
    d, n = grid.d, grid.n_x
    c = w0.values.astype(complex)
    freqs = None
    for ax in range(2 * d):
        c, freqs = mode_coefficients(c, axis=ax)
    du = 2.0 * np.pi / (n * grid.dx)
    ds = 2.0 * np.pi / (n * grid.dp)
    u = _tensor_freqs([freqs * du] * d)
    s = _tensor_freqs([freqs * ds] * d)
    m_per = n + 1
    coef = c.reshape(m_per**d, m_per**d).copy()
    p_min = grid.p_nodes[0]
    coef *= np.exp(-1j * (u @ np.full(d, grid.x_min)))[:, None]
    coef *= np.exp(-1j * (s @ np.full(d, p_min)))[None, :]
    half_x, half_p = 0.5 * grid.dx, 0.5 * grid.dp
    x_box = np.array([[grid.x_min - half_x, grid.x_min + (n - 0.5) * grid.dx]] * d)
    q_box = np.array([[p_min - half_p, p_min + (n - 0.5) * grid.dp]] * d)
    return ModeRep(u=u, s=s, coef=coef, x_box=x_box, q_box=q_box)


def modes_from_closed(spec, decay=8.9, pad=3.0, x_reach=None):
    """Exact Fourier coefficients of a closed-form state on a private box.

    The position period covers `x_reach` (how far from the packet center the
    evolution will evaluate the state), so no wrap-around image is ever seen
    and position windows never clip: the mode sum itself reproduces the true
    (near-zero) tails.  The momentum box stays at the true support and is
    enforced by masking instead.
    """
    d = spec.d
    sig = spec.sigma
    x0 = np.array(spec.x0)
    p0 = np.array(spec.p0)
    sep = np.zeros(d)
    sep[0] = spec.separation

    r_x = decay * sig * np.ones(d) + np.abs(sep) / 2.0
    r_q = (decay / (2.0 * sig)) * np.ones(d)
    if x_reach is not None:
        r_x = np.maximum(r_x, float(x_reach))
    l_x = 2.0 * (r_x + pad * sig)
    l_q = 2.0 * (r_q + pad / (2.0 * sig))
    u_cut = decay / sig
    s_cut = decay * 2.0 * sig + float(np.max(np.abs(sep)))

    axes_u, axes_s = [], []
    for ax in range(d):
        du = 2.0 * np.pi / l_x[ax]
        jmax = int(np.ceil(u_cut / du))
        axes_u.append(du * np.arange(-jmax, jmax + 1))
        dsl = 2.0 * np.pi / l_q[ax]
        lmax = int(np.ceil(s_cut / dsl))
        axes_s.append(dsl * np.arange(-lmax, lmax + 1))
    u = _tensor_freqs(axes_u)
    s = _tensor_freqs(axes_s)

    coef = np.zeros((u.shape[0], s.shape[0]), dtype=complex)
    for camp, xc, pc, kappa in wigner_atoms(spec):
        fu = np.exp(-1j * (u @ xc) - 0.5 * sig**2 * np.sum(u**2, axis=-1))
        dfs = kappa[None, :] - s
        fs = np.exp(1j * (dfs @ pc) - np.sum(dfs**2, axis=-1) / (8.0 * sig**2))
        coef += camp * np.pi**d * fu[:, None] * fs[None, :]
    coef /= np.prod(l_x) * np.prod(l_q)

    peak = np.max(np.abs(coef))
    keep_u = np.max(np.abs(coef), axis=1) > COEF_TRUNC * peak
    keep_s = np.max(np.abs(coef), axis=0) > COEF_TRUNC * peak
    u, s, coef = u[keep_u], s[keep_s], coef[np.ix_(keep_u, keep_s)]

    # the position mask box is the full wrap-free period; momentum keeps the
    # true support and relies on the evaluation mask
    x_box = np.stack([x0 - l_x / 2.0, x0 + l_x / 2.0], axis=-1)
    q_box = np.stack([p0 - r_q, p0 + r_q], axis=-1)
    return ModeRep(u=u, s=s, coef=coef, x_box=x_box, q_box=q_box)


def build_modes(w0, backend="auto", x_reach=None):
    if backend == "closed" or (backend == "auto"
                               and isinstance(w0.source, InitialStateSpec)):
        if not isinstance(w0.source, InitialStateSpec):
            raise ValueError("closed backend needs a WignerFunction built "
                             "from a closed-form state")
        return modes_from_closed(w0.source, x_reach=x_reach)
    if backend in ("auto", "grid"):
        return modes_from_grid(w0)
    raise ValueError(f"unknown backend {backend!r}")


# ---------------------------------------------------------------------------
# momentum-transfer quadrature
# ---------------------------------------------------------------------------

def _k_nodes(params, quad, t, u_max, p_scale, panel_factor=1.0):
    """Tensor nodes/weights on the d-cube with the |k| <= k_max ball mask."""
    k_max = quad.resolved_k_max(params)
    m = params.m_s
    phase = (2.0 * k_max * t * (p_scale + 0.5 * u_max) / m
             + k_max**2 * t / m + 2.0 * k_max * t + 2.0 * np.pi)
    panels = max(2, int(np.ceil(panel_factor * phase / PHASE_PER_PANEL)))
    if quad.scheme == "gauss-legendre":
        nodes1, w1 = gauss_panels(-k_max, k_max, quad.n_k, panels)
    else:
        n_tot = panels * quad.n_k
        nodes1 = np.linspace(-k_max, k_max, n_tot)
        w1 = np.full(n_tot, 2.0 * k_max / (n_tot - 1))
        w1[0] *= 0.5
        w1[-1] *= 0.5
    d = params.d
    if d == 1:
        return nodes1[:, None], w1, panels
    grids = np.meshgrid(*([nodes1] * d), indexing="ij")
    k = np.stack([g.ravel() for g in grids], axis=-1)
    w = np.ones(k.shape[0])
    for g in np.meshgrid(*([w1] * d), indexing="ij"):
        w = w * g.ravel()
    mask = np.sum(k**2, axis=-1) <= k_max**2
    return k[mask], w[mask], panels


# ---------------------------------------------------------------------------
# diagram evaluators
# ---------------------------------------------------------------------------

def _phase_grids(grid):
    d, n = grid.d, grid.n_x
    x = grid.x_nodes
    p = grid.p_nodes
    if d == 1:
        return x[:, None], p[:, None]
    gx = np.meshgrid(*([x] * d), indexing="ij")
    gp = np.meshgrid(*([p] * d), indexing="ij")
    return (np.stack([g.ravel() for g in gx], axis=-1),
            np.stack([g.ravel() for g in gp], axis=-1))


def _thermal_branches(omega, params):
    """Frequency-sign branches with Bose weights: [(+1, 1+n), (-1, n)]."""
    if params.t_env <= 0.0:
        return [(+1.0, np.ones_like(omega))]
    occ = bose_occupation(omega, params.t_env)
    return [(+1.0, 1.0 + occ), (-1.0, occ)]


def _axis_window(center, slope, lo, hi, dom_hi):
    """Window in s where center + slope*s stays inside [lo, hi], clipped to
    [0, dom_hi]; empty windows return lo >= hi."""
    with np.errstate(divide="ignore", invalid="ignore"):
        b1 = (lo - center) / slope
        b2 = (hi - center) / slope
    w_lo = np.where(slope > 0, b1, b2)
    w_hi = np.where(slope > 0, b2, b1)
    inside = (center >= lo) & (center <= hi)
    flat = slope == 0.0
    w_lo = np.where(flat, np.where(inside, 0.0, dom_hi), w_lo)
    w_hi = np.where(flat, np.where(inside, dom_hi, 0.0), w_hi)
    return np.maximum(w_lo, 0.0), np.minimum(w_hi, dom_hi)


def _eval_gq(modes, q_points):
    """gq[j, n] = sum_l coef[j,l] e^{i s_l.q_n}, zero outside the q box."""
    phases = np.exp(1j * (modes.s @ q_points.T))
    gq = modes.coef @ phases
    inside = np.ones(q_points.shape[0], dtype=bool)
    for ax in range(q_points.shape[1]):
        inside &= ((q_points[:, ax] >= modes.q_box[ax, 0])
                   & (q_points[:, ax] <= modes.q_box[ax, 1]))
    return gq * inside[None, :]


def _diagram_core(term, modes, grid, params, t, quad, panel_factor=1.0):
    """One second-order term on the output grid, coupling factored out."""
    d = params.d
    m = params.m_s
    X, P = _phase_grids(grid)
    nx, npts = X.shape[0], P.shape[0]
    M = modes.u.shape[0]

    p_scale = float(np.max(np.abs(P))) if P.size else 0.0
    k, wk, panels = _k_nodes(params, quad, t, modes.u_max, p_scale, panel_factor)
    nk = k.shape[0]
    omega = np.sqrt(np.sum(k**2, axis=-1) + params.m_e**2)
    branches = _thermal_branches(omega, params)

    xt = X[:, None, :] - P[None, :, :] * (t / m)             # (Nx, Np, d)
    ux_phase = np.exp(1j * (modes.u @ X.T))                  # (M, Nx)
    up_phase = np.exp(-1j * (modes.u @ P.T) * (t / m))       # (M, Np)
    dom_hi = 2.0 * t if term == "gain" else t
    slope_sign = -1.0 if term == "gain" else +1.0

    out = np.zeros((nx, npts), dtype=complex)
    gq_p = None if term == "gain" else _eval_gq(modes, P)    # (M, Np)

    # chunk k so both the window arrays and the (M, Np, K) fast tensors stay
    # bounded; the masked sub-chunk budget accounts for the ~24 temporaries
    # the windowed integrals allocate
    chunk = max(1, int(_CHUNK_BYTES // max(16 * nx * npts, 16 * M * npts * 12, 1)))
    sub = max(1, int(_CHUNK_BYTES // max(16 * M * nx * npts * 24, 1)))
    for k0 in range(0, nk, chunk):
        sl = slice(k0, min(nk, k0 + chunk))
        kc, wc, om = k[sl], wk[sl], omega[sl]
        nck = kc.shape[0]
        kk = np.sum(kc**2, axis=-1)
        pk = (P @ kc.T) / m                                  # (Np, K)
        uk = (modes.u @ kc.T) / (2.0 * m)                    # (M, K)
        meas = wc / ((2.0 * np.pi) ** d * 2.0 * om)

        w_lo = np.zeros((nx, npts, nck))
        w_hi = np.full((nx, npts, nck), dom_hi)
        for ax in range(d):
            slope = slope_sign * kc[:, ax] / (2.0 * m)
            la, ha = _axis_window(xt[..., ax][..., None], slope[None, None, :],
                                  modes.x_box[ax, 0], modes.x_box[ax, 1], dom_hi)
            w_lo = np.maximum(w_lo, la)
            w_hi = np.minimum(w_hi, ha)
        full_cols = ((w_lo <= 0.0) & (w_hi >= dom_hi)).all(axis=0)   # (Np, K)

        if term == "gain":
            q_pts = (P[:, None, :] + kc[None, :, :]).reshape(-1, d)
            gq = _eval_gq(modes, q_pts).reshape(M, npts, nck)

        # mask-active k columns are handled with the windowed integrals in
        # sub-chunks; fully-inside columns use the factorized fast form
        masked_cols = np.nonzero(~full_cols.all(axis=0))[0]
        for sgn, wgt_full in branches:
            ww = meas * (wgt_full[sl] if np.ndim(wgt_full) else wgt_full)
            if term == "gain":
                dd = pk + 0.5 * kk[None, :] / m
                b1 = -dd[None] + sgn * om[None, None, :] - uk[:, None, :]
                b2 = dd[None] - sgn * om[None, None, :] - uk[:, None, :]
                i_full = seg_e0(b1, 0.0, t) * seg_e0(b2, 0.0, t)
                acc = np.sum(ww[None, None, :] * gq * i_full
                             * full_cols[None, :, :], axis=-1)
                out += np.einsum("jx,jp,jp->xp", ux_phase, up_phase, acc)
                for c0 in range(0, masked_cols.size, sub):
                    cc = masked_cols[c0:c0 + sub]
                    act = ~full_cols[:, cc]                   # (Np, Kc)
                    istrip = strip_gain_integral(
                        b1[:, None, :, cc], b2[:, None, :, cc], t,
                        w_lo[None, :, :, cc], w_hi[None, :, :, cc])
                    contrib = np.sum(
                        (ww[cc] * gq[:, :, cc] * act[None, :, :])[:, None, :, :]
                        * istrip, axis=-1)                    # (M, Nx, Np)
                    out += np.einsum("jx,jp,jxp->xp", ux_phase, up_phase, contrib)
            else:
                sgn_term = +1.0 if term == "loss_left" else -1.0
                bmat = (sgn_term * (pk[None] - 0.5 * kk[None, None, :] / m
                                    - sgn * om[None, None, :])
                        + uk[:, None, :])
                f_full = window_loss_integral(bmat, t, 0.0, t)
                acc = np.sum(ww[None, None, :] * f_full
                             * full_cols[None, :, :], axis=-1)
                out += np.einsum("jx,jp,jp,jp->xp", ux_phase, up_phase, gq_p, acc)
                for c0 in range(0, masked_cols.size, sub):
                    cc = masked_cols[c0:c0 + sub]
                    act = ~full_cols[:, cc]
                    f_win = window_loss_integral(
                        bmat[:, None, :, cc], t,
                        w_lo[None, :, :, cc], w_hi[None, :, :, cc])
                    contrib = np.sum((ww[cc] * act)[None, None, :, :]
                                     * f_win, axis=-1)
                    out += np.einsum("jx,jp,jp,jxp->xp", ux_phase, up_phase,
                                     gq_p, contrib)

    return out.reshape(grid.value_shape()), panels


def _term_trace(term, modes, params, t, quad):
    """Full phase-space integral of one term (d = 1, unwindowed dynamics).

    The x integral projects onto the zero position-frequency mode over one
    expansion period; the p integral follows the momentum support shifted by
    each transfer node, so mass scattered past any finite output window is
    still counted.  Used for the unitarity (trace cancellation) diagnostic.
    """
    if params.d != 1:
        raise NotImplementedError("dedicated trace is implemented for d = 1")
    m = params.m_s
    j0 = int(np.argmin(np.sum(np.abs(modes.u), axis=-1)))
    if np.any(modes.u[j0] != 0.0):
        raise RuntimeError("mode set lacks the zero position frequency")
    c0 = modes.coef[j0]                                     # (L,)
    x_factor = float(modes.x_box[0, 1] - modes.x_box[0, 0])
    q_lo, q_hi = modes.q_box[0]

    k, wk, _ = _k_nodes(params, quad, t, 0.0,
                        float(max(abs(q_lo), abs(q_hi))))
    k = k[:, 0]
    omega = np.sqrt(k**2 + params.m_e**2)
    branches = _thermal_branches(omega, params)

    total = 0.0 + 0.0j
    q_width = q_hi - q_lo
    for i, (ki, wi, omi) in enumerate(zip(k, wk, omega)):
        phase = abs(ki) * t * q_width / m + 2 * np.pi
        panels = max(1, int(np.ceil(phase / (1.5 * quad.n_k))))
        if term == "gain":
            pn, pw = gauss_panels(q_lo - ki, q_hi - ki, quad.n_k, panels)
            gq = np.where((pn + ki >= q_lo) & (pn + ki <= q_hi),
                          np.einsum("l,l...->...", c0,
                                    np.exp(1j * modes.s[:, 0][:, None] * (pn + ki))),
                          0.0)
        else:
            pn, pw = gauss_panels(q_lo, q_hi, quad.n_k, panels)
            gq = np.einsum("l,l...->...", c0,
                           np.exp(1j * modes.s[:, 0][:, None] * pn))
        dd = pn * ki / m + 0.5 * ki**2 / m
        for sgn, wgt_full in branches:
            wgt = wgt_full[i] if np.ndim(wgt_full) else wgt_full
            meas = wi * wgt / (2.0 * np.pi * 2.0 * omi)
            if term == "gain":
                b1 = -dd + sgn * omi
                tfac = seg_e0(b1, 0.0, t) * seg_e0(-b1, 0.0, t)
            elif term == "loss_left":
                b = dd - ki**2 / m - sgn * omi   # p k/m - k^2/2m - sgn w
                tfac = window_loss_integral(b, t, 0.0, t)
            else:
                b = -(dd - ki**2 / m - sgn * omi)
                tfac = window_loss_integral(b, t, 0.0, t)
            total += meas * np.sum(pw * gq * tfac)
    return complex(x_factor * total)


def _resolve_modes(w0, params, t, quad, backend):
    """Build the mode rep, sizing the closed backend's period to the reach."""
    grid = w0.grid
    x_span = float(np.max(np.abs(grid.x_nodes)))
    p_span = float(np.max(np.abs(grid.p_nodes)))
    x_reach = x_span + (p_span + quad.resolved_k_max(params)) * t / params.m_s
    if isinstance(w0.source, InitialStateSpec):
        x_reach += float(np.max(np.abs(np.array(w0.source.x0))))
    return build_modes(w0, backend, x_reach=x_reach)


def _diagram_with_report(term, w0, params, t, quad, backend="auto"):
    """Complex-valued term plus its quadrature report."""
    if t < 0.0:
        raise ValueError("t must be >= 0")
    grid = w0.grid
    if grid.d != params.d:
        raise ValueError("grid dimension does not match params.d")
    if t == 0.0:
        zero = np.zeros(grid.value_shape(), dtype=complex)
        return zero, {"term": term, "panels": 0, "err_est": 0.0,
                      "rel_err_est": 0.0, "converged": True, "max_imag": 0.0,
                      "time_integration": "exact"}
    modes = _resolve_modes(w0, params, t, quad, backend)
    vals, panels = _diagram_core(term, modes, grid, params, t, quad)
    vals_h, _ = _diagram_core(term, modes, grid, params, t, quad,
                              panel_factor=0.5)
    cell = grid.cell_volume
    err = float(np.sum(np.abs(vals - vals_h)) * cell)
    norm1 = float(np.sum(np.abs(vals)) * cell)
    rel = err / norm1 if norm1 > 0 else 0.0
    report = {
        "term": term,
        "panels": panels,
        "err_est": err,
        "rel_err_est": rel,
        "converged": bool(norm1 == 0.0 or rel <= quad.rel_tol),
        "max_imag": float(np.max(np.abs(vals.imag))),
        "time_integration": "exact",
    }
    return vals, report


def diagram_gain(w0, params, t, quad, backend="auto"):
    """Cross-branch second-order term (coupling factored out)."""
    return _diagram_with_report("gain", w0, params, t, quad, backend)[0].real


def diagram_loss_left(w0, params, t, quad, backend="auto"):
    """Same-branch time-ordered second-order term (coupling factored out)."""
    return _diagram_with_report("loss_left", w0, params, t, quad, backend)[0].real


def diagram_loss_right(w0, params, t, quad, backend="auto"):
    """Same-branch anti-time-ordered second-order term (coupling factored out)."""
    return _diagram_with_report("loss_right", w0, params, t, quad, backend)[0].real


# ---------------------------------------------------------------------------
# zeroth order and assembly
# ---------------------------------------------------------------------------

def evolve_zeroth(w0, params, t, support_tol=SUPPORT_TOL):
    """Ballistic shear W0(x - p t/m, p) by exact spectral shifts per p node.

    Rejects evolutions whose occupied support would cross the box boundary
    (the sheared interpolant would wrap around), naming the first offender.
    """
    grid = w0.grid
    if grid.d != params.d:
        raise ValueError("grid dimension does not match params.d")
    if t < 0.0:
        raise ValueError("t must be >= 0")
    if t == 0.0:
        return WignerFunction(grid=grid, t=w0.t, values=w0.values.copy(),
                              normalized=w0.normalized, source=w0.source)
    d, n = grid.d, grid.n_x
    m = params.m_s
    x = grid.x_nodes
    p = grid.p_nodes
    vals = w0.values
    peak = float(np.max(np.abs(vals)))

    mask = np.abs(vals) > support_tol * peak
    for axis in range(d):
        occ = mask.any(axis=tuple(i for i in range(2 * d)
                                  if i not in (axis, d + axis)))
        for ip in range(n):
            col = occ[:, ip]
            if not col.any():
                continue
            shift = p[ip] * t / m
            i_lo = int(np.argmax(col))
            i_hi = n - 1 - int(np.argmax(col[::-1]))
            if (x[i_lo] + shift < x[0] - 0.5 * grid.dx
                    or x[i_hi] + shift > x[-1] + 0.5 * grid.dx):
                edge = i_lo if shift < 0 else i_hi
                raise ValueError(
                    f"zeroth-order support leaves the box: axis {axis}, "
                    f"momentum node {ip} (p = {p[ip]:.4g}) pushes x node "
                    f"{edge} past the boundary at t = {t:.4g}; enlarge the box"
                )

    out = vals.astype(complex)
    f = np.where(np.arange(n) < n // 2, np.arange(n), np.arange(n) - n).astype(float)
    for axis in range(d):
        u = 2.0 * np.pi * f / (n * grid.dx)
        shape_u = [1] * (2 * d)
        shape_u[axis] = n
        shape_p = [1] * (2 * d)
        shape_p[d + axis] = n
        arg = u.reshape(shape_u) * p.reshape(shape_p) * (t / m)
        phase = np.exp(-1j * arg)
        # symmetric-Nyquist shift keeps the real interpolant real
        nyq_sel = [slice(None)] * (2 * d)
        nyq_sel[axis] = slice(n // 2, n // 2 + 1)
        phase[tuple(nyq_sel)] = np.cos(arg[tuple(nyq_sel)])
        out = np.fft.ifft(np.fft.fft(out, axis=axis) * phase, axis=axis)
    return WignerFunction(grid=grid, t=w0.t + t, values=out.real,
                          normalized=w0.normalized, source=None)


def zeroth_closed(w0, params, t):
    """Ballistic shear W0(x - p t/m, p) of a closed-form state, in closed form.

    The closed mode path treats the state as its exact closed form on a
    private, wrap-free period (see `modes_from_closed`); its zeroth order does
    the same, so tails that the shear carries past the grid box are simply
    not sampled, instead of being rejected as in `evolve_zeroth`.
    """
    if not isinstance(w0.source, InitialStateSpec):
        raise ValueError("closed backend needs a WignerFunction built "
                         "from a closed-form state")
    if w0.grid.d != params.d:
        raise ValueError("grid dimension does not match params.d")
    if t < 0.0:
        raise ValueError("t must be >= 0")
    vals = sample_closed(w0.source, w0.grid, shear=t / params.m_s)
    return WignerFunction(grid=w0.grid, t=w0.t + t, values=vals,
                          normalized=w0.normalized, source=None)


@dataclass
class EvolutionResult:
    w_total: WignerFunction
    w_zeroth: WignerFunction
    w_gain: np.ndarray
    w_loss_left: np.ndarray
    w_loss_right: np.ndarray
    diagnostics: dict


def evolve(w0, params, t, quad=None, backend="auto", workers=1):
    """Assemble W(t) = zeroth + g^2 (gain - loss_left - loss_right).

    Diagnostics: second-order trace defect (the three terms must cancel
    under the full phase-space sum), imaginary residues, Hermiticity defect
    of the reconstructed density matrix, per-term quadrature reports, and a
    perturbativity flag when the correction exceeds 30% of the zeroth order
    in L1.  `workers` parallelizes the three independent diagram
    evaluations; results are bitwise identical for any worker count.

    The zeroth order is the spectral shear of the grid samples
    (`evolve_zeroth`), except on the closed backend, which takes it from the
    closed form (`zeroth_closed`) like its diagrams.
    """
    if quad is None:
        quad = QuadratureSpec()
    if backend == "closed":
        w_zeroth = zeroth_closed(w0, params, t)
    else:
        w_zeroth = evolve_zeroth(w0, params, t)
    terms = ("gain", "loss_left", "loss_right")
    if workers > 1 and t > 0.0:
        with ThreadPoolExecutor(max_workers=min(workers, 3)) as ex:
            futs = [ex.submit(_diagram_with_report, term, w0, params, t,
                              quad, backend) for term in terms]
            results = [f.result() for f in futs]
    else:
        results = [_diagram_with_report(term, w0, params, t, quad, backend)
                   for term in terms]
    (gain_c, rep_g), (loss_l_c, rep_ll), (loss_r_c, rep_lr) = results
    gain, loss_l, loss_r = gain_c.real, loss_l_c.real, loss_r_c.real

    g2 = params.g**2
    correction_c = gain_c - loss_l_c - loss_r_c
    correction = correction_c.real
    total = w_zeroth.values + g2 * correction
    w_total = WignerFunction(grid=w0.grid, t=w0.t + t, values=total,
                             normalized=w0.normalized, source=None)

    cell = w0.grid.cell_volume
    trace_window = float(np.sum(correction) * cell)
    # unitarity diagnostic over all of phase space (d = 1); the finite output
    # window may lose genuinely scattered mass, reported separately
    if params.d == 1 and t > 0.0:
        modes = _resolve_modes(w0, params, t, quad, backend)
        trace_defect = float(np.real(
            _term_trace("gain", modes, params, t, quad)
            - _term_trace("loss_left", modes, params, t, quad)
            - _term_trace("loss_right", modes, params, t, quad)))
    else:
        trace_defect = trace_window
    gain_l1 = float(np.sum(np.abs(gain)) * cell)
    corr_l1 = g2 * float(np.sum(np.abs(correction)) * cell)
    zeroth_l1 = float(np.sum(np.abs(w_zeroth.values)) * cell)
    ratio = corr_l1 / zeroth_l1 if zeroth_l1 > 0 else 0.0

    rho_t = density_from_wigner(w_total)
    diagnostics = {
        "trace_defect_g2": trace_defect,
        "trace_defect_window": trace_window,
        "gain_l1": gain_l1,
        "max_imag_residue": float(np.max(np.abs(correction_c.imag))),
        "hermiticity_defect": rho_t.hermiticity_defect(),
        "quadrature_report": {"gain": rep_g, "loss_left": rep_ll,
                              "loss_right": rep_lr},
        "perturbativity_ratio": ratio,
        "non_perturbative": bool(ratio > 0.30),
        "quadrature_failed": bool(not (rep_g["converged"] and rep_ll["converged"]
                                       and rep_lr["converged"])),
    }
    return EvolutionResult(w_total=w_total, w_zeroth=w_zeroth, w_gain=gain,
                           w_loss_left=loss_l, w_loss_right=loss_r,
                           diagnostics=diagnostics)
