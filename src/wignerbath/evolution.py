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

Time kernels.  Every closed-form time integral is built on one pair of
primitives, each taken from its power series in w = ibd where |w| < 1
(`_time_kernel`):

    E0(b, d) = Int_0^d e^{ibs} ds          = expm1(w)/(ib)
    F(b, d)  = Int_0^d (d - s) e^{ibs} ds  = d^2 (expm1(w) - w)/w^2.

On the full window I = E0(beta1, t) E0(beta2, t) and Fw = F(B, t).  A
window [s1, s2] of length d shifts the phase: e^{ib s1} E0 is the integral
of e^{ibs} and e^{ib s1} (s2 E0 - F) that of s e^{ibs} (`seg_e0`,
`seg_e1`); the loss window [ta, tb] gives e^{iB ta} ((t - tb) E0 + F)
(`window_loss_integral`) and the gain's strip in s = t1 + t2 four `seg_e0`
terms (`strip_gain_integral`).  An empty window has d = 0, hence value 0.

Separable kernels.  Every phase above is a(p, k) + c(u_j, k) with
c = -+u_j.k/2m, so on the full window expm1(i(a + c)t) needs exponentials
of the (N_p, K) and (M, K) factors only, combined by expm1(x + y) =
expm1(x) expm1(y) + expm1(x) + expm1(y) and handed to the primitives
(`_gain_split`, `_loss_split`), whose series take over where this cancels.
The transcendental cost per k chunk is thus O((M + N_p) K) instead of
O(M N_p K); gq_j(p + k) likewise uses e^{i s.(p+k)} = e^{i s.p} e^{i s.k}.

loss_right is the complex conjugate of loss_left (B~ = -B once u_j -> -u_j,
and the coefficients of a real W0 satisfy c_{-j,-l} = conj(c_{jl})), so
`evolve` computes loss_left only and conjugates it; the diagram evaluator
keeps the independent sign path for `diagram_loss_right` and certification.

Initial data are treated as zero outside their box (matching the transform
module): evaluation points whose position argument would leave the box are
removed by clipping the analytic time integrals to the admissible
sub-window, and the momentum argument p + k is masked to the box directly.

Only the k integral is numerical: composite Gauss-Legendre panels whose
count scales with the analytic phase range, so the oscillatory UV tail is
always resolved; n_k sets the nodes per panel.  Each term's error estimate
is its change under a rerun at half the panels (at least one fewer).
"""

import math
from dataclasses import dataclass
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .wigner import WignerFunction, mode_coefficients, density_from_wigner
from .states import InitialStateSpec, sample_closed, wigner_atoms
from .propagators import bose_occupation, gauss_panels

SUPPORT_TOL = 1e-9        # relative mass threshold for the shear support check
SMALL_PHASE = 1e-5        # |gamma|*2t below which the strip takes gamma = 0
COEF_TRUNC = 1e-19        # closed-form mode coefficient truncation
PHASE_PER_PANEL = 24.0    # analytic phase (radians) covered by one k panel
_CHUNK_BYTES = 1 << 28    # ~256 MB cap for the masked time-integral tensors
_TRACE_BYTES = 1 << 24    # cap for one trace chunk's (L, nodes, p nodes) phases


# ---------------------------------------------------------------------------
# closed-form time kernels
# ---------------------------------------------------------------------------

# 1/n! for n = 0..19: the series below, to rounding for |w| <= 1
_INV_FACT = 1.0 / np.array([math.factorial(n) for n in range(20)])


def _time_kernel(b, d, k, em1=None):
    """Int_0^d (d - s)^(k-1)/(k-1)! e^{ibs} ds = d^k sum_n w^n/(n+k)! with
    w = ibd, for k = 1 (E0) and k = 2 (F).

    Where |w| >= 1 it is (expm1(w) - sum_{0<n<k} w^n/n!)/(ib)^k, from
    em1 = expm1(w), which is computed unless given: a caller may combine it
    from split phase factors (`_expm1_sum`), which cancel where |w| < 1, so
    there the series is always used.
    """
    b = np.asarray(b, dtype=float)
    bd = np.asarray(b * d)
    out = np.asarray(np.expm1(1j * bd)) if em1 is None else np.array(em1)
    if k == 2:
        out.imag -= bd
    with np.errstate(divide="ignore", invalid="ignore"):
        out *= (-1j) ** k
        out /= b ** k
    near = np.abs(bd) < 1.0
    w = 1j * bd[near]
    series = np.full(w.shape, _INV_FACT[-1], dtype=complex)
    for c in _INV_FACT[-2:k - 1:-1]:
        series *= w
        series += c
    out[near] = np.broadcast_to(d, near.shape)[near] ** k * series
    return out


def _e0(b, d, em1=None):
    """E0(b, d) = Int_0^d e^{ibs} ds = expm1(ibd)/(ib) (d at b = 0)."""
    return _time_kernel(b, d, 1, em1)


def _f(b, d, em1=None):
    """F(b, d) = Int_0^d (d - s) e^{ibs} ds = d^2 (expm1(w) - w)/w^2, w = ibd."""
    return _time_kernel(b, d, 2, em1)


def seg_e0(beta, s1, s2):
    """Int_{s1}^{s2} e^{i beta s} ds = e^{i beta s1} E0(beta, s2 - s1)."""
    beta = np.asarray(beta, dtype=float)
    return np.exp(1j * (beta * s1)) * _e0(beta, np.subtract(s2, s1))


def seg_e1(beta, s1, s2):
    """Int_{s1}^{s2} s e^{i beta s} ds = e^{i beta s1} (s2 E0 - F), both at
    (beta, s2 - s1)."""
    beta = np.asarray(beta, dtype=float)
    d = np.subtract(s2, s1)
    em1 = np.expm1(1j * (beta * d))
    return np.exp(1j * (beta * s1)) * (s2 * _e0(beta, d, em1) - _f(beta, d, em1))


def window_loss_integral(B, t, ta, tb):
    """Int_{ta}^{tb} (t - tau) e^{i B tau} dtau with [ta, tb] clipped to [0, t]:
    e^{i B ta} ((t - tb) E0(B, d) + F(B, d)) with d = tb - ta, which is 0 for
    an empty window."""
    B = np.asarray(B, dtype=float)
    ta = np.clip(ta, 0.0, t)
    tb = np.clip(tb, ta, t)
    d = tb - ta
    em1 = np.expm1(1j * (B * d))
    return np.exp(1j * (B * ta)) * ((t - tb) * _e0(B, d, em1) + _f(B, d, em1))


def strip_gain_integral(b1, b2, t, s_lo, s_hi):
    """Double time integral of e^{i(b1 t1 + b2 t2)} over [0,t]^2 restricted to
    the strip s_lo <= t1 + t2 <= s_hi (b1, b2 real).

    In s = t1 + t2 the transverse integral is elementary: with
    gamma = b1 - b2 the s-integrand is (e^{i b1 s} - e^{i b2 s})/(i gamma)
    on [0, t] and (e^{i gamma t} e^{i b2 s} - e^{-i gamma t} e^{i b1 s})/
    (i gamma) on [t, 2t], so four `seg_e0` calls give the strip.  Where
    |gamma| 2t < SMALL_PHASE that difference cancels, and those elements take
    the gamma = 0 limit, the moments s and 2t - s of e^{i bbar s}.  For the
    full strip [0, 2t] this is E0(b1, t) E0(b2, t).
    """
    b1 = np.asarray(b1, dtype=float)
    b2 = np.asarray(b2, dtype=float)
    gamma = b1 - b2
    # the parts of [s_lo, s_hi] in [0, t] and [t, 2t]; an empty part has length 0
    a1 = np.clip(s_lo, 0.0, t)
    c1 = np.clip(s_hi, a1, t)
    a2 = np.clip(s_lo, t, 2.0 * t)
    c2 = np.clip(s_hi, a2, 2.0 * t)
    eg = np.exp(1j * (gamma * t))
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.asarray(seg_e0(b1, a1, c1) - seg_e0(b2, a1, c1))
        out += eg * seg_e0(b2, a2, c2)
        out -= np.conj(eg) * seg_e0(b1, a2, c2)
        out *= np.divide(-1j, gamma)
    small = np.broadcast_to(np.abs(gamma) * (2.0 * t) < SMALL_PHASE, out.shape)
    if small.any():
        bbar, a1, c1, a2, c2 = (np.broadcast_to(v, out.shape)[small]
                                for v in (0.5 * (b1 + b2), a1, c1, a2, c2))
        out[small] = (seg_e1(bbar, a1, c1) + 2.0 * t * seg_e0(bbar, a2, c2)
                      - seg_e1(bbar, a2, c2))
    return out


def _expm1_sum(ea, ec):
    """expm1(x + y) from ea = expm1(x) and ec = expm1(y)."""
    out = np.asarray(ea * ec)
    out += ea
    out += ec
    return out


def _gain_split(ea, ec, b1, b2, t):
    """E0(b1, t) E0(b2, t) for b1 = a + c and b2 = -a + c (all real), from
    ea = expm1(i a t) and ec = expm1(i c t): the exponentials cost
    O(size(a) + size(c)), and expm1(-i a t) is conj(ea)."""
    out = _e0(b1, t, _expm1_sum(ea, ec))
    out *= _e0(b2, t, _expm1_sum(np.conj(ea), ec))
    return out


def _loss_split(ea, ec, b, t):
    """F(b, t) for b = a + c (real), from ea = expm1(i a t) and ec = expm1(i c t)."""
    return _f(b, t, _expm1_sum(ea, ec))


# ---------------------------------------------------------------------------
# quadrature spec
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class QuadratureSpec:
    """Controls for the numerical momentum-transfer integral.

    There is no time quadrature to control: the fast path integrates time
    analytically and reports it as exact, and the certification oracle sizes
    its time quadrature with its own n_lambda and n_inner.  k_max = 0 means
    "use the model's UV cutoff".
    """

    n_k: int = 24
    k_max: float = 0.0
    rel_tol: float = 1e-6
    scheme: str = "gauss-legendre"

    def __post_init__(self):
        if self.n_k < 16:
            raise ValueError("n_k must be >= 16")
        if self.k_max < 0.0:
            raise ValueError("k_max must be >= 0 (0 selects the UV cutoff)")
        if self.rel_tol <= 0.0:
            raise ValueError("rel_tol must be positive")
        if self.scheme != "gauss-legendre":
            raise ValueError(f"scheme {self.scheme!r} is not supported; "
                             "the only scheme is 'gauss-legendre'")

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
    """Tensor nodes/weights on the d-cube with the |k| <= k_max ball mask.

    The panel count and its floor both scale with panel_factor: the full run
    takes at least 2 panels and the half-panel run at least 1, so the two
    runs of the error estimate never share a panel count.
    """
    k_max = quad.resolved_k_max(params)
    m = params.m_s
    phase = (2.0 * k_max * t * (p_scale + 0.5 * u_max) / m
             + k_max**2 * t / m + 2.0 * k_max * t + 2.0 * np.pi)
    panels = int(max(np.ceil(2.0 * panel_factor),
                     np.ceil(panel_factor * phase / PHASE_PER_PANEL)))
    nodes1, w1 = gauss_panels(-k_max, k_max, quad.n_k, panels)
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


def _windows(xt, slopes, x_box, dom_hi):
    """Per (xt row, p, k): the s window in [0, dom_hi] in which every axis of
    xt + slope s stays inside x_box; xt is (rows, Np, d), slopes (K, d).
    Empty windows have lo >= hi."""
    w_lo, w_hi = 0.0, dom_hi
    for ax in range(xt.shape[-1]):
        center, slope = xt[..., ax][..., None], slopes[:, ax]
        lo, hi = x_box[ax]
        with np.errstate(divide="ignore", invalid="ignore"):
            b1 = (lo - center) / slope
            b2 = (hi - center) / slope
        inside = (center >= lo) & (center <= hi)
        flat = slope == 0.0
        w_lo = np.maximum(w_lo, np.where(flat, np.where(inside, 0.0, dom_hi),
                                         np.where(slope > 0, b1, b2)))
        w_hi = np.minimum(w_hi, np.where(flat, np.where(inside, dom_hi, 0.0),
                                         np.where(slope > 0, b2, b1)))
    return w_lo, w_hi


def _in_q_box(modes, q):
    """Whether each momentum q[..., :] lies inside the modes' q box."""
    inside = np.ones(q.shape[:-1], dtype=bool)
    for ax in range(q.shape[-1]):
        inside &= (q[..., ax] >= modes.q_box[ax, 0]) & (q[..., ax] <= modes.q_box[ax, 1])
    return inside


def _diagram_core(term, modes, grid, params, t, quad, panel_factor=1.0):
    """One second-order term on the output grid, coupling factored out.

    Every kernel phase splits as b = a(p, k) + c(u_j, k): a collects the
    momentum and bath-frequency parts, c = -+u_j.k/2m the mode part.  The
    full-window kernels take expm1 on the (N_p, K) and (M, K) factors only
    (`_gain_split`, `_loss_split`), and the gain's gq(p + k) takes
    e^{i s.(p+k)} as e^{i s.p} e^{i s.k}.  Mask-active columns use the
    windowed integrals on the combined phases.
    """
    d = params.d
    m = params.m_s
    X, P = _phase_grids(grid)
    nx, npts = X.shape[0], P.shape[0]
    M, L = modes.coef.shape

    p_scale = float(np.max(np.abs(P))) if P.size else 0.0
    k, wk, panels = _k_nodes(params, quad, t, modes.u_max, p_scale, panel_factor)
    nk = k.shape[0]
    omega = np.sqrt(np.sum(k**2, axis=-1) + params.m_e**2)
    branches = _thermal_branches(omega, params)

    xt = X[:, None, :] - P[None, :, :] * (t / m)             # (Nx, Np, d)
    ux_phase = np.exp(1j * (modes.u @ X.T))                  # (M, Nx)
    up_phase = np.exp(-1j * (modes.u @ P.T) * (t / m))       # (M, Np)
    sp_phase = np.exp(1j * (modes.s @ P.T))                  # (L, Np)
    dom_hi = 2.0 * t if term == "gain" else t
    slope_sign = -1.0 if term == "gain" else +1.0
    # the mode part c of each phase: -u.k/2m for the gain, +u.k/2m for losses
    c_sign = -1.0 if term == "gain" else +1.0

    out = np.zeros((nx, npts), dtype=complex)
    if term != "gain":
        gq_p = (modes.coef @ sp_phase) * _in_q_box(modes, P)[None, :]   # (M, Np)

    # chunk k so the (M, Np, K) fast tensors stay bounded; the masked
    # sub-chunk budget allows for the temporaries of the windowed integrals
    chunk = max(1, int(_CHUNK_BYTES // max(16 * M * npts * 12, 1)))
    sub = max(1, int(_CHUNK_BYTES // max(16 * M * nx * npts * 24, 1)))
    for k0 in range(0, nk, chunk):
        sl = slice(k0, min(nk, k0 + chunk))
        kc, wc, om = k[sl], wk[sl], omega[sl]
        nck = kc.shape[0]
        kk = np.sum(kc**2, axis=-1)
        pk = (P @ kc.T) / m                                  # (Np, K)
        cu = c_sign * (modes.u @ kc.T) / (2.0 * m)           # (M, K)
        ec = np.expm1(1j * t * cu)[:, None, :]               # (M, 1, K)
        meas = wc / ((2.0 * np.pi) ** d * 2.0 * om)
        slopes = slope_sign * kc / (2.0 * m)                 # (K, d)

        # xt is monotone in x along each axis, so a (p, k) column is full
        # (no x leaves the box during the window) when the first and last x
        # nodes stay inside; only the other columns need windows
        e_lo, e_hi = _windows(xt[[0, -1]], slopes, modes.x_box, dom_hi)
        full_cols = ((e_lo <= 0.0) & (e_hi >= dom_hi)).all(axis=0)   # (Np, K)
        masked_cols = np.nonzero(~full_cols.all(axis=0))[0]

        if term == "gain":
            sk_phase = np.exp(1j * (modes.s @ kc.T))         # (L, K)
            # the (L, Np, K) phase table is a temporary, freed before the kernels
            gq = (modes.coef @ (sp_phase[:, :, None] * sk_phase[:, None, :])
                  .reshape(L, -1)).reshape(M, npts, nck)
            gq *= _in_q_box(modes, P[:, None, :] + kc[None, :, :])[None]

        for sgn, wgt_full in branches:
            ww = meas * (wgt_full[sl] if np.ndim(wgt_full) else wgt_full)
            w_full = ww[None, :] * full_cols                  # (Np, K)
            if term == "gain":
                a = -(pk + 0.5 * kk[None, :] / m) + sgn * om[None, :]
                b1 = a[None] + cu[:, None, :]
                b2 = -a[None] + cu[:, None, :]
                i_full = _gain_split(np.expm1(1j * t * a)[None], ec, b1, b2, t)
                i_full *= gq
                acc = np.einsum("jpk,pk->jp", i_full, w_full)
                out += np.einsum("jx,jp,jp->xp", ux_phase, up_phase, acc)
            else:
                sgn_term = +1.0 if term == "loss_left" else -1.0
                a = sgn_term * (pk - 0.5 * kk[None, :] / m - sgn * om[None, :])
                bmat = a[None] + cu[:, None, :]
                f_full = _loss_split(np.expm1(1j * t * a)[None], ec, bmat, t)
                acc = np.einsum("jpk,pk->jp", f_full, w_full)
                out += np.einsum("jx,jp,jp,jp->xp", ux_phase, up_phase, gq_p, acc)
            # mask-active columns, in sub-chunks, with the windowed integrals
            for c0 in range(0, masked_cols.size, sub):
                cc = masked_cols[c0:c0 + sub]
                act = ~full_cols[:, cc]                       # (Np, Kc)
                w_lo, w_hi = _windows(xt, slopes[cc], modes.x_box, dom_hi)
                if term == "gain":
                    istrip = strip_gain_integral(b1[:, None, :, cc],
                                                 b2[:, None, :, cc], t,
                                                 w_lo[None], w_hi[None])
                    contrib = np.sum(
                        (ww[cc] * gq[:, :, cc] * act[None, :, :])[:, None, :, :]
                        * istrip, axis=-1)                    # (M, Nx, Np)
                    out += np.einsum("jx,jp,jxp->xp", ux_phase, up_phase, contrib)
                else:
                    f_win = window_loss_integral(bmat[:, None, :, cc], t,
                                                 w_lo[None], w_hi[None])
                    contrib = np.sum((ww[cc] * act)[None, None, :, :] * f_win, axis=-1)
                    out += np.einsum("jx,jp,jp,jxp->xp", ux_phase, up_phase,
                                     gq_p, contrib)

    return out.reshape(grid.value_shape()), panels


def _term_trace(term, modes, params, t, quad):
    """Full phase-space integral of one term (d = 1, unwindowed dynamics).

    The x integral projects onto the zero position-frequency mode over one
    expansion period; the p integral follows the momentum support shifted by
    each transfer node, so mass scattered past any finite output window is
    still counted.  Used for the unitarity (trace cancellation) diagnostic.
    Transfer nodes that share a p-panel count are evaluated together, in
    chunks whose (L, nodes, p nodes) phase array stays within _TRACE_BYTES.

    The time factor is |E0(b, t)|^2 for the gain and F(b, t) for a loss.
    After q = p + k the gain's phase is minus loss_left's, b = -B, and
    2 Re F(B, t) = |E0(B, t)|^2 = 2 (1 - cos Bt)/B^2, so the gain's integrand
    equals 2 Re of loss_left's pointwise.  Their difference therefore checks
    the kernels' consistency and signs to rounding; it says nothing about
    the output-grid diagrams (windows, masks, k quadrature on the grid).
    """
    if params.d != 1:
        raise NotImplementedError("dedicated trace is implemented for d = 1")
    m = params.m_s
    j0 = int(np.argmin(np.sum(np.abs(modes.u), axis=-1)))
    if np.any(modes.u[j0] != 0.0):
        raise RuntimeError("mode set lacks the zero position frequency")
    c0 = modes.coef[j0]                                     # (L,)
    s0 = modes.s[:, 0]
    x_factor = float(modes.x_box[0, 1] - modes.x_box[0, 0])
    q_lo, q_hi = modes.q_box[0]

    k, wk, _ = _k_nodes(params, quad, t, 0.0,
                        float(max(abs(q_lo), abs(q_hi))))
    k = k[:, 0]
    omega = np.sqrt(k**2 + params.m_e**2)
    branches = _thermal_branches(omega, params)

    phase = np.abs(k) * t * (q_hi - q_lo) / m + 2 * np.pi
    p_panels = np.maximum(1, np.ceil(phase / (1.5 * quad.n_k)).astype(int))
    total = 0.0 + 0.0j
    for count in np.unique(p_panels):
        group = np.flatnonzero(p_panels == count)
        step = max(1, _TRACE_BYTES // (16 * s0.size * int(count) * quad.n_k))
        for i0 in range(0, group.size, step):
            b = group[i0:i0 + step]
            ki, omi = k[b, None], omega[b, None]
            if term == "gain":
                pn, pw = gauss_panels(q_lo - k[b], q_hi - k[b], quad.n_k, int(count))
                q = pn + ki
                gq = np.where((q >= q_lo) & (q <= q_hi),
                              np.einsum("l,l...->...", c0,
                                        np.exp(1j * s0[:, None, None] * q)), 0.0)
            else:
                pn, pw = gauss_panels(q_lo, q_hi, quad.n_k, int(count))
                gq = np.einsum("l,l...->...", c0, np.exp(1j * s0[:, None] * pn))
            dd = pn * ki / m + 0.5 * ki**2 / m
            for sgn, wgt_full in branches:
                wgt = wgt_full[b] if np.ndim(wgt_full) else wgt_full
                meas = wk[b] * wgt / (2.0 * np.pi * 2.0 * omega[b])
                if term == "gain":
                    tfac = np.abs(_e0(-dd + sgn * omi, t)) ** 2
                else:
                    bl = dd - ki**2 / m - sgn * omi   # p k/m - k^2/2m - sgn w
                    tfac = _f(bl if term == "loss_left" else -bl, t)
                total += meas @ np.sum(pw * gq * tfac, axis=-1)
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
    in L1.  In d = 1, `trace_defect_g2` comes from `_term_trace`, whose gain
    and loss integrands coincide pointwise (2 Re F = |E0|^2), so it detects
    inconsistent time kernels or signs, to rounding, but not errors of the
    diagrams on the output grid; `trace_defect_window` is the correction's
    sum over the output grid.  `workers` parallelizes the two diagram
    evaluations (gain and loss_left); results are bitwise identical for any
    worker count.

    loss_right is taken as conj(loss_left), its quadrature report copied
    from loss_left's, and the trace defect uses Re(gain) - 2 Re(loss_left).
    The imaginary part of gain - loss_left - conj(loss_left) is the gain's,
    so `max_imag_residue` checks only the gain's reality; the mirror
    identity itself is checked by `diagram_loss_right` and certification,
    which evaluate loss_right independently.

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
    terms = ("gain", "loss_left")
    if workers > 1 and t > 0.0:
        with ThreadPoolExecutor(max_workers=min(workers, 2)) as ex:
            futs = [ex.submit(_diagram_with_report, term, w0, params, t,
                              quad, backend) for term in terms]
            results = [f.result() for f in futs]
    else:
        results = [_diagram_with_report(term, w0, params, t, quad, backend)
                   for term in terms]
    (gain_c, rep_g), (loss_l_c, rep_ll) = results
    loss_r_c = np.conj(loss_l_c)
    rep_lr = dict(rep_ll, term="loss_right")
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
        trace_defect = float(
            np.real(_term_trace("gain", modes, params, t, quad))
            - 2.0 * np.real(_term_trace("loss_left", modes, params, t, quad)))
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
