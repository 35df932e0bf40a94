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
primitives on expm1(ibd), taken as -2 sin^2(bd/2) + i sin(bd) (`_expm1i`),
F from its power series in w = ibd where |w| < 1, where expm1(w) - w
cancels (`_e0`, `_f`):

    E0(b, d) = Int_0^d e^{ibs} ds          = expm1(w)/(ib)
    F(b, d)  = Int_0^d (d - s) e^{ibs} ds  = d^2 (expm1(w) - w)/w^2.

On the full window I = E0(beta1, t) E0(beta2, t) and Fw = F(B, t).  A
window [s1, s2] of length d shifts the phase: e^{ib s1} E0 is the integral
of e^{ibs} and e^{ib s1} (s2 E0 - F) that of s e^{ibs} (`seg_e0`,
`seg_e1`); the loss window [ta, tb] gives e^{iB ta} ((t - tb) E0 + F)
(`window_loss_integral`) and the gain's strip in s = t1 + t2, split at
s = t, a `seg_e0` term and a triangle integral per half, stable at any
b1 - b2 (`strip_gain_integral`).  An empty window has d = 0, hence value 0.

q-lattice tables.  The full-window phases depend on (p, u_j) only through
q+- = p +- u_j/2: beta1 = b(q+), beta2 = -b(q-) with
b(q) = -(q.k/m + k^2/2m - w_k), and B = B(q+), B~ = -B(q-) with
B(q) = q.k/m - k^2/2m - w_k.  p lies on the lattice dp and u_j/2 on dp/R
(the closed backend aligns its period to make it so), so per k chunk the
kernels are tabulated from plain expm1 on the N_q ~ M + R N_p lattice
momenta (d = 1), not 2 M N_p, and gathered (`_q_lattice`): the gain's
I = E0(b(q+)) conj(E0(b(q-))), as E0(-b) = conj(E0(b)); a loss's F summed
over k first.  The projection onto x runs once per term.

Rank of the coefficients.  gq_j(p + k) is not on the lattice, but c = A B
has low rank (`_rank_factors`): 1 for a Gaussian, at most one per atom of a
closed state.  So the gain never forms gq: per k chunk it masks
G_r(p + k) = sum_l B_rl e^{i s_l.(p+k)}, (R, N_p, K), to the momentum box
and sums I G ww over k as one matmul per p, (M, K) @ (K, R); A contracts
the (N_p, M, R) sum once at the end.

loss_right is the complex conjugate of loss_left (B~ = -B once u_j -> -u_j,
and the coefficients of a real W0 satisfy c_{-j,-l} = conj(c_{jl})), so
`evolve` computes loss_left only and conjugates it; the diagram evaluator
keeps the independent sign path for `diagram_loss_right` and certification.

Initial data are treated as zero outside their box (matching the transform
module): evaluation points whose position argument would leave the box are
removed by clipping the analytic time integrals to the admissible
sub-window: every (p, k) column takes the full window from the tables and
only the clipped (x, p, k) elements (`_clipped`) add their windowed value
less it.  The momentum argument p + k is masked to the box directly.

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
CLOSED_DECAY = 8.9        # closed modes: Gaussian widths kept around each atom
CLOSED_PAD = 3.0          # closed modes: extra widths of period beyond that
COEF_TRUNC = 1e-19        # closed-form mode coefficient truncation
PHASE_PER_PANEL = 24.0    # analytic phase (radians) covered by one k panel
_CHUNK_BYTES = 1 << 24    # 16 MB cap for a k chunk's and a clipped slice's tensors
_TRACE_BYTES = 1 << 24    # cap for one trace chunk's (L, nodes, p nodes) phases


# ---------------------------------------------------------------------------
# closed-form time kernels
# ---------------------------------------------------------------------------

# 1/n! for n = 0..19: the series below, to rounding for |w| <= 1
_INV_FACT = 1.0 / np.array([math.factorial(n) for n in range(20)])


def _expm1i(x):
    """expm1(ix) for real x, as numpy's complex expm1 computes it for a zero
    real part, (0 - 2 sin^2(x/2)) + i sin(x), without its exp(0), expm1(0)
    and cos(x); the values are equal (signed zeros aside)."""
    x = np.asarray(x, dtype=float)
    h = np.sin(0.5 * x)
    out = np.empty(x.shape, dtype=complex)
    out.real = 0.0 - 2.0 * h * h
    out.imag = np.sin(x)
    return out


def _e0(b, d, em1=None):
    """E0(b, d) = Int_0^d e^{ibs} ds = expm1(ibd)/(ib), d at b = 0, from
    em1 = expm1(ibd) when given.  expm1 keeps full relative accuracy for
    small |bd|, so E0 needs no series."""
    b = np.asarray(b, dtype=float)
    out = _expm1i(b * d) if em1 is None else np.array(em1)
    out *= -1j
    with np.errstate(divide="ignore", invalid="ignore"):
        out /= b
    np.copyto(out, np.broadcast_to(d, out.shape), where=b == 0.0)
    return out


def _f(b, d, em1=None):
    """F(b, d) = Int_0^d (d - s) e^{ibs} ds = d^2 (expm1(w) - w)/w^2 with
    w = ibd, from em1 = expm1(w) when given; where |w| < 1 that difference
    cancels, so F is d^2 sum_n w^n/(n+2)! there."""
    b = np.asarray(b, dtype=float)
    bd = np.asarray(b * d)
    out = _expm1i(bd) if em1 is None else np.array(em1)
    out.imag -= bd
    with np.errstate(divide="ignore", invalid="ignore"):
        out /= -(b * b)
    near = np.abs(bd) < 1.0
    w = 1j * bd[near]
    series = np.full(w.shape, _INV_FACT[-1], dtype=complex)
    for c in _INV_FACT[-2:1:-1]:
        series *= w
        series += c
    out[near] = np.broadcast_to(d, near.shape)[near] ** 2 * series
    return out


def seg_e0(beta, s1, s2):
    """Int_{s1}^{s2} e^{i beta s} ds = e^{i beta s1} E0(beta, s2 - s1)."""
    beta = np.asarray(beta, dtype=float)
    return np.exp(1j * (beta * s1)) * _e0(beta, np.subtract(s2, s1))


def seg_e1(beta, s1, s2):
    """Int_{s1}^{s2} s e^{i beta s} ds = e^{i beta s1} (s2 E0 - F), both at
    (beta, s2 - s1)."""
    beta = np.asarray(beta, dtype=float)
    d = np.subtract(s2, s1)
    em1 = _expm1i(beta * d)
    return np.exp(1j * (beta * s1)) * (s2 * _e0(beta, d, em1) - _f(beta, d, em1))


def window_loss_integral(B, t, ta, tb):
    """Int_{ta}^{tb} (t - tau) e^{i B tau} dtau with [ta, tb] clipped to [0, t]:
    e^{i B ta} ((t - tb) E0(B, d) + F(B, d)) with d = tb - ta, which is 0 for
    an empty window."""
    B = np.asarray(B, dtype=float)
    ta = np.clip(ta, 0.0, t)
    tb = np.clip(tb, ta, t)
    d = tb - ta
    em1 = _expm1i(B * d)
    return np.exp(1j * (B * ta)) * ((t - tb) * _e0(B, d, em1) + _f(B, d, em1))


def strip_gain_integral(b1, b2, t, s_lo, s_hi):
    """Double time integral of e^{i(b1 t1 + b2 t2)} over [0,t]^2 restricted to
    the strip s_lo <= t1 + t2 <= s_hi (b1, b2 real).

    With gamma = b1 - b2, the strip's part in s = t1 + t2 <= t is the
    integral of e^{ixr} E0(gamma, r) over r = s in [r0, r0 + d], x = b2; its
    part in s >= t is e^{i(b1 + b2) t} times that over r = 2t - s, x = -b1.
    That is E0(gamma, r0) seg_e0(x, r0, r0 + d) plus e^{i(x + gamma) r0}
    times a triangle, d^2 times exp's divided difference at 0, ia and ic,
    a, c = xd, (x + gamma) d in the order |a| >= |c|: with g = c - a it is
    d^2 e^{ic} (c F(-c, 1) - g F(-g, 1))/a, both terms at most |a| in size:
    no cancellation at any gamma.  Empty parts are skipped.
    """
    shape = np.broadcast_shapes(*map(np.shape, (b1, b2, s_lo, s_hi)))
    b1, b2 = (np.broadcast_to(np.asarray(v, dtype=float), shape) for v in (b1, b2))
    out = np.zeros(shape, dtype=complex)
    for upper, r0, r1 in ((False, s_lo, s_hi), (True, 2.0 * t - s_hi, 2.0 * t - s_lo)):
        r0, r1 = np.clip(r0, 0.0, t), np.clip(r1, 0.0, t)
        on = np.broadcast_to(r1 > r0, shape)
        r0, d = np.broadcast_to(r0, shape)[on], np.broadcast_to(r1 - r0, shape)[on]
        x, y = (-b1[on], -b2[on]) if upper else (b2[on], b1[on])
        gamma = y - x
        swap = np.abs(y) > np.abs(x)
        a, c, g = (np.where(swap, u, v) * d for u, v in ((y, x), (x, y), (-gamma, gamma)))
        with np.errstate(divide="ignore", invalid="ignore"):
            part = (c * _f(-c, 1.0) - g * _f(-g, 1.0)) / a
        part[a == 0.0] = 0.5
        part *= d * d * np.exp(1j * (c + y * r0))
        part += _e0(gamma, r0) * seg_e0(x, r0, r0 + d)
        out[on] += part * np.exp(-1j * ((x + y) * t)) if upper else part
    return out


# ---------------------------------------------------------------------------
# quadrature spec
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class QuadratureSpec:
    """Controls for the numerical momentum-transfer integral.

    The k rule is always composite Gauss-Legendre with n_k nodes per panel;
    a term converged when its error estimate is within rel_tol.  k_max = 0
    means "use the model's UV cutoff".  There is no time quadrature to
    control: the fast path integrates time analytically and reports it as
    exact, and the certification oracle sizes its time quadrature with its
    own n_lambda and n_inner.
    """

    n_k: int = 24
    k_max: float = 0.0
    rel_tol: float = 1e-6

    def __post_init__(self):
        if self.n_k < 16:
            raise ValueError("n_k must be >= 16")
        if self.k_max < 0.0:
            raise ValueError("k_max must be >= 0 (0 selects the UV cutoff)")
        if self.rel_tol <= 0.0:
            raise ValueError("rel_tol must be positive")

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


def _tensor_points(per_axis):
    """Every point of the tensor grid of the per-axis values, one per row,
    the first axis slowest."""
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
    u = _tensor_points([freqs * du] * d)
    s = _tensor_points([freqs * ds] * d)
    m_per = n + 1
    coef = c.reshape(m_per**d, m_per**d).copy()
    p_min = grid.p_nodes[0]
    coef *= np.exp(-1j * (u @ np.full(d, grid.x_min)))[:, None]
    coef *= np.exp(-1j * (s @ np.full(d, p_min)))[None, :]
    half_x, half_p = 0.5 * grid.dx, 0.5 * grid.dp
    x_box = np.array([[grid.x_min - half_x, grid.x_min + (n - 0.5) * grid.dx]] * d)
    q_box = np.array([[p_min - half_p, p_min + (n - 0.5) * grid.dp]] * d)
    return ModeRep(u=u, s=s, coef=coef, x_box=x_box, q_box=q_box)


def modes_from_closed(spec, dp, x_reach=None):
    """Exact Fourier coefficients of a closed-form state on a private box.

    The position period covers `x_reach` (how far from the packet center the
    evolution will evaluate the state), so no wrap-around image is ever seen
    and position windows never clip: the mode sum itself reproduces the true
    (near-zero) tails.  The momentum box stays at the true support and is
    enforced by masking instead.  Each period is rounded up to R pi/dp, R an
    integer and dp the output grid's step, so u_j/2 lies on dp/R (`_q_lattice`).
    """
    d = spec.d
    sig = spec.sigma
    x0 = np.array(spec.x0)
    p0 = np.array(spec.p0)
    sep = np.zeros(d)
    sep[0] = spec.separation

    r_x = CLOSED_DECAY * sig * np.ones(d) + np.abs(sep) / 2.0
    r_q = (CLOSED_DECAY / (2.0 * sig)) * np.ones(d)
    if x_reach is not None:
        r_x = np.maximum(r_x, float(x_reach))
    l_x = 2.0 * (r_x + CLOSED_PAD * sig)
    l_x = np.ceil(l_x * dp / np.pi) * np.pi / dp
    l_q = 2.0 * (r_q + CLOSED_PAD / (2.0 * sig))
    u_cut = CLOSED_DECAY / sig
    s_cut = CLOSED_DECAY * 2.0 * sig + float(np.max(np.abs(sep)))

    axes_u, axes_s = [], []
    for ax in range(d):
        du = 2.0 * np.pi / l_x[ax]
        jmax = int(np.ceil(u_cut / du))
        axes_u.append(du * np.arange(-jmax, jmax + 1))
        dsl = 2.0 * np.pi / l_q[ax]
        lmax = int(np.ceil(s_cut / dsl))
        axes_s.append(dsl * np.arange(-lmax, lmax + 1))
    u = _tensor_points(axes_u)
    s = _tensor_points(axes_s)

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
        return modes_from_closed(w0.source, w0.grid.dp, x_reach=x_reach)
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
    k = _tensor_points([nodes1] * params.d)
    w = np.prod(_tensor_points([w1] * params.d), axis=-1)
    mask = np.sum(k**2, axis=-1) <= k_max**2
    return k[mask], w[mask], panels


# ---------------------------------------------------------------------------
# diagram evaluators
# ---------------------------------------------------------------------------

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
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            b1 = (lo - center) / slope
            b2 = (hi - center) / slope
        inside = (center >= lo) & (center <= hi)
        flat = slope == 0.0
        w_lo = np.maximum(w_lo, np.where(flat, dom_hi * ~inside, np.where(slope > 0, b1, b2)))
        w_hi = np.minimum(w_hi, np.where(flat, dom_hi * inside, np.where(slope > 0, b2, b1)))
    return w_lo, w_hi


def _clipped(xt, slopes, x_box, dom_hi):
    """The (x, p, k) elements with a clipped window (lo > 0 or hi < dom_hi) and their
    windows, sorted by (x, p); xt is monotone in x, so only (p, k) columns whose
    first or last x row is clipped can hold any."""
    e_lo, e_hi = _windows(xt[[0, -1]], slopes, x_box, dom_hi)
    cols = np.nonzero(((e_lo > 0.0) | (e_hi < dom_hi)).any(axis=(0, 1)))[0]
    w_lo, w_hi = _windows(xt, slopes[cols], x_box, dom_hi)
    ix, ip, ik = np.nonzero((w_lo > 0.0) | (w_hi < dom_hi))
    return ix, ip, cols[ik], w_lo[ix, ip, ik], w_hi[ix, ip, ik]


def _in_q_box(modes, q):
    """Whether each momentum q[..., :] lies inside the modes' q box."""
    return np.all((q >= modes.q_box[:, 0]) & (q <= modes.q_box[:, 1]), axis=-1)


def _q_lattice(modes, P, dp):
    """The lattice box (N_q, d) spanned by q+- = p +- u_j/2, any d, and the
    rows of q+ and of q- for each (j, p), (M, N_p) each: p is a multiple of
    dp and u_j/2 of dp/R per axis (R = 1 on the grid backend)."""
    half = 0.5 * modes.u
    step = np.min(np.abs(half), axis=0, where=half != 0.0, initial=dp)
    ratio = np.maximum(1.0, np.rint(dp / step))              # R per axis
    uj = half * (ratio / dp)
    if np.any(np.abs(uj - np.rint(uj)) > 1e-9):
        raise ValueError("mode frequencies are off the grid's momentum lattice")
    pj, uj = np.rint(P * (ratio / dp)), np.rint(uj)[:, None]
    lattice = np.stack([pj + uj, pj - uj]).astype(np.int64)  # (2, M, Np, d)
    lo, hi = lattice.min(axis=(0, 1, 2)), lattice.max(axis=(0, 1, 2))
    rows = np.ravel_multi_index(np.moveaxis(lattice - lo, -1, 0), hi - lo + 1)
    q = _tensor_points([np.arange(a, b + 1) * (dp / r) for a, b, r in zip(lo, hi, ratio)])
    return q, rows[0], rows[1]


def _rank_factors(coef):
    """coef = A B, A (M, R) and B (R, L), from the thin SVD cut at numpy's
    `matrix_rank` tolerance sigma_1 max(M, L) eps: R = 1 for a Gaussian,
    at most one per `wigner_atoms` entry for a closed state."""
    a_fac, sv, b_fac = np.linalg.svd(coef, full_matrices=False)
    rank = int(np.sum(sv > sv[0] * max(coef.shape) * np.finfo(float).eps))
    return a_fac[:, :rank] * sv[:rank], b_fac[:rank]


def _diagram_core(term, modes, grid, params, t, quad, panel_factor=1.0):
    """One second-order term on the output grid, coupling factored out.

    Every (p, k) column enters the (M, N_p) sum from the q-lattice tables
    (module docstring), the gain's through the rank-R factors of the
    coefficients as an (N_p, M, R) sum; only the clipped (x, p, k) elements
    (`_clipped`) add their windowed integral at the tabulated phases less
    the tabulated value, times gq = A G at those elements for the gain,
    summed per (x, p) into an (M, N_x N_p) sum.  Both sums run over every
    chunk and branch and are projected onto x once.
    """
    d = params.d
    m = params.m_s
    X = _tensor_points([grid.x_nodes] * d)                   # (Nx, d)
    P = _tensor_points([grid.p_nodes] * d)                   # (Np, d)
    nx, npts = X.shape[0], P.shape[0]
    M, L = modes.coef.shape

    p_scale = float(np.max(np.abs(P))) if P.size else 0.0
    k, wk, panels = _k_nodes(params, quad, t, modes.u_max, p_scale, panel_factor)
    omega = np.sqrt(np.sum(k**2, axis=-1) + params.m_e**2)
    branches = _thermal_branches(omega, params)
    qv, iqp, iqm = _q_lattice(modes, P, grid.dp)
    iq = iqm if term == "loss_right" else iqp

    xt = X[:, None, :] - P[None, :, :] * (t / m)             # (Nx, Np, d)
    ux_phase = np.exp(1j * (modes.u @ X.T))                  # (M, Nx)
    up_phase = np.exp(-1j * (modes.u @ P.T) * (t / m))       # (M, Np)
    sp_phase = np.exp(1j * (modes.s @ P.T))                  # (L, Np)
    dom_hi = 2.0 * t if term == "gain" else t
    slope_sign = -1.0 if term == "gain" else +1.0
    b_sign = -1.0 if term == "loss_right" else +1.0

    contrib = 0.0        # the clipped elements' (M, Nx Np) sum, once there are any
    if term == "gain":
        # gq = A G with G = B e^{is.(p+k)}: acc[p, j, r] sums I G ww over k,
        # and A contracts it once at the end
        a_fac, b_fac = _rank_factors(modes.coef)
        rank = b_fac.shape[0]
        bs_phase = b_fac[:, None, :] * sp_phase.T[None]      # (R, Np, L)
        acc = np.zeros((npts, M, rank), dtype=complex)
        weight = up_phase
    else:
        rank = 0
        acc = np.zeros((M, npts), dtype=complex)
        weight = up_phase * (modes.coef @ sp_phase) * _in_q_box(modes, P)[None, :]

    # chunk k so its tensors stay bounded: per k node the gain's (Np, M) I
    # and its second gather and (R, Np) G, G ww and its transposed copy, the
    # (Nx, Np) windows of `_clipped`, the (Nq,) tables; and slice the clipped
    # elements so their (M, E) temporaries do
    per_k = max(npts * (2 * M + 3 * rank), 3 * nx * npts, 6 * qv.shape[0])
    chunk = max(1, _CHUNK_BYTES // (16 * per_k))
    per = max(1, int(_CHUNK_BYTES // (16 * M * 24)))
    for k0 in range(0, k.shape[0], chunk):
        sl = slice(k0, k0 + chunk)
        kc, wc, om = k[sl], wk[sl], omega[sl]
        kk2 = np.sum(kc**2, axis=-1) / (2.0 * m)
        qk = (qv @ kc.T) / m                                 # (Nq, K)
        meas = wc / ((2.0 * np.pi) ** d * 2.0 * om)
        slopes = slope_sign * kc / (2.0 * m)                 # (K, d)
        ix, ip, ik, w_lo, w_hi = _clipped(xt, slopes, modes.x_box, dom_hi)
        xp = ix * npts + ip
        # allocated before the chunk's temporaries: among them it pins the heap top
        if xp.size and not np.ndim(contrib):
            contrib = np.zeros((M, nx * npts), dtype=complex)

        if term == "gain":
            sk_phase = np.exp(1j * (modes.s @ kc.T))         # (L, K)
            g_tab = (bs_phase.reshape(-1, L) @ sk_phase).reshape(rank, npts, len(kc))
            g_tab *= _in_q_box(modes, P[:, None, :] + kc[None, :, :])[None]

        for sgn, wgt_full in branches:
            ww = meas * (wgt_full[sl] if np.ndim(wgt_full) else wgt_full)
            if term == "gain":
                b = sgn * om[None, :] - qk - kk2[None, :]     # b1(q); b2(q-) = -b(q-)
                e1 = _e0(b, t)
                i_full = e1[iqp.T]                            # (Np, M, K)
                i_full *= np.conj(e1)[iqm.T]
                acc += i_full @ (g_tab * ww).transpose(1, 2, 0)
            else:
                b = b_sign * (qk - kk2[None, :] - sgn * om[None, :])    # +-B(q)
                f_tab = _f(b, t)
                acc += (f_tab @ ww)[iq]
            # clipped elements, sorted by (x, p): windowed less tabulated
            for e0 in range(0, xp.size, per):
                e = slice(e0, e0 + per)
                pe, ke = ip[e], ik[e]
                if term == "gain":
                    val = strip_gain_integral(b[iqp[:, pe], ke], -b[iqm[:, pe], ke],
                                              t, w_lo[e], w_hi[e])
                    val -= i_full[pe, :, ke].T
                    val *= a_fac @ g_tab[:, pe, ke]
                else:
                    val = window_loss_integral(b[iq[:, pe], ke], t, w_lo[e], w_hi[e])
                    val -= f_tab[iq[:, pe], ke]
                val *= ww[ke]
                starts = np.flatnonzero(np.diff(xp[e], prepend=-1))
                contrib[:, xp[e][starts]] += np.add.reduceat(val, starts, axis=1)

    if term == "gain":
        acc = np.einsum("pjr,jr->jp", acc, a_fac)
    out = ux_phase.T @ (weight * acc)
    if np.ndim(contrib):
        out += np.einsum("jx,jp,jxp->xp", ux_phase, weight,
                         contrib.reshape(M, nx, npts))
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

def evolve_zeroth(w0, params, t):
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

    mask = np.abs(vals) > SUPPORT_TOL * peak
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
