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

The diagrams take them on the full window only: I = E0(beta1, t)
E0(beta2, t) and Fw = F(B, t).  No window ever clips, because the mode
period is wrap-free (below).  The windowed integrals over a sub-window
(`seg_e0`, `seg_e1`, `window_loss_integral`, `strip_gain_integral`) have no
caller in the package; they are kept, with their tests, for the
benchmark's tracer, which binds them by name.

q-lattice tables.  The full-window phases depend on (p, u_j) only through
q+- = p +- u_j/2: beta1 = b(q+), beta2 = -b(q-) with
b(q) = -(q.k/m + k^2/2m - w_k), and B = B(q+) with
B(q) = q.k/m - k^2/2m - w_k.  p lies on the lattice dp and u_j/2 on dp/R
(the closed modes align their period to make it so, and the grid modes pad
to a whole multiple of n nodes), so per k chunk the kernels are tabulated
from plain expm1 on lattice momenta, not on 2 M N_p points, and gathered:
the gain's I = E0(b(q+)) conj(E0(b(q-))), as E0(-b) = conj(E0(b)), and a
loss's F(B(q+)).  The lattice row of q+- is p_rows[p] +- u_rows[j], linear
in the lattice point (`_q_lattice`), so a chunk forms the rows of its own
p rows only.  The projection onto x runs once per term.

Rank of the coefficients.  The mode rep holds c = a b only as rank-R
factors, a (M, R) and b (R, L), which each builder finds once
(`_rank_factors`): R = 1 for a Gaussian, 2 for a cat.  gq_j(p + k) is not
on the lattice, so the gain never forms gq: per k chunk it masks
G_r(p + k) = sum_l b_rl e^{i s_l.(p+k)} to the momentum box and sums
I G ww over k as one matmul per p, (M, K) @ (K, R); a contracts the
(N_p, M, R) sum once at the end.  A loss takes gq(p) as a (b e^{is.p}).

Live pairs.  A term reads gq at p + kick k, kick = 1 for the gain and 0
for a loss, and gq is masked to the q box, so a pair (p, k) is live only
when p + kick k lies in the box: the gain's pairs die once |k| exceeds the
box's reach from p (at n_x = 128, lambda = 50, 8.9 % of the output grid's
pairs are live), a loss's on the p rows outside the box.  A dead pair adds
an exact zero to the k sum, so both terms run one chunk loop
(`_live_chunks`): a chunk holds only the k nodes that reach some p, the p
rows that some of them reach, and the q rows those rows reach (q+ and q-
for the gain, q+ for a loss); the tables, the gathers and the sums run on
that sub-block, and dropping the rest moves only the order of summation.
A chunk is sized by the bytes of its sub-block, and cut where its live
band has shifted off most of its rows.

loss_right is the complex conjugate of loss_left (B~ = -B once u_j -> -u_j,
and the coefficients of a real W0 satisfy c_{-j,-l} = conj(c_{jl})), so the
diagram evaluator computes gain and loss_left only, and `_second_order`, the
one place that assembles the three terms for `evolve` and certification,
takes loss_right as conj(loss_left) with a copy of its report.  It
evaluates only the terms asked for: certification may ask for fewer.

One wrap-free period.  The mode sum is periodic in position, with period
L = x_box's width.  Both mode builders take L at least the state's support
half-width plus the reach of the evaluated positions from the state's
centre (`build_modes`), so every position x - p t/m + (k shift) that a
diagram evaluates stays a support half-width away from the images at
x0 +- L.  A closed-form state is then its exact closed form wherever it is
evaluated.  A gridded W0 is the band-limited interpolant of its samples
zero-padded in x to R n nodes (`modes_from_grid`); past the box it rings at
about the state's edge value, so the terms move by about the edge value
over the peak from those of the box interpolant cut at the box edge, and
toward the closed form.  `evolve_zeroth` still rejects a shear that leaves
the box.  The momentum argument p + k is masked to the box directly.

Only the k integral is numerical: composite Gauss-Kronrod panels (n_k
Gauss nodes and the n_k + 1 Kronrod nodes between them), an even count
that resolves the oscillatory UV phase, so that k = 0 is a panel edge
(`_k_nodes`).  A term is its Kronrod sum; its error estimate, the L1 norm
of the difference from the embedded Gauss sum, comes from the same pass.
`_second_order` takes the one k rule of a time step from the output grid.

Unitarity trace.  The direct expression is trace preserving, so the
correction integrates to zero over phase space: gain = 2 Re(loss_left)
there.  Each term's integral (its report's "trace") is one more
`_diagram_core` pass: over one x period only the u = 0 row survives, so it
is evaluated at one x node on the p lattice dp over the momentum box
(widened by the k reach for the gain), through the same tables, gathers,
rank factors, masks, chunks and thermal branches as the output grid, in
any d.  Both traces take the output grid's k rule (its Kronrod column),
so the defect checks only the code and the p-lattice sum: `trace` is not a
separately converged integral.  It misses loss_left's imaginary
(energy-shift) part.
"""

import math
from dataclasses import dataclass, replace
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .wigner import (WignerFunction, mode_coefficients, density_from_wigner,
                     half_shift)
from .states import InitialStateSpec, sample_closed, wigner_atoms
from .propagators import bose_occupation, chunk_len, kronrod_rule

SUPPORT_TOL = 1e-9        # relative mass threshold for the shear support check
CLOSED_DECAY = 8.9        # closed modes: Gaussian widths kept around each atom
CLOSED_PAD = 3.0          # closed modes: extra widths of period beyond that
PHASE_PER_PANEL = 24.0    # analytic phase (radians) covered by one k panel
TERMS = ("gain", "loss_left", "loss_right")


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


def _e0(b, d):
    """E0(b, d) = Int_0^d e^{ibs} ds = expm1(ibd)/(ib), d at b = 0.  expm1
    keeps full relative accuracy for small |bd|, so E0 needs no series."""
    b = np.asarray(b, dtype=float)
    out = _expm1i(b * d)
    out *= -1j
    with np.errstate(divide="ignore", invalid="ignore"):
        out /= b
    np.copyto(out, np.broadcast_to(d, out.shape), where=b == 0.0)
    return out


def _f(b, d):
    """F(b, d) = Int_0^d (d - s) e^{ibs} ds = d^2 (expm1(w) - w)/w^2 with
    w = ibd; where |w| < 1 that difference cancels, so F is
    d^2 sum_n w^n/(n+2)! there."""
    b = np.asarray(b, dtype=float)
    bd = np.asarray(b * d)
    out = _expm1i(bd)
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
    """Int_{s1}^{s2} e^{i beta s} ds = e^{i beta s1} E0(beta, s2 - s1).
    Only the benchmark's tracer binds it."""
    beta = np.asarray(beta, dtype=float)
    return np.exp(1j * (beta * s1)) * _e0(beta, np.subtract(s2, s1))


def seg_e1(beta, s1, s2):
    """Int_{s1}^{s2} s e^{i beta s} ds = e^{i beta s1} (s2 E0 - F), both at
    (beta, s2 - s1).  Only the benchmark's tracer binds it."""
    beta = np.asarray(beta, dtype=float)
    d = np.subtract(s2, s1)
    return np.exp(1j * (beta * s1)) * (s2 * _e0(beta, d) - _f(beta, d))


def window_loss_integral(B, t, ta, tb):
    """Int_{ta}^{tb} (t - tau) e^{i B tau} dtau with [ta, tb] clipped to [0, t]:
    e^{i B ta} ((t - tb) E0(B, d) + F(B, d)) with d = tb - ta, which is 0 for
    an empty window.  Only the benchmark's tracer binds it."""
    B = np.asarray(B, dtype=float)
    ta = np.clip(ta, 0.0, t)
    tb = np.clip(tb, ta, t)
    d = tb - ta
    return np.exp(1j * (B * ta)) * ((t - tb) * _e0(B, d) + _f(B, d))


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
    no cancellation at any gamma.  Empty parts are skipped.  Only the
    benchmark's tracer binds it.
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

    The k rule is always composite Gauss-Kronrod with n_k Gauss nodes per
    panel; a term converged when its error estimate is within rel_tol.
    n_k <= 64, as the tests use 16-48 and criterion 7 doubles the default 24.
    The k range is the model's UV cutoff, params.lambda_uv: the k integral
    is the bath's spectral sum.  There is no time quadrature to control:
    the fast path integrates time analytically and reports it as exact.
    The certification oracle sizes its own time rules: the losses' tau rule
    from lambda_uv t (`oracle._tau_rule`), the gain's from n_lambda, and
    every term's inner time rule from n_inner.
    """

    n_k: int = 24
    rel_tol: float = 1e-6

    def __post_init__(self):
        if not isinstance(self.n_k, (int, np.integer)):
            raise ValueError(f"n_k must be an integer, got {self.n_k!r}")
        if not 16 <= self.n_k <= 64:
            raise ValueError(f"n_k must be in [16, 64], got {self.n_k}")
        if not (math.isfinite(self.rel_tol) and self.rel_tol > 0.0):
            raise ValueError("rel_tol must be finite and positive")


# ---------------------------------------------------------------------------
# mode representation of the initial data
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ModeRep:
    """W0(X, Q) = sum_{j,l} (a b)[j,l] e^{i(u[j].X + s[l].Q)}, periodic in X
    with period x_box and masked to q_box in Q.  The (M, L) coefficients
    are held only as their rank-R factors a and b, found once when the rep
    is built (`_rank_factors`): R = 1 for a Gaussian, 2 for a cat."""

    u: np.ndarray          # (M, d) position-frequency vectors
    s: np.ndarray          # (L, d) momentum-frequency vectors
    a: np.ndarray          # (M, R) position factors of the coefficients
    b: np.ndarray          # (R, L) momentum factors of the coefficients
    x_box: np.ndarray      # (d, 2) one wrap-free period in position
    q_box: np.ndarray      # (d, 2) support box in momentum

    @property
    def u_max(self):
        return float(np.max(np.abs(self.u))) if self.u.size else 0.0


def _tensor_points(per_axis):
    """Every point of the tensor grid of the per-axis values, one per row,
    the first axis slowest."""
    grids = np.meshgrid(*per_axis, indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=-1)


def modes_from_grid(w0, x_reach=None):
    """Split-Nyquist interpolant modes of the gridded samples, zero-padded in
    x to a wrap-free period.

    `x_reach` is how far from the box centre the evolution will evaluate the
    state (None: the box half-width).  The x axes are padded with zeros to
    R n nodes, R the least integer with R n dx >= x_reach + n dx/2, so the
    images at +-R n dx stay a box half-width away from every evaluated
    position; a whole multiple of n keeps u_j/2 on the lattice dp/R
    (`_q_lattice`).  The mode sum is the band-limited interpolant of the
    padded samples, and x_box is its period, centred on the box.
    """
    grid = w0.grid
    d, n = grid.d, grid.n_x
    box = n * grid.dx
    reach = 0.5 * box if x_reach is None else float(x_reach)
    pad = math.ceil((reach + 0.5 * box) / box)
    c = np.pad(w0.values.astype(complex), [(0, (pad - 1) * n)] * d + [(0, 0)] * d)
    freqs = []
    for ax in range(2 * d):
        c, f = mode_coefficients(c, axis=ax)
        freqs.append(f)
    u = _tensor_points([f * (2.0 * np.pi / (pad * box)) for f in freqs[:d]])
    s = _tensor_points([f * (2.0 * np.pi / (n * grid.dp)) for f in freqs[d:]])
    coef = c.reshape(u.shape[0], s.shape[0]).copy()
    p_min = grid.p_nodes[0]
    coef *= np.exp(-1j * (u @ np.full(d, grid.x_min)))[:, None]
    coef *= np.exp(-1j * (s @ np.full(d, p_min)))[None, :]
    a, b = _rank_factors(coef, np.eye(s.shape[0]))
    x_mid = grid.x_min + 0.5 * (n - 1) * grid.dx
    x_box = np.array([[x_mid - 0.5 * pad * box, x_mid + 0.5 * pad * box]] * d)
    q_box = np.array([[p_min - 0.5 * grid.dp, p_min + (n - 0.5) * grid.dp]] * d)
    return ModeRep(u=u, s=s, a=a, b=b, x_box=x_box, q_box=q_box)


def modes_from_closed(spec, dp, x_reach=None):
    """Exact Fourier coefficients of a closed-form state on a private box.

    The support half-width is r_sup = CLOSED_DECAY sigma + |separation|/2.
    The images sit at x0 +- l_x, so one side is enough: with r_x the larger
    of r_sup and `x_reach` (how far from the packet center the evolution
    will evaluate the state), l_x >= r_x + r_sup + 2 CLOSED_PAD sigma keeps
    every evaluated position that far from an image's support, and the mode
    sum reproduces the true (near-zero) tails there.  The momentum box stays
    at the true support and is enforced by masking instead.  Each period is
    rounded up to R pi/dp, R an integer and dp the output grid's step, so
    u_j/2 lies on dp/R (`_q_lattice`).  Each atom is one position factor
    times one momentum factor: no (M, L) matrix is formed.
    """
    d = spec.d
    sig = spec.sigma
    x0 = np.array(spec.x0)
    p0 = np.array(spec.p0)
    sep = np.zeros(d)
    sep[0] = spec.separation

    r_sup = CLOSED_DECAY * sig * np.ones(d) + np.abs(sep) / 2.0
    r_q = (CLOSED_DECAY / (2.0 * sig)) * np.ones(d)
    r_x = r_sup if x_reach is None else np.maximum(r_sup, float(x_reach))
    l_x = r_x + r_sup + 2.0 * CLOSED_PAD * sig
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

    fu, fs = [], []
    for camp, xc, pc, kappa in wigner_atoms(spec):
        fu.append(camp * np.exp(-1j * (u @ xc) - 0.5 * sig**2 * np.sum(u**2, axis=-1)))
        dfs = kappa[None, :] - s
        fs.append(np.exp(1j * (dfs @ pc) - np.sum(dfs**2, axis=-1) / (8.0 * sig**2)))
    scale = np.pi**d / (np.prod(l_x) * np.prod(l_q))
    a, b = _rank_factors(scale * np.stack(fu, axis=1), np.stack(fs))

    # x_box is the wrap-free period; momentum keeps the true support and
    # relies on the evaluation mask
    x_box = np.stack([x0 - l_x / 2.0, x0 + l_x / 2.0], axis=-1)
    q_box = np.stack([p0 - r_q, p0 + r_q], axis=-1)
    return ModeRep(u=u, s=s, a=a, b=b, x_box=x_box, q_box=q_box)


def build_modes(w0, params, t):
    """The mode rep of `w0` at time step t: closed modes for a closed-form
    state, grid modes for gridded input, each with a period that clears
    the reach of the evaluated positions x - p t/m + (k shift) from the
    state's centre (x0 for a closed-form state, else the box centre)."""
    grid = w0.grid
    shift = (float(np.max(np.abs(grid.p_nodes))) + params.lambda_uv) * t / params.m_s
    if isinstance(w0.source, InitialStateSpec):
        reach = float(np.max(np.abs(grid.x_nodes[:, None] - np.array(w0.source.x0))))
        return modes_from_closed(w0.source, grid.dp, x_reach=reach + shift)
    return modes_from_grid(w0, x_reach=0.5 * grid.n_x * grid.dx + shift)


# ---------------------------------------------------------------------------
# momentum-transfer quadrature
# ---------------------------------------------------------------------------

def _k_nodes(params, quad, t, u_max, p_scale):
    """Tensor nodes on the d-cube with the |k| <= lambda_uv ball mask, their
    (K, 2) weights (Kronrod, then its embedded Gauss rule; `kronrod_rule`)
    and the panels per axis, 2 ceil(phase / (4 PHASE_PER_PANEL)) from the
    phase range at u_max and p_scale, at least 2.  The count is even, so
    that k = 0, next to the branch points of 1/w at k = +-i m_e, is a panel
    edge and not a panel's centre.
    """
    lam, m = params.lambda_uv, params.m_s
    phase = (2.0 * lam * t * (p_scale + 0.5 * u_max) / m
             + lam**2 * t / m + 2.0 * lam * t + 2.0 * np.pi)
    panels = 2 * max(1, math.ceil(phase / (4.0 * PHASE_PER_PANEL)))
    base_x, base_w = kronrod_rule(quad.n_k)
    edges = np.linspace(-lam, lam, panels + 1)
    half, mid = 0.5 * (edges[1:] - edges[:-1]), 0.5 * (edges[1:] + edges[:-1])
    nodes1 = (mid[:, None] + half[:, None] * base_x).ravel()
    w1 = (half[:, None, None] * base_w).reshape(-1, 2)
    k = _tensor_points([nodes1] * params.d)
    w = np.prod(w1[_tensor_points([np.arange(nodes1.size)] * params.d)], axis=1)
    mask = np.sum(k**2, axis=-1) <= lam**2
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


def _in_q_box(modes, q):
    """Whether each momentum q[..., :] lies inside the modes' q box."""
    return np.all((q >= modes.q_box[:, 0]) & (q <= modes.q_box[:, 1]), axis=-1)


def _q_lattice(modes, P, dp):
    """The lattice box (N_q, d) spanned by q+- = p +- u_j/2, any d, and its
    flat rows: q+- of (j, p) is row p_rows[p] +- u_rows[j], (N_p,) and (M,).
    p is a multiple of dp and u_j/2 of dp/R per axis (R = 1 for grid modes)."""
    half = 0.5 * modes.u
    step = np.min(np.abs(half), axis=0, where=half != 0.0, initial=dp)
    ratio = np.maximum(1.0, np.rint(dp / step))              # R per axis
    uj = half * (ratio / dp)
    if np.any(np.abs(uj - np.rint(uj)) > 1e-9):
        raise ValueError("mode frequencies are off the grid's momentum lattice")
    pj, uj = (np.rint(v).astype(np.int64) for v in (P * (ratio / dp), uj))
    reach = np.abs(uj).max(axis=0)
    lo, hi = pj.min(axis=0) - reach, pj.max(axis=0) + reach
    strides = np.append(np.cumprod((hi - lo + 1)[:0:-1])[::-1], 1)   # C order
    q = _tensor_points([np.arange(a, b + 1) * (dp / r) for a, b, r in zip(lo, hi, ratio)])
    return q, (pj - lo) @ strides, uj @ strides


def _rank_factors(a, b):
    """a b = A B with A (M, R) and B (R, L) at the rank R of a b, for a
    (M, N) and b (N, L): QRs of a and b^T, then the thin SVD of the small
    core, cut at numpy's `matrix_rank` tolerance sigma_1 max(M, L) eps.
    R = 1 for a Gaussian and 2 for a cat (its two direct atoms share a
    momentum factor, its two interference atoms a position factor)."""
    qa, ra = np.linalg.qr(a)
    qb, rb = np.linalg.qr(b.T)
    uc, sv, vh = np.linalg.svd(ra @ rb.T, full_matrices=False)
    rank = int(np.sum(sv > sv[0] * max(a.shape[0], b.shape[1]) * np.finfo(float).eps))
    return (qa @ uc[:, :rank]) * sv[:rank], vh[:rank] @ qb.T


def _live_chunks(modes, P, k, kick, pair_bytes, node_bytes):
    """A term's k chunks, cut to the (p, k) pairs that its mask keeps: the
    term reads gq(p + kick k), zero unless p + kick k lies in the q box
    (`_in_q_box`); kick = 1 for the gain, 0 for a loss, whose live rows are
    its in-box p rows at every node.  Yields per chunk the k nodes that
    reach some p, the p rows that some of them reach and the (rows, nodes)
    mask.  A chunk is the longest run of such nodes whose sub-block, nodes
    max(rows pair_bytes, node_bytes) bytes, fits the budget (`chunk_len`)
    and whose rows stay within twice its widest node's live rows: a band
    that shifts with k would fill a wide chunk with zeros.  A node that
    reaches no p is in no chunk.  Any d: the mask is tested on the flat
    rows of P."""
    budget = chunk_len(1)                                # in bytes

    def fits(nodes, rows, widest):
        size = nodes * np.maximum(rows * pair_bytes, node_bytes)
        return (size <= budget) & (rows <= 2 * widest)

    scan = chunk_len(max(pair_bytes, node_bytes))        # widest chunk: one row
    for k0 in range(0, k.shape[0], scan):
        live = _in_q_box(modes, P[None, :, :] + kick * k[k0:k0 + scan, None, :])  # (B, Np)
        count = live.sum(axis=1)                         # live rows per node
        nodes = np.flatnonzero(count)
        live, count = live[nodes], count[nodes]
        while nodes.size:
            # no wider than its first node's rows allow
            width = chunk_len(max(int(count[0]) * pair_bytes, node_bytes))
            grown = np.logical_or.accumulate(live[:width], axis=0)
            ok = fits(np.arange(1, len(grown) + 1), grown.sum(axis=1),
                      np.maximum.accumulate(count[:width]))
            n = len(ok) - int(np.argmax(ok[::-1])) if ok.any() else 1  # the longest that fits
            kept = np.flatnonzero(grown[n - 1])
            yield k0 + nodes[:n], kept, live[:n, kept].T
            nodes, live, count = nodes[n:], live[n:], count[n:]


def _diagram_core(term, modes, X, P, dp, params, t, k, wk):
    """gain or loss_left at the points X (N_x, d) and P (N_p, d), P on
    the lattice dp, by the k nodes of `_k_nodes` under each column of the
    weights wk (K, C), coupling factored out; a (C, N_x, N_p) array.

    Both terms run one chunk loop over their live pairs (`_live_chunks`),
    on the full-window tables of the q rows each chunk reaches (module
    docstring): the gain through the modes' rank-R factors a and b as an
    (N_p, M, R C) sum, a loss as a (C, M, N_p) one.  The sum is projected
    onto x once; the mode period is wrap-free, so no window clips.
    """
    d = params.d
    m = params.m_s
    npts = P.shape[0]
    M, L = modes.u.shape[0], modes.s.shape[0]
    ncol = wk.shape[1]
    gain = term == "gain"

    omega = np.sqrt(np.sum(k**2, axis=-1) + params.m_e**2)
    branches = _thermal_branches(omega, params)
    qv, p_rows, u_rows = _q_lattice(modes, P, dp)
    n_q = qv.shape[0]

    ux_phase = np.exp(1j * (modes.u @ X.T))                  # (M, Nx)
    up_phase = np.exp(-1j * (modes.u @ P.T) * (t / m))       # (M, Np)
    sp_phase = np.exp(1j * (modes.s @ P.T))                  # (L, Np)

    if gain:
        # gq = a G with G = b e^{is.(p+k)}: acc[p, j, (r, c)] sums I G ww
        # over k, and a contracts it once at the end.  Bytes per (p, k)
        # pair of a chunk: the (M,) I and its second gather, (R,) G, (R, C)
        # G ww and its copy
        rank = modes.b.shape[0]
        bs_phase = modes.b[:, None, :] * sp_phase.T[None]    # (R, Np, L)
        acc = np.zeros((npts, M, rank * ncol), dtype=complex)
        weight = up_phase
        pair_bytes = 16 * (2 * M + rank * (1 + 2 * ncol))
    else:
        acc = np.zeros((ncol, M, npts), dtype=complex)
        weight = up_phase * (modes.a @ (modes.b @ sp_phase))
        pair_bytes = 0

    # kick 1 for gq(p + k), 0 for gq(p); bytes per k node: six (N_q,) tables
    for nodes, rows, live in _live_chunks(modes, P, k, int(gain), pair_bytes, 96 * n_q):
        kc, wc, om = k[nodes], wk[nodes], omega[nodes]
        kk2 = np.sum(kc**2, axis=-1) / (2.0 * m)
        meas = wc / ((2.0 * np.pi) ** d * 2.0 * om)[:, None]
        # the q rows that its rows reach, renumbered: q+, and q- for the gain
        qp = p_rows[rows] + u_rows[:, None]                  # (M, Np')
        qm = p_rows[rows] - u_rows[:, None] if gain else qp
        reached = np.zeros(n_q, dtype=bool)
        reached[qp] = reached[qm] = True
        renum = np.cumsum(reached) - 1
        qk = (qv[reached] @ kc.T) / m                        # (Nq', K')
        if gain:
            ip, im = renum[qp.T], renum[qm.T]                # (Np', M)
            sk_phase = np.exp(1j * (modes.s @ kc.T))         # (L, K')
            g_tab = (bs_phase[:, rows].reshape(-1, L) @ sk_phase).reshape(rank, *live.shape)
            g_tab *= live
        else:
            ip = renum[qp]                                   # (M, Np')

        for sgn, wgt_full in branches:
            ww = meas * wgt_full[nodes, None]                # (K, C)
            if gain:
                b = sgn * om[None, :] - qk - kk2[None, :]     # b1(q); b2(q-) = -b(q-)
                e1 = _e0(b, t)
                i_full = e1[ip]                               # (Np', M, K')
                i_full *= np.conj(e1)[im]
                g_ww = (g_tab[..., None] * ww).transpose(1, 2, 0, 3)
                acc[rows] += i_full @ g_ww.reshape(len(rows), len(kc), rank * ncol)
            else:
                b = qk - kk2[None, :] - sgn * om[None, :]     # B(q)
                acc[..., rows] += (_f(b, t) @ ww).T[:, ip]

    if gain:
        acc = np.einsum("pjrc,jr->cjp", acc.reshape(npts, M, rank, ncol), modes.a)
    return ux_phase.T @ (weight * acc)


def _second_order(w0, params, t, quad, workers=1, terms=TERMS):
    """{term: (complex values, quadrature report)} of the O(g^2) terms asked
    for (an unknown name is rejected first), from one plan per time step:
    one mode rep, one k rule from the output grid, and per evaluated term
    two independent `_diagram_core` passes: the output grid under both
    weight columns (Kronrod and Gauss) and the trace row under the Kronrod
    column.  `workers` threads run the passes (four for all terms) in pass
    order, bitwise the same at any count.  loss_right is conj(loss_left)
    with a copy of its report, so asking for it evaluates loss_left too.
    """
    for term in terms:
        if term not in TERMS:
            raise ValueError(f"unknown term {term!r}: the terms are {', '.join(TERMS)}")
    if t < 0.0:
        raise ValueError("t must be >= 0")
    grid = w0.grid
    d, dp = grid.d, grid.dp
    if d != params.d:
        raise ValueError("grid dimension does not match params.d")
    evaluated = [term for term in ("gain", "loss_left")
                 if term in terms or (term == "loss_left" and "loss_right" in terms)]
    if t == 0.0:
        zero = np.zeros((2, grid.n_x**d, grid.n_x**d), dtype=complex)
        results, panels, n_nodes, x_period = [zero] * (2 * len(evaluated)), 0, 0, 0.0
    else:
        modes = build_modes(w0, params, t)
        X, P = (_tensor_points([v] * d) for v in (grid.x_nodes, grid.p_nodes))
        k, wk, panels = _k_nodes(params, quad, t, modes.u_max, float(np.max(np.abs(P))))
        # the trace: the u = 0 row at one x node, on the lattice dp over the
        # momentum box, widened by the k reach for the gain
        j0 = int(np.argmin(np.sum(np.abs(modes.u), axis=-1)))
        if np.any(modes.u[j0] != 0.0):
            raise RuntimeError("mode set lacks the zero position frequency")
        row = replace(modes, u=modes.u[j0:j0 + 1], a=modes.a[j0:j0 + 1])
        passes = []
        for term in evaluated:
            reach = params.lambda_uv if term == "gain" else 0.0
            p_row = _tensor_points([dp * np.arange(np.ceil((lo - reach) / dp),
                                                   np.floor((hi + reach) / dp) + 1)
                                    for lo, hi in modes.q_box])
            passes += [(term, modes, X, P, wk), (term, row, np.zeros((1, d)), p_row, wk[:, :1])]

        def run(job):
            term, mds, xs, ps, w = job
            return _diagram_core(term, mds, xs, ps, dp, params, t, k, w)

        with ThreadPoolExecutor(max_workers=min(workers, len(passes))) as ex:
            results = list((ex.map if workers > 1 else map)(run, passes))
        n_nodes, x_period = k.shape[0], np.prod(modes.x_box[:, 1] - modes.x_box[:, 0])

    cell = grid.cell_volume
    out = {}
    for i, term in enumerate(evaluated):
        (vals, vals_g), per_p = results[2 * i], results[2 * i + 1][0]
        err = float(np.sum(np.abs(vals - vals_g)) * cell)
        norm1 = float(np.sum(np.abs(vals)) * cell)
        rel = err / norm1 if norm1 > 0 else 0.0
        out[term] = (vals.reshape(grid.value_shape()), {
            "term": term, "panels": panels, "k_nodes": n_nodes, "err_est": err,
            "rel_err_est": rel, "converged": bool(norm1 == 0.0 or rel <= quad.rel_tol),
            "max_imag": float(np.max(np.abs(vals.imag))),
            "trace": float(np.sum(per_p.real) * x_period * dp**d),
            "time_integration": "exact"})
    if "loss_right" in terms:
        loss_l, rep_ll = out["loss_left"]
        out["loss_right"] = (np.conj(loss_l), dict(rep_ll, term="loss_right"))
    return out


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

    out = vals
    for axis in range(d):
        shape_p = [1] * (2 * d)
        shape_p[d + axis] = n
        out = half_shift(out, axis, p.reshape(shape_p) * (-t / (m * grid.dx)))
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
        raise ValueError("zeroth_closed needs a WignerFunction built "
                         "from a closed-form state")
    if w0.grid.d != params.d:
        raise ValueError("grid dimension does not match params.d")
    if t < 0.0:
        raise ValueError("t must be >= 0")
    vals = sample_closed(w0.source, w0.grid, shear=t / params.m_s)
    return WignerFunction(grid=w0.grid, t=w0.t + t, values=vals,
                          normalized=w0.normalized, source=None)


def _fast_input(w0, backend):
    """w0 as the fast path takes it: `backend = grid` drops its closed form,
    so the gridded samples are evolved; `auto` keeps it."""
    if backend not in ("auto", "grid"):
        raise ValueError(f"backend {backend!r} is not auto | grid ('closed' is "
                         "retired: auto takes the closed path for a closed-form state)")
    return replace(w0, source=None) if backend == "grid" else w0


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

    Diagnostics: second-order trace defect, imaginary residues, Hermiticity
    defect of the reconstructed density matrix, per-term quadrature reports
    (each with the term's phase-space "trace"), and a perturbativity flag
    when the correction exceeds 30% of the zeroth order in L1.
    `trace_defect_g2` is the gain's trace less twice loss_left's, both on
    the same k nodes (module docstring: what it checks and what it misses);
    `trace_defect_window` is the correction's sum over the output grid.

    The terms come from `_second_order`: gain and loss_left as four
    independent passes run by `workers` threads (bitwise the same at any
    count), and loss_right = conj(loss_left) with a copy of its report; so
    `max_imag_residue` checks only the gain.

    The input picks the path: a closed-form state (`w0.source` set) takes
    closed modes and `zeroth_closed`, which samples tails that the shear
    carries past the box from the closed form; gridded input, or any input
    under backend = "grid", takes grid modes and `evolve_zeroth`, which
    rejects such a shear.
    """
    if quad is None:
        quad = QuadratureSpec()
    w0 = _fast_input(w0, backend)
    zeroth = zeroth_closed if isinstance(w0.source, InitialStateSpec) else evolve_zeroth
    w_zeroth = zeroth(w0, params, t)
    terms = _second_order(w0, params, t, quad, workers)
    (gain_c, rep_g), (loss_l_c, rep_ll), (loss_r_c, _) = (terms[term] for term in TERMS)
    gain, loss_l, loss_r = gain_c.real, loss_l_c.real, loss_r_c.real

    g2 = params.g**2
    correction_c = gain_c - loss_l_c - loss_r_c
    correction = correction_c.real
    total = w_zeroth.values + g2 * correction
    w_total = WignerFunction(grid=w0.grid, t=w0.t + t, values=total,
                             normalized=w0.normalized, source=None)

    cell = w0.grid.cell_volume
    gain_l1 = float(np.sum(np.abs(gain)) * cell)
    corr_l1 = g2 * float(np.sum(np.abs(correction)) * cell)
    zeroth_l1 = float(np.sum(np.abs(w_zeroth.values)) * cell)
    ratio = corr_l1 / zeroth_l1 if zeroth_l1 > 0 else 0.0

    rho_t = density_from_wigner(w_total)
    diagnostics = {
        "trace_defect_g2": rep_g["trace"] - 2.0 * rep_ll["trace"],
        "trace_defect_window": float(np.sum(correction) * cell),
        "gain_l1": gain_l1,
        "max_imag_residue": float(np.max(np.abs(correction_c.imag))),
        "hermiticity_defect": rho_t.hermiticity_defect(),
        "quadrature_report": {term: rep for term, (_, rep) in terms.items()},
        "perturbativity_ratio": ratio,
        "non_perturbative": bool(ratio > 0.30),
        "quadrature_failed": not all(rep["converged"] for _, rep in terms.values()),
    }
    return EvolutionResult(w_total=w_total, w_zeroth=w_zeroth, w_gain=gain,
                           w_loss_left=loss_l, w_loss_right=loss_r,
                           diagnostics=diagnostics)
