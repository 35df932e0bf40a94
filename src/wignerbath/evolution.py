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
from plain expm1 on the N_q ~ M + R N_p lattice momenta (d = 1), not
2 M N_p, and gathered (`_q_lattice`): the gain's I = E0(b(q+))
conj(E0(b(q-))), as E0(-b) = conj(E0(b)); a loss's F summed over k first.
The projection onto x runs once per term.

Rank of the coefficients.  gq_j(p + k) is not on the lattice, but c = A B
has low rank (`_rank_factors`): 1 for a Gaussian, at most one per atom of a
closed state.  So the gain never forms gq: per k chunk it masks
G_r(p + k) = sum_l B_rl e^{i s_l.(p+k)}, (R, N_p, K), to the momentum box
and sums I G ww over k as one matmul per p, (M, K) @ (K, R); A contracts
the (N_p, M, R) sum once at the end.

loss_right is the complex conjugate of loss_left (B~ = -B once u_j -> -u_j,
and the coefficients of a real W0 satisfy c_{-j,-l} = conj(c_{jl})), so the
diagram evaluator computes gain and loss_left only, and `_second_order`, the
one place that assembles the three terms for `evolve` and certification,
takes loss_right as conj(loss_left) with a copy of its report.  It
evaluates only the terms asked for: certification may ask for fewer.

One wrap-free period.  The mode sum is periodic in position, with period
L = x_box's width.  Both mode builders take L at least the state's support
half-width plus the reach of the evaluated positions from the state's
centre (`_resolve_modes`), so every position x - p t/m + (k shift) that a
diagram evaluates stays a support half-width away from the images at
x0 +- L.  A closed-form state is then its exact closed form wherever it is
evaluated.  A gridded W0 is the band-limited interpolant of its samples
zero-padded in x to R n nodes (`modes_from_grid`); past the box it rings at
about the state's edge value, so the terms move by about the edge value
over the peak from those of the box interpolant cut at the box edge, and
toward the closed form.  `evolve_zeroth` still rejects a shear that leaves
the box.  The momentum argument p + k is masked to the box directly.

Only the k integral is numerical: composite Gauss-Legendre panels whose
count scales with the analytic phase range, so the oscillatory UV tail is
always resolved; n_k sets the nodes per panel.  Each term's error estimate
is its change under a rerun at half the panels, rounded up to an even
count below the full one (`_k_nodes`), so that k = 0 is a panel edge.  The
k rules are chosen once per time step, from the output grid, by
`_second_order`: the full rule and the half rule, shared by both terms.

Unitarity trace.  The direct expression is trace preserving, so the
correction integrates to zero over phase space: gain = 2 Re(loss_left)
there.  Each term's integral (its report's "trace") is one more
`_diagram_core` pass: over one x period only the u = 0 row survives, so it
is evaluated at one x node on the p lattice dp over the momentum box
(widened by the k reach for the gain), through the same tables, gathers,
rank factors, masks, chunks and thermal branches as the output grid, in
any d.  Both traces take the output grid's full k rule, so
the defect checks only the code and the p-lattice sum: `trace` is not a
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
from .propagators import bose_occupation, chunk_len, gauss_panels

SUPPORT_TOL = 1e-9        # relative mass threshold for the shear support check
CLOSED_DECAY = 8.9        # closed modes: Gaussian widths kept around each atom
CLOSED_PAD = 3.0          # closed modes: extra widths of period beyond that
COEF_TRUNC = 1e-19        # closed-form mode coefficient truncation
PHASE_PER_PANEL = 24.0    # analytic phase (radians) covered by one k panel


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
    """Int_{s1}^{s2} e^{i beta s} ds = e^{i beta s1} E0(beta, s2 - s1).
    Only the benchmark's tracer binds it."""
    beta = np.asarray(beta, dtype=float)
    return np.exp(1j * (beta * s1)) * _e0(beta, np.subtract(s2, s1))


def seg_e1(beta, s1, s2):
    """Int_{s1}^{s2} s e^{i beta s} ds = e^{i beta s1} (s2 E0 - F), both at
    (beta, s2 - s1).  Only the benchmark's tracer binds it."""
    beta = np.asarray(beta, dtype=float)
    d = np.subtract(s2, s1)
    em1 = _expm1i(beta * d)
    return np.exp(1j * (beta * s1)) * (s2 * _e0(beta, d, em1) - _f(beta, d, em1))


def window_loss_integral(B, t, ta, tb):
    """Int_{ta}^{tb} (t - tau) e^{i B tau} dtau with [ta, tb] clipped to [0, t]:
    e^{i B ta} ((t - tb) E0(B, d) + F(B, d)) with d = tb - ta, which is 0 for
    an empty window.  Only the benchmark's tracer binds it."""
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
        if not (math.isfinite(self.k_max) and self.k_max >= 0.0):
            raise ValueError("k_max must be finite and >= 0 (0 selects the UV cutoff)")
        if not (math.isfinite(self.rel_tol) and self.rel_tol > 0.0):
            raise ValueError("rel_tol must be finite and positive")

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
    """W0(X, Q) = sum_{j,l} coef[j,l] e^{i(u[j].X + s[l].Q)}, periodic in X
    with period x_box and masked to q_box in Q."""

    u: np.ndarray          # (M, d) position-frequency vectors
    s: np.ndarray          # (L, d) momentum-frequency vectors
    coef: np.ndarray       # (M, L) complex coefficients
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
    x_mid = grid.x_min + 0.5 * (n - 1) * grid.dx
    x_box = np.array([[x_mid - 0.5 * pad * box, x_mid + 0.5 * pad * box]] * d)
    q_box = np.array([[p_min - 0.5 * grid.dp, p_min + (n - 0.5) * grid.dp]] * d)
    return ModeRep(u=u, s=s, coef=coef, x_box=x_box, q_box=q_box)


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
    u_j/2 lies on dp/R (`_q_lattice`).
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

    # x_box is the wrap-free period; momentum keeps the true support and
    # relies on the evaluation mask
    x_box = np.stack([x0 - l_x / 2.0, x0 + l_x / 2.0], axis=-1)
    q_box = np.stack([p0 - r_q, p0 + r_q], axis=-1)
    return ModeRep(u=u, s=s, coef=coef, x_box=x_box, q_box=q_box)


def build_modes(w0, x_reach=None):
    """Closed modes for a closed-form state, grid modes for gridded input,
    each with a period that clears `x_reach` from the state's centre."""
    if isinstance(w0.source, InitialStateSpec):
        return modes_from_closed(w0.source, w0.grid.dp, x_reach=x_reach)
    return modes_from_grid(w0, x_reach=x_reach)


# ---------------------------------------------------------------------------
# momentum-transfer quadrature
# ---------------------------------------------------------------------------

def _k_nodes(params, quad, t, u_max, p_scale, half=False):
    """Tensor nodes/weights on the d-cube with the |k| <= k_max ball mask,
    and the panels per axis, sized from the phase range at u_max and p_scale
    (`_second_order` takes both rules of a time step from the output grid).

    The full run takes at least 2 panels.  The half-panel run of the error
    estimate takes half as many, rounded up to an even count that stays
    below the full one, so that k = 0, next to the branch points of 1/w at
    k = +-i m_e, is a panel edge and not a panel's centre; at the floor the
    full run's 2 panels give 1.
    """
    k_max = quad.resolved_k_max(params)
    m = params.m_s
    phase = (2.0 * k_max * t * (p_scale + 0.5 * u_max) / m
             + k_max**2 * t / m + 2.0 * k_max * t + 2.0 * np.pi)
    panels = int(max(2, np.ceil(phase / PHASE_PER_PANEL)))
    if half:
        panels = 2 * math.ceil(panels / 4) if panels > 2 else 1
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


def _in_q_box(modes, q):
    """Whether each momentum q[..., :] lies inside the modes' q box."""
    return np.all((q >= modes.q_box[:, 0]) & (q <= modes.q_box[:, 1]), axis=-1)


def _q_lattice(modes, P, dp):
    """The lattice box (N_q, d) spanned by q+- = p +- u_j/2, any d, and the
    rows of q+ and of q- for each (j, p), (M, N_p) each: p is a multiple of
    dp and u_j/2 of dp/R per axis (R = 1 for grid modes)."""
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


def _diagram_core(term, modes, X, P, dp, params, t, k, wk):
    """gain or loss_left at the points X (N_x, d) and P (N_p, d), P on
    the lattice dp, by the k rule (k, wk) of `_k_nodes`, coupling factored
    out; an (N_x, N_p) array.

    Every (p, k) column enters the (M, N_p) sum from the q-lattice tables
    on the full time window (module docstring), the gain's through the
    rank-R factors of the coefficients as an (N_p, M, R) sum.  The sum runs
    over every chunk and branch and is projected onto x once; the mode
    period is wrap-free, so no window clips.
    """
    d = params.d
    m = params.m_s
    npts = P.shape[0]
    M, L = modes.coef.shape

    omega = np.sqrt(np.sum(k**2, axis=-1) + params.m_e**2)
    branches = _thermal_branches(omega, params)
    qv, iqp, iqm = _q_lattice(modes, P, dp)

    ux_phase = np.exp(1j * (modes.u @ X.T))                  # (M, Nx)
    up_phase = np.exp(-1j * (modes.u @ P.T) * (t / m))       # (M, Np)
    sp_phase = np.exp(1j * (modes.s @ P.T))                  # (L, Np)

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
    # and its second gather and (R, Np) G, G ww and its transposed copy, and
    # the (Nq,) tables
    chunk = chunk_len(16 * max(npts * (2 * M + 3 * rank), 6 * qv.shape[0]))
    for k0 in range(0, k.shape[0], chunk):
        sl = slice(k0, k0 + chunk)
        kc, wc, om = k[sl], wk[sl], omega[sl]
        kk2 = np.sum(kc**2, axis=-1) / (2.0 * m)
        qk = (qv @ kc.T) / m                                 # (Nq, K)
        meas = wc / ((2.0 * np.pi) ** d * 2.0 * om)

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
                b = qk - kk2[None, :] - sgn * om[None, :]     # B(q)
                acc += (_f(b, t) @ ww)[iqp]

    if term == "gain":
        acc = np.einsum("pjr,jr->jp", acc, a_fac)
    return ux_phase.T @ (weight * acc)


def _resolve_modes(w0, params, t, quad):
    """Build the mode rep with a wrap-free period: each builder gets the
    reach of the evaluated positions x - p t/m + (k shift) from the state's
    centre, the packet center x0 for a closed-form state and the box centre
    for gridded input (the box half-width)."""
    grid = w0.grid
    if isinstance(w0.source, InitialStateSpec):
        reach = float(np.max(np.abs(grid.x_nodes[:, None] - np.array(w0.source.x0))))
    else:
        reach = 0.5 * grid.n_x * grid.dx
    p_span = float(np.max(np.abs(grid.p_nodes)))
    reach += (p_span + quad.resolved_k_max(params)) * t / params.m_s
    return build_modes(w0, x_reach=reach)


def _second_order(w0, params, t, quad, workers=1,
                  terms=("gain", "loss_left", "loss_right")):
    """{term: (complex values, quadrature report)} of the O(g^2) terms asked
    for, from one plan per time step: one mode rep, two k rules from the
    output grid (full, and half for the error estimate), and per evaluated
    term three independent `_diagram_core` passes: the output grid at either
    rule and the trace row at the full rule.  `workers` threads run the
    passes (six for all terms) in pass order, bitwise the same at any count.
    loss_right is conj(loss_left) with a copy of its report, so asking for
    loss_right evaluates (and returns) loss_left too.
    """
    if t < 0.0:
        raise ValueError("t must be >= 0")
    grid = w0.grid
    d, dp = grid.d, grid.dp
    if d != params.d:
        raise ValueError("grid dimension does not match params.d")
    evaluated = [term for term in ("gain", "loss_left")
                 if term in terms or (term == "loss_left" and "loss_right" in terms)]
    if t == 0.0:
        zero = np.zeros((grid.n_x**d, grid.n_x**d), dtype=complex)
        results, panels, x_period = [zero] * (3 * len(evaluated)), 0, 0.0
    else:
        modes = _resolve_modes(w0, params, t, quad)
        X, P = (_tensor_points([v] * d) for v in (grid.x_nodes, grid.p_nodes))
        p_scale = float(np.max(np.abs(grid.p_nodes)))
        full, half = (_k_nodes(params, quad, t, modes.u_max, p_scale, h)
                      for h in (False, True))
        # the trace: the u = 0 row at one x node, on the lattice dp over the
        # momentum box, widened by the k reach for the gain
        j0 = int(np.argmin(np.sum(np.abs(modes.u), axis=-1)))
        if np.any(modes.u[j0] != 0.0):
            raise RuntimeError("mode set lacks the zero position frequency")
        row = replace(modes, u=modes.u[j0:j0 + 1], coef=modes.coef[j0:j0 + 1])
        passes = []
        for term in evaluated:
            reach = quad.resolved_k_max(params) if term == "gain" else 0.0
            p_row = _tensor_points([dp * np.arange(np.ceil((lo - reach) / dp),
                                                   np.floor((hi + reach) / dp) + 1)
                                    for lo, hi in modes.q_box])
            passes += [(term, modes, X, P, full), (term, modes, X, P, half),
                       (term, row, np.zeros((1, d)), p_row, full)]

        def run(job):
            term, mds, xs, ps, (k, wk, _) = job
            return _diagram_core(term, mds, xs, ps, dp, params, t, k, wk)

        with ThreadPoolExecutor(max_workers=min(workers, len(passes))) as ex:
            results = list((ex.map if workers > 1 else map)(run, passes))
        panels, x_period = full[2], np.prod(modes.x_box[:, 1] - modes.x_box[:, 0])

    cell = grid.cell_volume
    out = {}
    for i, term in enumerate(evaluated):
        vals, vals_h, per_p = results[3 * i:3 * i + 3]
        err = float(np.sum(np.abs(vals - vals_h)) * cell)
        norm1 = float(np.sum(np.abs(vals)) * cell)
        rel = err / norm1 if norm1 > 0 else 0.0
        out[term] = (vals.reshape(grid.value_shape()), {
            "term": term, "panels": panels, "err_est": err, "rel_err_est": rel,
            "converged": bool(norm1 == 0.0 or rel <= quad.rel_tol),
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

    The terms come from `_second_order`: gain and loss_left as six
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
    (gain_c, rep_g), (loss_l_c, rep_ll), (loss_r_c, _) = (
        terms[term] for term in ("gain", "loss_left", "loss_right"))
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
