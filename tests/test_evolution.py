import dataclasses

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wignerbath import (InitialStateSpec, ModelParams, QuadratureSpec,
                        make_initial_wigner, evolve, evolve_zeroth,
                        diagram_gain, diagram_loss_left, diagram_loss_right)
from wignerbath.states import balanced_grid, wigner_closed
from wignerbath.wigner import WignerFunction, observables
from wignerbath import evolution
from wignerbath.evolution import (_diagram_with_report, seg_e0, seg_e1,
                                  strip_gain_integral, window_loss_integral,
                                  modes_from_grid, modes_from_closed,
                                  _diagram_core, _e0, _f, _expm1i, _q_lattice,
                                  _rank_factors, _resolve_modes, _term_trace)


# ---------------------------------------------------------------------------
# closed-form time-integral helpers
# ---------------------------------------------------------------------------

def test_expm1i_equals_complex_expm1():
    """The split expm1(ix) has the values of numpy's complex expm1 on a zero
    real part, from 1e-300 to 1e5 in size, either sign, and at 0."""
    rng = np.random.default_rng(11)
    mag = np.logspace(-300, 5, 10_000)
    x = np.concatenate([rng.uniform(-50.0, 50.0, 200_000), mag, -mag, [0.0, -0.0]])
    assert np.array_equal(_expm1i(x), np.expm1(1j * x))
    assert _expm1i(0.25).shape == ()


def test_segment_integrals_against_quadrature():
    from numpy.polynomial.legendre import leggauss
    xg, wg = leggauss(80)
    rng = np.random.default_rng(1)
    for _ in range(20):
        beta = rng.uniform(-30, 30)
        s1, s2 = sorted(rng.uniform(0, 2, size=2))
        ss = 0.5 * (s2 - s1) * (xg + 1) + s1
        ws = 0.5 * (s2 - s1) * wg
        ref0 = np.sum(ws * np.exp(1j * beta * ss))
        ref1 = np.sum(ws * ss * np.exp(1j * beta * ss))
        assert abs(seg_e0(beta, s1, s2) - ref0) < 1e-12
        assert abs(seg_e1(beta, s1, s2) - ref1) < 1e-12
    # small-argument series branch: exact expansion through O(beta)
    beta = 1e-9
    expect = 1.3 + 1j * beta * 1.3**2 / 2.0
    assert abs(seg_e0(beta, 0.0, 1.3) - expect) < 1e-15
    assert seg_e1(0.0, 0.0, 1.3) == pytest.approx(1.3**2 / 2, abs=1e-12)


def test_strip_integral_full_window_factorizes():
    rng = np.random.default_rng(2)
    b1 = rng.normal(size=16) * 5
    b2 = rng.normal(size=16) * 5
    t = 1.3
    full = strip_gain_integral(b1, b2, t, np.zeros(16), np.full(16, 2 * t))
    prod = seg_e0(b1, 0.0, t) * seg_e0(b2, 0.0, t)
    assert np.max(np.abs(full - prod)) < 1e-13


def test_strip_integral_windowed():
    from numpy.polynomial.legendre import leggauss
    t = 1.3
    xg, wg = leggauss(60)

    def ref(b1, b2, lo, hi):
        kinks = sorted({0.0, t} | {v for v in (lo, hi, lo - t, hi - t)
                                   if 0.0 <= v <= t})
        total = 0.0 + 0.0j
        for a, b in zip(kinks[:-1], kinks[1:]):
            t1 = 0.5 * (b - a) * (xg + 1) + a
            w1 = 0.5 * (b - a) * wg
            alpha = np.clip(lo - t1, 0.0, t)
            beta = np.clip(hi - t1, 0.0, t)
            inner = (np.exp(1j * b2 * beta) - np.exp(1j * b2 * alpha)) / (1j * b2)
            total += np.sum(w1 * np.exp(1j * b1 * t1) * inner)
        return total

    for (lo, hi) in [(0.3, 1.9), (0.0, 1.1), (0.7, 2.6), (1.4, 2.2), (2.0, 9.0)]:
        got = strip_gain_integral(np.array(3.7), np.array(-2.2), t,
                                  np.array(lo), np.array(hi))
        assert abs(got - ref(3.7, -2.2, lo, hi)) < 1e-13


def test_window_loss_integral():
    from numpy.polynomial.legendre import leggauss
    xg, wg = leggauss(80)
    t = 0.9
    for (B, ta, tb) in [(4.2, 0.1, 0.7), (-11.0, 0.0, 0.9), (1e-8, 0.2, 0.4)]:
        ss = 0.5 * (tb - ta) * (xg + 1) + ta
        ws = 0.5 * (tb - ta) * wg
        ref = np.sum(ws * (t - ss) * np.exp(1j * B * ss))
        assert abs(window_loss_integral(np.array(B), t, ta, tb) - ref) < 1e-12


def _mp_e0(b, t):
    """Int_0^t e^{i b s} ds."""
    if b == 0:
        return mpmath.mpf(t)
    return mpmath.expm1(1j * b * t) / (1j * b)


@pytest.mark.parametrize("sign", (+1.0, -1.0))
def test_tabulated_kernels_against_mpmath(sign):
    """The full-window kernels as the diagrams use them, against 40-digit
    values of the same integrals at the same double phases.

    The gain tabulates E0(b, t) once per momentum and forms
    E0(b1) E0(b2) = table[q+] conj(table[q-]) with table[q-] = E0(-b2); a
    loss takes F(b, t).  The bound is 4 eps (1 + |b| t) t^2 with |b| the
    larger phase of the product: the error that rounding the phase b t
    itself makes.  The sweep covers |w| = |b1 t| from 1e-12 to 1e3, w = 0,
    both sides of |w| = 1 (the loss's switch to its series), and b2 = b1
    as well as b2 at a fixed offset of up to 800 from b1.
    """
    eps = np.finfo(float).eps
    t = 0.7
    w = np.concatenate([[0.0], np.logspace(-12, 3, 46),
                        [1.0 - 1e-9, 1.0, 1.0 + 1e-9]])
    n = w.size
    b1 = sign * w / t
    loss = _f(b1, t)
    for offset in (0.0, 0.6, -10.0, 800.0):
        b2 = b1 - offset
        table = _e0(np.concatenate([b1, -b2]), t)
        gain = table[:n] * np.conj(table[n:])
        with mpmath.workdps(40):
            for i in range(n):
                ref = complex(_mp_e0(mpmath.mpf(b1[i]), t)
                              * _mp_e0(mpmath.mpf(b2[i]), t))
                bound = 4.0 * eps * (1.0 + max(abs(b1[i]), abs(b2[i])) * t) * t**2
                assert abs(gain[i] - ref) <= bound, (offset, w[i])
    with mpmath.workdps(40):
        for i in range(n):
            ref = complex(_mp_f(mpmath.mpf(b1[i]), t))
            assert abs(loss[i] - ref) <= 4.0 * eps * (1.0 + abs(b1[i]) * t) * t**2, w[i]
            assert abs(loss[i] - ref) <= 8.0 * eps * abs(ref), w[i]


def _mp_f(b, d):
    """Int_0^d (d - s) e^{i b s} ds."""
    if b == 0 or d == 0:
        return mpmath.mpf(d) ** 2 / 2
    w = 1j * b * d
    return d**2 * (mpmath.expm1(w) - w) / w**2


@mpmath.workdps(40)
def _mp_seg(b, s1, s2, power):
    """Int_{s1}^{s2} s^power e^{i b s} ds (power 0 or 1)."""
    b, s1, s2 = (mpmath.mpf(v) for v in (b, s1, s2))
    d = s2 - s1
    e0 = _mp_e0(b, d)
    return mpmath.expj(b * s1) * (e0 if power == 0 else s2 * e0 - _mp_f(b, d))


@mpmath.workdps(40)
def _mp_window_loss(B, t, ta, tb):
    ta, tb = max(ta, 0.0), min(tb, t)
    if tb <= ta:
        return mpmath.mpc(0)
    B, t, ta, tb = (mpmath.mpf(v) for v in (B, t, ta, tb))
    d = tb - ta
    return mpmath.expj(B * ta) * ((t - tb) * _mp_e0(B, d) + _mp_f(B, d))


@mpmath.workdps(40)
def _mp_strip(b1, b2, t, lo, hi):
    """The strip's s-integral on its parts in [0, t] and [t, 2t]."""
    g = mpmath.mpf(b1) - mpmath.mpf(b2)
    bbar = (mpmath.mpf(b1) + mpmath.mpf(b2)) / 2
    total = mpmath.mpc(0)
    a, c = min(max(lo, 0.0), t), min(max(hi, 0.0), t)
    if c > a:
        total += (_mp_seg(bbar, a, c, 1) if g == 0 else
                  (_mp_seg(b1, a, c, 0) - _mp_seg(b2, a, c, 0)) / (1j * g))
    a, c = min(max(lo, t), 2 * t), min(max(hi, t), 2 * t)
    if c > a:
        total += (2 * mpmath.mpf(t) * _mp_seg(bbar, a, c, 0) - _mp_seg(bbar, a, c, 1)
                  if g == 0 else
                  (mpmath.expj(g * t) * _mp_seg(b2, a, c, 0)
                   - mpmath.expj(-g * t) * _mp_seg(b1, a, c, 0)) / (1j * g))
    return total


@pytest.mark.parametrize("sign", (+1.0, -1.0))
def test_windowed_kernels_against_mpmath(sign):
    """seg_e0, seg_e1, window_loss_integral and strip_gain_integral against
    40-digit values of the same integrals.

    The bound is 4 eps (1 + |beta| t) in units of each integral's size
    (d, d t, d t and t^2 for a window of length d in [0, t] or a strip in
    [0, 2t]): the error that rounding the phase beta s itself makes.  The
    sweep covers |beta d| from 1e-12 to 1e3, beta = 0, both sides of the
    |w| = 1 switch to the series, full, clipped and empty windows, and
    strips with gamma = b1 - b2 = 0 and |gamma t| of order 1 or more (small
    nonzero |gamma t| is `test_strip_integral_stable_in_gamma`).
    """
    eps = np.finfo(float).eps
    t = 0.7
    w = np.concatenate([[0.0], np.logspace(-12, 3, 46),
                        [1.0 - 1e-9, 1.0, 1.0 + 1e-9]])
    for s1, s2 in ((0.0, t), (0.15, 0.55), (0.4, 0.4)):
        d = s2 - s1
        for beta in sign * w / (d if d > 0 else t):
            unit = 4.0 * eps * (1.0 + abs(beta) * t)
            assert abs(seg_e0(beta, s1, s2) - _mp_seg(beta, s1, s2, 0)) <= unit * d
            assert abs(seg_e1(beta, s1, s2) - _mp_seg(beta, s1, s2, 1)) <= unit * d * t
    for ta, tb in ((0.0, t), (0.15, 0.55), (-0.3, 0.4), (0.3, 1.2), (0.5, 0.2)):
        d = max(min(tb, t) - max(ta, 0.0), 0.0)
        for B in sign * w / (d if d > 0 else t):
            ref = _mp_window_loss(B, t, ta, tb)
            got = window_loss_integral(np.array(B), t, ta, tb)
            assert abs(got - ref) <= 4.0 * eps * (1.0 + abs(B) * t) * d * t
    for lo, hi in ((0.0, 2 * t), (-1.0, 9.0), (0.3, 0.9), (0.0, 0.5),
                   (0.9, 1.4), (0.5, 0.3)):
        for b1 in sign * w / t:
            for b2 in (b1, b1 + 3.0 / t, b1 - 40.0 / t):
                got = strip_gain_integral(np.array(b1), np.array(b2), t,
                                          np.array(lo), np.array(hi))
                bound = 4.0 * eps * (1.0 + (abs(b1) + abs(b2)) * t) * t * t
                assert abs(got - _mp_strip(b1, b2, t, lo, hi)) <= bound, (b1, b2, lo, hi)


@pytest.mark.parametrize("gamma_t", (0.0, 1e-8, 2e-6, 2e-5, 1e-4, 1e-3, 0.1, 1.0))
def test_strip_integral_stable_in_gamma(gamma_t):
    """strip_gain_integral against 40-digit values at small and large
    |gamma| t = |b1 - b2| t, both signs, for bbar t = (b1 + b2) t / 2 from 0
    to 40, both signs, on full, clipped (one or both halves of [0, 2t], and
    a 1e-7-thin one) and empty strips: within 1e-12 of the value, and an
    empty strip exactly 0.  A divided difference in gamma cancels for small
    nonzero gamma t (3e-9 relative at gamma t = 2e-5 in an earlier form)."""
    t = 0.7
    full = ((0.0, 2 * t), (-1.0, 9.0))
    clipped = ((0.3, 0.9), (0.0, 0.5), (0.9, 1.4), (0.2, 0.2 + 1e-7), (1.3, 9.0))
    empty = ((0.5, 0.3), (2 * t, 3 * t), (-1.0, 0.0))
    bbar_t = np.concatenate([[0.0], np.logspace(-6, np.log10(40.0), 13)])
    for bbar in np.concatenate([bbar_t, -bbar_t[1:]]) / t:
        for gamma in {gamma_t / t, -gamma_t / t}:
            b1, b2 = bbar + 0.5 * gamma, bbar - 0.5 * gamma
            for lo, hi in full + clipped + empty:
                got = complex(strip_gain_integral(np.array(b1), np.array(b2), t,
                                                  np.array(lo), np.array(hi)))
                if (lo, hi) in empty:
                    assert got == 0.0
                    continue
                ref = complex(_mp_strip(b1, b2, t, lo, hi))
                assert abs(got - ref) <= 1e-12 * abs(ref), (b1, b2, lo, hi)


# ---------------------------------------------------------------------------
# mode representations
# ---------------------------------------------------------------------------

def test_grid_modes_reproduce_interpolant(gauss_spec):
    grid = balanced_grid(gauss_spec, 32)
    w0 = make_initial_wigner(gauss_spec, grid, boundary_tol=1e-6)
    modes = modes_from_grid(w0)
    rng = np.random.default_rng(9)
    for _ in range(5):
        X, Q = rng.uniform(-2, 2), rng.uniform(-1.5, 1.5)
        val = np.real(np.sum(modes.coef * np.exp(
            1j * (modes.u[:, 0][:, None] * X + modes.s[:, 0][None, :] * Q))))
        assert val == pytest.approx(
            float(wigner_closed(gauss_spec, np.array(X), np.array(Q))), abs=1e-9)


def test_closed_modes_reproduce_state(cat_spec):
    modes = modes_from_closed(cat_spec, balanced_grid(cat_spec, 32).dp)
    rng = np.random.default_rng(10)
    for _ in range(5):
        X, Q = rng.uniform(-4, 4), rng.uniform(-1.5, 1.5)
        val = np.real(np.sum(modes.coef * np.exp(
            1j * (modes.u[:, 0][:, None] * X + modes.s[:, 0][None, :] * Q))))
        assert val == pytest.approx(
            float(wigner_closed(cat_spec, np.array(X), np.array(Q))), abs=1e-12)


@pytest.mark.parametrize("n_x", (16, 32, 64))
def test_closed_period_aligned_to_the_momentum_lattice(cat_spec, gauss_spec, n_x):
    """The closed period is no shorter than the unrounded 2 (r_x + pad sigma)
    and puts every u_j/2 on the lattice dp/R, R = l_x dp/pi; the modes still
    reproduce the state, and the diagrams' q lattice accepts them."""
    rng = np.random.default_rng(11)
    for spec in (gauss_spec, cat_spec):
        grid = balanced_grid(spec, n_x)
        for reach in (None, 7.3):
            aligned = modes_from_closed(spec, grid.dp, x_reach=reach)
            sep = np.zeros(spec.d)
            sep[0] = spec.separation
            r_x = evolution.CLOSED_DECAY * spec.sigma + np.abs(sep) / 2.0
            if reach is not None:
                r_x = np.maximum(r_x, reach)
            l_unrounded = 2.0 * (r_x + evolution.CLOSED_PAD * spec.sigma)
            l_x = np.diff(aligned.x_box, axis=-1)[:, 0]
            assert np.all(l_x >= l_unrounded)
            ratio = l_x * grid.dp / np.pi
            assert np.allclose(ratio, np.rint(ratio), rtol=0.0, atol=1e-9)
            on_lattice = 0.5 * aligned.u * np.rint(ratio) / grid.dp
            assert np.allclose(on_lattice, np.rint(on_lattice), rtol=0.0, atol=1e-9)
            for _ in range(5):
                X, Q = rng.uniform(-4, 4), rng.uniform(-1.5, 1.5)
                val = np.real(np.sum(aligned.coef * np.exp(
                    1j * (aligned.u[:, 0][:, None] * X + aligned.s[:, 0][None, :] * Q))))
                assert val == pytest.approx(
                    float(wigner_closed(spec, np.array(X), np.array(Q))), abs=1e-12)
            P = grid.p_nodes[:, None]
            q, iqp, iqm = _q_lattice(aligned, P, grid.dp)
            assert np.allclose(q[iqp], P[None] + 0.5 * aligned.u[:, None], rtol=0, atol=1e-12)
            assert np.allclose(q[iqm], P[None] - 0.5 * aligned.u[:, None], rtol=0, atol=1e-12)
            assert len(q) < iqp.size
    grid = balanced_grid(cat_spec, 32)
    aligned = modes_from_closed(cat_spec, grid.dp, x_reach=7.3)
    off = dataclasses.replace(aligned, u=aligned.u * np.sqrt(2.0))
    with pytest.raises(ValueError, match="momentum lattice"):
        _q_lattice(off, grid.p_nodes[:, None], grid.dp)


# ---------------------------------------------------------------------------
# zeroth order
# ---------------------------------------------------------------------------

def test_zeroth_identity_at_t0(w0_64, params_ref):
    z = evolve_zeroth(w0_64, params_ref, 0.0)
    assert np.array_equal(z.values, w0_64.values)


def test_zeroth_is_analytic_shear(gauss_spec, w0_64, grid64, params_ref):
    t = 0.8
    z = evolve_zeroth(w0_64, params_ref, t)
    x = grid64.x_nodes
    p = grid64.p_nodes
    ref = wigner_closed(gauss_spec, x[:, None] - p[None, :] * t / params_ref.m_s,
                        p[None, :] + 0.0 * x[:, None])
    assert np.max(np.abs(z.values - ref)) < 1e-10


def test_zeroth_moments_and_norm(w0_64, params_ref):
    o0 = observables(w0_64)
    for t in (0.5, 1.0, 2.0):
        z = evolve_zeroth(w0_64, params_ref, t)
        oz = observables(z)
        expected = o0.var_x + t**2 * o0.var_p / params_ref.m_s**2
        assert oz.var_x == pytest.approx(expected, rel=1e-8)
        assert z.norm() == pytest.approx(w0_64.norm(), abs=1e-12)


def test_zeroth_composition(w0_64, params_ref):
    z12 = evolve_zeroth(evolve_zeroth(w0_64, params_ref, 0.7), params_ref, 0.8)
    z3 = evolve_zeroth(w0_64, params_ref, 1.5)
    assert np.max(np.abs(z12.values - z3.values)) < 1e-10


def test_zeroth_support_rejection(gauss_spec, params_ref):
    grid = balanced_grid(gauss_spec, 16)
    w0 = make_initial_wigner(gauss_spec, grid, boundary_tol=1e-4)
    with pytest.raises(ValueError, match="support leaves the box"):
        evolve_zeroth(w0, params_ref, 8.0)


# ---------------------------------------------------------------------------
# diagram properties
# ---------------------------------------------------------------------------

def test_diagrams_vanish_at_t0(tiny_instance):
    for fn in (diagram_gain, diagram_loss_left, diagram_loss_right):
        arr = fn(tiny_instance["w0"], tiny_instance["params"], 0.0,
                 tiny_instance["quad"])
        assert np.all(arr == 0.0)


def test_small_time_quadratic_scaling(tiny_instance):
    """Each term grows like t^2 while t << t_uv, the inverse of the largest
    frequency at the cutoff; beyond t_uv the loss kernel Int (t - tau)
    e^{iB tau} dtau also carries the O(t) one-loop energy shift."""
    w0, params, quad = (tiny_instance[k] for k in ("w0", "params", "quad"))
    cell = tiny_instance["grid"].cell_volume
    lam = quad.resolved_k_max(params)
    t_uv = 1.0 / (lam**2 / (2.0 * params.m_s) + lam)
    for fn in (diagram_gain, diagram_loss_left):
        norms = [np.abs(fn(w0, params, t, quad, backend="closed")).sum() * cell
                 for t in (0.1 * t_uv, 0.2 * t_uv, 0.4 * t_uv)]
        r1 = norms[1] / norms[0]
        r2 = norms[2] / norms[1]
        assert r1 == pytest.approx(4.0, rel=0.05)
        assert r2 == pytest.approx(4.0, rel=0.05)


def _direct_core(term, modes, grid, params, t, quad):
    """The term from its kernels on the whole (M, N_p, K) tensor, d = 1: the
    reference of `test_diagram_core_matches_direct_evaluation`.

    Every (j, p, k) element takes its own phase: E0(b1) E0(b2) for the gain
    and F(+-B) for a loss.  A (p, k) column in which some x leaves the box
    takes the windowed integral at every x instead.  No table, chunk,
    gather or element list.  Returns the term and the numbers of masked
    columns, of mixed columns (clipped and full elements in one column) and
    of empty windows.
    """
    m = params.m_s
    x, p = grid.x_nodes, grid.p_nodes
    u = modes.u[:, 0]
    k, wk, _ = evolution._k_nodes(params, quad, t, modes.u_max,
                                  float(np.max(np.abs(p))))
    omega = np.sqrt(np.sum(k**2, axis=-1) + params.m_e**2)
    dom_hi = 2.0 * t if term == "gain" else t
    slopes = (-1.0 if term == "gain" else 1.0) * k / (2.0 * m)
    xt = (x[:, None] - p[None, :] * (t / m))[..., None]
    w_lo, w_hi = evolution._windows(xt, slopes, modes.x_box, dom_hi)   # (Nx, Np, K)
    clipped = (w_lo > 0.0) | (w_hi < dom_hi)                           # (Nx, Np, K)
    full = ~clipped.any(axis=0)                                         # (Np, K)
    k = k[:, 0]
    pk = p[:, None] * k[None, :] / m                                   # (Np, K)
    kk = k**2 / (2.0 * m)
    uk = u[:, None, None] * k / (2.0 * m)                              # (M, 1, K)
    q = p[:, None] + (k[None, :] if term == "gain" else 0.0)
    inside = (q >= modes.q_box[0, 0]) & (q <= modes.q_box[0, 1])
    gq = np.einsum("jl,lpk->jpk", modes.coef,
                   np.exp(1j * modes.s[:, 0][:, None, None] * q[None])) * inside
    total = np.zeros((x.size, p.size), dtype=complex)
    for sgn, wgt in evolution._thermal_branches(omega, params):
        meas = wk * wgt / (2.0 * np.pi * 2.0 * omega)
        if term == "gain":
            b1 = -(pk + kk - sgn * omega) - uk
            b2 = (pk + kk - sgn * omega) - uk
            kern = np.where(full, _e0(b1, t) * _e0(b2, t), 0.0)[:, None]
            windowed = lambda: strip_gain_integral(b1[:, None], b2[:, None], t,
                                                   w_lo, w_hi)
        else:
            bb = pk - kk - sgn * omega
            bb = (bb if term == "loss_left" else -bb) + uk
            kern = np.where(full, _f(bb, t), 0.0)[:, None]
            windowed = lambda: window_loss_integral(bb[:, None], t, w_lo, w_hi)
        if not full.all():
            kern = kern + np.where(full, 0.0, windowed())              # (M, Nx, Np, K)
        total += np.einsum("jx,jp,jxpk,jpk,k->xp", np.exp(1j * u[:, None] * x),
                           np.exp(-1j * u[:, None] * p * (t / m)), kern, gq, meas)
    mixed = clipped.any(axis=0) & ~clipped.all(axis=0)
    return total, int(np.sum(~full.all(axis=0))), int(mixed.sum()), int(np.sum(w_lo >= w_hi))


@pytest.mark.parametrize("backend", ("closed", "grid"))
@pytest.mark.parametrize("term", ("gain", "loss_left", "loss_right"))
def test_diagram_core_matches_direct_evaluation(gauss_spec, backend, term):
    """The tabulated, gathered and once-projected terms equal the direct
    (M, N_p, K) evaluation of their kernels within 1e-12 relative, on the
    closed backend (no masked column) and on the grid backend, where some
    columns are masked at this t; the thermal bath adds the second branch.
    The grid case has columns that hold clipped and full elements and empty
    windows, so the element lists, the full-window subtraction and the
    scatter to (x, p) are all exercised."""
    grid = balanced_grid(gauss_spec, 16)
    w0 = make_initial_wigner(gauss_spec, grid, boundary_tol=1e-4)
    quad = QuadratureSpec(n_k=16, k_max=8.0)
    t = 0.7
    for params in (ModelParams(d=1, m_s=1.3, m_e=0.7, g=0.1, lambda_uv=8.0),
                   ModelParams(d=1, m_s=1.0, m_e=1.0, g=0.1, lambda_uv=8.0, t_env=0.7)):
        modes = _resolve_modes(w0, params, t, quad, backend)
        got, _ = _diagram_core(term, modes, grid, params, t, quad)
        ref, masked, mixed, empty = _direct_core(term, modes, grid, params, t, quad)
        assert (masked > 0) == (backend == "grid")
        assert (mixed > 0 and empty > 0) == (backend == "grid")
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


@pytest.mark.parametrize("case", ("cat-closed", "cat-grid", "noisy-grid"))
def test_diagram_core_matches_direct_evaluation_above_rank_one(gauss_spec, case):
    """The gain through the rank factors of the mode coefficients, and a
    loss, equal the direct evaluation within 1e-12 relative when the
    coefficients have rank > 1: a cat on either backend (rank 2: its
    interference atoms share one position factor), and a Gaussian plus unit
    noise on the grid, whose 17 x 17 coefficients have rank 16 (the split
    Nyquist row pair is one mode)."""
    kind, backend = case.split("-")
    spec = (InitialStateSpec(kind="cat", x0=(0.0,), p0=(0.0,), sigma=1.0,
                             separation=2.0, phase=0.7) if kind == "cat" else gauss_spec)
    grid = balanced_grid(spec, 16)
    w0 = make_initial_wigner(spec, grid, boundary_tol=1e-3)
    if kind == "noisy":
        noise = np.random.default_rng(0).standard_normal(w0.values.shape)
        w0 = dataclasses.replace(w0, values=w0.values + noise, normalized=False,
                                 source=None)
    quad = QuadratureSpec(n_k=16, k_max=8.0)
    t = 0.7
    for params in (ModelParams(d=1, m_s=1.3, m_e=0.7, g=0.1, lambda_uv=8.0),
                   ModelParams(d=1, m_s=1.0, m_e=1.0, g=0.1, lambda_uv=8.0, t_env=0.7)):
        modes = _resolve_modes(w0, params, t, quad, backend)
        rank = _rank_factors(modes.coef)[1].shape[0]
        assert rank == (modes.coef.shape[0] - 1 if kind == "noisy" else 2)
        for term in ("gain", "loss_left"):
            got, _ = _diagram_core(term, modes, grid, params, t, quad)
            ref, masked, _, _ = _direct_core(term, modes, grid, params, t, quad)
            assert (masked > 0) == (backend == "grid")
            assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_rank_factors(gauss_spec, cat_spec):
    """coef = A B within numpy's matrix_rank tolerance sigma_1 max(M, L) eps
    (spectral norm), at that rank: 1 for a closed Gaussian, at most 4 (one
    per atom) for a closed cat, full for random coefficients, and 0 for a
    zero state, whose gain is then zero."""
    def check(coef):
        a_fac, b_fac = _rank_factors(coef)
        tol = np.linalg.norm(coef, 2) * max(coef.shape) * np.finfo(float).eps
        assert a_fac.shape == (coef.shape[0], b_fac.shape[0])
        assert b_fac.shape == (a_fac.shape[1], coef.shape[1])
        assert np.linalg.norm(a_fac @ b_fac - coef, 2) <= tol
        assert b_fac.shape[0] == np.linalg.matrix_rank(coef)
        return b_fac.shape[0]

    assert check(modes_from_closed(gauss_spec, 0.2, x_reach=6.0).coef) == 1
    assert 1 < check(modes_from_closed(cat_spec, 0.2, x_reach=6.0).coef) <= 4
    rng = np.random.default_rng(2)
    assert check(rng.standard_normal((9, 7)) + 1j * rng.standard_normal((9, 7))) == 7
    grid = balanced_grid(gauss_spec, 16)
    zero = WignerFunction(grid=grid, t=0.0, values=np.zeros(grid.value_shape()))
    params = ModelParams(d=1, m_s=1.0, m_e=1.0, g=0.1, lambda_uv=8.0)
    quad = QuadratureSpec(n_k=16, k_max=8.0)
    modes = _resolve_modes(zero, params, 0.7, quad, "grid")
    assert check(modes.coef) == 0
    assert not np.any(_diagram_core("gain", modes, grid, params, 0.7, quad)[0])


def test_loss_mirror_identity(gentle_instance):
    w0, params, t, quad = (gentle_instance[k] for k in
                           ("w0", "params", "t", "quad"))
    for backend in ("grid", "closed"):
        ll, _ = _diagram_with_report("loss_left", w0, params, t, quad, backend)
        lr, _ = _diagram_with_report("loss_right", w0, params, t, quad, backend)
        scale = np.max(np.abs(ll))
        assert np.max(np.abs(ll - np.conj(lr))) < 1e-12 * max(scale, 1.0)


def test_gain_is_real(gentle_instance):
    w0, params, t, quad = (gentle_instance[k] for k in
                           ("w0", "params", "t", "quad"))
    g, rep = _diagram_with_report("gain", w0, params, t, quad, "grid")
    assert rep["max_imag"] < 1e-12 * np.max(np.abs(g.real))


def test_backends_agree_when_wrap_free(gentle_instance):
    w0, params, t, quad = (gentle_instance[k] for k in
                           ("w0", "params", "t", "quad"))
    for term in ("gain", "loss_left"):
        vc, _ = _diagram_with_report(term, w0, params, t, quad, "closed")
        vg, _ = _diagram_with_report(term, w0, params, t, quad, "grid")
        assert np.max(np.abs(vc - vg)) < 1e-9 * np.max(np.abs(vc))


def test_quadrature_convergence_report(gentle_instance):
    """Doubling n_k changes each term by less than its error estimate."""
    w0, params, t = (gentle_instance[k] for k in ("w0", "params", "t"))
    base = QuadratureSpec(n_k=24, k_max=6.0, rel_tol=1e-4)
    fine = QuadratureSpec(n_k=48, k_max=6.0, rel_tol=1e-4)
    cell = gentle_instance["grid"].cell_volume
    for term in ("gain", "loss_left", "loss_right"):
        v1, rep = _diagram_with_report(term, w0, params, t, base, "grid")
        v2, _ = _diagram_with_report(term, w0, params, t, fine, "grid")
        change = float(np.sum(np.abs(v1 - v2)) * cell)
        assert rep["converged"]
        assert change <= max(rep["err_est"], 1e-14)


def test_error_estimate_below_the_panel_floor(tiny_instance):
    """At t = 0.01 the full run sits on the 2-panel floor; the half-panel
    estimate must still come from fewer panels, so it is nonzero and bounds
    the change that doubling n_k makes."""
    w0, params, quad = (tiny_instance[k] for k in ("w0", "params", "quad"))
    fine = QuadratureSpec(n_k=2 * quad.n_k, k_max=quad.k_max,
                          rel_tol=quad.rel_tol)
    cell = tiny_instance["grid"].cell_volume
    t = 0.01
    for term in ("gain", "loss_left", "loss_right"):
        v1, rep = _diagram_with_report(term, w0, params, t, quad)
        v2, _ = _diagram_with_report(term, w0, params, t, fine)
        change = float(np.sum(np.abs(v1 - v2)) * cell)
        assert rep["panels"] == 2
        assert rep["rel_err_est"] > 0.0
        assert change <= rep["err_est"]


@pytest.mark.parametrize("d", (1, 2, 3))
def test_full_columns_from_the_extreme_x_nodes(d):
    """A (p, k) column is full (every x stays in the box for the whole
    window) exactly when the first and last x nodes of the product grid do,
    so the diagram builds windows for the other columns only."""
    rng = np.random.default_rng(3)
    x = np.sort(rng.uniform(-3.0, 3.0, 5))
    X = np.stack([g.ravel() for g in np.meshgrid(*([x] * d), indexing="ij")], -1)
    xt = X[:, None, :] - rng.uniform(-2.0, 2.0, (7, d))[None] * 0.3
    slopes = rng.normal(size=(11, d))
    slopes[0] = 0.0
    box = np.array([[-3.5, 3.2]] * d)

    def full(rows):
        lo, hi = evolution._windows(rows, slopes, box, 1.0)
        return ((lo <= 0.0) & (hi >= 1.0)).all(axis=0)

    every_x = full(xt)
    assert 0 < every_x.sum() < every_x.size
    assert np.array_equal(full(xt[[0, -1]]), every_x)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_clipped_elements_match_every_window(data):
    """`_clipped` decides from the first and last x rows which (p, k) columns
    are full; no element of such a column is clipped, and its element list
    is exactly the elements whose own window is clipped, sorted by (x, p),
    with the same windows.  Random boxes, slopes (0 and both signs) and
    balanced grids, d = 1 and d = 3."""
    d = data.draw(st.sampled_from((1, 3)))
    n = data.draw(st.sampled_from((8, 10, 12)))
    spec = InitialStateSpec(kind="gaussian", x0=(data.draw(st.floats(-1.0, 1.0)),) * d,
                            p0=(0.0,) * d, sigma=1.0)
    grid = balanced_grid(spec, n, scale=data.draw(st.floats(0.5, 2.0)))
    # in d = 3, a product grid of 2 or 3 of the grid's nodes per axis
    nodes = st.sets(st.integers(0, n - 1), min_size=2, max_size=3 if d == 3 else n)
    x_nodes, p_nodes = (v[sorted(data.draw(nodes))] if d == 3 else v
                        for v in (grid.x_nodes, grid.p_nodes))
    X = evolution._tensor_points([x_nodes] * d)
    P = evolution._tensor_points([p_nodes] * d)
    t = data.draw(st.floats(0.05, 2.0))
    xt = X[:, None, :] - P[None, :, :] * t
    dom_hi = data.draw(st.sampled_from((t, 2.0 * t)))
    component = st.one_of(st.just(0.0), st.floats(-3.0, 3.0))
    slopes = np.array(data.draw(st.lists(st.lists(component, min_size=d, max_size=d),
                                         min_size=1, max_size=4)))
    reach = float(np.max(np.abs(xt)))
    edges = st.floats(-1.5 * reach, 1.5 * reach)
    box = np.array([sorted(data.draw(st.tuples(edges, edges))) for _ in range(d)])

    ix, ip, ik, w_lo, w_hi = evolution._clipped(xt, slopes, box, dom_hi)
    e_lo, e_hi = evolution._windows(xt[[0, -1]], slopes, box, dom_hi)
    full_col = ((e_lo <= 0.0) & (e_hi >= dom_hi)).all(axis=0)        # (Np, K)
    every = {}
    for e in np.ndindex(X.shape[0], P.shape[0], slopes.shape[0]):
        lo, hi = evolution._windows(xt[e[0]:e[0] + 1, e[1]:e[1] + 1], slopes[e[2]:e[2] + 1],
                                    box, dom_hi)
        if lo.item() > 0.0 or hi.item() < dom_hi:
            assert not full_col[e[1], e[2]]
            every[e] = (lo.item(), hi.item())
    got = {(a, b, c): (lo, hi) for a, b, c, lo, hi in zip(ix, ip, ik, w_lo, w_hi)}
    assert got == every
    assert np.all(np.diff(ix * P.shape[0] + ip) >= 0)


@pytest.mark.parametrize("term", ("gain", "loss_left"))
def test_chunk_budget_does_not_change_the_terms(gauss_spec, monkeypatch, term):
    """A budget small enough for one k node per chunk and a few clipped
    elements per slice gives the default-budget term within 1e-14 relative
    on the grid backend (thermal bath: both branches), and every windowed
    kernel call keeps its (M, E) elements within the budget."""
    grid = balanced_grid(gauss_spec, 16)
    w0 = make_initial_wigner(gauss_spec, grid, boundary_tol=1e-4)
    params = ModelParams(d=1, m_s=1.0, m_e=1.0, g=0.1, lambda_uv=8.0, t_env=0.7)
    quad = QuadratureSpec(n_k=16, k_max=8.0)
    t = 0.7
    modes = _resolve_modes(w0, params, t, quad, "grid")
    ref, _ = _diagram_core(term, modes, grid, params, t, quad)
    budget = 1 << 16
    sizes = []
    name = "strip_gain_integral" if term == "gain" else "window_loss_integral"
    kernel = getattr(evolution, name)

    def counted(*args):
        out = kernel(*args)
        sizes.append(out.size)
        return out

    monkeypatch.setattr(evolution, name, counted)
    monkeypatch.setattr(evolution, "_CHUNK_BYTES", budget)
    got, _ = _diagram_core(term, modes, grid, params, t, quad)
    k_nodes = evolution._k_nodes(params, quad, t, modes.u_max,
                                 float(np.max(np.abs(grid.p_nodes))))[0].shape[0]
    assert len(sizes) > 2 * k_nodes
    assert max(sizes) * 16 * 24 <= budget
    assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))


def test_trace_chunks_do_not_change_the_trace(gentle_instance, monkeypatch):
    """One transfer node per chunk and one chunk per panel count agree."""
    w0, t, quad = (gentle_instance[k] for k in ("w0", "t", "quad"))
    params = ModelParams(d=1, m_s=1.0, m_e=1.0, g=0.1, lambda_uv=6.0, t_env=0.7)
    modes = _resolve_modes(w0, params, t, quad, "auto")
    for term in ("gain", "loss_left", "loss_right"):
        vals = []
        for budget in (1, 1 << 62):
            monkeypatch.setattr(evolution, "_TRACE_BYTES", budget)
            vals.append(_term_trace(term, modes, params, t, quad))
        assert abs(vals[0] - vals[1]) <= 1e-14 * abs(vals[1])


# ---------------------------------------------------------------------------
# assembled evolution
# ---------------------------------------------------------------------------

def test_evolve_g_zero_is_free_streaming(w0_64, params_ref):
    params = ModelParams(d=1, m_s=1.0, m_e=1.0, g=0.0, lambda_uv=8.0)
    quad = QuadratureSpec(n_k=16, k_max=8.0)
    res = evolve(w0_64, params, 0.7, quad)
    z = evolve_zeroth(w0_64, params, 0.7)
    assert np.array_equal(res.w_total.values, z.values)


def test_evolve_t_zero_is_identity(w0_64, params_ref):
    res = evolve(w0_64, params_ref, 0.0, QuadratureSpec(n_k=16, k_max=8.0))
    assert np.array_equal(res.w_total.values, w0_64.values)


def test_coupling_scaling(gentle_instance):
    """The assembled correction scales as g^2 with the kernel fixed."""
    w0, t, quad = (gentle_instance[k] for k in ("w0", "t", "quad"))
    p1 = ModelParams(d=1, m_s=1.0, m_e=1.0, g=0.1, lambda_uv=6.0)
    p2 = ModelParams(d=1, m_s=1.0, m_e=1.0, g=0.3, lambda_uv=6.0)
    r1 = evolve(w0, p1, t, quad)
    r2 = evolve(w0, p2, t, quad)
    corr1 = r1.w_total.values - r1.w_zeroth.values
    corr2 = r2.w_total.values - r2.w_zeroth.values
    assert np.max(np.abs(corr2 - 9.0 * corr1)) < 1e-12 * np.max(np.abs(corr2))
    assert np.array_equal(r1.w_gain, r2.w_gain)


def test_evolve_diagnostics(gentle_instance):
    w0, params, t, quad = (gentle_instance[k] for k in
                           ("w0", "params", "t", "quad"))
    res = evolve(w0, params, t, quad, workers=2)
    d = res.diagnostics
    assert abs(d["trace_defect_g2"]) <= max(1e-4 * d["gain_l1"], 1e-12)
    assert d["max_imag_residue"] < 1e-10
    assert d["hermiticity_defect"] < 1e-10
    assert not d["non_perturbative"]
    assert not d["quadrature_failed"]
    expected = res.w_zeroth.values + params.g**2 * (
        res.w_gain - res.w_loss_left - res.w_loss_right)
    assert np.array_equal(res.w_total.values, expected)


@pytest.mark.parametrize("backend", ("auto", "grid"))
def test_evolve_loss_right_matches_independent_term(gentle_instance, backend):
    """evolve takes loss_right as conj(loss_left); the independent sign path
    of the diagram evaluator gives the same term and the same report."""
    w0, params, t, quad = (gentle_instance[k] for k in
                           ("w0", "params", "t", "quad"))
    res = evolve(w0, params, t, quad, backend=backend)
    lr, rep = _diagram_with_report("loss_right", w0, params, t, quad, backend)
    assert np.max(np.abs(res.w_loss_right - lr.real)) <= 1e-12 * np.max(np.abs(lr))
    copied = res.diagnostics["quadrature_report"]["loss_right"]
    assert copied["term"] == "loss_right"
    assert copied["panels"] == rep["panels"]
    assert copied["err_est"] == pytest.approx(rep["err_est"], rel=1e-6, abs=1e-15)


def test_workers_bit_identical(gentle_instance):
    w0, params, t, quad = (gentle_instance[k] for k in
                           ("w0", "params", "t", "quad"))
    r1 = evolve(w0, params, t, quad, workers=1)
    r3 = evolve(w0, params, t, quad, workers=3)
    assert np.array_equal(r1.w_total.values, r3.w_total.values)


def test_thermal_branches_run(gentle_instance):
    w0, t, quad = (gentle_instance[k] for k in ("w0", "t", "quad"))
    warm = ModelParams(d=1, m_s=1.0, m_e=1.0, g=0.1, lambda_uv=6.0, t_env=0.7)
    cold = ModelParams(d=1, m_s=1.0, m_e=1.0, g=0.1, lambda_uv=6.0)
    r_warm = evolve(w0, warm, t, quad)
    r_cold = evolve(w0, cold, t, quad)
    # a warm bath scatters more
    warm_l1 = np.abs(r_warm.w_gain).sum()
    cold_l1 = np.abs(r_cold.w_gain).sum()
    assert warm_l1 > cold_l1
    assert r_warm.diagnostics["max_imag_residue"] < 1e-10
    assert abs(r_warm.diagnostics["trace_defect_g2"]) <= \
        max(1e-4 * r_warm.diagnostics["gain_l1"], 1e-12)
