import dataclasses

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wignerbath import (InitialStateSpec, ModelParams, QuadratureSpec,
                        make_initial_wigner, evolve, evolve_zeroth)
from wignerbath.states import balanced_grid, density_closed, wigner_closed
from wignerbath.propagators import bose_occupation, gauss_panels
from wignerbath.wigner import WignerFunction, observables
from wignerbath import evolution, propagators
from wignerbath.evolution import (seg_e0, seg_e1,
                                  strip_gain_integral, window_loss_integral,
                                  modes_from_grid, modes_from_closed, zeroth_closed,
                                  _diagram_core, _e0, _f, _expm1i, _q_lattice,
                                  _rank_factors, _resolve_modes, _second_order,
                                  _tensor_points)


def _input(w0, path):
    """w0 as the fast path takes it on the closed path (backend "auto") or
    the grid path (backend "grid", which drops the closed form)."""
    return evolution._fast_input(w0, "grid" if path == "grid" else "auto")


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
    """The closed period is no shorter than the unrounded one-sided
    r_x + r_sup + 2 pad sigma and puts every u_j/2 on the lattice dp/R,
    R = l_x dp/pi; the modes still reproduce the state, and the diagrams'
    q lattice accepts them."""
    rng = np.random.default_rng(11)
    for spec in (gauss_spec, cat_spec):
        grid = balanced_grid(spec, n_x)
        for reach in (None, 7.3):
            aligned = modes_from_closed(spec, grid.dp, x_reach=reach)
            sep = np.zeros(spec.d)
            sep[0] = spec.separation
            r_sup = evolution.CLOSED_DECAY * spec.sigma + np.abs(sep) / 2.0
            r_x = r_sup if reach is None else np.maximum(r_sup, reach)
            l_unrounded = r_x + r_sup + 2.0 * evolution.CLOSED_PAD * spec.sigma
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
    terms = _second_order(tiny_instance["w0"], tiny_instance["params"], 0.0,
                          tiny_instance["quad"])
    assert set(terms) == {"gain", "loss_left", "loss_right"}
    for arr, _ in terms.values():
        assert np.all(arr == 0.0)


def test_small_time_quadratic_scaling(tiny_instance):
    """Each term grows like t^2 while t << t_uv, the inverse of the largest
    frequency at the cutoff; beyond t_uv the loss kernel Int (t - tau)
    e^{iB tau} dtau also carries the O(t) one-loop energy shift."""
    w0, params, quad = (tiny_instance[k] for k in ("w0", "params", "quad"))
    cell = tiny_instance["grid"].cell_volume
    lam = quad.resolved_k_max(params)
    t_uv = 1.0 / (lam**2 / (2.0 * params.m_s) + lam)
    grid = tiny_instance["grid"]
    for term in ("gain", "loss_left"):
        norms = [np.abs(_core_on_grid(term, _resolve_modes(w0, params, t, quad), grid,
                                      params, t, quad).real).sum() * cell
                 for t in (0.1 * t_uv, 0.2 * t_uv, 0.4 * t_uv)]
        r1 = norms[1] / norms[0]
        r2 = norms[2] / norms[1]
        assert r1 == pytest.approx(4.0, rel=0.05)
        assert r2 == pytest.approx(4.0, rel=0.05)


def _core_on_grid(term, modes, grid, params, t, quad):
    """`_diagram_core` at the grid's nodes by the full k rule of the grid, as
    `_second_order` takes it, in the grid's value shape."""
    X, P = (_tensor_points([v] * grid.d) for v in (grid.x_nodes, grid.p_nodes))
    k, wk, _ = evolution._k_nodes(params, quad, t, modes.u_max,
                                  float(np.max(np.abs(grid.p_nodes))))
    return _diagram_core(term, modes, X, P, grid.dp, params, t, k, wk).reshape(
        grid.value_shape())


def _support_half_width(w0):
    """How far an evaluated position must stay from an image centre x0 +- L
    of the mode period: CLOSED_DECAY sigma + |separation|/2 for a
    closed-form state, the box half-width for gridded input."""
    if isinstance(w0.source, InitialStateSpec):
        return evolution.CLOSED_DECAY * w0.source.sigma + abs(w0.source.separation) / 2.0
    return 0.5 * w0.grid.n_x * w0.grid.dx


def _direct_core(term, modes, grid, params, t, quad, support):
    """The term from its full-window kernels on the whole (M, N_p, K)
    tensor, d = 1: the reference of `test_diagram_core_matches_direct_evaluation`.

    Every (j, p, k) element takes its own phase: E0(b1) E0(b2) for the gain
    and F(+-B) for a loss.  No table, chunk or gather.  Returns the term and
    the numbers of (p, k) columns in which some x would see an image of the
    period (an end of its window, x - p t/m + slope s at s = 0 or the window
    length, within `support` of x0 +- L), of mixed columns (such elements
    and clear ones in one column) and of elements whose whole window would.
    """
    m = params.m_s
    x, p = grid.x_nodes, grid.p_nodes
    u = modes.u[:, 0]
    k, wk, _ = evolution._k_nodes(params, quad, t, modes.u_max,
                                  float(np.max(np.abs(p))))
    omega = np.sqrt(np.sum(k**2, axis=-1) + params.m_e**2)
    dom_hi = 2.0 * t if term == "gain" else t
    slopes = (-1.0 if term == "gain" else 1.0) * k[:, 0] / (2.0 * m)
    centre, period = np.mean(modes.x_box[0]), np.diff(modes.x_box[0])[0]
    ends = [x[:, None, None] - p[None, :, None] * (t / m) + slopes * s - centre
            for s in (0.0, dom_hi)]                                     # (Nx, Np, K)
    clear = period - support
    hi0, hi1 = (end > clear for end in ends)
    lo0, lo1 = (end < -clear for end in ends)
    seen = hi0 | hi1 | lo0 | lo1
    masked = seen.any(axis=0)
    mixed = masked & ~seen.all(axis=0)
    empty = (hi0 & hi1) | (lo0 & lo1)
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
            kern = _e0(b1, t) * _e0(b2, t)
        else:
            bb = pk - kk - sgn * omega
            kern = _f((bb if term == "loss_left" else -bb) + uk, t)
        total += np.einsum("jx,jp,jpk,jpk,k->xp", np.exp(1j * u[:, None] * x),
                           np.exp(-1j * u[:, None] * p * (t / m)), kern, gq, meas)
    return total, int(masked.sum()), int(mixed.sum()), int(empty.sum())


@pytest.mark.parametrize("backend", ("closed", "grid"))
@pytest.mark.parametrize("term", ("gain", "loss_left", "loss_right"))
def test_diagram_core_matches_direct_evaluation(gauss_spec, backend, term):
    """The tabulated, gathered and once-projected terms equal the direct
    (M, N_p, K) evaluation of their kernels within 1e-12 relative, on the
    closed path and on the grid path, and on both no element sees an image
    of the mode period: no masked or mixed column and no empty window.  The
    thermal bath adds the second branch.  loss_right is `_second_order`'s
    conj(loss_left), checked against the direct evaluation's own sign path
    (B~ = -p.k/m + k^2/2m + w_k + u_j.k/2m): the mirror identity."""
    grid = balanced_grid(gauss_spec, 16)
    w0 = _input(make_initial_wigner(gauss_spec, grid, boundary_tol=1e-4), backend)
    quad = QuadratureSpec(n_k=16, k_max=8.0)
    t = 0.7
    for params in (ModelParams(d=1, m_s=1.3, m_e=0.7, g=0.1, lambda_uv=8.0),
                   ModelParams(d=1, m_s=1.0, m_e=1.0, g=0.1, lambda_uv=8.0, t_env=0.7)):
        modes = _resolve_modes(w0, params, t, quad)
        if term == "loss_right":
            got = _second_order(w0, params, t, quad)[term][0]
        else:
            got = _core_on_grid(term, modes, grid, params, t, quad)
        ref, masked, mixed, empty = _direct_core(term, modes, grid, params, t, quad,
                                                 _support_half_width(w0))
        assert masked == mixed == empty == 0
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


@pytest.mark.parametrize("case", ("cat-closed", "cat-grid", "noisy-grid"))
def test_diagram_core_matches_direct_evaluation_above_rank_one(gauss_spec, case):
    """The gain through the rank factors of the mode coefficients, and a
    loss, equal the direct evaluation within 1e-12 relative when the
    coefficients have rank > 1: a cat on either backend (rank 2: its
    interference atoms share one position factor), and a Gaussian plus unit
    noise on the grid, whose coefficients have rank min(M, L) - 1 = 16 (the
    split Nyquist pair is one mode; the zero padding makes M > L)."""
    kind, backend = case.split("-")
    spec = (InitialStateSpec(kind="cat", x0=(0.0,), p0=(0.0,), sigma=1.0,
                             separation=2.0, phase=0.7) if kind == "cat" else gauss_spec)
    grid = balanced_grid(spec, 16)
    w0 = _input(make_initial_wigner(spec, grid, boundary_tol=1e-3), backend)
    if kind == "noisy":
        noise = np.random.default_rng(0).standard_normal(w0.values.shape)
        w0 = dataclasses.replace(w0, values=w0.values + noise, normalized=False,
                                 source=None)
    quad = QuadratureSpec(n_k=16, k_max=8.0)
    t = 0.7
    for params in (ModelParams(d=1, m_s=1.3, m_e=0.7, g=0.1, lambda_uv=8.0),
                   ModelParams(d=1, m_s=1.0, m_e=1.0, g=0.1, lambda_uv=8.0, t_env=0.7)):
        modes = _resolve_modes(w0, params, t, quad)
        rank = _rank_factors(modes.coef)[1].shape[0]
        assert rank == (min(modes.coef.shape) - 1 if kind == "noisy" else 2)
        for term in ("gain", "loss_left"):
            got = _core_on_grid(term, modes, grid, params, t, quad)
            ref, masked, _, _ = _direct_core(term, modes, grid, params, t, quad,
                                             _support_half_width(w0))
            assert masked == 0
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
    modes = _resolve_modes(zero, params, 0.7, quad)
    assert check(modes.coef) == 0
    assert not np.any(_core_on_grid("gain", modes, grid, params, 0.7, quad))


def test_gain_is_real(gentle_instance):
    w0, params, t, quad = (gentle_instance[k] for k in
                           ("w0", "params", "t", "quad"))
    g, rep = _second_order(_input(w0, "grid"), params, t, quad)["gain"]
    assert rep["max_imag"] < 1e-12 * np.max(np.abs(g.real))


def test_backends_agree_when_wrap_free(gentle_instance):
    w0, params, t, quad = (gentle_instance[k] for k in
                           ("w0", "params", "t", "quad"))
    closed, gridded = (_second_order(_input(w0, path), params, t, quad)
                       for path in ("closed", "grid"))
    for term in ("gain", "loss_left"):
        vc, vg = closed[term][0], gridded[term][0]
        assert np.max(np.abs(vc - vg)) < 1e-9 * np.max(np.abs(vc))


@pytest.mark.parametrize("path", ("closed", "grid"))
@pytest.mark.parametrize("t, lam, x0, p0, separation", [
    (0.25, 20.0, 0.0, 0.0, 0.0), (0.7, 8.0, 1.0, 1.0, 0.0), (2.0, 8.0, -1.5, -0.5, 0.0),
    (1.0, 50.0, 0.5, 0.0, 0.0), (2.0, 8.0, 1.0, 1.0, 4.0)])
def test_mode_period_is_wrap_free(path, t, lam, x0, p0, separation):
    """Every position the diagrams evaluate, x - p t/m plus the largest k
    shift over the window (k_max t/m, the gain's), stays at least the
    support half-width (the box's, on the grid path) away from every image
    x0 +- L of the mode period, for either builder, over a few (t, lambda,
    x0, p0) and a cat; the grid modes pad to a whole multiple of n, and the
    closed period does not grow when the packet moves with its grid."""
    kind = "cat" if separation else "gaussian"
    spec = InitialStateSpec(kind=kind, x0=(x0,), p0=(p0,), sigma=1.0, separation=separation)
    grid = balanced_grid(spec, 32)
    w0 = _input(make_initial_wigner(spec, grid, boundary_tol=1e-3), path)
    params = ModelParams(d=1, m_s=1.0, m_e=1.0, g=0.1, lambda_uv=lam)
    quad = QuadratureSpec(n_k=16, k_max=lam)
    modes = _resolve_modes(w0, params, t, quad)
    centre, period = np.mean(modes.x_box[0]), np.diff(modes.x_box[0])[0]
    if path == "grid":
        assert centre == pytest.approx(np.mean(grid.x_nodes), abs=1e-12)
        pad = period / (grid.n_x * grid.dx)
        assert pad == pytest.approx(round(pad), abs=1e-12)
        assert modes.coef.shape[0] == round(pad) * grid.n_x + 1
    else:
        assert centre == pytest.approx(x0, abs=1e-12)
        # the reach is taken from x0, so moving the packet with its grid
        # leaves the period and the mode count as they are at x0 = 0
        home = dataclasses.replace(spec, x0=(0.0,))
        at_home = _resolve_modes(make_initial_wigner(home, balanced_grid(home, 32),
                                                     boundary_tol=1e-3), params, t, quad)
        assert np.diff(at_home.x_box[0])[0] == pytest.approx(period, rel=1e-12)
    shift = lam * t / params.m_s
    xt = grid.x_nodes[:, None] - grid.p_nodes[None, :] * t / params.m_s
    lo, hi = xt.min() - shift, xt.max() + shift
    assert min(centre + period - hi, lo - (centre - period)) >= _support_half_width(w0)


def test_grid_path_is_pinned_to_the_closed_path(tiny_instance, w0_64):
    """The zero-padded grid modes give the closed path's terms within the
    relative L1 gap they had when the grid path cut W0 at the box edge:
    2.65e-6 (gain) and 3.58e-6 (loss_left) on `tiny_instance`, whose state is
    6.6e-5 of its peak at the box edge; and within 1e-13 on a 64-node grid at
    lambda = 8, t = 0.7, where the state does not reach the box edge."""
    cases = ((tiny_instance["w0"], tiny_instance["params"], tiny_instance["t"],
              tiny_instance["quad"], {"gain": 2.65e-6, "loss_left": 3.58e-6}),
             (w0_64, ModelParams(d=1, m_s=1.0, m_e=1.0, g=0.1, lambda_uv=8.0), 0.7,
              QuadratureSpec(n_k=24, k_max=8.0), {"gain": 1e-13, "loss_left": 1e-13}))
    for w0, params, t, quad, bound in cases:
        closed, gridded = (_second_order(_input(w0, path), params, t, quad)
                           for path in ("closed", "grid"))
        for term, tol in bound.items():
            vc, vg = closed[term][0], gridded[term][0]
            assert np.sum(np.abs(vg - vc)) <= tol * np.sum(np.abs(vc)), term


def test_quadrature_convergence_report(gentle_instance):
    """Doubling n_k changes each term by less than its error estimate."""
    w0, params, t = (gentle_instance[k] for k in ("w0", "params", "t"))
    base = QuadratureSpec(n_k=24, k_max=6.0, rel_tol=1e-4)
    fine = QuadratureSpec(n_k=48, k_max=6.0, rel_tol=1e-4)
    cell = gentle_instance["grid"].cell_volume
    w0 = _input(w0, "grid")
    terms_1, terms_2 = (_second_order(w0, params, t, q) for q in (base, fine))
    for term in ("gain", "loss_left", "loss_right"):
        (v1, rep), (v2, _) = terms_1[term], terms_2[term]
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
    terms_1, terms_2 = (_second_order(w0, params, t, q) for q in (quad, fine))
    for term in ("gain", "loss_left", "loss_right"):
        (v1, rep), (v2, _) = terms_1[term], terms_2[term]
        change = float(np.sum(np.abs(v1 - v2)) * cell)
        assert rep["panels"] == 2
        assert rep["rel_err_est"] > 0.0
        assert change <= rep["err_est"]


def test_error_estimate_tracks_the_error_on_an_even_half_run(gauss_spec, monkeypatch):
    """n_x = 64, lambda = 20, t = 0.25: the full run takes 9 panels and the
    half run 6 (5 before rounding to even, which put k = 0, next to the
    branch points of 1/w at +-i m_e, at a panel's centre and made the
    estimate 1.5e4 times the error).  Both terms converge, and each err_est
    is within 0.5-10 times the term's change against 8 times the panels."""
    grid = balanced_grid(gauss_spec, 64)
    w0 = make_initial_wigner(gauss_spec, grid, boundary_tol=1e-7)
    params = ModelParams(d=1, m_s=1.0, m_e=1.0, g=0.1, lambda_uv=20.0)
    quad = QuadratureSpec()
    t = 0.25
    modes = _resolve_modes(w0, params, t, quad)
    terms = _second_order(w0, params, t, quad)
    for term in ("gain", "loss_left"):
        vals, rep = terms[term]
        assert rep["panels"] == 9
        assert rep["converged"]
        with monkeypatch.context() as patch:
            patch.setattr(evolution, "PHASE_PER_PANEL", evolution.PHASE_PER_PANEL / 8.0)
            fine = _core_on_grid(term, modes, grid, params, t, quad)
        change = float(np.sum(np.abs(vals - fine)) * grid.cell_volume)
        assert 0.5 * change <= rep["err_est"] <= 10.0 * change, term


@pytest.mark.parametrize("term", ("gain", "loss_left"))
def test_chunk_budget_does_not_change_the_terms(gauss_spec, monkeypatch, term):
    """A budget small enough for a few k nodes per chunk gives the
    default-budget term within 1e-14 relative on the grid backend (thermal
    bath: both branches), with every k node in one kernel table per branch
    and no table wider than an eighth of the k rule; so does the term's
    phase-space trace, whose own call is chunked by the same budget."""
    grid = balanced_grid(gauss_spec, 16)
    w0 = _input(make_initial_wigner(gauss_spec, grid, boundary_tol=1e-4), "grid")
    params = ModelParams(d=1, m_s=1.0, m_e=1.0, g=0.1, lambda_uv=8.0, t_env=0.7)
    quad = QuadratureSpec(n_k=16, k_max=8.0)
    t = 0.7
    modes = _resolve_modes(w0, params, t, quad)
    ref = _core_on_grid(term, modes, grid, params, t, quad)
    ref_trace = _second_order(w0, params, t, quad)[term][1]["trace"]
    budget = 1 << 16
    widths = []
    name = "_e0" if term == "gain" else "_f"
    kernel = getattr(evolution, name)

    def counted(b, d):
        widths.append(b.shape[-1])
        return kernel(b, d)

    monkeypatch.setattr(propagators, "_CHUNK_BYTES", budget)
    with monkeypatch.context() as patch:
        patch.setattr(evolution, name, counted)
        got = _core_on_grid(term, modes, grid, params, t, quad)
    k_nodes = evolution._k_nodes(params, quad, t, modes.u_max,
                                 float(np.max(np.abs(grid.p_nodes))))[0].shape[0]
    assert sum(widths) == 2 * k_nodes
    assert 8 * max(widths) <= k_nodes
    assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))
    got_trace = _second_order(w0, params, t, quad)[term][1]["trace"]
    assert abs(got_trace - ref_trace) <= 1e-14 * abs(ref_trace)


# ---------------------------------------------------------------------------
# assembled evolution
# ---------------------------------------------------------------------------

def test_evolve_g_zero_is_free_streaming(w0_64, params_ref, gentle_instance):
    """At g = 0 W(t) is the zeroth order, bit for bit: the closed-form shear
    for a closed-form state, the spectral shear of the samples under
    backend = "grid" (on the 32-node gentle grid)."""
    params = ModelParams(d=1, m_s=1.0, m_e=1.0, g=0.0, lambda_uv=8.0)
    quad = QuadratureSpec(n_k=16, k_max=8.0)
    res = evolve(w0_64, params, 0.7, quad)
    assert np.array_equal(res.w_total.values, zeroth_closed(w0_64, params, 0.7).values)
    w0, t, quad = (gentle_instance[k] for k in ("w0", "t", "quad"))
    params = dataclasses.replace(gentle_instance["params"], g=0.0)
    res = evolve(w0, params, t, quad, backend="grid")
    assert np.array_equal(res.w_total.values, evolve_zeroth(w0, params, t).values)


def test_closed_backend_is_retired(w0_64, params_ref):
    """backend = "closed" is rejected by name: "auto" takes the closed path."""
    for backend in ("closed", "fast"):
        with pytest.raises(ValueError, match="'closed' is retired"):
            evolve(w0_64, params_ref, 0.7, QuadratureSpec(n_k=16, k_max=8.0),
                   backend=backend)


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
    # loss_right is conj(loss_left): the same real part and a copy of the
    # report; the oracle and the direct evaluation check the identity itself
    assert np.array_equal(res.w_loss_right, res.w_loss_left)
    reports = d["quadrature_report"]
    assert reports["loss_right"] == dict(reports["loss_left"], term="loss_right")
    assert reports["loss_right"] is not reports["loss_left"]


def test_workers_bit_identical(gentle_instance):
    """Every term's values and report are bitwise the same at 1, 2, 6 and 7
    workers (7 exceeds the six passes of a time step), on the closed and the
    grid path, and so is W."""
    w0, params, t, quad = (gentle_instance[k] for k in
                           ("w0", "params", "t", "quad"))
    for path in ("closed", "grid"):
        ref = _second_order(_input(w0, path), params, t, quad, workers=1)
        for workers in (2, 6, 7):
            got = _second_order(_input(w0, path), params, t, quad, workers=workers)
            for term, (vals, rep) in ref.items():
                assert np.array_equal(got[term][0], vals), (path, workers, term)
                assert got[term][1] == rep, (path, workers, term)
    r1 = evolve(w0, params, t, quad, workers=1)
    r7 = evolve(w0, params, t, quad, workers=7)
    assert np.array_equal(r1.w_total.values, r7.w_total.values)


@pytest.mark.parametrize("terms, evaluated", [(("gain",), ("gain",)),
                                               (("loss_right",), ("loss_left",))])
def test_second_order_evaluates_only_the_terms_asked_for(gentle_instance, monkeypatch,
                                                          terms, evaluated):
    """A subset of the terms runs only its own three passes and reads
    bitwise as in the full call; loss_right brings loss_left with it."""
    w0, params, t, quad = (gentle_instance[k] for k in
                           ("w0", "params", "t", "quad"))
    full = _second_order(w0, params, t, quad)
    calls, core = [], evolution._diagram_core
    monkeypatch.setattr(evolution, "_diagram_core",
                        lambda term, *args: calls.append(term) or core(term, *args))
    got = _second_order(w0, params, t, quad, terms=terms)
    assert calls == [evaluated[0]] * 3
    assert set(got) == set(terms) | set(evaluated)
    for term, (vals, rep) in got.items():
        assert np.array_equal(vals, full[term][0]) and rep == full[term][1], term


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


@settings(max_examples=15, deadline=None)
@given(x0=st.floats(-0.5, 0.5), p0=st.floats(-0.3, 0.3), sigma=st.floats(0.8, 0.9),
       t_env=st.sampled_from((0.0, 0.7)))
def test_trace_balance_and_reality_hold_for_gaussians(x0, p0, sigma, t_env):
    """On the 32-node gentle grid, any Gaussian in these ranges (all of which
    fit its box at t = 0.6) keeps the phase-space trace of the correction
    within 1e-4 gain_l1 and its imaginary part at rounding, vacuum or warm."""
    spec = InitialStateSpec(kind="gaussian", x0=(x0,), p0=(p0,), sigma=sigma)
    grid = balanced_grid(InitialStateSpec(kind="gaussian", x0=(0.0,), p0=(0.0,),
                                          sigma=1.0), 32)
    w0 = make_initial_wigner(spec, grid, boundary_tol=1e-4)
    params = ModelParams(d=1, m_s=1.0, m_e=1.0, g=0.1, lambda_uv=6.0, t_env=t_env)
    d = evolve(w0, params, 0.6, QuadratureSpec(n_k=24, k_max=6.0)).diagnostics
    assert abs(d["trace_defect_g2"]) <= 1e-4 * d["gain_l1"]
    assert d["max_imag_residue"] < 1e-10


@settings(max_examples=10, deadline=None)
@given(x0=st.tuples(st.floats(-0.5, 0.5), st.floats(-0.5, 0.5)),
       p0=st.tuples(st.floats(-0.3, 0.3), st.floats(-0.3, 0.3)),
       sigma=st.tuples(st.floats(0.8, 0.9), st.floats(0.8, 0.9)),
       a=st.floats(-2.0, 2.0), b=st.floats(-2.0, 2.0))
def test_terms_are_linear_in_the_initial_state(x0, p0, sigma, a, b):
    """gain and loss_left of a W1 + b W2 equal a f(W1) + b f(W2) within 1e-12
    of |a| max|f(W1)| + |b| max|f(W2)|, for two gridded Gaussians in the
    trace property test's ranges on the 32-node gentle grid: the thin-SVD
    cut of `_rank_factors` is the only non-linear step of the fast path."""
    grid = balanced_grid(InitialStateSpec(kind="gaussian", x0=(0.0,), p0=(0.0,),
                                          sigma=1.0), 32)
    w1, w2 = (wigner_closed(InitialStateSpec(kind="gaussian", x0=(x,), p0=(p,), sigma=sg),
                            grid.x_nodes[:, None], grid.p_nodes[None, :])
              for x, p, sg in zip(x0, p0, sigma))
    params = ModelParams(d=1, m_s=1.0, m_e=1.0, g=0.1, lambda_uv=6.0)
    quad = QuadratureSpec(n_k=24, k_max=6.0)
    t = 0.3
    for term in ("gain", "loss_left"):
        f1, f2, f12 = (_core_on_grid(term, modes_from_grid(WignerFunction(
            grid=grid, t=0.0, values=vals, normalized=False)), grid, params, t, quad)
            for vals in (w1, w2, a * w1 + b * w2))
        scale = abs(a) * np.max(np.abs(f1)) + abs(b) * np.max(np.abs(f2))
        assert np.max(np.abs(f12 - (a * f1 + b * f2))) <= 1e-12 * scale, term


@pytest.mark.parametrize("backend", ("closed", "grid"))
def test_trace_defect_catches_gain_mutations(gentle_instance, monkeypatch, backend):
    """The trace balance gain = 2 Re(loss_left) holds within 1e-11 gain_l1
    (both traces are sums over the same k nodes), and breaks past 1e-4
    gain_l1 when only the gain is computed with the frequency sign of its
    Bose branches flipped (vacuum and warm) or without its p + k
    momentum-box mask: the traces come from the diagrams' own tables, masks
    and branches, not from a separate quadrature."""
    w0, t, quad = (gentle_instance[k] for k in ("w0", "t", "quad"))
    w0 = _input(w0, backend)
    cell = gentle_instance["grid"].cell_volume
    branches = evolution._thermal_branches
    mutations = (("_thermal_branches",
                  lambda omega, params: [(-sgn, wgt) for sgn, wgt in branches(omega, params)]),
                 ("_in_q_box", lambda modes, q: np.ones(q.shape[:-1], dtype=bool)))
    for t_env in (0.0, 0.7):
        params = ModelParams(d=1, m_s=1.0, m_e=1.0, g=0.1, lambda_uv=6.0, t_env=t_env)
        terms = _second_order(w0, params, t, quad)
        (gain, rep), loss = terms["gain"], terms["loss_left"][1]["trace"]
        gain_l1 = float(np.sum(np.abs(gain.real)) * cell)
        assert abs(rep["trace"] - 2.0 * loss) <= 1e-11 * gain_l1
        bound = 1e-4 * gain_l1
        for name, mutant in mutations:
            with monkeypatch.context() as patch:
                patch.setattr(evolution, name, mutant)
                mutated = _second_order(w0, params, t, quad)["gain"][1]
            assert abs(mutated["trace"] - 2.0 * loss) > bound, name


def _static_source_correction(spec, grid, params, t):
    """-Wigner[Gamma rho0] at the grid nodes, d = 1: the O(g^2) correction
    (coupling factored out) of the static-source limit m_s -> oo, the
    pure-dephasing model rho(x, y, t) = rho0(x, y) e^{-g^2 Gamma(x - y, t)}
    with Gamma(r, t) = Int_{|k| <= lambda} dk/(2 pi 2 w) 2 sin^2(kr/2)
    (1 + 2n(w)) |E0(w, t)|^2 and |E0|^2 = 2 (1 - cos wt)/w^2 (Breuer and
    Petruccione, The Theory of Open Quantum Systems, ch. 4).  Gamma takes one
    Gauss-Legendre rule in k for every r; W the trapezoid sum in z of
    (1/pi) rho(x - z, x + z) e^{2ipz} over |z| <= 12."""
    k, wk = gauss_panels(-params.lambda_uv, params.lambda_uv, 48, 8)
    omega = np.sqrt(k**2 + params.m_e**2)
    rate = (wk * (1.0 + 2.0 * bose_occupation(omega, params.t_env))
            * 2.0 * (1.0 - np.cos(omega * t)) / omega**2 / (2.0 * np.pi * 2.0 * omega))
    z = np.linspace(-12.0, 12.0, 1201)
    gamma = 2.0 * np.sin(z[:, None] * k) ** 2 @ rate          # Gamma(2z)
    x, p = grid.x_nodes, grid.p_nodes
    rho = density_closed(spec, x[:, None] - z, x[:, None] + z)
    return -((rho * gamma) @ np.exp(2j * np.outer(z, p))).real * (z[1] - z[0]) / np.pi


@pytest.mark.parametrize("separation", (None, 3.0))
def test_static_source_limit(monkeypatch, separation):
    """As m_s grows, gain - loss_left - loss_right tends to the exactly
    solvable static-source correction -Wigner[Gamma rho0], with an error
    exactly proportional to 1/m_s: at most 1e-6 of its sup at m_s = 1e6 and
    100 times smaller than at m_s = 1e4 within 1 %, for a Gaussian and a cat,
    in a cold and a warm (T = 2) bath, on the closed and the grid path.
    In the warm bath, on both paths, each of these mutations misses the
    first bound: a gain of the wrong sign, Bose weights doubled, the
    emission weight 1 + n taken as n, and the momentum-box mask dropped."""
    spec = (InitialStateSpec(kind="gaussian", x0=(0.0,), p0=(0.0,), sigma=1.0)
            if separation is None else
            InitialStateSpec(kind="cat", x0=(0.0,), p0=(0.0,), sigma=1.0,
                             separation=separation))
    grid = balanced_grid(spec, 64)
    w0 = make_initial_wigner(spec, grid)
    quad = QuadratureSpec(n_k=24, k_max=6.0)
    t = 0.5
    second_order, branches = evolution._second_order, evolution._thermal_branches

    def flipped(*args):
        terms = second_order(*args)
        vals, rep = terms["gain"]
        return dict(terms, gain=(-vals, rep))

    def emission_as_n(omega, params):
        return [(sgn, wgt - 1.0 if sgn > 0.0 and params.t_env > 0.0 else wgt)
                for sgn, wgt in branches(omega, params)]

    mutations = (
        ("_second_order", flipped),
        ("_thermal_branches",
         lambda omega, params: [(sgn, 2.0 * wgt) for sgn, wgt in branches(omega, params)]),
        ("_thermal_branches", emission_as_n),
        ("_in_q_box", lambda modes, q: np.ones(q.shape[:-1], dtype=bool)),
    )
    for t_env in (0.0, 2.0):
        ref = _static_source_correction(spec, grid, ModelParams(
            d=1, m_s=1.0, m_e=1.0, g=0.1, lambda_uv=6.0, t_env=t_env), t)
        for backend in ("auto", "grid"):
            def error(m_s):
                params = ModelParams(d=1, m_s=m_s, m_e=1.0, g=0.1, lambda_uv=6.0,
                                     t_env=t_env)
                res = evolve(w0, params, t, quad, backend=backend)
                corr = res.w_gain - res.w_loss_left - res.w_loss_right
                return np.max(np.abs(corr - ref)) / np.max(np.abs(ref))

            err_4, err_6 = error(1e4), error(1e6)
            assert err_6 <= 1e-6, (t_env, backend)
            assert err_4 / err_6 == pytest.approx(100.0, rel=0.01), (t_env, backend)
            if t_env == 0.0:
                continue
            for name, mutant in mutations:
                with monkeypatch.context() as patch:
                    patch.setattr(evolution, name, mutant)
                    assert error(1e6) > 1e-6, (backend, name, mutant)
