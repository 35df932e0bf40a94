import mpmath
import numpy as np
import pytest

from wignerbath import (InitialStateSpec, ModelParams, QuadratureSpec,
                        make_initial_wigner, evolve, evolve_zeroth,
                        diagram_gain, diagram_loss_left, diagram_loss_right)
from wignerbath.states import balanced_grid, wigner_closed
from wignerbath.wigner import observables
from wignerbath import evolution
from wignerbath.evolution import (_diagram_with_report, seg_e0, seg_e1,
                                  strip_gain_integral, window_loss_integral,
                                  modes_from_grid, modes_from_closed,
                                  _gain_split, _loss_split, _resolve_modes,
                                  _term_trace)


# ---------------------------------------------------------------------------
# closed-form time-integral helpers
# ---------------------------------------------------------------------------

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


@mpmath.workdps(40)
def _mp_kernels(a, c, t):
    """E0(a + c) E0(-a + c) and Int_0^t (t - tau) e^{i (a + c) tau} dtau at
    40 digits, for the exact sums of the doubles a and c."""
    b1 = mpmath.mpf(a) + mpmath.mpf(c)
    b2 = -mpmath.mpf(a) + mpmath.mpf(c)
    w = 1j * b1 * t
    loss = mpmath.mpf(t) ** 2 / 2 if b1 == 0 else t**2 * (mpmath.expm1(w) - w) / w**2
    return complex(_mp_e0(b1, t) * _mp_e0(b2, t)), complex(loss)


@pytest.mark.parametrize("sign", (+1.0, -1.0))
def test_separable_kernels_against_mpmath(sign):
    """The separable kernels against 40-digit values of the same integrals.

    The phase b = a + c reaches the kernels only through expm1(i a t) and
    expm1(i c t).  Where a and c cancel (|a t|, |c t| >> |b t|) each factor
    carries the rounding of its own phase, so the error bound is
    4 eps (1 + |a t| + |c t|) in units of t^2 (for both kernels): the
    error a direct evaluation makes from rounding b = a + c itself.  The
    sweep covers |w| = |b t| from 1e-12 to 1e3, w = 0, and both sides of the
    |w| = 1 switch to the direct form (gain) and the series (loss).
    """
    eps = np.finfo(float).eps
    t = 0.7
    w = np.concatenate([[0.0], np.logspace(-12, 3, 46),
                        [1.0 - 1e-9, 1.0, 1.0 + 1e-9]])
    for a in (0.0, 0.3, -5.0, 400.0):
        c = sign * w / t - a
        b1 = a + c
        b2 = -a + c
        ea = np.full(w.shape, np.expm1(1j * t * a))
        ec = np.expm1(1j * t * c)
        gain = _gain_split(ea, ec, b1, b2, t)
        loss = _loss_split(ea, ec, b1, t)
        for i in range(w.size):
            # the exact phases of the split, not the rounded b1, b2
            ref_gain, ref_loss = _mp_kernels(a, c[i], t)
            bound = 4.0 * eps * (1.0 + abs(a * t) + abs(c[i] * t))
            assert abs(gain[i] - ref_gain) <= bound * t**2, (a, w[i])
            assert abs(loss[i] - ref_loss) <= bound * t**2, (a, w[i])
            if a == 0.0:   # no cancellation: relative accuracy
                assert abs(loss[i] - ref_loss) <= 8 * eps * abs(ref_loss)


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
    strips with gamma = b1 - b2 = 0 (the degenerate branch) and |gamma t| of
    order 1 or more (the strip's divided difference cancels for small
    nonzero |gamma t|, so such phases are not in this sweep).
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
    modes = modes_from_closed(cat_spec)
    rng = np.random.default_rng(10)
    for _ in range(5):
        X, Q = rng.uniform(-4, 4), rng.uniform(-1.5, 1.5)
        val = np.real(np.sum(modes.coef * np.exp(
            1j * (modes.u[:, 0][:, None] * X + modes.s[:, 0][None, :] * Q))))
        assert val == pytest.approx(
            float(wigner_closed(cat_spec, np.array(X), np.array(Q))), abs=1e-12)


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
