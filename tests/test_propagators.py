import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import k0

from wignerbath import (ModelParams, SpacetimePoint, sys_feynman, sys_dyson,
                        env_wightman, env_feynman, env_dyson)
from wignerbath import propagators
from wignerbath.propagators import wightman_amp, gauss_panels, legendre_rule


@pytest.fixture(scope="module")
def params():
    return ModelParams(d=1, m_s=1.0, m_e=1.0, g=0.1, lambda_uv=200.0)


def _random_pairs(rng, n):
    for _ in range(n):
        yield (SpacetimePoint(rng.uniform(-2, 2), rng.uniform(-3, 3)),
               SpacetimePoint(rng.uniform(-2, 2), rng.uniform(-3, 3)))


def test_support(params):
    a = SpacetimePoint(0.0, 0.3)
    b = SpacetimePoint(1.0, -0.4)
    assert sys_feynman(a, b, params) == 0.0  # a earlier than b
    assert sys_dyson(b, a, params) == 0.0    # b later than a


def test_equal_time_rejected(params):
    a = SpacetimePoint(0.5, 0.3)
    b = SpacetimePoint(0.5, -0.4)
    with pytest.raises(ValueError, match="delta"):
        sys_feynman(a, b, params)
    with pytest.raises(ValueError, match="delta"):
        sys_dyson(a, b, params)


def test_closed_form_value(params):
    # d=1, m=1, dt=1, dx=2: (2 pi i)^{-1/2} e^{2i}
    v = sys_feynman(SpacetimePoint(1.0, 2.0), SpacetimePoint(0.0, 0.0), params)
    assert v == pytest.approx((2j * np.pi) ** -0.5 * np.exp(2j), abs=1e-15)


def test_conjugation_identity(params):
    rng = np.random.default_rng(11)
    for a, b in _random_pairs(rng, 100):
        if a.t == b.t:
            continue
        assert abs(sys_dyson(a, b, params)
                   - np.conj(sys_feynman(b, a, params))) < 1e-12


def test_delta_identity(params):
    """Int dz G_F(x, 0+; z, 0) f(z) -> f(x) as dt -> 0+ for smooth f."""
    f = lambda z: np.exp(-((z - 0.3) ** 2) / 2.0)
    x = 0.3
    vals = []
    for dt in (0.02, 0.01):
        zs, wz = gauss_panels(x - 6.0, x + 6.0, 32, int(20 / dt))
        kern = (params.m_s / (2j * np.pi * dt)) ** 0.5 \
            * np.exp(1j * params.m_s * (x - zs) ** 2 / (2 * dt))
        vals.append(np.sum(wz * kern * f(zs)))
    extrap = 2 * vals[1] - vals[0]  # first-order Richardson in dt
    assert abs(extrap - f(x)) < 1e-4


def test_wightman_kernel_combination(params):
    """Theta(dt) G_F + Theta(-dt) G_D reproduces the free kernel from
    momentum-space quadrature."""
    rng = np.random.default_rng(5)
    for _ in range(5):
        dt = rng.uniform(-1.5, 1.5)
        dx = rng.uniform(-2, 2)
        a = SpacetimePoint(dt, dx)
        b = SpacetimePoint(0.0, 0.0)
        g = sys_feynman(a, b, params) if dt > 0 else sys_dyson(a, b, params)
        # momentum-space oracle with Gaussian damper, Richardson in eps; the
        # expansion in eps has radius ~|dt| and coefficients growing like
        # (dx^2/dt^2)^k, so the ladder is scaled to both
        s = abs(dt) * min(1.0, abs(dt) / dx**2)
        e = s * np.array([1e-2, 1e-3, 1e-4])
        vals = []
        for eps in e:
            p_hi = np.sqrt(np.log(1e16) / eps)
            pn, pw = gauss_panels(-p_hi, p_hi, 32,
                                  max(64, int(p_hi * (abs(dx) + p_hi * abs(dt) / 2) / 30)))
            vals.append(np.sum(pw * np.exp(1j * pn * dx - 1j * pn**2 * dt / 2
                                           - eps * pn**2)) / (2 * np.pi))
        ref = 0.0
        for i in range(3):
            li = 1.0
            for j in range(3):
                if j != i:
                    li *= (0.0 - e[j]) / (e[i] - e[j])
            ref += li * vals[i]
        assert abs(g - ref) < 1e-4


def test_equal_time_wightman_vs_bessel(params):
    """d=1 equal-time bath propagator vs the independent K0 evaluation with
    the cutoff tail subtracted (QUADPACK oscillatory-weight tail)."""
    lam = params.lambda_uv
    for r in (0.5, 1.0, 2.0):
        val = env_wightman(SpacetimePoint(0.0, 0.0), SpacetimePoint(0.0, r), params)
        tail, _ = quad(lambda k: 1.0 / np.sqrt(k**2 + params.m_e**2),
                       lam, np.inf, weight="cos", wvar=r)
        ref = (k0(params.m_e * r) - tail) / (2.0 * np.pi)
        assert abs(val - ref) < 1e-4
        assert abs(val.imag) < 1e-14


def test_wightman_hermiticity(params):
    rng = np.random.default_rng(3)
    for a, b in _random_pairs(rng, 10):
        assert abs(np.conj(env_wightman(a, b, params))
                   - env_wightman(b, a, params)) < 1e-12


def test_ordering_identity(params):
    rng = np.random.default_rng(4)
    for a, b in _random_pairs(rng, 10):
        lhs = env_feynman(a, b, params) + env_dyson(a, b, params)
        rhs = env_wightman(a, b, params) + env_wightman(b, a, params)
        assert abs(lhs - rhs) < 1e-12


def test_feynman_symmetric(params):
    rng = np.random.default_rng(6)
    for a, b in _random_pairs(rng, 10):
        assert abs(env_feynman(a, b, params) - env_feynman(b, a, params)) < 1e-12


def test_equal_time_feynman_real_equals_wightman(params):
    a = SpacetimePoint(0.4, -1.0)
    b = SpacetimePoint(0.4, 1.5)
    f = env_feynman(a, b, params)
    w = env_wightman(a, b, params)
    assert abs(f - w) < 1e-10
    assert abs(f.imag) < 1e-10


def test_thermal_limit_and_coincident(params):
    a = SpacetimePoint(0.7, 0.3)
    b = SpacetimePoint(0.2, -1.1)
    cold = ModelParams(d=1, m_s=1.0, m_e=1.0, g=0.1, lambda_uv=200.0, t_env=1e-9)
    assert abs(env_wightman(a, b, cold) - env_wightman(a, b, params)) < 1e-10
    same = SpacetimePoint(0.0, 0.0)
    v = env_wightman(same, same, params)
    assert v.real > 0 and abs(v.imag) < 1e-14


def test_cutoff_monotone_convergence():
    """Growing the cutoff converges to the uncut value K0(m_e r)/2pi at the
    rate the tail guarantees.  The tail (1/2pi) Int_lambda^inf cos(kr)/w dk
    is -sin(lambda r)/(2pi r w) plus a remainder of at most the same size
    (integration by parts), so it oscillates and successive differences need
    not shrink; its bound 1/(pi r w(lambda)) does."""
    r = 1.0
    for lam in (25.0, 100.0, 400.0, 1600.0):
        p = ModelParams(d=1, m_s=1.0, m_e=1.0, g=0.1, lambda_uv=lam)
        v = env_wightman(SpacetimePoint(0, 0), SpacetimePoint(0, r), p).real
        omega = np.sqrt(lam**2 + p.m_e**2)
        assert abs(v - k0(p.m_e * r) / (2.0 * np.pi)) <= 1.0 / (np.pi * r * omega)


def test_d3_radial_value():
    p3 = ModelParams(d=3, m_s=1.0, m_e=1.0, g=0.1, lambda_uv=30.0)
    a = SpacetimePoint(0.0, (0.0, 0.0, 0.0))
    b = SpacetimePoint(0.0, (1.0, 0.5, -0.2))
    r = np.sqrt(1.0 + 0.25 + 0.04)
    ref = quad(lambda k: k * np.sin(k * r) / np.sqrt(k**2 + 1.0),
               0.0, 30.0, limit=500)[0] / (4 * np.pi**2 * r)
    assert abs(env_wightman(a, b, p3) - ref) < 1e-10


def test_invalid_params():
    with pytest.raises(ValueError):
        ModelParams(d=1, m_s=-1.0, m_e=1.0, g=0.1)
    with pytest.raises(ValueError):
        ModelParams(d=1, m_s=1.0, m_e=0.0, g=0.1)
    with pytest.raises(ValueError):
        ModelParams(d=1, m_s=1.0, m_e=1.0, g=0.1, lambda_uv=0.5)
    with pytest.raises(ValueError):
        ModelParams(d=1, m_s=1.0, m_e=1.0, g=0.1, t_env=-1.0)


def _fresh_panels(lo, hi, n, panels):
    """Composite Gauss-Legendre rule from a freshly computed leggauss(n)."""
    base_x, base_w = np.polynomial.legendre.leggauss(n)
    edges = np.linspace(lo, hi, panels + 1)
    half = 0.5 * (edges[1:] - edges[:-1])
    mid = 0.5 * (edges[1:] + edges[:-1])
    return ((mid[:, None] + half[:, None] * base_x[None, :]).ravel(),
            (half[:, None] * base_w[None, :]).ravel())


@pytest.mark.parametrize("n", (8, 12, 18, 20, 24, 28, 32, 40, 48))
def test_gauss_panels_cached_rule_is_bit_identical(n):
    for lo, hi, panels in ((0.0, 1.0, 1), (-6.0, 6.0, 7), (0.3, 2.9, 3)):
        for _ in range(2):  # the second call reads the cached rule
            nodes, weights = gauss_panels(lo, hi, n, panels)
            ref_nodes, ref_weights = _fresh_panels(lo, hi, n, panels)
            assert np.array_equal(nodes, ref_nodes)
            assert np.array_equal(weights, ref_weights)


def test_gauss_panels_cache_cannot_be_corrupted():
    nodes, weights = gauss_panels(-1.0, 1.0, 24, 1)
    nodes[:] = 0.0
    weights[:] = 0.0
    again_nodes, again_weights = gauss_panels(-1.0, 1.0, 24, 1)
    ref_nodes, ref_weights = np.polynomial.legendre.leggauss(24)
    assert np.array_equal(again_nodes, ref_nodes)
    assert np.array_equal(again_weights, ref_weights)
    for base in legendre_rule(24):
        with pytest.raises(ValueError, match="read-only"):
            base[0] = 0.0


def test_gauss_panels_array_endpoints_stack_scalar_rules():
    lo = np.array([-6.0, 0.3, -0.05])
    hi = np.array([4.0, 2.9, 7.5])
    nodes, weights = gauss_panels(lo, hi, 24, 3)
    assert nodes.shape == weights.shape == (3, 72)
    for i in range(3):
        ref_nodes, ref_weights = gauss_panels(lo[i], hi[i], 24, 3)
        assert np.array_equal(nodes[i], ref_nodes)
        assert np.array_equal(weights[i], ref_weights)
    nodes, weights = gauss_panels(0.0, hi, 24, 3)
    assert nodes.shape == weights.shape == (3, 72)
    assert np.array_equal(nodes[1], gauss_panels(0.0, hi[1], 24, 3)[0])


@pytest.mark.parametrize("d,t_env", ((1, 0.0), (1, 1.5), (3, 0.0)))
def test_wightman_k_chunks_do_not_change_values(d, t_env, monkeypatch):
    """A budget that forces one k node per chunk and one that takes every
    node at once agree to rounding (the nodes are the same)."""
    params = ModelParams(d=d, m_s=1.0, m_e=1.0, g=0.1, lambda_uv=50.0, t_env=t_env)
    rng = np.random.default_rng(5)
    dt = rng.uniform(-1.0, 1.0, size=(7, 1))
    dx = rng.uniform(-2.0, 2.0, size=(1, 9) if d == 1 else (1, 9, 3))
    vals = []
    for budget in (1, 1 << 62):
        monkeypatch.setattr(propagators, "_AMP_BYTES", budget)
        vals.append(wightman_amp(dt, dx, params))
    assert vals[0].shape == (7, 9)
    assert np.max(np.abs(vals[0] - vals[1])) <= 1e-14 * np.max(np.abs(vals[1]))
