import numpy as np
import pytest
from scipy.integrate import trapezoid

from wignerbath import InitialStateSpec, ModelParams, make_initial_wigner
from wignerbath.states import (balanced_grid, wigner_closed, density_closed,
                               psi_closed)
from wignerbath.wigner import observables


def test_gaussian_closed_form_and_norm(gauss_spec, grid64):
    w0 = make_initial_wigner(gauss_spec, grid64)
    x = grid64.x_nodes
    ref = (1.0 / np.pi) * np.exp(-x[:, None] ** 2 / 2.0
                                 - 2.0 * grid64.p_nodes[None, :] ** 2)
    assert np.max(np.abs(w0.values - ref)) == 0.0
    assert w0.norm() == pytest.approx(1.0, abs=1e-9)


def test_translation_covariance():
    base = InitialStateSpec(kind="gaussian", x0=(0.0,), p0=(0.0,), sigma=1.0)
    moved = InitialStateSpec(kind="gaussian", x0=(3.0,), p0=(1.0,), sigma=1.0)
    xs = np.linspace(-2, 2, 41)
    ps = np.linspace(-1, 1, 41)
    w_base = wigner_closed(base, xs[:, None], ps[None, :])
    w_moved = wigner_closed(moved, xs[:, None] + 3.0, ps[None, :] + 1.0)
    assert np.max(np.abs(w_base - w_moved)) < 1e-15


def test_degenerate_cat_equals_gaussian():
    cat0 = InitialStateSpec(kind="cat", x0=(0.2,), p0=(0.1,), sigma=1.0,
                            separation=0.0, phase=0.0)
    gauss = InitialStateSpec(kind="gaussian", x0=(0.2,), p0=(0.1,), sigma=1.0)
    xs = np.linspace(-3, 3, 31)
    ps = np.linspace(-2, 2, 31)
    assert np.max(np.abs(wigner_closed(cat0, xs[:, None], ps[None, :])
                         - wigner_closed(gauss, xs[:, None], ps[None, :]))) < 1e-14


def test_cat_wigner_consistent_with_density(cat_spec):
    """Closed-form cat Wigner equals the transform of its density matrix."""
    from wignerbath import DensityMatrix, wigner_from_density
    grid = balanced_grid(cat_spec, 128)
    x = grid.x_nodes
    rho = DensityMatrix(grid=grid, t=0.0,
                        values=density_closed(cat_spec, x[:, None], x[None, :]))
    w = wigner_from_density(rho)
    w_ref = wigner_closed(cat_spec, x[:, None], grid.p_nodes[None, :])
    assert np.max(np.abs(w.values - w_ref)) < 1e-12


def test_cat_with_phase_and_momentum_norm():
    spec = InitialStateSpec(kind="cat", x0=(0.0,), p0=(0.8,), sigma=0.9,
                            separation=3.0, phase=1.1)
    psi_norm = trapezoid(np.abs(psi_closed(spec, np.linspace(-20, 20, 4001)))**2,
                         np.linspace(-20, 20, 4001))
    assert psi_norm == pytest.approx(1.0, abs=1e-10)
    grid = balanced_grid(spec, 128)
    w0 = make_initial_wigner(spec, grid, boundary_tol=1e-5)
    assert w0.norm() == pytest.approx(1.0, abs=1e-8)


def test_cat_norm_without_cancellation():
    """cat_norm is 2 + 2 ov cos(phase + p0 s), ov = exp(-s^2/(8 sigma^2)),
    within 1e-15 relative of a 50-digit evaluation where the packets
    nearly cancel (phase pi, small separation: the direct sum loses about
    log10(1/norm) digits there, 7 at s = 1e-3) and on ordinary cats.  The
    cancelling cases keep p0 = 0, so that phase + p0 s is not rounded."""
    import mpmath
    for sep, phase, p0, sigma in ((1e-3, np.pi, 0.0, 1.0), (1e-4, np.pi, 0.0, 0.7),
                                  (2e-2, np.pi - 1e-3, 0.0, 1.2), (3.0, 1.1, 0.8, 0.9),
                                  (6.0, 0.0, 0.0, 1.0), (0.0, 0.0, 0.0, 1.0)):
        spec = InitialStateSpec(kind="cat", p0=(p0,), sigma=sigma,
                                separation=sep, phase=phase)
        with mpmath.workdps(50):
            s = mpmath.mpf(sep)
            ref = float(2 + 2 * mpmath.exp(-s**2 / (8 * mpmath.mpf(sigma)**2))
                        * mpmath.cos(mpmath.mpf(phase) + mpmath.mpf(p0) * s))
        assert abs(spec.cat_norm() - ref) <= 1e-15 * ref


@pytest.mark.parametrize("sep", (0.0, 1e-9))
def test_cancelling_cat_rejected_by_name(sep):
    """A cat whose packets cancel (norm below CAT_NORM_FLOOR: separation 0 or
    1e-9 at phase pi) is rejected by name with its norm, before its Wigner
    atoms would divide by it."""
    with pytest.raises(ValueError, match=r"cat \(separation .*\) has squared norm .* cancel"):
        InitialStateSpec(kind="cat", separation=sep, phase=np.pi)


def test_leaking_state_rejected(gauss_spec):
    small = balanced_grid(gauss_spec, 64)
    off_center = InitialStateSpec(kind="gaussian", x0=(5.0,), p0=(0.0,), sigma=1.0)
    with pytest.raises(ValueError, match="leaks past the box"):
        make_initial_wigner(off_center, small)


def test_invalid_specs_rejected():
    with pytest.raises(ValueError, match="sigma"):
        InitialStateSpec(kind="gaussian", sigma=-1.0)
    with pytest.raises(ValueError, match="separation"):
        InitialStateSpec(kind="cat", separation=-2.0)
    with pytest.raises(ValueError, match="kind"):
        InitialStateSpec(kind="squeezed")


@pytest.mark.parametrize("cls, field, value", [
    (ModelParams, "m_s", np.inf), (ModelParams, "m_e", np.nan), (ModelParams, "g", np.inf),
    (ModelParams, "t_env", np.nan), (ModelParams, "t_env", np.inf),
    (ModelParams, "lambda_uv", np.inf),
    (InitialStateSpec, "x0", (np.nan,)), (InitialStateSpec, "p0", (np.inf,)),
    (InitialStateSpec, "sigma", np.inf), (InitialStateSpec, "separation", np.inf),
    (InitialStateSpec, "phase", np.nan)])
def test_non_finite_inputs_rejected_by_name(cls, field, value):
    """A non-finite model parameter or state parameter is rejected when the
    dataclass is built, by a ValueError that names the field (an infinite
    lambda_uv used to reach the k rule and overflow there)."""
    base = ({"d": 1, "m_s": 1.0, "m_e": 1.0, "g": 0.1} if cls is ModelParams
            else {"kind": "cat", "separation": 2.0})
    with pytest.raises(ValueError, match=f"^{field} must be finite$"):
        cls(**dict(base, **{field: value}))


def test_cat_negativity(cat_spec):
    grid = balanced_grid(cat_spec, 128)
    w0 = make_initial_wigner(cat_spec, grid)
    obs = observables(w0)
    assert obs.negativity_volume > 0.1
    assert obs.purity == pytest.approx(1.0, abs=1e-6)
