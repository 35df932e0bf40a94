import numpy as np
import pytest

from wignerbath import InitialStateSpec, ModelParams, QuadratureSpec, make_initial_wigner
from wignerbath.states import balanced_grid


@pytest.fixture(scope="session")
def gauss_spec():
    return InitialStateSpec(kind="gaussian", x0=(0.0,), p0=(0.0,), sigma=1.0)


@pytest.fixture(scope="session")
def cat_spec():
    return InitialStateSpec(kind="cat", x0=(0.0,), p0=(0.0,), sigma=1.0,
                            separation=6.0, phase=0.0)


@pytest.fixture(scope="session")
def grid64(gauss_spec):
    return balanced_grid(gauss_spec, 64)


@pytest.fixture(scope="session")
def w0_64(gauss_spec, grid64):
    return make_initial_wigner(gauss_spec, grid64, boundary_tol=1e-6)


@pytest.fixture(scope="session")
def params_ref():
    """Reference model of the certification instance."""
    return ModelParams(d=1, m_s=1.0, m_e=1.0, g=0.1, lambda_uv=50.0)


@pytest.fixture(scope="session")
def tiny_instance(gauss_spec, params_ref):
    """The 16 x 16 certification instance (m_s = m_e = 1, t = 1, UV = 50)."""
    grid = balanced_grid(gauss_spec, 16)
    w0 = make_initial_wigner(gauss_spec, grid, boundary_tol=1e-4)
    quad = QuadratureSpec(n_k=24, rel_tol=1e-6)
    return {"grid": grid, "w0": w0, "params": params_ref, "t": 1.0,
            "quad": quad}


@pytest.fixture(scope="session")
def gentle_instance(gauss_spec):
    """A soft-cutoff instance whose gridded W0 is small at the box edge, so
    the grid and closed paths agree closely."""
    grid = balanced_grid(gauss_spec, 32)
    w0 = make_initial_wigner(gauss_spec, grid, boundary_tol=1e-6)
    params = ModelParams(d=1, m_s=1.0, m_e=1.0, g=0.1, lambda_uv=6.0)
    quad = QuadratureSpec(n_k=24, rel_tol=1e-6)
    return {"grid": grid, "w0": w0, "params": params, "t": 0.6, "quad": quad}
