import numpy as np
import pytest

from wignerbath import (PhaseSpaceGrid, DensityMatrix, WignerFunction,
                        wigner_from_density, density_from_wigner, marginals,
                        make_initial_wigner, InitialStateSpec)
from wignerbath.states import balanced_grid, density_closed, wigner_closed


def test_gaussian_forward_matches_closed_form(gauss_spec, grid64):
    x = grid64.x_nodes
    rho = DensityMatrix(grid=grid64, t=0.0,
                        values=density_closed(gauss_spec, x[:, None], x[None, :]))
    w = wigner_from_density(rho)
    w_ref = wigner_closed(gauss_spec, x[:, None], grid64.p_nodes[None, :])
    assert np.max(np.abs(w.values - w_ref)) < 1e-12


def test_displaced_gaussian_forward():
    spec = InitialStateSpec(kind="gaussian", x0=(0.7,), p0=(-0.6,), sigma=0.8)
    grid = balanced_grid(spec, 64)
    x = grid.x_nodes
    rho = DensityMatrix(grid=grid, t=0.0,
                        values=density_closed(spec, x[:, None], x[None, :]))
    w = wigner_from_density(rho)
    w_ref = wigner_closed(spec, x[:, None], grid.p_nodes[None, :])
    assert np.max(np.abs(w.values - w_ref)) < 1e-12


def test_zero_density_gives_zero_wigner(grid64):
    rho = DensityMatrix(grid=grid64, t=0.0,
                        values=np.zeros(grid64.density_shape(), dtype=complex))
    w = wigner_from_density(rho)
    assert np.all(w.values == 0.0)


def test_round_trip_density_side(gauss_spec, grid64):
    x = grid64.x_nodes
    rho = DensityMatrix(grid=grid64, t=0.0,
                        values=density_closed(gauss_spec, x[:, None], x[None, :]))
    back = density_from_wigner(wigner_from_density(rho))
    rel = np.max(np.abs(back.values - rho.values)) / np.max(np.abs(rho.values))
    assert rel < 1e-12
    assert back.trace().real == pytest.approx(1.0, abs=1e-8)


def test_round_trip_wigner_side(w0_64):
    w_rt = wigner_from_density(density_from_wigner(w0_64))
    rel = np.max(np.abs(w_rt.values - w0_64.values)) / np.max(np.abs(w0_64.values))
    assert rel < 1e-10


@pytest.mark.parametrize("d, n", [(1, 16), (1, 32), (1, 64), (3, 8)])
def test_round_trip_is_exact_on_any_wigner(d, n):
    """W -> rho -> W is the identity to rounding for any W, even one that
    has not died out at the box edge: the forward transform reads W back
    from the anti-diagonal table that the inverse keeps, over one 2n
    period, where a zero-padded rho would cut the table at the box edge."""
    grid = PhaseSpaceGrid(d=d, n_x=n, dx=0.7, x_min=-0.35 * n)
    w = WignerFunction(grid=grid, t=0.0,
                       values=np.random.default_rng(n).standard_normal(grid.value_shape()))
    w_rt = wigner_from_density(density_from_wigner(w))
    assert np.max(np.abs(w_rt.values - w.values)) < 1e-14 * np.max(np.abs(w.values))


def test_round_trip_cat(cat_spec):
    grid = balanced_grid(cat_spec, 128)
    w0 = make_initial_wigner(cat_spec, grid)
    w_rt = wigner_from_density(density_from_wigner(w0))
    rel = np.max(np.abs(w_rt.values - w0.values)) / np.max(np.abs(w0.values))
    assert rel < 1e-12


def test_linearity(grid64, gauss_spec):
    rng = np.random.default_rng(7)
    x = grid64.x_nodes
    r1 = density_closed(gauss_spec, x[:, None], x[None, :])
    spec2 = InitialStateSpec(kind="gaussian", x0=(1.0,), p0=(0.3,), sigma=1.3)
    r2 = density_closed(spec2, x[:, None], x[None, :])
    a, b = 0.37, -1.21
    w_sum = wigner_from_density(
        DensityMatrix(grid=grid64, t=0.0, values=a * r1 + b * r2))
    w1 = wigner_from_density(DensityMatrix(grid=grid64, t=0.0, values=r1))
    w2 = wigner_from_density(DensityMatrix(grid=grid64, t=0.0, values=r2))
    assert np.max(np.abs(w_sum.values - a * w1.values - b * w2.values)) < 1e-13


def test_non_hermitian_rejected(grid64):
    vals = np.zeros(grid64.density_shape(), dtype=complex)
    vals[3, 5] = 1.0  # no conjugate partner
    with pytest.raises(ValueError, match="Hermitian"):
        wigner_from_density(DensityMatrix(grid=grid64, t=0.0, values=vals))


def test_position_marginal_matches_density_diagonal(w0_64):
    rho = density_from_wigner(w0_64)
    pos, mom = marginals(w0_64)
    assert np.max(np.abs(pos - np.real(np.diagonal(rho.values)))) < 1e-8


def test_marginal_matches_closed_form(gauss_spec, w0_64, grid64):
    pos, _ = marginals(w0_64)
    x = grid64.x_nodes
    ref = (2 * np.pi) ** -0.5 * np.exp(-x**2 / 2.0)
    assert np.max(np.abs(pos - ref)) < 1e-12


def test_cat_marginal_nonnegative(cat_spec):
    grid = balanced_grid(cat_spec, 128)
    w0 = make_initial_wigner(cat_spec, grid)
    assert w0.values.min() < -0.05  # interference fringe is negative
    pos, mom = marginals(w0)
    assert pos.min() > -1e-12
    assert mom.min() > -1e-12


def test_d3_transform_separability():
    """The d = 3 transform of a product state is the tensor product of 1-D
    transforms, which pins the multi-axis bookkeeping exactly."""
    spec1 = InitialStateSpec(kind="gaussian", x0=(0.1,), p0=(0.0,), sigma=1.0)
    n = 8
    g1 = PhaseSpaceGrid(d=1, n_x=n, dx=0.9, x_min=0.1 - 3.5 * 0.9)
    g3 = PhaseSpaceGrid(d=3, n_x=n, dx=0.9, x_min=0.1 - 3.5 * 0.9)
    x = g1.x_nodes
    r1 = density_closed(spec1, x[:, None], x[None, :])
    w1 = wigner_from_density(DensityMatrix(grid=g1, t=0.0, values=r1))
    r3 = np.einsum("ad,be,cf->abcdef", r1, r1, r1)
    w3 = wigner_from_density(DensityMatrix(grid=g3, t=0.0, values=r3))
    ref = np.einsum("ad,be,cf->abcdef", w1.values, w1.values, w1.values)
    assert np.max(np.abs(w3.values - ref)) < 1e-12
    # the inverse is separable the same way (per-axis truncation and all)
    r1_back = density_from_wigner(w1).values
    r3_back = density_from_wigner(w3).values
    ref_back = np.einsum("ad,be,cf->abcdef", r1_back, r1_back, r1_back)
    assert np.max(np.abs(r3_back - ref_back)) < 1e-12 * np.max(np.abs(ref_back))


def _direct_inverse(w, dp):
    """O(n^3) direct sum of the inverse on the last two axes (x, p):

        rho[a, b] = dp sum_r w_half[a + b, r] e^{-i pi (r - n/2)(b - a)/n},

    w_half[2j] = W[j] and w_half[2j + 1] = the split-Nyquist trig interpolant
    of W at the half node j + 1/2 (where the Nyquist term cos(pi (j + 1/2))
    vanishes), built here from an explicit DFT matrix.  The phase argument is
    reduced mod 2n in integers, so the sum itself adds only ~n ulps.
    """
    n = w.shape[-1]
    j = np.arange(n)
    k = np.arange(-(n // 2) + 1, n // 2)
    # interp[h, l]: weight of W[l] in the interpolant at node h + 1/2
    interp = (np.exp(2j * np.pi * np.outer(j + 0.5, k) / n)
              @ np.exp(-2j * np.pi * np.outer(k, j) / n)) / n
    w_half = np.empty(w.shape[:-2] + (2 * n, n), dtype=complex)
    w_half[..., 0::2, :] = w
    w_half[..., 1::2, :] = np.einsum("hl,...lr->...hr", interp, w)
    a = np.arange(n)
    turns = ((j[None, None, :] - n // 2) * (a[None, :, None] - a[:, None, None])) % (2 * n)
    kernel = np.exp(-1j * np.pi * turns / n)                    # (a, b, r)
    gathered = w_half[..., a[:, None] + a[None, :], :]          # (..., a, b, r)
    return dp * np.einsum("...abr,abr->...ab", gathered, kernel)


@pytest.mark.parametrize("n", [8, 16, 32, 64])
def test_inverse_matches_direct_sum(n):
    rng = np.random.default_rng(n)
    grid = PhaseSpaceGrid(d=1, n_x=n, dx=0.3, x_min=-0.3 * n / 2)
    w = WignerFunction(grid=grid, t=0.0, values=rng.standard_normal((n, n)))
    ref = _direct_inverse(w.values, grid.dp)
    rho = density_from_wigner(w).values
    assert np.max(np.abs(rho - ref)) <= 1e-13 * np.max(np.abs(ref))


def test_inverse_keeps_leading_batch_axes():
    from wignerbath.wigner import _density_pair
    n, dp = 16, 0.7
    batch = np.random.default_rng(5).standard_normal((2, 3, n, n))
    ref = _direct_inverse(batch, dp)
    out = _density_pair(batch.astype(complex), n, dp)
    assert out.shape == (2, 3, n, n)
    assert np.max(np.abs(out - ref)) <= 1e-13 * np.max(np.abs(ref))


def test_inverse_of_a_product_state_is_the_product_of_direct_sums():
    """A d = 3 W that is a product of three different 1-D factors inverts to
    the tensor product of their 1-D direct sums."""
    n = 8
    g3 = PhaseSpaceGrid(d=3, n_x=n, dx=0.9, x_min=-3.5 * 0.9)
    f1, f2, f3 = np.random.default_rng(11).standard_normal((3, n, n))
    w3 = WignerFunction(grid=g3, t=0.0,
                        values=np.einsum("ad,be,cf->abcdef", f1, f2, f3))
    r1, r2, r3 = (_direct_inverse(f, g3.dp) for f in (f1, f2, f3))
    ref = np.einsum("ad,be,cf->abcdef", r1, r2, r3)
    rho = density_from_wigner(w3).values
    assert np.max(np.abs(rho - ref)) <= 1e-13 * np.max(np.abs(ref))


def test_inverse_allocates_no_cube():
    """At n = 256 an (n, n, n) complex array alone is 268 MB; the inverse
    must stay in O(n^2) memory."""
    import tracemalloc
    n = 256
    grid = PhaseSpaceGrid(d=1, n_x=n, dx=0.05, x_min=-0.05 * n / 2)
    w = WignerFunction(grid=grid, t=0.0,
                       values=np.random.default_rng(0).standard_normal((n, n)))
    tracemalloc.start()
    try:
        density_from_wigner(w)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20
