import numpy as np
import pytest
from scipy.integrate import quad

from wignerbath import (InitialStateSpec, ModelParams, SpacetimePoint,
                        QuadratureSpec, make_initial_wigner, sys_feynman,
                        sys_dyson, DensityMatrix, wigner_from_density)
from wignerbath.states import balanced_grid, density_closed, wigner_closed, psi_closed
from wignerbath import propagators
from wignerbath.oracle import (oracle_wigner_transform, oracle_diagram,
                               epsilon_extrapolated_propagator, ProbeSet,
                               default_probes, packet_coeffs, certify_instance)
from wignerbath import evolution, oracle
from wignerbath.evolution import _fast_input, _second_order


def test_probe_set_validation(gauss_spec, params_ref):
    grid = balanced_grid(gauss_spec, 16)
    with pytest.raises(ValueError, match="between 3 and 25"):
        ProbeSet(points=((0, 0), (1, 0)), grid=grid, params=params_ref, t=1.0)
    with pytest.raises(ValueError, match="outside"):
        ProbeSet(points=((0, 0), (1, 0), (99.0, 0)), grid=grid,
                 params=params_ref, t=1.0)


def test_packet_free_evolution_against_quadrature(gauss_spec):
    m, sig, c, p0, s = 1.0, 1.0, 0.4, 0.7, 0.9
    spec = InitialStateSpec(kind="gaussian", x0=(c,), p0=(p0,), sigma=sig)
    P, a, b, cc = packet_coeffs(c, p0, sig, m, s)
    for x in (-1.0, 0.3, 2.0):
        val = P * np.exp(a * x**2 + b * x + cc)
        re, _ = quad(lambda z: np.real((m / (2j * np.pi * s)) ** 0.5
                                       * np.exp(1j * m * (x - z) ** 2 / (2 * s))
                                       * psi_closed(spec, z)), -40, 40, limit=800)
        im, _ = quad(lambda z: np.imag((m / (2j * np.pi * s)) ** 0.5
                                       * np.exp(1j * m * (x - z) ** 2 / (2 * s))
                                       * psi_closed(spec, z)), -40, 40, limit=800)
        assert abs(val - (re + 1j * im)) < 1e-10


def test_oracle_transform_gaussian_closed_form(gauss_spec, params_ref):
    grid = balanced_grid(gauss_spec, 32)
    probes = default_probes(grid, params_ref, 0.0)
    rho = lambda xa, xb: density_closed(gauss_spec, xa, xb)
    vals, status = oracle_wigner_transform(rho, grid, probes)
    ref = np.array([wigner_closed(gauss_spec, np.array(x), np.array(p))
                    for x, p in probes.points])
    assert np.max(np.abs(vals - ref)) < 1e-8
    assert all(s["converged"] for s in status)


def test_oracle_transform_zero_input(gauss_spec, params_ref):
    grid = balanced_grid(gauss_spec, 16)
    probes = default_probes(grid, params_ref, 0.0)
    vals, _ = oracle_wigner_transform(np.zeros((16, 16)), grid, probes)
    assert np.max(np.abs(vals)) == 0.0


def test_oracle_transform_agrees_with_fast_transform(gauss_spec, params_ref):
    grid = balanced_grid(gauss_spec, 32)
    x = grid.x_nodes
    rho_vals = density_closed(gauss_spec, x[:, None], x[None, :])
    w_fast = wigner_from_density(
        DensityMatrix(grid=grid, t=0.0, values=rho_vals), grid)
    probes = default_probes(grid, params_ref, 0.0)
    vals, _ = oracle_wigner_transform(rho_vals, grid, probes)
    ref = np.array([w_fast.values[int(round((x0 - grid.x_min) / grid.dx)),
                                  int(round((p0 - grid.p_nodes[0]) / grid.dp))]
                    for x0, p0 in probes.points])
    assert np.max(np.abs(vals - ref)) < 1e-8


def test_epsilon_extrapolated_propagator(params_ref):
    rng = np.random.default_rng(12)
    for _ in range(5):
        dt = rng.uniform(0.2, 2.0)
        dx = rng.uniform(-2.0, 2.0)
        a = SpacetimePoint(dt, dx)
        b = SpacetimePoint(0.0, 0.0)
        val, rec = epsilon_extrapolated_propagator(a, b, params_ref)
        assert abs(val - sys_feynman(a, b, params_ref)) < 1e-6
        # wrong-side support extrapolates to zero
        val0, _ = epsilon_extrapolated_propagator(b, a, params_ref)
        assert abs(val0) < 1e-8
        # conjugation against the anti-time-ordered closed form
        vd, _ = epsilon_extrapolated_propagator(b, a, params_ref, anti=True)
        assert abs(vd - sys_dyson(b, a, params_ref)) < 1e-6


def test_oracle_zeroth_matches_shear(gauss_spec, params_ref):
    grid = balanced_grid(gauss_spec, 16)
    w0 = make_initial_wigner(gauss_spec, grid, boundary_tol=1e-4)
    t = 0.8
    probes = default_probes(grid, params_ref, t)
    vals, _ = oracle_diagram("zeroth", w0, params_ref, t, probes)
    ref = np.array([wigner_closed(gauss_spec, np.array(x - p * t), np.array(p))
                    for x, p in probes.points])
    assert np.max(np.abs(vals.real - ref)) < 1e-7
    assert np.max(np.abs(vals.imag)) < 1e-10


def test_oracle_gain_t0_zero(tiny_instance):
    probes = default_probes(tiny_instance["grid"], tiny_instance["params"], 0.0)
    vals, _ = oracle_diagram("gain", tiny_instance["w0"],
                             tiny_instance["params"], 0.0, probes)
    assert np.max(np.abs(vals)) == 0.0


def test_oracle_requires_closed_form(gauss_spec, params_ref):
    from wignerbath.wigner import WignerFunction
    grid = balanced_grid(gauss_spec, 16)
    w0 = make_initial_wigner(gauss_spec, grid, boundary_tol=1e-4)
    bare = WignerFunction(grid=grid, t=0.0, values=w0.values)
    probes = default_probes(grid, params_ref, 1.0)
    with pytest.raises(ValueError, match="closed-form"):
        oracle_diagram("gain", bare, params_ref, 1.0, probes)


def test_oracle_budget_flag(tiny_instance):
    w0, params, t = (tiny_instance[k] for k in ("w0", "params", "t"))
    probes = default_probes(tiny_instance["grid"], params, t)
    vals, status = oracle_diagram("gain", w0, params, t, probes,
                                  budget_s=1e-9)
    assert any(s["status"] == "budget_exceeded" for s in status)


def test_gentle_instance_certification(gentle_instance):
    """Gridded fast path vs oracle on a wrap-free instance."""
    w0, params, t, quad, grid = (gentle_instance[k] for k in
                                 ("w0", "params", "t", "quad", "grid"))
    probes = default_probes(grid, params, t)
    ix = [int(round((x - grid.x_min) / grid.dx)) for x, _ in probes.points]
    ip = [int(round((p - grid.p_nodes[0]) / grid.dp)) for _, p in probes.points]
    terms = _second_order(_fast_input(w0, "grid"), params, t, quad)
    for term in ("gain", "loss_left", "loss_right"):
        fast, _ = terms[term]
        orc, _ = oracle_diagram(term, w0, params, t, probes)
        fv = np.array([fast[i, j] for i, j in zip(ix, ip)])
        rel = np.abs(fv - orc) / np.maximum(np.abs(fv), np.abs(orc))
        assert rel.max() < 1e-6, term


def test_certify_record_structure(gentle_instance):
    w0, params, t, quad, grid = (gentle_instance[k] for k in
                                 ("w0", "params", "t", "quad", "grid"))
    probes = ProbeSet(points=tuple(probes_pt for probes_pt in
                                   default_probes(grid, params, t).points[:4]),
                      grid=grid, params=params, t=t)
    record = certify_instance(w0, params, t, probes, quad,
                              terms=("gain",), backend="grid")
    assert record["all_passed"]
    assert record["terms"]["gain"]["passed"]
    entry = record["terms"]["gain"]["probes"][0]
    assert {"probe", "fast", "oracle", "rel_diff", "status"} <= set(entry)


def test_certify_ladder_stops_where_two_rules_agree(gentle_instance):
    """On the gentle instance every term stops at the second rung, (20, 18),
    whose values read as those of the oracle's default rule (28, 24)."""
    w0, params, t, quad, grid = (gentle_instance[k] for k in
                                 ("w0", "params", "t", "quad", "grid"))
    probes = default_probes(grid, params, t)
    record = certify_instance(w0, params, t, probes, quad)
    assert record["all_passed"]
    for term, entry in record["terms"].items():
        assert entry["oracle_rule"] == [20, 18] and entry["oracle_rungs"] == 2, term
        assert entry["oracle_converged"], term
        assert max(e["oracle_err_est"] for e in entry["probes"]) <= 1e-8, term
        ref, _ = oracle_diagram(term, w0, params, t, probes)
        orc = np.array([complex(*e["oracle"]) for e in entry["probes"]])
        assert np.max(np.abs(orc - ref) / np.abs(ref)) <= 1e-12, term


def test_certify_ladder_ends_at_the_default_rule(gentle_instance, monkeypatch):
    """With a ladder tolerance that no pair of rules meets, the ladder climbs
    to (28, 24) and reports its values, with the difference from (20, 18)
    relative to the larger of the fast and oracle values as the estimate."""
    w0, params, t, quad, grid = (gentle_instance[k] for k in
                                 ("w0", "params", "t", "quad", "grid"))
    probes = ProbeSet(points=default_probes(grid, params, t).points[:4],
                      grid=grid, params=params, t=t)
    monkeypatch.setattr(oracle, "_LADDER_TOL", 0.0)
    record = certify_instance(w0, params, t, probes, quad,
                              terms=("gain", "loss_right"))
    assert list(record["terms"]) == ["gain", "loss_right"]
    for term, entry in record["terms"].items():
        assert entry["oracle_rule"] == [28, 24] and entry["oracle_rungs"] == 3, term
        assert not entry["oracle_converged"], term
        hi, _ = oracle_diagram(term, w0, params, t, probes)
        lo, _ = oracle_diagram(term, w0, params, t, probes, n_lambda=20, n_inner=18)
        for e, h, l in zip(entry["probes"], hi, lo):
            scale = max(abs(complex(*e["fast"])), abs(h), 1e-300)
            assert e["oracle"] == [h.real, h.imag], term
            assert e["oracle_err_est"] == abs(h - l) / scale, term


def test_certify_ladder_stops_once_the_budget_is_spent(gentle_instance):
    """No rung starts after the runtime budget is spent: the first rung's
    values are reported, with no error estimate."""
    w0, params, t, quad, grid = (gentle_instance[k] for k in
                                 ("w0", "params", "t", "quad", "grid"))
    probes = ProbeSet(points=default_probes(grid, params, t).points[:3],
                      grid=grid, params=params, t=t)
    record = certify_instance(w0, params, t, probes, quad, terms=("gain",),
                              budget_s=1e-9)
    entry = record["terms"]["gain"]
    assert entry["oracle_rule"] == list(oracle._RUNGS[0]) and entry["oracle_rungs"] == 1
    assert not entry["oracle_converged"]
    assert all(np.isnan(e["oracle_err_est"]) for e in entry["probes"])


def test_certify_rejects_before_the_fast_path(gentle_instance, monkeypatch):
    """d != 1 (the oracle's limit) and the retired backend = "closed" are
    rejected before the fast path runs: a d = 3 fast path can allocate TiB."""
    w0, params, t, quad, grid = (gentle_instance[k] for k in
                                 ("w0", "params", "t", "quad", "grid"))
    probes = default_probes(grid, params, t)

    def refuse(*args, **kwargs):
        raise AssertionError("the fast path ran")

    monkeypatch.setattr(evolution, "_second_order", refuse)
    d3 = ModelParams(d=3, m_s=1.0, m_e=1.0, g=0.1, lambda_uv=6.0)
    with pytest.raises(ValueError, match="d = 1"):
        certify_instance(w0, d3, t, probes, quad)
    with pytest.raises(ValueError, match="'closed' is retired"):
        certify_instance(w0, params, t, probes, quad, backend="closed")


def _warm_cat():
    """A cat (cross-component sums) in a thermal bath (both Bose branches),
    with 3 of its default probes."""
    spec = InitialStateSpec(kind="cat", x0=(0.0,), p0=(0.3,), sigma=1.0,
                            separation=3.0, phase=0.7)
    params = ModelParams(d=1, m_s=1.0, m_e=1.0, g=0.1, lambda_uv=6.0,
                         t_env=1.5)
    grid = balanced_grid(spec, 32)
    w0 = make_initial_wigner(spec, grid, boundary_tol=1e-4)
    t = 0.4
    probes = ProbeSet(points=default_probes(grid, params, t).points[:3],
                      grid=grid, params=params, t=t)
    return w0, params, t, probes


@pytest.mark.parametrize("term", ("gain", "loss_left", "loss_right"))
def test_oracle_batching_does_not_change_values(term, monkeypatch):
    """One tau node per chunk and all nodes in one chunk agree to rounding,
    on the warm cat."""
    w0, params, t, probes = _warm_cat()
    vals = []
    for budget in (1, 1 << 62):
        monkeypatch.setattr(propagators, "_CHUNK_BYTES", budget)
        v, _ = oracle_diagram(term, w0, params, t, probes, n_lambda=12,
                              n_inner=12)
        vals.append(v)
    assert np.max(np.abs(vals[0] - vals[1])) <= 1e-14 * np.max(np.abs(vals[1]))


def test_warm_cat_certification():
    """Closed-path fast terms vs the oracle on the warm cat, all three terms
    within 1e-6 relative: the check on the oracle's Bose weights of both
    signs of tau (the gain's) and of the cross-component sums."""
    w0, params, t, probes = _warm_cat()
    grid = probes.grid
    ix = [int(round((x - grid.x_min) / grid.dx)) for x, _ in probes.points]
    ip = [int(round((p - grid.p_nodes[0]) / grid.dp)) for _, p in probes.points]
    terms = _second_order(w0, params, t, QuadratureSpec())
    for term in ("gain", "loss_left", "loss_right"):
        fast, _ = terms[term]
        orc, _ = oracle_diagram(term, w0, params, t, probes)
        fv = np.array([fast[i, j] for i, j in zip(ix, ip)])
        rel = np.abs(fv - orc) / np.maximum(np.abs(fv), np.abs(orc))
        assert rel.max() < 1e-6, term
