"""Acceptance suite: one test per release criterion, each printing a
pass/fail line with the measured numbers (run with `pytest -s` to see them
as they complete)."""

import time

import numpy as np
import pytest

from wignerbath import (InitialStateSpec, ModelParams, QuadratureSpec,
                        SpacetimePoint, DensityMatrix, make_initial_wigner,
                        wigner_from_density, density_from_wigner, evolve,
                        evolve_zeroth, sys_feynman, sys_dyson, env_wightman,
                        env_feynman, env_dyson)
from wignerbath.states import balanced_grid, density_closed, wigner_closed
from wignerbath.wigner import observables
from wignerbath import oracle
from wignerbath.oracle import (default_probes, certify_instance,
                               epsilon_extrapolated_propagator)
from wignerbath.evolution import _fast_input, _second_order
from wignerbath.config import parse_config
from wignerbath.runio import run


def _report(num, label, value, bound):
    print(f"[PASS] criterion {num}: {label}: {value:.3e} (bound {bound:.1e})")


@pytest.fixture(scope="module")
def reference_run(tiny_instance):
    """Criterion-6 reference: certification record plus the assembled run."""
    w0, params, t, quad, grid = (tiny_instance[k] for k in
                                 ("w0", "params", "t", "quad", "grid"))
    probes = default_probes(grid)
    record = certify_instance(w0, params, t, probes, quad)
    result = evolve(w0, params, t, quad)
    return {"record": record, "result": result, **tiny_instance,
            "probes": probes}


def test_criterion_1_transform_round_trip(gauss_spec, cat_spec):
    start = time.time()
    worst = 0.0
    for spec in (gauss_spec, cat_spec):
        grid = balanced_grid(spec, 128)
        w0 = make_initial_wigner(spec, grid)
        w_rt = wigner_from_density(density_from_wigner(w0))
        rel = np.max(np.abs(w_rt.values - w0.values)) / np.max(np.abs(w0.values))
        worst = max(worst, rel)
    elapsed = time.time() - start
    assert worst <= 1e-10
    assert elapsed < 1.0
    _report(1, f"round-trip sup error ({elapsed:.2f} s)", worst, 1e-10)


def test_criterion_2_closed_form_wigner():
    worst = 0.0
    for sigma in (0.5, 1.0, 2.0):
        spec = InitialStateSpec(kind="gaussian", x0=(0.0,), p0=(0.0,),
                                sigma=sigma)
        grid = balanced_grid(spec, 128)
        x = grid.x_nodes
        rho = DensityMatrix(grid=grid, t=0.0,
                            values=density_closed(spec, x[:, None], x[None, :]))
        w = wigner_from_density(rho)
        ref = (1.0 / np.pi) * np.exp(-x[:, None] ** 2 / (2 * sigma**2)
                                     - 2 * sigma**2 * grid.p_nodes[None, :] ** 2)
        worst = max(worst, float(np.max(np.abs(w.values - ref))))
    assert worst <= 1e-8
    _report(2, "Gaussian Wigner sup error over sigma sweep", worst, 1e-8)


def test_criterion_3_propagator_certification(params_ref):
    rng = np.random.default_rng(2024)
    worst_osc = 0.0
    worst_id = 0.0
    for _ in range(20):
        dt = rng.uniform(0.1, 2.0) * rng.choice([-1.0, 1.0])
        a = SpacetimePoint(max(dt, 0.0) + rng.uniform(0, 1), rng.uniform(-2, 2))
        b = SpacetimePoint(a.t - dt, rng.uniform(-2, 2))
        if dt > 0:
            val, _ = epsilon_extrapolated_propagator(a, b, params_ref)
            worst_osc = max(worst_osc, abs(val - sys_feynman(a, b, params_ref)))
        else:
            val, _ = epsilon_extrapolated_propagator(a, b, params_ref, anti=True)
            worst_osc = max(worst_osc, abs(val - sys_dyson(a, b, params_ref)))
        # support and conjugation identities
        worst_id = max(worst_id,
                       abs(sys_dyson(a, b, params_ref)
                           - np.conj(sys_feynman(b, a, params_ref))))
        if a.t > b.t:
            worst_id = max(worst_id, abs(sys_dyson(a, b, params_ref)))
        else:
            worst_id = max(worst_id, abs(sys_feynman(a, b, params_ref)))
    assert worst_osc <= 1e-6
    assert worst_id <= 1e-12
    _report(3, "contour-oracle propagator error", worst_osc, 1e-6)
    _report(3, "support/conjugation identities", worst_id, 1e-12)


def test_criterion_4_environment_propagator():
    from scipy.integrate import quad as squad
    from scipy.special import k0
    params = ModelParams(d=1, m_s=1.0, m_e=1.0, g=0.1, lambda_uv=200.0)
    worst = 0.0
    for r in (0.5, 1.0, 2.0):
        val = env_wightman(SpacetimePoint(0.0, 0.0), SpacetimePoint(0.0, r),
                           params)
        tail, _ = squad(lambda k: 1.0 / np.sqrt(k**2 + 1.0), 200.0, np.inf,
                        weight="cos", wvar=r)
        ref = (k0(r) - tail) / (2.0 * np.pi)
        worst = max(worst, abs(val - ref))
    assert worst <= 1e-4
    rng = np.random.default_rng(77)
    worst_ord = 0.0
    for _ in range(10):
        a = SpacetimePoint(rng.uniform(-1, 1), rng.uniform(-2, 2))
        b = SpacetimePoint(rng.uniform(-1, 1), rng.uniform(-2, 2))
        lhs = env_feynman(a, b, params) + env_dyson(a, b, params)
        rhs = env_wightman(a, b, params) + env_wightman(b, a, params)
        worst_ord = max(worst_ord, abs(lhs - rhs))
    assert worst_ord <= 1e-12
    _report(4, "equal-time Wightman vs Bessel-K0 (tail-corrected)", worst, 1e-4)
    _report(4, "ordering identity", worst_ord, 1e-12)


def test_criterion_5_zeroth_order_physics(gauss_spec, params_ref):
    grid = balanced_grid(gauss_spec, 128)
    w0 = make_initial_wigner(gauss_spec, grid)
    o0 = observables(w0)
    worst_var = worst_norm = 0.0
    for t in (0.5, 1.0, 2.0):
        z = evolve_zeroth(w0, params_ref, t)
        oz = observables(z)
        expected = o0.var_x + t**2 * o0.var_p / params_ref.m_s**2
        worst_var = max(worst_var, abs(oz.var_x - expected) / expected)
        worst_norm = max(worst_norm, abs(z.norm() - w0.norm()))
        x = grid.x_nodes
        ref = wigner_closed(gauss_spec,
                            x[:, None] - grid.p_nodes[None, :] * t,
                            grid.p_nodes[None, :] + 0.0 * x[:, None])
        assert np.max(np.abs(z.values - ref)) < 1e-8
    z_comp = evolve_zeroth(evolve_zeroth(w0, params_ref, 0.5), params_ref, 1.5)
    z_once = evolve_zeroth(w0, params_ref, 2.0)
    comp = float(np.max(np.abs(z_comp.values - z_once.values)))
    assert worst_var <= 1e-6
    assert worst_norm <= 1e-8
    assert comp <= 1e-8
    _report(5, "variance law relative error", worst_var, 1e-6)
    _report(5, "norm preservation", worst_norm, 1e-8)
    _report(5, "composition law", comp, 1e-8)


def test_criterion_6_diagram_certification(reference_run):
    record = reference_run["record"]
    assert record["runtime_s"] <= 600.0
    worst = 0.0
    for term, entry in record["terms"].items():
        rels = [e["rel_diff"] for e in entry["probes"]]
        assert all(e["status"] == "ok" for e in entry["probes"])
        assert max(rels) <= 1e-10, term
        assert entry["oracle_converged"], term
        assert all(e["oracle_err_est"] <= oracle._LADDER_TOL for e in entry["probes"]), term
        worst = max(worst, max(rels))
    assert record["all_passed"]
    _report(6, f"fast-path vs oracle over 3 terms x 9 probes "
               f"({record['runtime_s']:.0f} s)", worst, 1e-10)


def test_criterion_6_gridded_backend(reference_run):
    """The production gridded path agrees with the oracle too."""
    w0, params, t, quad, grid = (reference_run[k] for k in
                                 ("w0", "params", "t", "quad", "grid"))
    probes = reference_run["probes"]
    ix = [int(round((x - grid.x_min) / grid.dx)) for x, _ in probes.points]
    ip = [int(round((p - grid.p_nodes[0]) / grid.dp)) for _, p in probes.points]
    worst = 0.0
    terms = _second_order(_fast_input(w0, "grid"), params, t, quad)
    for term, entry in reference_run["record"]["terms"].items():
        fast, _ = terms[term]
        orc = np.array([e["oracle"][0] + 1j * e["oracle"][1]
                        for e in entry["probes"]])
        fv = np.array([fast[i, j] for i, j in zip(ix, ip)])
        rel = np.abs(fv - orc) / np.maximum(np.abs(fv), np.abs(orc))
        worst = max(worst, float(rel.max()))
    assert worst <= 1e-5
    _report(6, "gridded backend vs oracle", worst, 1e-5)


def test_criterion_7_trace_cancellation(reference_run):
    result = reference_run["result"]
    diag = result.diagnostics
    budget = 1e-4 * diag["gain_l1"]
    assert abs(diag["trace_defect_g2"]) <= budget
    # quadrature convergence: doubling n_k changes each term by less than
    # its self-declared estimate
    w0, params, t, quad, grid = (reference_run[k] for k in
                                 ("w0", "params", "t", "quad", "grid"))
    fine = QuadratureSpec(n_k=2 * quad.n_k, rel_tol=quad.rel_tol)
    cell = grid.cell_volume
    terms_1, terms_2 = (_second_order(w0, params, t, q) for q in (quad, fine))
    for term in ("gain", "loss_left", "loss_right"):
        (v1, rep), (v2, _) = terms_1[term], terms_2[term]
        change = float(np.sum(np.abs(v1 - v2)) * cell)
        assert change <= max(rep["err_est"], 1e-13), term
    _report(7, "second-order trace defect", abs(diag["trace_defect_g2"]),
            budget)


def test_criterion_8_reality_hermiticity(reference_run):
    diag = reference_run["result"].diagnostics
    assert diag["max_imag_residue"] <= 1e-8
    assert diag["hermiticity_defect"] <= 1e-8
    _report(8, "assembled imaginary residue", diag["max_imag_residue"], 1e-8)
    _report(8, "reconstructed-density Hermiticity defect",
            diag["hermiticity_defect"], 1e-8)


def test_criterion_9_determinism(tmp_path):
    base = """
mode = evolve
n_x = 32
lambda_uv = 6.0
times = 0.5
out.dir = {out}
workers = {workers}
"""
    m1 = run(parse_config(base.format(out=tmp_path / "w1", workers=1)))
    m4 = run(parse_config(base.format(out=tmp_path / "w4", workers=4)))
    assert not m1["failures"] and not m4["failures"]
    pairs = list(zip(m1["files"], m4["files"]))
    assert pairs
    for f1, f4 in pairs:
        assert f1["path"] == f4["path"]
        assert f1["sha256"] == f4["sha256"]
    print(f"[PASS] criterion 9: {len(pairs)} data files byte-identical "
          "across worker counts")


def test_criterion_10_decoherence_smoke(cat_spec):
    params = ModelParams(d=1, m_s=1.0, m_e=1.0, g=0.1, lambda_uv=8.0)
    quad = QuadratureSpec(n_k=24, rel_tol=1e-5)
    grid = balanced_grid(cat_spec, 128)
    w0 = make_initial_wigner(cat_spec, grid)
    nv0 = observables(w0).negativity_volume
    series = [nv0]
    for t in (0.25, 0.5, 0.75):
        res = evolve(w0, params, t, quad)
        series.append(observables(res.w_total).negativity_volume)
        # the grid sum of |W| is not invariant under the free shear, so the
        # bath is judged against the free evolution to the same time (in the
        # continuum both equal nv0)
        assert series[-1] <= observables(res.w_zeroth).negativity_volume + 1e-9
    monotone = all(b <= a + 1e-9 for a, b in zip(series, series[1:]))
    print(f"[PASS] criterion 10: negativity volume {['%.5f' % v for v in series]}"
          f" (monotone non-increase: {monotone})")
