from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
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


def test_probe_set_validation(gauss_spec):
    grid = balanced_grid(gauss_spec, 16)
    with pytest.raises(ValueError, match="between 3 and 25"):
        ProbeSet(points=((0, 0), (1, 0)), grid=grid)
    with pytest.raises(ValueError, match="outside"):
        ProbeSet(points=((0, 0), (1, 0), (99.0, 0)), grid=grid)


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


def test_oracle_transform_gaussian_closed_form(gauss_spec):
    grid = balanced_grid(gauss_spec, 32)
    probes = default_probes(grid)
    rho = lambda xa, xb: density_closed(gauss_spec, xa, xb)
    vals, status = oracle_wigner_transform(rho, grid, probes)
    ref = np.array([wigner_closed(gauss_spec, np.array(x), np.array(p))
                    for x, p in probes.points])
    assert np.max(np.abs(vals - ref)) < 1e-8
    assert all(s["converged"] for s in status)


def test_oracle_transform_zero_input(gauss_spec):
    grid = balanced_grid(gauss_spec, 16)
    probes = default_probes(grid)
    vals, _ = oracle_wigner_transform(np.zeros((16, 16)), grid, probes)
    assert np.max(np.abs(vals)) == 0.0


def test_oracle_transform_agrees_with_fast_transform(gauss_spec):
    grid = balanced_grid(gauss_spec, 32)
    x = grid.x_nodes
    rho_vals = density_closed(gauss_spec, x[:, None], x[None, :])
    w_fast = wigner_from_density(DensityMatrix(grid=grid, t=0.0, values=rho_vals))
    probes = default_probes(grid)
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
    probes = default_probes(grid)
    vals, _ = oracle_diagram("zeroth", w0, params_ref, t, probes)
    ref = np.array([wigner_closed(gauss_spec, np.array(x - p * t), np.array(p))
                    for x, p in probes.points])
    assert np.max(np.abs(vals.real - ref)) < 1e-7
    assert np.max(np.abs(vals.imag)) < 1e-10


def test_oracle_gain_t0_zero(tiny_instance):
    probes = default_probes(tiny_instance["grid"])
    vals, _ = oracle_diagram("gain", tiny_instance["w0"],
                             tiny_instance["params"], 0.0, probes)
    assert np.max(np.abs(vals)) == 0.0


def test_oracle_requires_closed_form(gauss_spec, params_ref):
    from wignerbath.wigner import WignerFunction
    grid = balanced_grid(gauss_spec, 16)
    w0 = make_initial_wigner(gauss_spec, grid, boundary_tol=1e-4)
    bare = WignerFunction(grid=grid, t=0.0, values=w0.values)
    probes = default_probes(grid)
    with pytest.raises(ValueError, match="closed-form"):
        oracle_diagram("gain", bare, params_ref, 1.0, probes)


def test_oracle_budget_flag(tiny_instance):
    w0, params, t = (tiny_instance[k] for k in ("w0", "params", "t"))
    probes = default_probes(tiny_instance["grid"])
    vals, status = oracle_diagram("gain", w0, params, t, probes,
                                  budget_s=1e-9)
    assert any(s["status"] == "budget_exceeded" for s in status)


def test_gentle_instance_certification(gentle_instance):
    """Gridded fast path vs oracle on a wrap-free instance."""
    w0, params, t, quad, grid = (gentle_instance[k] for k in
                                 ("w0", "params", "t", "quad", "grid"))
    probes = default_probes(grid)
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
    probes = ProbeSet(points=default_probes(grid).points[:4], grid=grid)
    record = certify_instance(w0, params, t, probes, quad,
                              terms=("gain",), backend="grid")
    assert record["all_passed"]
    assert record["terms"]["gain"]["passed"]
    # the k range is the instance's lambda_uv, so the quad record holds no cutoff
    assert set(record["instance"]["quad"]) == {"n_k", "k_nodes"}
    k_nodes = record["instance"]["quad"]["k_nodes"]
    assert k_nodes == record["terms"]["gain"]["fast_report"]["k_nodes"] > 0
    entry = record["terms"]["gain"]["probes"][0]
    assert {"probe", "fast", "oracle", "rel_diff", "status"} <= set(entry)


def test_certify_ladder_stops_where_two_rules_agree(gentle_instance):
    """On the gentle instance every term stops at the second rung, which
    confirms the first, and its values read as those of the oracle's default
    rule (28, 24).  Each record names the rule it ran: the gain's lambda rule
    is its n_lambda nodes on one panel, the losses' two panels of 24 nodes."""
    w0, params, t, quad, grid = (gentle_instance[k] for k in
                                 ("w0", "params", "t", "quad", "grid"))
    probes = default_probes(grid)
    record = certify_instance(w0, params, t, probes, quad)
    assert record["all_passed"]
    n_lambda, n_inner = oracle._RUNGS[1]
    for term, entry in record["terms"].items():
        assert entry["oracle_n_inner"] == n_inner and entry["oracle_rungs"] == 2, term
        assert entry["oracle_tau_rule"] == ([1, n_lambda] if term == "gain" else [2, 24]), term
        assert entry["oracle_converged"], term
        assert max(e["oracle_err_est"] for e in entry["probes"]) <= 1e-8, term
        ref, _ = oracle_diagram(term, w0, params, t, probes)
        orc = np.array([complex(*e["oracle"]) for e in entry["probes"]])
        assert np.max(np.abs(orc - ref) / np.abs(ref)) <= 1e-12, term


def test_certify_ladder_ends_at_the_default_rule(gentle_instance, monkeypatch):
    """With a ladder tolerance that no pair of rules meets, the ladder climbs
    to its last rung, oracle_diagram's default rule, and reports its values,
    with the difference from the second rung relative to the larger of the
    fast and oracle values as the estimate."""
    w0, params, t, quad, grid = (gentle_instance[k] for k in
                                 ("w0", "params", "t", "quad", "grid"))
    probes = ProbeSet(points=default_probes(grid).points[:4],
                      grid=grid)
    monkeypatch.setattr(oracle, "_LADDER_TOL", 0.0)
    record = certify_instance(w0, params, t, probes, quad,
                              terms=("gain", "loss_right"))
    assert list(record["terms"]) == ["gain", "loss_right"]
    (n_lambda, n_inner), (lo_lambda, lo_inner) = oracle._RUNGS[-1], oracle._RUNGS[1]
    for term, entry in record["terms"].items():
        assert entry["oracle_n_inner"] == n_inner and entry["oracle_rungs"] == 3, term
        assert entry["oracle_tau_rule"] == ([1, n_lambda] if term == "gain" else [2, 24]), term
        assert not entry["oracle_converged"], term
        hi, _ = oracle_diagram(term, w0, params, t, probes)
        lo, _ = oracle_diagram(term, w0, params, t, probes, n_lambda=lo_lambda,
                               n_inner=lo_inner)
        for e, h, l in zip(entry["probes"], hi, lo):
            scale = max(abs(complex(*e["fast"])), abs(h), 1e-300)
            assert e["oracle"] == [h.real, h.imag], term
            assert e["oracle_err_est"] == abs(h - l) / scale, term


def test_certify_ladder_climbs_where_the_first_rung_is_off(gentle_instance):
    """At the default ladder tolerance the ladder climbs on its own where the
    first rung is not converged: on the gentle instance at t = 2 the gain's
    first two rungs disagree (the first is 6e-7 off), so it climbs to the
    last rung and stops there converged, within 1e-10 of a (40, 32) reference."""
    w0, params, quad, grid = (gentle_instance[k] for k in ("w0", "params", "quad", "grid"))
    t = 2.0
    probes = default_probes(grid)
    first, second = (oracle_diagram("gain", w0, params, t, probes, n_lambda=n_lambda,
                                    n_inner=n_inner)[0]
                     for n_lambda, n_inner in oracle._RUNGS[:2])
    assert np.max(np.abs(second - first) / np.abs(second)) > 10 * oracle._LADDER_TOL
    entry = certify_instance(w0, params, t, probes, quad, terms=("gain",))["terms"]["gain"]
    n_lambda, n_inner = oracle._RUNGS[-1]
    assert entry["oracle_rungs"] == len(oracle._RUNGS) and entry["oracle_converged"]
    assert entry["oracle_tau_rule"] == [1, n_lambda] and entry["oracle_n_inner"] == n_inner
    ref, _ = oracle_diagram("gain", w0, params, t, probes, n_lambda=40, n_inner=32)
    orc = np.array([complex(*e["oracle"]) for e in entry["probes"]])
    assert np.max(np.abs(orc - ref) / np.abs(ref)) <= 1e-10


def test_certify_ladder_stops_once_the_budget_is_spent(gentle_instance):
    """No rung starts after the runtime budget is spent: the first rung's
    values are reported, with no error estimate."""
    w0, params, t, quad, grid = (gentle_instance[k] for k in
                                 ("w0", "params", "t", "quad", "grid"))
    probes = ProbeSet(points=default_probes(grid).points[:3],
                      grid=grid)
    record = certify_instance(w0, params, t, probes, quad, terms=("gain",),
                              budget_s=1e-9)
    entry = record["terms"]["gain"]
    n_lambda, n_inner = oracle._RUNGS[0]
    assert entry["oracle_tau_rule"] == [1, n_lambda] and entry["oracle_n_inner"] == n_inner
    assert entry["oracle_rungs"] == 1
    assert not entry["oracle_converged"]
    assert all(np.isnan(e["oracle_err_est"]) for e in entry["probes"])


def test_certify_rejects_before_the_fast_path(gentle_instance, monkeypatch):
    """d != 1 (the oracle's limit) and the retired backend = "closed" are
    rejected before the fast path runs: a d = 3 fast path can allocate TiB."""
    w0, params, t, quad, grid = (gentle_instance[k] for k in
                                 ("w0", "params", "t", "quad", "grid"))
    probes = default_probes(grid)

    def refuse(*args, **kwargs):
        raise AssertionError("the fast path ran")

    monkeypatch.setattr(evolution, "_second_order", refuse)
    d3 = ModelParams(d=3, m_s=1.0, m_e=1.0, g=0.1, lambda_uv=6.0)
    with pytest.raises(ValueError, match="d = 1"):
        certify_instance(w0, d3, t, probes, quad)
    with pytest.raises(ValueError, match="'closed' is retired"):
        certify_instance(w0, params, t, probes, quad, backend="closed")


def test_certify_rejects_an_unknown_term(gentle_instance, monkeypatch):
    """A misspelt term is rejected by name before the fast path builds its
    modes and before the oracle runs."""
    w0, params, t, quad, grid = (gentle_instance[k] for k in
                                 ("w0", "params", "t", "quad", "grid"))
    probes = default_probes(grid)

    def refuse(*args, **kwargs):
        raise AssertionError("work started")

    monkeypatch.setattr(evolution, "build_modes", refuse)
    monkeypatch.setattr(oracle, "oracle_diagram", refuse)
    with pytest.raises(ValueError, match="unknown term 'gian': the terms are "
                                         "gain, loss_left, loss_right"):
        certify_instance(w0, params, t, probes, quad, terms=("gian",))


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
    probes = ProbeSet(points=default_probes(grid).points[:3],
                      grid=grid)
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


def _rule_move(term, w0, params, t, probes, rule, name, refine):
    """Largest relative move of oracle_diagram's values at `rule` when the
    output of the oracle's helper `name` is passed through refine."""
    helper = getattr(oracle, name)
    n_lambda, n_inner = rule
    vals, _ = oracle_diagram(term, w0, params, t, probes, n_lambda=n_lambda,
                             n_inner=n_inner)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(oracle, name, lambda *args: refine(*helper(*args)))
        fine, _ = oracle_diagram(term, w0, params, t, probes, n_lambda=n_lambda,
                                 n_inner=n_inner)
    return np.max(np.abs(vals - fine) / np.abs(fine))


def _k_rule_move(term, w0, params, t, probes, rule):
    """_rule_move with every k panel of the spectral sums cut into four
    equal panels."""
    def quartered(mid, half, count):
        part = 0.25 * half
        mid = (mid[:, None] + part[:, None] * np.array([-3.0, -1.0, 1.0, 3.0])).ravel()
        return mid, np.repeat(part, 4), 4 * count

    return _rule_move(term, w0, params, t, probes, rule, "_k_panels", quartered)


def _tau_rule_move(term, w0, params, t, probes, rule):
    """_rule_move with twice the panels of the term's lambda rule."""
    return _rule_move(term, w0, params, t, probes, rule, "_tau_rule",
                      lambda panels, per_panel: (2 * panels, per_panel))


@pytest.mark.parametrize("m_e", (0.1, 0.03))
def test_light_bath_k_rule_is_converged(gentle_instance, m_e):
    """On a light bath 1/w peaks within m_e of k = 0, where the gain's k
    window has no panel edge of its own: the k rule grades toward k = 0, so
    4x its panels move no term by more than 1e-12 at the ladder's second
    rung, and certification stops the gain there, converged (a uniform
    4-panel floor left the gain 2.7e-5 (m_e = 0.1) and 1.6e-2 (0.03) off,
    unconverged at the top rung)."""
    w0, t, quad, grid = (gentle_instance[k] for k in ("w0", "t", "quad", "grid"))
    params = replace(gentle_instance["params"], m_e=m_e)
    probes = default_probes(grid)
    for term in ("gain", "loss_left", "loss_right"):
        assert _k_rule_move(term, w0, params, t, probes, oracle._RUNGS[1]) <= 1e-12, term
    entry = certify_instance(w0, params, t, probes, quad, terms=("gain",))["terms"]["gain"]
    assert entry["oracle_rungs"] == 2 and entry["oracle_converged"]
    assert entry["oracle_n_inner"] == oracle._RUNGS[1][1]


@pytest.mark.parametrize("instance", ("gentle", "gentle_warm", "warm_cat"))
def test_oracle_k_rule_is_converged(gentle_instance, instance):
    """4x the k panels move no probe of any term by more than 1e-12 at the
    ladder's first two rungs: both take the same k nodes per panel, so the
    ladder itself cannot see the k rule's error."""
    if instance == "warm_cat":
        w0, params, t, probes = _warm_cat()
    else:
        w0, t = gentle_instance["w0"], gentle_instance["t"]
        params = replace(gentle_instance["params"],
                         t_env=0.7 if instance == "gentle_warm" else 0.0)
        probes = default_probes(gentle_instance["grid"])
    for rule in oracle._RUNGS[:2]:
        for term in ("gain", "loss_left", "loss_right"):
            move = _k_rule_move(term, w0, params, t, probes, rule)
            assert move <= 1e-12, (rule, term, move)


@pytest.mark.parametrize("instance", ("gentle", "gentle_warm", "warm_cat", "light_bath",
                                      "tiny"))
def test_oracle_tau_rule_is_converged(gentle_instance, tiny_instance, instance):
    """Twice the losses' lambda panels move no probe by more than 1e-12 at
    the ladder's first two rungs, and on tiny (lambda_uv t = 50, 20 panels)
    loss_left by no more than 1e-10 at the second: every rung takes the same
    lambda rule, so the ladder itself cannot see its error."""
    rules, terms, bound = oracle._RUNGS[:2], ("loss_left", "loss_right"), 1e-12
    if instance == "warm_cat":
        w0, params, t, probes = _warm_cat()
    elif instance == "tiny":
        w0, params, t = (tiny_instance[k] for k in ("w0", "params", "t"))
        probes = default_probes(tiny_instance["grid"])
        rules, terms, bound = oracle._RUNGS[1:2], ("loss_left",), 1e-10
    else:
        w0, t = gentle_instance["w0"], gentle_instance["t"]
        change = {"gentle": {}, "gentle_warm": {"t_env": 0.7}, "light_bath": {"m_e": 0.03}}
        params = replace(gentle_instance["params"], **change[instance])
        probes = default_probes(gentle_instance["grid"])
    for rule in rules:
        for term in terms:
            move = _tau_rule_move(term, w0, params, t, probes, rule)
            assert move <= bound, (rule, term, move)


@settings(max_examples=8, deadline=None)
@given(n_x=st.sampled_from((16, 24, 32)), x0=st.floats(-0.5, 0.5),
       p0=st.floats(-0.3, 0.0), sigma=st.floats(0.8, 1.2),
       t_env=st.sampled_from((0.0, 0.7)))
def test_oracle_losses_are_mirror_images(n_x, x0, p0, sigma, t_env):
    """The oracle evaluates loss_right on its own, and at rung (12, 6) it is
    conj(loss_left) to 1e-13 of the largest value at the probes, for a
    Gaussian on its balanced 16- to 32-node grid (in these ranges each
    passes the box check), vacuum or warm: the identity the fast path takes
    loss_right from."""
    spec = InitialStateSpec(kind="gaussian", x0=(x0,), p0=(p0,), sigma=sigma)
    grid = balanced_grid(spec, n_x)
    w0 = make_initial_wigner(spec, grid, boundary_tol=1e-4)
    params = ModelParams(d=1, m_s=1.0, m_e=1.0, g=0.1, lambda_uv=6.0, t_env=t_env)
    probes = default_probes(grid)
    left, right = (oracle_diagram(term, w0, params, 0.6, probes, n_lambda=12, n_inner=6)[0]
                   for term in ("loss_left", "loss_right"))
    assert np.max(np.abs(right - np.conj(left))) <= 1e-13 * np.max(np.abs(left))


def test_probe_sets_off_the_grid_nodes_are_rejected(gauss_spec):
    """A probe between grid nodes is rejected by name: the fast path has
    values only on the nodes, where certification reads them.  A probe
    within rounding of a node is taken as that node."""
    grid = balanced_grid(gauss_spec, 16)
    x, p = grid.x_nodes, grid.p_nodes
    for off in ((x[8] + 0.5 * grid.dx, p[8]), (x[8], p[8] + 0.25 * grid.dp)):
        with pytest.raises(ValueError, match=r"probe \(.*\) is not a grid node"):
            ProbeSet(points=((x[8], p[8]), (x[9], p[8]), off), grid=grid)
    near = ProbeSet(points=((x[8], p[8]), (x[9] + 1e-12 * grid.dx, p[8]),
                            (x[8], p[9] - 1e-12 * grid.dp)), grid=grid)
    assert near.points == ((x[8], p[8]), (x[9], p[8]), (x[8], p[9]))
    assert near.nodes.tolist() == [[8, 8], [9, 8], [8, 9]]


def _layout_instance(gentle_instance, instance):
    """The instance's data with its full 3 x 3 default probe lattice."""
    if instance == "warm_cat":
        w0, params, t, probes = _warm_cat()
    else:
        w0, params, t = (gentle_instance[k] for k in ("w0", "params", "t"))
        probes = default_probes(gentle_instance["grid"])
    return w0, params, t, default_probes(probes.grid)


@pytest.mark.parametrize("instance", ("gentle", "warm_cat"))
def test_oracle_values_do_not_depend_on_the_probe_layout(gentle_instance, instance):
    """At rung (12, 6) each probe's value is the same, to 1e-12 relative,
    from the full 3 x 3 lattice, from its first three points (one lattice
    axis), from its diagonal (points[::4]: no probe one step along a single
    axis from another) and from the nine points in a permuted order.  The
    probes of one call share a k rule, so a subset's rule differs, but
    within the rule's own convergence."""
    w0, params, t, probes = _layout_instance(gentle_instance, instance)
    pts = probes.points
    order = np.random.default_rng(3).permutation(len(pts))
    layouts = {"first": np.arange(3), "diagonal": np.arange(0, 9, 4), "permuted": order}
    for term in ("gain", "loss_left", "loss_right"):
        full, _ = oracle_diagram(term, w0, params, t, probes, n_lambda=12, n_inner=6)
        for name, idx in layouts.items():
            sub = ProbeSet(points=[pts[i] for i in idx], grid=probes.grid)
            vals, _ = oracle_diagram(term, w0, params, t, sub, n_lambda=12, n_inner=6)
            rel = np.max(np.abs(vals - full[idx]) / np.abs(full[idx]))
            assert rel <= 1e-12, (term, name, rel)


@pytest.mark.parametrize("term", ("gain", "loss_left", "loss_right"))
def test_oracle_chunk_budget_does_not_change_the_values(gentle_instance, monkeypatch,
                                                        term):
    """A 64 KiB chunk budget, which cuts both the probe batches of the
    eta-quadratics and the spectral sums into more chunks, gives every
    default probe of the gentle instance within 1e-14 relative of the
    8 MiB values at the rule (20, 18)."""
    w0, params, t, grid = (gentle_instance[k] for k in ("w0", "params", "t", "grid"))
    probes = default_probes(grid)
    chunks = []
    occupation = oracle.bose_occupation

    def counted(omega, t_env):
        chunks[-1] += 1
        return occupation(omega, t_env)

    monkeypatch.setattr(oracle, "bose_occupation", counted)
    vals = []
    for budget in (1 << 23, 1 << 16):
        monkeypatch.setattr(propagators, "_CHUNK_BYTES", budget)
        chunks.append(0)
        vals.append(oracle_diagram(term, w0, params, t, probes, n_lambda=20,
                                   n_inner=18)[0])
    assert chunks[1] > 2 * chunks[0]
    assert np.max(np.abs(vals[1] - vals[0]) / np.abs(vals[0])) <= 1e-14
