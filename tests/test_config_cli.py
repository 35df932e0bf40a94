import json
import os
import re
import struct
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wignerbath import QuadratureSpec
from wignerbath import config as config_module
from wignerbath.config import parse_config, ConfigError
from wignerbath.runio import run, write_wigner_csv, emit_plot_data, _atomic_write
from wignerbath.runio import _render as render_cells
from wignerbath.cli import main


MINIMAL = """
# minimal gentle run
mode = evolve
n_x = 32
lambda_uv = 6.0
times = 0.5
out.dir = {out}
"""


def test_minimal_config_defaults(tmp_path):
    cfg = parse_config(MINIMAL.format(out=tmp_path))
    assert cfg.mode == "evolve"
    assert cfg.grid.n_x == 32
    assert cfg.model.m_s == 1.0
    assert cfg.initial.kind == "gaussian"


def test_config_error_aggregation():
    bad = ("mode = fly\nn_x = 33\ntimes = -1, 0.5\nstate.sigmma = 2\n"
           "quad.n_t = 16\nquad.scheme = gauss-legendre\n")
    with pytest.raises(ConfigError) as exc:
        parse_config(bad)
    msgs = "\n".join(exc.value.errors)
    assert "sigmma" in msgs and "state.sigma" in msgs   # nearest-key hint
    assert "unknown key 'quad.n_t'" in msgs              # removed key
    assert "unknown key 'quad.scheme'" in msgs           # removed key
    assert "even" in msgs                                # grid invariant
    assert ">= 0" in msgs                                # times invariant
    assert "fly" in msgs
    assert len(exc.value.errors) >= 4
    # a state of the wrong dimension is named by key, never sampled on a grid
    # of its own dimension; certify runs in d = 1 only; 'closed' is retired
    with pytest.raises(ConfigError) as exc:
        parse_config("d = 1\nn_x = 8\nstate.x0 = 0, 0, 0\nstate.p0 = 0, 0, 0\n"
                     "backend = closed\n")
    assert sorted(exc.value.errors) == [
        "backend: 'closed' is not auto/grid ('closed' is retired: auto takes the "
        "closed path for a closed-form state)",
        "state.p0: 3 components for d = 1", "state.x0: 3 components for d = 1"]
    with pytest.raises(ConfigError) as exc:
        parse_config("mode = certify\nd = 3\nn_x = 8\nstate.x0 = 0, 0\n")
    assert sorted(exc.value.errors) == ["d: certify mode runs in d = 1 only, got d = 3",
                                        "state.x0: 2 components for d = 3"]
    assert parse_config("d = 3\nn_x = 8\nstate.x0 = 0, 0, 0\n").initial.d == 3


def test_certify_takes_one_time():
    # certify certifies one output time; more are reported with the other errors
    with pytest.raises(ConfigError) as exc:
        parse_config("mode = certify\nn_x = 33\ntimes = 0.3, 0.6\n")
    msgs = "\n".join(exc.value.errors)
    assert "certify mode takes one output time, got 2" in msgs
    assert "even" in msgs
    assert parse_config("mode = certify\ntimes = 0.6\n").times == [0.6]


def test_trapezoid_scheme_rejected():
    # Gauss-Legendre is the only k rule, so there is no scheme to choose
    with pytest.raises(ConfigError) as exc:
        parse_config("quad.scheme = trapezoid\n")
    assert exc.value.errors == ["line 1: unknown key 'quad.scheme'"]
    with pytest.raises(TypeError, match="scheme"):
        QuadratureSpec(scheme="trapezoid")


def test_k_max_key_is_retired(tmp_path, capsys):
    # the k range is the model's UV cutoff, so there is no k cutoff to set
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(MINIMAL.format(out=tmp_path / "out") + "quad.k_max = 6.0\n")
    assert main(["evolve", "--config", str(cfg_path)]) == 2
    assert "unknown key 'quad.k_max'" in capsys.readouterr().err
    with pytest.raises(TypeError, match="k_max"):
        QuadratureSpec(k_max=6.0)


def test_every_key_is_documented():
    doc = config_module.__doc__
    for key in config_module._KNOWN_KEYS:
        assert re.search(rf"(?<![\w.]){re.escape(key)}(?![\w.])", doc), key


def test_cli_does_not_import_scipy_integrate():
    # only the oracle's quadratures use it, and they import it when called;
    # a small second-order step shows the Gauss-Kronrod table does not
    # come from scipy's either
    code = ("import sys, wignerbath.cli, wignerbath.runio\n"
            "from wignerbath import (InitialStateSpec, ModelParams, QuadratureSpec,\n"
            "                        make_initial_wigner)\n"
            "from wignerbath.evolution import _second_order\n"
            "from wignerbath.states import balanced_grid\n"
            "spec = InitialStateSpec(kind='gaussian', x0=(0.0,), p0=(0.0,), sigma=1.0)\n"
            "w0 = make_initial_wigner(spec, balanced_grid(spec, 16), boundary_tol=1e-4)\n"
            "params = ModelParams(d=1, m_s=1.0, m_e=1.0, g=0.1, lambda_uv=6.0)\n"
            "terms = _second_order(w0, params, 0.1, QuadratureSpec(n_k=16))\n"
            "assert terms['gain'][1]['k_nodes'] > 0\n"
            "print('scipy.integrate' in sys.modules)")
    src = os.path.dirname(os.path.dirname(config_module.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"


def test_runs_do_not_import_numpy_ma_fractions_or_decimal(tmp_path):
    # an evolve, a transform and a certify run import none of these: the
    # oracle groups its nodes without np.unique (which imports numpy.ma),
    # and the CSV renderer's power-of-ten table comes from Python ints
    code = ("import sys\n"
            "from wignerbath.config import parse_config\n"
            "from wignerbath.runio import run\n"
            "for mode, extra in (('evolve', 'n_x = 32\\ntimes = 0.3\\n'),\n"
            "                    ('transform', 'n_x = 32\\n'),\n"
            "                    ('certify', 'n_x = 32\\ntimes = 0.6\\n')):\n"
            "    cfg = parse_config(f'mode = {mode}\\nlambda_uv = 6\\nworkers = 1\\n'\n"
            "                       f'{extra}out.dir = {sys.argv[1]}/{mode}\\n')\n"
            "    assert not run(cfg)['failures'], mode\n"
            "print(sorted(m for m in ('numpy.ma', 'fractions', 'decimal') if m in sys.modules))")
    src = os.path.dirname(os.path.dirname(config_module.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code, str(tmp_path)], env=env,
                         check=True, capture_output=True, text=True).stdout
    assert out.strip() == "[]"


def test_negative_time_rejected():
    with pytest.raises(ConfigError, match="times"):
        parse_config("times = -0.5\n")


@pytest.mark.parametrize("key, value", [
    ("n_x", "0"), ("n_x", "7"), ("lambda_uv", "inf"), ("times", "nan"),
    ("times", "0.5, inf"), ("t_env", "inf"), ("quad.rel_tol", "nan"),
    ("boundary_tol", "nan"), ("dx", "inf")])
def test_bad_numbers_are_rejected_by_name(tmp_path, key, value):
    """A non-finite number, or an n_x the grid would reject, is the one error
    of the aggregated ConfigError, named by its key, and the CLI exits with
    status 2; QuadratureSpec itself rejects a non-finite rel_tol."""
    text = MINIMAL.format(out=tmp_path / "out") + f"{key} = {value}\n"
    with pytest.raises(ConfigError) as exc:
        parse_config(text)
    assert [e.split(":")[0] for e in exc.value.errors] == [key], exc.value.errors
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(text)
    assert main(["evolve", "--config", str(cfg_path)]) == 2
    if key.startswith("quad."):
        with pytest.raises(ValueError, match="finite"):
            QuadratureSpec(**{key.split(".")[1]: float(value)})


@pytest.mark.parametrize("n_k", (15, 65, 100_000))
def test_n_k_out_of_range_is_rejected_by_name(tmp_path, monkeypatch, n_k):
    """quad.n_k outside [16, 64] is rejected by QuadratureSpec, named, as the
    one error of the aggregated ConfigError, and the CLI exits with status
    2; no Gauss rule is built on the way (leggauss refuses here)."""
    def refuse(*args):
        raise AssertionError("a k rule was built")

    monkeypatch.setattr(np.polynomial.legendre, "leggauss", refuse)
    message = f"n_k must be in [16, 64], got {n_k}"
    with pytest.raises(ValueError, match=re.escape(message)):
        QuadratureSpec(n_k=n_k)
    text = MINIMAL.format(out=tmp_path / "out") + f"quad.n_k = {n_k}\n"
    with pytest.raises(ConfigError) as exc:
        parse_config(text)
    assert exc.value.errors == [f"quad: {message}"]
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(text)
    assert main(["evolve", "--config", str(cfg_path)]) == 2
    for edge in (16, 64):
        assert QuadratureSpec(n_k=edge).n_k == edge


@pytest.mark.parametrize("n_k", (24.5, 24.0, "24"))
def test_non_integral_n_k_is_rejected_by_name(monkeypatch, n_k):
    """A non-integral n_k through the API is rejected by QuadratureSpec, by
    name, before any k rule is built (it used to construct and fail later,
    inside the rule builder, with a TypeError)."""
    def refuse(*args):
        raise AssertionError("a k rule was built")

    monkeypatch.setattr(np.polynomial.legendre, "leggauss", refuse)
    with pytest.raises(ValueError, match=re.escape(f"n_k must be an integer, got {n_k!r}")):
        QuadratureSpec(n_k=n_k)
    assert QuadratureSpec(n_k=np.int64(32)).n_k == 32


def test_overrides(tmp_path):
    cfg = parse_config(MINIMAL.format(out=tmp_path),
                       overrides={"g": "0.2", "mode": "observables"})
    assert cfg.model.g == 0.2
    assert cfg.mode == "observables"
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config(MINIMAL.format(out=tmp_path), overrides={"gg": "1"})


# drawn values of a config and how to read each back from a RunConfig
_DRAWN = {
    "mode": st.sampled_from(("transform", "evolve", "observables")),
    "n_x": st.integers(4, 32).map(lambda n: 2 * n),
    "m_s": st.floats(0.5, 5.0),
    "m_e": st.floats(0.1, 2.0),
    "g": st.floats(0.0, 1.0),
    "t_env": st.floats(0.0, 3.0),
    "lambda_uv": st.floats(4.0, 60.0),
    "state.kind": st.sampled_from(("gaussian", "cat")),
    "state.x0": st.floats(-2.0, 2.0),
    "state.p0": st.floats(-1.0, 1.0),
    "state.sigma": st.floats(0.5, 2.0),
    "state.separation": st.floats(0.5, 4.0),
    "state.phase": st.floats(0.0, 3.0),
    "times": st.lists(st.floats(0.0, 5.0), min_size=1, max_size=3,
                      unique=True).map(lambda v: tuple(sorted(v))),
    "quad.n_k": st.integers(16, 64),
    "quad.rel_tol": st.floats(1e-12, 1e-2),
    "workers": st.integers(1, 8),
    "backend": st.sampled_from(("auto", "grid")),
    "boundary_tol": st.floats(1e-12, 1e-3),
}
_READ = {
    "mode": lambda c: c.mode, "n_x": lambda c: c.grid.n_x,
    "m_s": lambda c: c.model.m_s, "m_e": lambda c: c.model.m_e,
    "g": lambda c: c.model.g, "t_env": lambda c: c.model.t_env,
    "lambda_uv": lambda c: c.model.lambda_uv,
    "state.kind": lambda c: c.initial.kind, "state.x0": lambda c: c.initial.x0[0],
    "state.p0": lambda c: c.initial.p0[0], "state.sigma": lambda c: c.initial.sigma,
    "state.separation": lambda c: c.initial.separation,
    "state.phase": lambda c: c.initial.phase, "times": lambda c: tuple(c.times),
    "quad.n_k": lambda c: c.quad.n_k, "quad.rel_tol": lambda c: c.quad.rel_tol,
    "workers": lambda c: c.workers,
    "backend": lambda c: c.backend, "boundary_tol": lambda c: c.boundary_tol,
}


def _render(value):
    if isinstance(value, tuple):
        return ", ".join(repr(v) for v in value)
    return value if isinstance(value, str) else repr(value)


@settings(max_examples=40, deadline=None)
@given(text=st.fixed_dictionaries({}, optional=_DRAWN),
       overrides=st.fixed_dictionaries({}, optional=_DRAWN))
def test_config_round_trip(text, overrides):
    """parse_config of a rendered config plus overrides reads back every
    value, the override's where both give one and the default where
    neither does; rendering its raw keys again parses to the same values."""
    cfg = parse_config("".join(f"{k} = {_render(v)}\n" for k, v in text.items()),
                       overrides={k: _render(v) for k, v in overrides.items()})
    default = parse_config("")
    for key, read in _READ.items():
        want = {**text, **overrides}.get(key, read(default))
        assert read(cfg) == want, key
    again = parse_config("".join(f"{k} = {v}\n" for k, v in cfg.raw.items()))
    assert all(read(again) == read(cfg) for read in _READ.values())
    assert again.grid == cfg.grid


def test_run_transform_mode(tmp_path, gauss_spec):
    text = MINIMAL.format(out=tmp_path) + "mode = transform\n"
    manifest = run(parse_config(text))
    assert not manifest["failures"]
    sidecar = json.loads((tmp_path / "wigner_t0.json").read_text())
    assert sidecar["observables"]["purity"] == pytest.approx(1.0, abs=1e-6)
    assert sidecar["roundtrip_sup_error"] < 1e-12
    names = {f["path"] for f in manifest["files"]}
    assert "wigner_t0.csv" in names and "manifest.json" not in names


def test_run_certify_mode(tmp_path):
    """A certify run's manifest lists each term's oracle_rungs and
    oracle_converged next to all_passed, as certification.json has them."""
    text = MINIMAL.format(out=tmp_path) + "mode = certify\ntimes = 0.6\n"
    manifest = run(parse_config(text))
    assert not manifest["failures"]
    record = json.loads((tmp_path / "certification.json").read_text())
    summary = manifest["diagnostics"]["certification"]
    assert summary["all_passed"] is record["all_passed"] is True
    assert summary["oracle_converged"] == {term: entry["oracle_converged"]
                                           for term, entry in record["terms"].items()}
    assert list(summary["oracle_converged"]) == ["gain", "loss_left", "loss_right"]
    assert summary["oracle_rungs"] == {term: entry["oracle_rungs"]
                                       for term, entry in record["terms"].items()}
    assert list(summary["oracle_rungs"]) == ["gain", "loss_left", "loss_right"]


def test_run_evolve_g0_shear(tmp_path):
    text = MINIMAL.format(out=tmp_path) + "g = 0.0\ntimes = 0.0, 0.8\n"
    manifest = run(parse_config(text))
    assert not manifest["failures"]
    # t=0 grid equals the initial state; t=0.8 is its shear
    rows0 = (tmp_path / "wigner_t0.csv").read_text().strip().splitlines()
    rows1 = (tmp_path / "wigner_t1.csv").read_text().strip().splitlines()
    assert rows0[0] == rows1[0]
    v0 = np.array([[float(v) for v in r.split(",")[1:]] for r in rows0[1:]])
    v1 = np.array([[float(v) for v in r.split(",")[1:]] for r in rows1[1:]])
    assert v0.shape == v1.shape
    assert not np.allclose(v0, v1)  # sheared
    assert v0.sum() == pytest.approx(v1.sum(), rel=1e-10)  # norm preserved


def test_determinism_across_worker_counts(tmp_path):
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    t1 = MINIMAL.format(out=out1) + "workers = 1\n"
    t2 = MINIMAL.format(out=out2) + "workers = 4\n"
    m1 = run(parse_config(t1))
    m2 = run(parse_config(t2))
    for f1, f2 in zip(m1["files"], m2["files"]):
        assert f1["path"] == f2["path"]
        assert f1["sha256"] == f2["sha256"]


def test_rerun_byte_identical(tmp_path):
    out1 = tmp_path / "r1"
    out2 = tmp_path / "r2"
    m1 = run(parse_config(MINIMAL.format(out=out1)))
    m2 = run(parse_config(MINIMAL.format(out=out2)))
    assert [f["sha256"] for f in m1["files"]] == [f["sha256"] for f in m2["files"]]


def test_manifest_checksums(tmp_path):
    import hashlib
    manifest = run(parse_config(MINIMAL.format(out=tmp_path)))
    for entry in manifest["files"]:
        data = (tmp_path / entry["path"]).read_bytes()
        assert hashlib.sha256(data).hexdigest() == entry["sha256"]
        assert len(data) == entry["bytes"]


def test_cat_plot_data_has_negative_fringe(tmp_path, cat_spec):
    text = (MINIMAL.format(out=tmp_path)
            + "mode = transform\nn_x = 128\nstate.kind = cat\n"
              "state.separation = 6.0\n")
    manifest = run(parse_config(text))
    assert not manifest["failures"]
    dat = (tmp_path / "t0_wigner.dat").read_text()
    ws = [float(line.split()[2]) for line in dat.splitlines() if line.strip()]
    assert min(ws) < -0.05
    assert len(ws) == 128 * 128


def test_run_aborts_with_partial_manifest(tmp_path):
    # state leaks: the box is pinned at the origin, the packet sits at 50
    text = MINIMAL.format(out=tmp_path) + "state.x0 = 50.0\nx_min = -7.0\n"
    manifest = run(parse_config(text))
    assert manifest["failures"]
    assert (tmp_path / "manifest.json").exists()


def test_cli_exit_codes(tmp_path):
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(MINIMAL.format(out=tmp_path / "out"))
    assert main(["evolve", "--config", str(cfg_path)]) == 0
    assert main(["evolve", "--config", str(tmp_path / "missing.cfg")]) == 2
    cfg_path.write_text(MINIMAL.format(out=tmp_path / "out2") + "n_x = 33\n")
    assert main(["evolve", "--config", str(cfg_path)]) == 2
    # no output time is a config error
    for bad in ("times =\n", "times = ,\n"):
        cfg_path.write_text(MINIMAL.format(out=tmp_path / "out4") + bad)
        assert main(["evolve", "--config", str(cfg_path)]) == 2, bad
    # certify mode certifies exactly one output time
    cfg_path.write_text(MINIMAL.format(out=tmp_path / "out5") + "times = 0.3, 0.6\n")
    assert main(["certify", "--config", str(cfg_path)]) == 2
    # a state whose dimension is not d, certify in d = 3, the retired backend
    for mode, bad in (("evolve", "d = 1\nstate.x0 = 0, 0, 0\nstate.p0 = 0, 0, 0\n"),
                      ("evolve", "d = 3\nstate.x0 = 0, 0\n"),
                      ("certify", "d = 3\n"),
                      ("evolve", "backend = closed\n")):
        cfg_path.write_text(MINIMAL.format(out=tmp_path / "out6") + "n_x = 8\n" + bad)
        assert main([mode, "--config", str(cfg_path)]) == 2, bad
    # override path
    cfg_path.write_text(MINIMAL.format(out=tmp_path / "out3"))
    assert main(["observables", "--config", str(cfg_path),
                 "--override", "state.sigma=1.5"]) == 0


def test_atomic_write_leaves_no_temp_files(tmp_path):
    from concurrent.futures import ThreadPoolExecutor
    path = str(tmp_path / "data.json")
    _atomic_write(path, "first payload\n")
    _atomic_write(path, b"second\x00payload")
    assert (tmp_path / "data.json").read_bytes() == b"second\x00payload"
    with pytest.raises(TypeError):
        _atomic_write(path, 123)     # a failed write keeps the old file
    assert (tmp_path / "data.json").read_bytes() == b"second\x00payload"
    # two writers into one path: each rename lands a whole payload
    payloads = ["a" * 100000, "b" * 100000]
    with ThreadPoolExecutor(2) as pool:
        list(pool.map(lambda text: [_atomic_write(path, text) for _ in range(20)],
                      payloads))
    assert (tmp_path / "data.json").read_text() in payloads
    assert os.listdir(tmp_path) == ["data.json"]
    # permissions are those of a plainly created file
    (tmp_path / "plain").write_text("x")
    assert (os.stat(path).st_mode & 0o777
            == os.stat(tmp_path / "plain").st_mode & 0o777)


def test_atomic_write_hashes_what_it_writes(tmp_path):
    """The manifest entry of a str (UTF-8), a bytes and a block-by-block
    write carries the SHA-256 and size of the file on disk; a failed write
    adds none."""
    import hashlib
    files = []
    path = str(tmp_path / "data.txt")
    for data in ("grüße\n", b"\x00\xff raw", iter([b"one,", b"", b"two\n"])):
        _atomic_write(path, data, files)
        disk = (tmp_path / "data.txt").read_bytes()
        assert files[-1] == {"path": "data.txt", "sha256": hashlib.sha256(disk).hexdigest(),
                             "bytes": len(disk)}
    assert disk == b"one,two\n" and len(files) == 3
    with pytest.raises(TypeError):
        _atomic_write(path, 123, files)
    assert len(files) == 3


def _planted_wigner(d, n=8):
    from wignerbath import PhaseSpaceGrid, WignerFunction
    grid = PhaseSpaceGrid(d=d, n_x=n, dx=0.37, x_min=-1.3)
    values = np.random.default_rng(d).standard_normal(grid.value_shape())
    values.flat[:4] = (-0.0, 5e-324, 1e300, -1e-300)
    return WignerFunction(grid=grid, t=0.0, values=values)


@pytest.mark.parametrize("d", [1, 3])
def test_wigner_csv_renders_each_value_exactly(tmp_path, d):
    w = _planted_wigner(d)
    n = w.grid.n_x ** d
    flat = w.values.reshape(n, n)
    if d == 1:
        header = "x\\p," + ",".join("%.17g" % float(v) for v in w.grid.p_nodes)
        coords = ["%.17g" % float(v) for v in w.grid.x_nodes]
    else:
        header = "xflat\\pflat," + ",".join(str(i) for i in range(n))
        coords = [str(i) for i in range(n)]
    rows = [c + "," + ",".join("%.17g" % float(flat[i, j]) for j in range(n))
            for i, c in enumerate(coords)]
    write_wigner_csv(w, str(tmp_path / "w.csv"))
    assert (tmp_path / "w.csv").read_text() == "\n".join([header] + rows) + "\n"
    assert rows[0].split(",")[1:5] == ["-0", "4.9406564584124654e-324",
                                       "1.0000000000000001e+300", "-1e-300"]


def test_plot_data_renders_each_value_exactly(tmp_path):
    from wignerbath import marginals
    w = _planted_wigner(1)
    x, p = w.grid.x_nodes, w.grid.p_nodes

    def f(v):
        return "%.17g" % float(v)

    tri = []
    for i in range(len(x)):
        tri += [f"{f(x[i])} {f(p[j])} {f(w.values[i, j])}" for j in range(len(p))]
        tri.append("")
    pos, mom = marginals(w)
    mar = ["# x  position_marginal  p  momentum_marginal"]
    mar += [f"{f(x[i])} {f(pos[i])} {f(p[i])} {f(mom[i])}" for i in range(len(x))]
    paths = emit_plot_data(w, str(tmp_path / "t0"))
    assert [os.path.basename(q) for q in paths] == ["t0_wigner.dat", "t0_marginals.dat"]
    assert (tmp_path / "t0_wigner.dat").read_text() == "\n".join(tri) + "\n"
    assert (tmp_path / "t0_marginals.dat").read_text() == "\n".join(mar) + "\n"
    assert tri[0].split()[2] == "-0" and tri[2].split()[2] == "1.0000000000000001e+300"


def test_plot_data_reuses_the_csv_rendering(tmp_path):
    """The rows `write_wigner_csv` renders and `emit_plot_data` reuses give
    the bytes of an independent per-value %.17g rendering in both files."""
    w = _planted_wigner(1)
    x, p = w.grid.x_nodes, w.grid.p_nodes

    def f(v):
        return "%.17g" % float(v)

    csv = ["x\\p," + ",".join(f(v) for v in p)]
    csv += [f(x[i]) + "," + ",".join(f(w.values[i, j]) for j in range(len(p)))
            for i in range(len(x))]
    tri = []
    for i in range(len(x)):
        tri += [f"{f(x[i])} {f(p[j])} {f(w.values[i, j])}" for j in range(len(p))]
        tri.append("")
    rows = write_wigner_csv(w, str(tmp_path / "w.csv"))
    emit_plot_data(w, str(tmp_path / "t0"), rows)
    assert (tmp_path / "w.csv").read_bytes() == ("\n".join(csv) + "\n").encode()
    assert (tmp_path / "t0_wigner.dat").read_bytes() == ("\n".join(tri) + "\n").encode()


def _rendered(values):
    """The bytes the CSV renderer lays out for each value, NULs dropped."""
    return [cell[cell != 0].tobytes()
            for cell in render_cells(np.asarray(values, dtype=float))]


def _from_bits(bits):
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats() | st.integers(0, 2**64 - 1).map(_from_bits),
                min_size=1, max_size=40))
def test_renderer_matches_percent_format(values):
    assert _rendered(values) == [("%.17g" % v).encode() for v in values]


def _hard_values():
    """Powers of ten and their neighbours, 17-digit ties, integers at the
    10^16 and 10^17 boundaries, the extremes of the double range, and the
    non-finite values."""
    tens = np.array([float(f"1e{k}") for k in range(-323, 309)])
    near = np.concatenate([tens, np.nextafter(tens, 0.0), np.nextafter(tens, np.inf)])
    ints = np.concatenate([np.arange(10**16 - 64, 10**16 + 64),
                           np.arange(10**17 - 512, 10**17 + 512, 8)]).astype(float)
    special = [1000000000000000.25, 1000000000000000.75, 5e-324,
               2.2250738585072014e-308, 1.7976931348623157e308, 0.0, np.inf, np.nan]
    values = np.concatenate([near, ints, special])
    return np.concatenate([values, -values])


def test_renderer_hard_values():
    values = _hard_values()
    assert _rendered(values) == [("%.17g" % v).encode() for v in values.tolist()]
    # exact ties at the 17th digit round half to even, as FMT does
    assert _rendered([1000000000000000.25, 1000000000000000.75, -0.0, np.inf, np.nan]) == [
        b"1000000000000000.2", b"1000000000000000.8", b"-0", b"inf", b"nan"]


def test_files_render_hard_values_exactly(tmp_path):
    """A d = 3 CSV and the d = 1 plot files holding the finite hard values
    are the bytes of an independent per-value %.17g rendering."""
    from wignerbath import PhaseSpaceGrid, WignerFunction, marginals
    hard = _hard_values()
    hard = hard[np.isfinite(hard)]
    rng = np.random.default_rng(3)

    def f(v):
        return "%.17g" % float(v)

    grid = PhaseSpaceGrid(d=3, n_x=8, dx=0.37, x_min=-0.5)
    flat = rng.standard_normal((512, 512)) * 10.0 ** rng.integers(-20, 20, (512, 512))
    flat.flat[:hard.size] = hard
    w = WignerFunction(grid=grid, t=0.0, values=flat.reshape(grid.value_shape()))
    write_wigner_csv(w, str(tmp_path / "w3.csv"))
    csv = ["xflat\\pflat," + ",".join(str(j) for j in range(512))]
    csv += [f"{i}," + ",".join(f(v) for v in row) for i, row in enumerate(flat)]
    assert (tmp_path / "w3.csv").read_bytes() == ("\n".join(csv) + "\n").encode()

    grid = PhaseSpaceGrid(d=1, n_x=64, dx=0.37, x_min=-11.3)
    vals = flat.reshape(-1)[:64 * 64].reshape(64, 64).copy()
    vals[np.abs(vals) > 1e200] = 1e200    # marginals that do not overflow
    w = WignerFunction(grid=grid, t=0.0, values=vals)
    emit_plot_data(w, str(tmp_path / "t0"))
    x, p = grid.x_nodes, grid.p_nodes
    pos, mom = marginals(w)
    mar = ["# x  position_marginal  p  momentum_marginal"]
    mar += [f"{f(x[i])} {f(pos[i])} {f(p[i])} {f(mom[i])}" for i in range(64)]
    assert (tmp_path / "t0_marginals.dat").read_bytes() == ("\n".join(mar) + "\n").encode()
    tri = []
    for i in range(64):
        tri += [f"{f(x[i])} {f(p[j])} {f(vals[i, j])}" for j in range(64)]
        tri.append("")
    assert (tmp_path / "t0_wigner.dat").read_bytes() == ("\n".join(tri) + "\n").encode()


def test_partial_manifest_on_any_exception(tmp_path, monkeypatch):
    import wignerbath.runio as runio

    def exhausted(w):
        raise MemoryError("cannot allocate 1.0 TiB")

    monkeypatch.setattr(runio, "density_from_wigner", exhausted)
    text = MINIMAL.format(out=tmp_path / "out") + "mode = transform\n"
    manifest = run(parse_config(text))
    assert manifest["failures"] == ["MemoryError: cannot allocate 1.0 TiB"]
    on_disk = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert on_disk["failures"][0].startswith("MemoryError")
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(text)
    assert main(["transform", "--config", str(cfg_path)]) == 1
