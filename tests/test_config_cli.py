import json
import os
import re
import subprocess
import sys

import numpy as np
import pytest

from wignerbath import QuadratureSpec
from wignerbath import config as config_module
from wignerbath.config import parse_config, ConfigError
from wignerbath.runio import run, write_wigner_csv, emit_plot_data, _atomic_write
from wignerbath.cli import main


MINIMAL = """
# minimal gentle run
mode = evolve
n_x = 32
lambda_uv = 6.0
quad.k_max = 6.0
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


def test_every_key_is_documented():
    doc = config_module.__doc__
    for key in config_module._KNOWN_KEYS:
        assert re.search(rf"(?<![\w.]){re.escape(key)}(?![\w.])", doc), key


def test_cli_does_not_import_scipy_integrate():
    # only the oracle's quadratures use it, and they import it when called
    code = ("import sys, wignerbath.cli, wignerbath.runio; "
            "print('scipy.integrate' in sys.modules)")
    src = os.path.dirname(os.path.dirname(config_module.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"


def test_negative_time_rejected():
    with pytest.raises(ConfigError, match="times"):
        parse_config("times = -0.5\n")


def test_overrides(tmp_path):
    cfg = parse_config(MINIMAL.format(out=tmp_path),
                       overrides={"g": "0.2", "mode": "observables"})
    assert cfg.model.g == 0.2
    assert cfg.mode == "observables"
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config(MINIMAL.format(out=tmp_path), overrides={"gg": "1"})


def test_run_transform_mode(tmp_path, gauss_spec):
    text = MINIMAL.format(out=tmp_path) + "mode = transform\n"
    manifest = run(parse_config(text))
    assert not manifest["failures"]
    sidecar = json.loads((tmp_path / "wigner_t0.json").read_text())
    assert sidecar["observables"]["purity"] == pytest.approx(1.0, abs=1e-6)
    assert sidecar["roundtrip_sup_error"] < 1e-12
    names = {f["path"] for f in manifest["files"]}
    assert "wigner_t0.csv" in names and "manifest.json" not in names


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
    # no output time, or a k cutoff above lambda_uv, is a config error
    for bad in ("times =\n", "times = ,\n", "quad.k_max = 8.0\n"):
        cfg_path.write_text(MINIMAL.format(out=tmp_path / "out4") + bad)
        assert main(["evolve", "--config", str(cfg_path)]) == 2, bad
    # certify mode certifies exactly one output time
    cfg_path.write_text(MINIMAL.format(out=tmp_path / "out5") + "times = 0.3, 0.6\n")
    assert main(["certify", "--config", str(cfg_path)]) == 2
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
