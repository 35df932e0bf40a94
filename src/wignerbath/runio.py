"""Run orchestration and persistence: CSV grids, JSON sidecars, gnuplot
triplets, and the run manifest.

Every data file is written atomically (a uniquely named temp file in the
target directory + rename, so two runs into one directory never share a
temp file) and contains no timestamps, so identical configurations produce
byte-identical files; the manifest inventories each file with its SHA-256
checksum and is written last.  The process exit status is nonzero iff any
diagnostic exceeded its tolerance or a quadrature flagged failure.
"""

import hashlib
import json
import os
import time

import numpy as np

from . import __version__
from .states import make_initial_wigner
from .wigner import observables, marginals, wigner_from_density, density_from_wigner
from .evolution import evolve
from .oracle import default_probes, certify_instance

FMT = "%.17g"


def _atomic_write(path, data):
    """Write through a uniquely named temp file beside `path`, then rename.

    Exclusive creation ("x") gives the temp file the permissions a plain
    open() would, so the final file's mode follows the umask as before; the
    temp file is removed if the write or the rename fails.
    """
    tmp = f"{path}.{os.urandom(8).hex()}.tmp"
    fh = open(tmp, "xb" if isinstance(data, bytes) else "x")
    try:
        with fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _sha256(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _render_all(values):
    """Each value formatted with FMT, through Python floats."""
    return [FMT % v for v in np.asarray(values, dtype=float).tolist()]


def _render_rows(vals):
    """Each row of the 2-D array as its values formatted with FMT and joined
    by commas."""
    return [",".join([FMT % v for v in row]) for row in vals.tolist()]


def write_wigner_csv(w, path):
    """Grid CSV: one row per x node, columns are p nodes, coordinates in the
    header; flattened lexicographically for d > 1.  Returns the rendered
    rows (`_render_rows`), which `emit_plot_data` can reuse."""
    grid = w.grid
    d = grid.d
    vals = w.values.reshape(grid.n_x**d, grid.n_x**d)
    if d == 1:
        header = "x\\p," + ",".join(_render_all(grid.p_nodes))
        coords = _render_all(grid.x_nodes)
    else:
        header = "xflat\\pflat," + ",".join(str(i) for i in range(vals.shape[1]))
        coords = [str(i) for i in range(vals.shape[0])]
    rows = _render_rows(vals)
    lines = [header]
    lines.extend(coord + "," + row for coord, row in zip(coords, rows))
    _atomic_write(path, "\n".join(lines) + "\n")
    return rows


def emit_plot_data(w, stem, rows=None):
    """Gnuplot-ready (x, p, W) triplets plus marginal curves (d = 1).

    Byte-stable across reruns of the same configuration.  Each coordinate is
    formatted once per node, not once per (x, p) pair, and each value once
    per call, or not at all when `rows` holds the rows `write_wigner_csv`
    rendered for the same W.
    """
    grid = w.grid
    if grid.d != 1:
        raise ValueError("plot data emission is limited to d = 1")
    xs = _render_all(grid.x_nodes)
    ps = _render_all(grid.p_nodes)
    if rows is None:
        rows = _render_rows(w.values)
    # one block of lines per x node, each block followed by an empty line
    blocks = ["\n".join([f"{x} {p} {v}" for p, v in zip(ps, row.split(","))]) + "\n\n"
              for x, row in zip(xs, rows)]
    tri_path = stem + "_wigner.dat"
    _atomic_write(tri_path, "".join(blocks))

    pos, mom = marginals(w)
    lines = ["# x  position_marginal  p  momentum_marginal"]
    lines.extend(" ".join(cols) for cols in
                 zip(xs, _render_all(pos), ps, _render_all(mom)))
    mar_path = stem + "_marginals.dat"
    _atomic_write(mar_path, "\n".join(lines) + "\n")
    return [tri_path, mar_path]


def _obs_payload(w):
    return observables(w).as_dict()


def _reason(exc):
    """A stage failure as recorded in the manifest: a ValueError (a rejected
    input or a failed check) by its message, anything else prefixed with its
    type, e.g. "MemoryError: ..."."""
    if isinstance(exc, ValueError):
        return str(exc)
    return f"{type(exc).__name__}: {exc}"


def run(config):
    """Execute one configuration; returns the manifest dictionary.

    Aborts after flushing a partial manifest (with the failure cause) if any
    stage raises an Exception; KeyboardInterrupt and SystemExit propagate.
    """
    t_start = time.time()
    os.makedirs(config.out_dir, exist_ok=True)
    manifest = {
        "tool": "wignerbath",
        "version": __version__,
        "mode": config.mode,
        "config": dict(sorted(config.raw.items())),
        "started_unix": t_start,
        "files": [],
        "diagnostics": {},
        "failures": [],
    }
    files = []

    def finish(failed=None):
        if failed:
            manifest["failures"].append(failed)
        manifest["ended_unix"] = time.time()
        manifest["files"] = [
            {"path": os.path.basename(p), "sha256": _sha256(p),
             "bytes": os.path.getsize(p)} for p in files
        ]
        man_path = os.path.join(config.out_dir, "manifest.json")
        _atomic_write(man_path, json.dumps(manifest, indent=2, sort_keys=True) + "\n")
        return manifest

    try:
        w0 = make_initial_wigner(config.initial, config.grid,
                                 boundary_tol=config.boundary_tol)
    except Exception as exc:
        return finish(failed=f"initial state: {_reason(exc)}")

    try:
        if config.mode == "observables":
            path = os.path.join(config.out_dir, "observables.json")
            _atomic_write(path, json.dumps(_obs_payload(w0), indent=2,
                                           sort_keys=True) + "\n")
            files.append(path)

        elif config.mode == "transform":
            rho = density_from_wigner(w0)
            w_back = wigner_from_density(rho, config.grid)
            path = os.path.join(config.out_dir, "wigner_t0.csv")
            rows = write_wigner_csv(w_back, path)
            files.append(path)
            trace = rho.trace()
            sidecar = {
                "observables": _obs_payload(w_back),
                "roundtrip_sup_error": float(np.max(np.abs(w_back.values - w0.values))),
                "density_trace": [trace.real, trace.imag],
                "hermiticity_defect": rho.hermiticity_defect(),
            }
            path = os.path.join(config.out_dir, "wigner_t0.json")
            _atomic_write(path, json.dumps(sidecar, indent=2, sort_keys=True) + "\n")
            files.append(path)
            if config.plot_data and config.grid.d == 1:
                files.extend(emit_plot_data(
                    w_back, os.path.join(config.out_dir, "t0"), rows))

        elif config.mode == "evolve":
            for it, t in enumerate(config.times):
                result = evolve(w0, config.model, t, config.quad,
                                backend=config.backend, workers=config.workers)
                tag = f"t{it}"
                path = os.path.join(config.out_dir, f"wigner_{tag}.csv")
                rows = write_wigner_csv(result.w_total, path)
                files.append(path)
                diag = dict(result.diagnostics)
                sidecar = {
                    "time": t,
                    "observables": _obs_payload(result.w_total),
                    "diagnostics": diag,
                }
                path = os.path.join(config.out_dir, f"wigner_{tag}.json")
                _atomic_write(path, json.dumps(sidecar, indent=2,
                                               sort_keys=True) + "\n")
                files.append(path)
                manifest["diagnostics"][tag] = {
                    "time": t,
                    "trace_defect_g2": diag["trace_defect_g2"],
                    "max_imag_residue": diag["max_imag_residue"],
                    "hermiticity_defect": diag["hermiticity_defect"],
                    "perturbativity_ratio": diag["perturbativity_ratio"],
                }
                if diag["quadrature_failed"]:
                    manifest["failures"].append(f"{tag}: quadrature failed its "
                                                "self-estimated tolerance")
                if diag["non_perturbative"]:
                    manifest["failures"].append(f"{tag}: correction exceeds the "
                                                "30% perturbativity guard")
                if config.plot_data and config.grid.d == 1:
                    files.extend(emit_plot_data(
                        result.w_total, os.path.join(config.out_dir, tag), rows))

        elif config.mode == "certify":
            t, = config.times
            probes = default_probes(config.grid, config.model, t)
            record = certify_instance(w0, config.model, t, probes, config.quad,
                                      backend=config.backend)
            path = os.path.join(config.out_dir, "certification.json")
            _atomic_write(path, json.dumps(record, indent=2, sort_keys=True,
                                           default=str) + "\n")
            files.append(path)
            manifest["diagnostics"]["certification"] = {
                "all_passed": record["all_passed"],
                "runtime_s": record["runtime_s"],
            }
            if not record["all_passed"]:
                manifest["failures"].append("certification: oracle disagreement "
                                            "beyond tolerance")
    except Exception as exc:
        return finish(failed=_reason(exc))

    return finish()
