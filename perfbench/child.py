"""One workload instance in a fresh interpreter.

    python3 perfbench/child.py RUN_DIR setup|run|trace

Reads RUN_DIR/inputs.json and writes RUN_DIR/timing.json with the monotonic
times at which the inputs were ready (after `import wignerbath`, config
parsing and initial-state sampling) and at which the last output was
written.  `setup` stops once the inputs are ready.  `trace` swaps timing
wrappers into the package first and writes RUN_DIR/spans.json.  The exit
status follows the CLI: 1 when the program reported a failure, 0 otherwise.
"""

import json
import os
import sys
import time

import numpy as np
from wignerbath import config as config_mod, evolution, runio, states, wigner


def setup(inputs, run_dir):
    """Parse the configurations and sample the initial states."""
    if inputs["kind"] == "cli":
        configs = []
        for i, text in enumerate(inputs["configs"]):
            cfg = config_mod.parse_config(
                text, {"out.dir": os.path.join(run_dir, f"out{i}")})
            states.make_initial_wigner(cfg.initial, cfg.grid,
                                       boundary_tol=cfg.boundary_tol)
            configs.append(cfg)
        return configs
    cfg = config_mod.parse_config(inputs["config"])
    g = inputs["grid"]
    grid = states.balanced_grid(states.InitialStateSpec("gaussian", x0=(g["center"],)),
                                g["n_x"], scale=g["scale"])
    parts = [states.make_initial_wigner(
                 states.InitialStateSpec("gaussian", x0=(p["x0"],), p0=(p["p0"],),
                                         sigma=p["sigma"]),
                 grid, boundary_tol=cfg.boundary_tol).values
             for p in inputs["packets"]]
    w0 = wigner.WignerFunction(grid=grid, t=0.0, values=sum(parts) / len(parts),
                               normalized=True, source=None)
    return cfg, w0


def execute(inputs, prepared):
    """Run the program on the prepared inputs; returns (failures, result)."""
    if inputs["kind"] == "cli":
        failures = []
        for cfg in prepared:
            failures += runio.run(cfg)["failures"]
        return failures, None
    cfg, w0 = prepared
    result = evolution.evolve(w0, cfg.model, cfg.times[-1], cfg.quad,
                              backend=cfg.backend, workers=cfg.workers)
    diag = result.diagnostics
    failures = [flag for flag in ("quadrature_failed", "non_perturbative") if diag[flag]]
    return failures, result


def save_api_result(result, out_dir):
    """Store what `evolve` returned, so the parent can check it."""
    os.makedirs(out_dir, exist_ok=True)
    np.save(os.path.join(out_dir, "w_total.npy"), result.w_total.values)
    with open(os.path.join(out_dir, "diagnostics.json"), "w") as fh:
        json.dump(result.diagnostics, fh, indent=2, sort_keys=True)


def main(argv):
    run_dir, mode = argv[1], argv[2]
    with open(os.path.join(run_dir, "inputs.json")) as fh:
        inputs = json.load(fh)
    tracer = None
    if mode == "trace":
        from tracer import Tracer
        tracer = Tracer()
        tracer.install("wignerbath")
    prepared = setup(inputs, run_dir)
    record = {"t_ready": time.monotonic()}
    if mode != "setup":
        failures, result = execute(inputs, prepared)
        record["t_done"] = time.monotonic()
        record["failures"] = failures
        if result is not None:
            save_api_result(result, os.path.join(run_dir, "out0"))
    if tracer is not None:
        record["restored"] = tracer.restore()
        record["per_call_cost"] = tracer.per_call_cost()
        with open(os.path.join(run_dir, "spans.json"), "w") as fh:
            json.dump(tracer.spans, fh)
    with open(os.path.join(run_dir, "timing.json"), "w") as fh:
        json.dump(record, fh)
    return 1 if record.get("failures") else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
