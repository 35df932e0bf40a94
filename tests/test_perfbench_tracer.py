"""The benchmark's tracer (`perfbench/tracer.py`) wraps functions of the
package by name, and `Tracer.install` raises on a missing one, which stops
`perfbench/run.py --trace 1`.  The windowed kernels `evolution.seg_e0`,
`seg_e1`, `window_loss_integral` and `strip_gain_integral` have no caller in
the package; they are kept because the tracer binds them."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_tracer_target_resolves():
    """Every TARGETS name is a function of `wignerbath`, and the tracer
    installs over all of them and restores the originals."""
    tracer = _load_tracer()
    for target in tracer.TARGETS:
        mod_name, attr = target.rsplit(".", 1)
        module = importlib.import_module(f"wignerbath.{mod_name}")
        assert callable(getattr(module, attr, None)), target
    spans = tracer.Tracer()
    try:
        spans.install("wignerbath")
    finally:
        assert spans.restore()
