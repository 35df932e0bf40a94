"""The benchmark's child (`perfbench/child.py`) runs each workload through
the package's public functions, by name and with the options it passes.  A
signature change that breaks it would otherwise show only when the
benchmark runs.  Each workload runs once here, at the default seed, in a
fresh interpreter, and its outputs go through the benchmark's own accuracy
gate and invariant checks."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


workloads = _load("workloads")
checks = _load("checks")


@pytest.mark.parametrize("name", workloads.NAMES)
def test_benchmark_child_passes_its_gates(tmp_path, name):
    inputs = workloads.inputs(name, workloads.DEFAULT_SEED)
    (tmp_path / "inputs.json").write_text(json.dumps(inputs))
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, str(PERFBENCH / "child.py"), str(tmp_path), "run"],
                          env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    outputs, records = checks.extract(inputs, str(tmp_path))
    worst, ok = checks.compare(outputs, checks.load_reference(name))
    assert ok, f"largest relative difference from perfbench/ref: {worst:.3e}"
    assert checks.invariants_hold(records)
    assert checks.certification_passed(records)
