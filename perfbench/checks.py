"""Checks on a finished run's outputs: the accuracy gate, the program's own
invariants, and checksums of the data files.

`extract` reads the outputs the program wrote into arrays.  With the
default seed they are compared with the stored references in `ref/`: an
output passes when its largest difference is at most 1e-12 of its largest
reference value, or when the difference stays inside the error estimate
the program reported for it.  Other seeds have no reference and are gated
on the invariants the program reports for itself.
"""

import hashlib
import json
import os

import numpy as np

REL_GATE = 1e-12
REF_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "ref")

# invariant bounds for seeds without a reference; the program reaches about
# 1e-16 on these workloads, so the bounds only leave room for rounding
TRACE_DEFECT_SHARE = 1e-4     # |trace defect| / gain_l1
HERMITICITY_MAX = 1e-12       # max |rho - rho^dagger|
IMAG_RESIDUE_MAX = 1e-12      # max |Im(gain - loss_left - loss_right)|
ROUNDTRIP_MAX = 1e-12         # sup |W -> rho -> W - W|
TRACE_ONE_MAX = 1e-10         # |Tr rho - 1| after the transform


def _load_json(path):
    with open(path) as fh:
        return json.load(fh)


def _csv_values(path):
    return np.loadtxt(path, delimiter=",", skiprows=1)[:, 1:]


def _config_value(text, key):
    for line in text.splitlines():
        name, _, value = line.partition("=")
        if name.strip() == key:
            return value.strip()
    raise KeyError(key)


def out_dirs(inputs, run_dir):
    count = len(inputs["configs"]) if inputs["kind"] == "cli" else 1
    return [os.path.join(run_dir, f"out{i}") for i in range(count)]


def _evolve_budget(diag, g, n_x):
    """L1 error the program estimated for g^2 (gain - loss_left - loss_right),
    in units of one grid sample (the d = 1 cell dx * dp is pi / n_x)."""
    err = sum(rep["err_est"] for rep in diag["quadrature_report"].values())
    return g * g * err * n_x / np.pi


def extract(inputs, run_dir):
    """Outputs of one run, name -> (array, L1 error budget), and the records
    the invariants are read from, as (kind, record) pairs."""
    outputs, records = {}, []
    if inputs["kind"] == "api":
        out = out_dirs(inputs, run_dir)[0]
        diag = _load_json(os.path.join(out, "diagnostics.json"))
        values = np.load(os.path.join(out, "w_total.npy"))
        g = float(_config_value(inputs["config"], "g"))
        outputs["w_total"] = (values, _evolve_budget(diag, g, values.shape[0]))
        records.append(("evolve", diag))
        return outputs, records
    for i, (text, out) in enumerate(zip(inputs["configs"], out_dirs(inputs, run_dir))):
        mode = _config_value(text, "mode")
        if mode == "certify":
            record = _load_json(os.path.join(out, "certification.json"))
            for term, entry in sorted(record["terms"].items()):
                fast = np.array([p["fast"] for p in entry["probes"]])
                oracle = np.array([p["oracle"] for p in entry["probes"]])
                f_err = entry["fast_report"]["rel_err_est"]
                o_err = max(p["oracle_err_est"] for p in entry["probes"])
                outputs[f"c{i}.{term}.fast"] = (fast, f_err * np.abs(fast).sum())
                outputs[f"c{i}.{term}.oracle"] = (oracle, o_err * np.abs(oracle).sum())
            records.append(("certify", record))
            continue
        tags = sorted(name[len("wigner_"):-len(".csv")] for name in os.listdir(out)
                      if name.startswith("wigner_") and name.endswith(".csv"))
        for tag in tags:
            values = _csv_values(os.path.join(out, f"wigner_{tag}.csv"))
            sidecar = _load_json(os.path.join(out, f"wigner_{tag}.json"))
            if mode == "evolve":
                diag = sidecar["diagnostics"]
                g = float(_config_value(text, "g"))
                outputs[f"c{i}.{tag}"] = (values, _evolve_budget(diag, g, values.shape[0]))
                records.append(("evolve", diag))
            else:
                outputs[f"c{i}.{tag}"] = (values, 0.0)
                records.append(("transform", sidecar))
    return outputs, records


def compare(outputs, reference):
    """Largest relative difference from the reference and whether every
    output passes the gate.

    The budget stored with a reference output is the L1 error the program
    estimated for it (on the grid, in units of one sample); a difference
    whose L1 norm stays inside it passes even above 1e-12.
    """
    worst, ok = 0.0, set(outputs) == set(reference)
    for name, (values, _) in outputs.items():
        if name not in reference:
            continue
        ref_values, budget = reference[name]
        if values.shape != ref_values.shape:
            return float("inf"), False
        diff = np.abs(values - ref_values)
        rel = float(diff.max() / max(float(np.abs(ref_values).max()), 1e-300))
        worst = max(worst, rel)
        if rel > REL_GATE and float(diff.sum()) > budget:
            ok = False
    return worst, ok


def invariants_hold(records):
    """The program's own invariants for seeds without a reference (the
    certification verdict is checked for every seed, see below)."""
    for kind, rec in records:
        if kind == "evolve":
            if abs(rec["trace_defect_g2"]) > TRACE_DEFECT_SHARE * rec["gain_l1"]:
                return False
            if rec["hermiticity_defect"] > HERMITICITY_MAX:
                return False
            if rec["max_imag_residue"] > IMAG_RESIDUE_MAX:
                return False
        elif kind == "transform":
            if rec["roundtrip_sup_error"] > ROUNDTRIP_MAX:
                return False
            if rec["hermiticity_defect"] > HERMITICITY_MAX:
                return False
            re, im = rec["density_trace"]
            if abs(re - 1.0) > TRACE_ONE_MAX or abs(im) > TRACE_ONE_MAX:
                return False
    return True


def certification_passed(records):
    """certify_gentle keeps `all_passed`, whatever the seed."""
    return all(rec["all_passed"] for kind, rec in records if kind == "certify")


def load_reference(workload):
    path = os.path.join(REF_DIR, f"{workload}.npz")
    with np.load(path) as data:
        return {name[len("v:"):]: (data[name], float(data["b:" + name[len("v:"):]]))
                for name in data.files if name.startswith("v:")}


def save_reference(workload, outputs):
    os.makedirs(REF_DIR, exist_ok=True)
    arrays = {}
    for name, (values, budget) in outputs.items():
        arrays["v:" + name] = values
        arrays["b:" + name] = np.float64(budget)
    np.savez_compressed(os.path.join(REF_DIR, f"{workload}.npz"), **arrays)


def data_digests(inputs, run_dir):
    """SHA-256 of every data file a run wrote.  The manifests are left out
    (they carry timestamps), and certification.json is hashed without
    `runtime_s`, the one timing the program writes into a data file."""
    digests = {}
    for out in out_dirs(inputs, run_dir):
        for name in sorted(os.listdir(out)):
            if name == "manifest.json":
                continue
            with open(os.path.join(out, name), "rb") as fh:
                data = fh.read()
            if name == "certification.json":
                record = json.loads(data)
                record.pop("runtime_s")
                data = json.dumps(record, sort_keys=True).encode()
            digests[f"{os.path.basename(out)}/{name}"] = hashlib.sha256(data).hexdigest()
    return digests


def bytes_written(inputs, run_dir):
    """Bytes of the data files the manifests list, certification.json left
    out because its size follows the digits of its `runtime_s`.  The API
    workload writes nothing through the program: 0."""
    if inputs["kind"] != "cli":
        return 0
    total = 0
    for out in out_dirs(inputs, run_dir):
        manifest = _load_json(os.path.join(out, "manifest.json"))
        total += sum(f["bytes"] for f in manifest["files"]
                     if f["path"] != "certification.json")
    return total
