"""Benchmark of wignerbath.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout holding src/wignerbath.  Every run of the
program is a fresh child process (perfbench/child.py), one at a time, with
BLAS limited to one thread (see README.md).

--trace 0 runs three set-up-only children, then full children for about
S seconds, and reports the end-to-end metrics: medians of wall_s (inputs
ready to last output written), cpu_s and peak_rss_mb (the child's rusage)
and setup_s (interpreter start to inputs ready).

--trace 1 runs untraced children for about S/2 seconds, then two children
with timing wrappers swapped into the package, and reports the per-layer
metrics.  It checks that tracing changed no data file, that the wrappers
were restored, that the self times add up to the traced wall time, and that
the counts repeat exactly.

Every run's outputs go through the accuracy gate (checks.py).  The last
line printed is one JSON object: correct, attempted, failed, metrics.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import checks
import tracer
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_RUNS = 3
BLAS_THREADS = 1
TRACED_RUNS = 2
DEADLINE_S = 170.0          # the whole run ends within this
# end-to-end metric -> (unit, statistic over the run's children)
END_TO_END = {name: (unit, statistics.median) for name, unit in
              (("wall_s", "s"), ("cpu_s", "s"), ("peak_rss_mb", "MB"), ("setup_s", "s"))}


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[key] = str(BLAS_THREADS)
    return env


class Child:
    """One finished child process: its exit, rusage and self-reported times."""

    def __init__(self, mode, run_dir, t_spawn, t_exit, returncode, rusage):
        self.mode = mode
        self.run_dir = run_dir
        self.name = os.path.basename(run_dir)
        self.elapsed = t_exit - t_spawn
        self.returncode = returncode
        self.rusage = rusage
        self.timing = None
        path = os.path.join(run_dir, "timing.json")
        if returncode in (0, 1) and os.path.exists(path):
            with open(path) as fh:
                self.timing = json.load(fh)
            self.timing["setup_s"] = self.timing["t_ready"] - t_spawn

    @property
    def completed(self):
        """Ran to the end: exit 0, or exit 1 with failures the program reported."""
        if self.timing is None or self.mode == "setup":
            return self.timing is not None
        return (self.returncode == 1) == bool(self.timing["failures"])

    @property
    def wall_s(self):
        return self.timing["t_done"] - self.timing["t_ready"]


def run_child(mode, inputs, run_dir, deadline):
    os.makedirs(run_dir)
    with open(os.path.join(run_dir, "inputs.json"), "w") as fh:
        json.dump(inputs, fh)
    with open(os.path.join(run_dir, "child.log"), "wb") as log:
        t_spawn = time.monotonic()
        proc = subprocess.Popen([sys.executable, os.path.join(HERE, "child.py"),
                                 run_dir, mode], cwd=ROOT, env=child_env(),
                                stdin=subprocess.DEVNULL, stdout=log,
                                stderr=subprocess.STDOUT)
        while True:
            pid, status, rusage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                break
            if time.monotonic() > deadline:
                proc.kill()
                _, status, rusage = os.wait4(proc.pid, 0)
                break
            time.sleep(0.01)
        t_exit = time.monotonic()
        proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(mode, run_dir, t_spawn, t_exit, proc.returncode, rusage)


class Session:
    """The children of one benchmark run and what was found about them."""

    def __init__(self, workload, seed):
        self.inputs = workloads.inputs(workload, seed)
        self.reference = (checks.load_reference(workload)
                          if seed == workloads.DEFAULT_SEED else None)
        self.work_dir = os.path.join(ROOT, ".perfbench_work",
                                     f"{workload}-{seed}-{os.getpid()}")
        self.start = time.monotonic()
        self.deadline = self.start + DEADLINE_S
        self.count = 0
        self.attempted = 0        # children that ran the workload
        self.faults = []          # problems that make the run incorrect
        self.gate_misses = 0
        self.crashed = 0
        self.flagged = []         # failures the program reported itself
        self.max_rel_diff = 0.0

    def child(self, mode):
        self.count += 1
        self.attempted += mode != "setup"
        run_dir = os.path.join(self.work_dir, f"{self.count:03d}-{mode}")
        child = run_child(mode, self.inputs, run_dir, self.deadline)
        if not child.completed:
            self.crashed += mode != "setup"
            with open(os.path.join(run_dir, "child.log"), errors="replace") as fh:
                last = (fh.read().strip().splitlines() or [""])[-1]
            self.faults.append(f"child {child.name} did not complete "
                               f"(exit {child.returncode}): {last}")
        return child

    def check(self, child):
        """Accuracy gate on a completed child; returns its data-file digests
        and byte count, or None when the outputs could not be read."""
        if child.timing["failures"]:
            self.flagged.append(child.timing["failures"])
        try:
            outputs, records = checks.extract(self.inputs, child.run_dir)
            digests = checks.data_digests(self.inputs, child.run_dir)
            written = checks.bytes_written(self.inputs, child.run_dir)
        except (OSError, ValueError, KeyError) as exc:
            self.gate_misses += 1
            self.faults.append(f"outputs of child {child.name} unreadable: {exc}")
            return None
        if self.reference is not None:
            rel, passed = checks.compare(outputs, self.reference)
            self.max_rel_diff = max(self.max_rel_diff, rel)
        else:
            passed = checks.invariants_hold(records)
        passed = passed and checks.certification_passed(records)
        if not passed:
            self.gate_misses += 1
            self.faults.append(f"child {child.name} missed the accuracy gate")
        return digests, written

    def repeated(self, name, values):
        """Counts must repeat exactly; drift is a fault of the benchmark."""
        if len(set(values)) > 1:
            self.faults.append(f"{name} drifted across runs: {values}")

    def loop(self, mode, seconds):
        """Children of one mode, at least one, while another one still fits
        in `seconds` from the start; stops at the first that fails."""
        done = []
        while True:
            child = self.child(mode)
            if not child.completed:
                return done
            done.append(child)
            typical = statistics.median(c.elapsed for c in done)
            if time.monotonic() - self.start + typical > min(seconds, DEADLINE_S / 2):
                return done


def quartiles(values):
    """(q1, median, q3) of a list of samples."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4, method="inclusive"))


def end_to_end(session, seconds):
    setups = [session.child("setup") for _ in range(SETUP_RUNS)]
    runs = session.loop("run", seconds)
    results = [session.check(c) for c in runs]
    checked = [r for r in results if r is not None]
    session.repeated("data file digests", [json.dumps(d, sort_keys=True) for d, _ in checked])
    session.repeated("runio.bytes_written", [w for _, w in checked])
    samples = {
        "wall_s": [c.wall_s for c in runs],
        "cpu_s": [c.rusage.ru_utime + c.rusage.ru_stime for c in runs],
        "peak_rss_mb": [c.rusage.ru_maxrss / 1024.0 for c in runs],
        "setup_s": [c.timing["setup_s"] for c in setups + runs if c.completed],
    }
    return samples


def per_layer(session, seconds):
    plain = session.loop("run", seconds / 2.0)
    traced = [session.child("trace") for _ in range(TRACED_RUNS)]
    traced = [c for c in traced if c.completed]
    base = [session.check(c) for c in plain]
    if not plain or not traced or base[0] is None:
        return None
    layers = []
    for child in traced:
        result = session.check(child)
        if result is None:
            continue
        digests, written = result
        if digests != base[0][0]:
            session.faults.append("tracing changed the data files")
        if not child.timing["restored"]:
            session.faults.append("the timing wrappers were not restored")
        with open(os.path.join(child.run_dir, "spans.json")) as fh:
            spans = json.load(fh)
        covered = tracer.self_time_sum(spans, child.timing["t_ready"])
        slack = 1e-3 + len(spans) * child.timing["per_call_cost"]
        if abs(child.wall_s - covered) > slack:
            session.faults.append(f"self times sum to {covered:.6f} s, traced wall "
                                  f"is {child.wall_s:.6f} s (slack {slack:.6f} s)")
        metrics = tracer.layer_metrics(spans)
        metrics["runio.bytes_written"] = written
        metrics["trace.wall_s"] = child.wall_s
        layers.append(metrics)
    if not layers:
        return None
    for name, unit in tracer.LAYER_UNITS.items():
        if unit != "s" and name in layers[0]:
            session.repeated(name, [m[name] for m in layers])
    untraced = statistics.median(c.wall_s for c in plain)
    samples = {name: [m[name] for m in layers]
               for name in tracer.LAYER_UNITS if name != "trace.overhead_s"}
    samples["trace.overhead_s"] = [m["trace.wall_s"] - untraced for m in layers]
    return samples


def _first(values):
    """A count: every run gives the same value (checked)."""
    return values[0]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "wignerbath", "__init__.py")):
        print(f"error: no src/wignerbath under {ROOT}; run from a checkout of the "
              "repository", file=sys.stderr)
        return 2

    session = Session(args.workload, args.seed)
    try:
        if args.trace:
            samples = per_layer(session, args.seconds)
            reported = {name: (unit, statistics.median if unit == "s" else _first)
                        for name, unit in tracer.LAYER_UNITS.items()}
        else:
            samples = end_to_end(session, args.seconds)
            reported = END_TO_END
    finally:
        shutil.rmtree(session.work_dir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(session.work_dir))
        except OSError:
            pass

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{session.attempted} run(s) of the program, BLAS threads {BLAS_THREADS}")
    metrics = {}
    for name, (unit, statistic) in reported.items():
        values = (samples or {}).get(name) or []
        if not values:
            metrics[name] = {"value": None, "unit": unit}
            continue
        value = statistic(values)
        metrics[name] = {"value": value, "unit": unit}
        if statistic is _first:
            print(f"  {name:40s} {value} {unit} (in each of {len(values)} runs)")
        else:
            q1, med, q3 = quartiles(values)
            print(f"  {name:40s} {value:.6g} {unit} median of {len(values)}  "
                  f"(q1 {q1:.6g}, q3 {q3:.6g}, min {min(values):.6g})")
    failed = session.crashed + session.gate_misses
    flagged = len(session.flagged)
    print(f"  {'fail_share':40s} {(failed + flagged) / max(session.attempted, 1):.3f}  "
          f"({session.crashed} crashed, {session.gate_misses} missed the gate, "
          f"{flagged} flagged by the program)")
    for failures in session.flagged[:1]:
        print(f"  program flags: {'; '.join(failures)}")
    if session.reference is not None:
        print(f"  {'max_rel_diff':40s} {session.max_rel_diff:.3g}  (gate {checks.REL_GATE:g} "
              "or the program's error estimate)")
    else:
        print("  no reference for this seed: gated on the program's invariants")
    for fault in session.faults:
        print(f"  FAULT: {fault}")
    print(json.dumps({"correct": not session.faults and samples is not None,
                      "attempted": session.attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
