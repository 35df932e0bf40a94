"""Store the reference outputs of the default-seed workloads in perfbench/ref.

    python3 perfbench/make_refs.py [WORKLOAD ...]

Run from the root of a checkout.  The references pin the outputs of the
code they were made with; remake them only on purpose (see README.md).
"""

import os
import shutil
import sys
import time

import checks
import run
import workloads


def main(names):
    for name in names or workloads.NAMES:
        inputs = workloads.inputs(name, workloads.DEFAULT_SEED)
        run_dir = os.path.join(run.ROOT, ".perfbench_work", f"ref-{name}")
        shutil.rmtree(run_dir, ignore_errors=True)
        child = run.run_child("run", inputs, run_dir, time.monotonic() + run.DEADLINE_S)
        if not child.completed:
            print(f"{name}: the program did not complete; see {run_dir}/child.log")
            return 1
        outputs, _ = checks.extract(inputs, run_dir)
        checks.save_reference(name, outputs)
        print(f"{name}: stored {len(outputs)} outputs "
              f"({', '.join(child.timing['failures']) or 'no program flags'})")
        shutil.rmtree(run_dir)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
