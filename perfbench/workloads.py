"""The benchmark's workloads: the inputs each one hands the program.

Inputs come only from the workload name and the seed.  The default seed
gives the fixed instances whose outputs are stored in `ref/`; any other
seed draws state parameters (x0, p0, cat phase) from ranges that leave the
work the same: grid sizes, mode counts, k panels and masked columns do not
change inside them.  Every run uses workers = 1.

Where the ranges come from, for the closed-form mode path: the mode count
M grows with |x0| (the mode period covers the evolution's reach, which
includes |x0|), so evolve_uv keeps x0 = 0 and draws p0; the k panels of the
trace diagnostic grow with |p0|, one more per 1.2 of |p0| at t = 0.5, and
stay at 14 (t = 0.5) and 7 (t = 0.25) for |p0| < 0.72.  certify_gentle
keeps p0 = 0, because the oracle sizes its spectral panels from the phase
rates at each probe, and draws x0 within |x0| < 0.14, where M stays 91.
The gridded path (evolve_sampled) and the transforms do the same work for
any state on a fixed grid; evolve_sampled moves its packet pair with the
grid and keeps p0 = 0, as its 32-node box leaves the momentum tail of a
sigma = 1 packet little room.
"""

import math
import random

DEFAULT_SEED = 0
NAMES = ("evolve_uv", "evolve_sampled", "transform_batch", "certify_gentle")


def _config(**keys):
    return "".join(f"{key} = {value}\n" for key, value in keys.items())


def inputs(name, seed):
    """JSON-ready inputs of one workload instance.

    `kind` is "cli" (configurations run through `runio.run`, as the CLI
    does) or "api" (a gridded initial state passed to `evolution.evolve`).
    """
    rng = random.Random(f"{name}/{seed}")

    def draw(default, lo, hi):
        return default if seed == DEFAULT_SEED else rng.uniform(lo, hi)

    if name == "evolve_uv":
        return {"kind": "cli", "configs": [_config(
            mode="evolve", n_x=64, g=0.1, lambda_uv=20, times="0.25, 0.5",
            **{"state.kind": "gaussian",
               "state.x0": "0.0",
               "state.p0": repr(draw(0.0, -0.6, 0.6))},
            workers=1)]}
    if name == "evolve_sampled":
        center = draw(0.0, -0.5, 0.5)
        return {"kind": "api",
                "config": _config(mode="evolve", n_x=32, g=0.1, lambda_uv=6, times=0.5,
                                  workers=1),
                "grid": {"center": center, "n_x": 32, "scale": 1.15},
                "packets": [{"x0": center - 1.0, "p0": 0.0, "sigma": 1.0},
                            {"x0": center + 1.0, "p0": 0.0, "sigma": 1.0}]}
    if name == "transform_batch":
        states = [
            {"state.kind": "gaussian", "state.x0": draw(0.0, -2.0, 2.0),
             "state.p0": draw(0.0, -2.0, 2.0)},
            {"state.kind": "gaussian", "state.x0": draw(1.5, -2.0, 2.0),
             "state.p0": draw(-1.0, -2.0, 2.0), "state.sigma": 0.8},
            {"state.kind": "cat", "state.separation": 6.0,
             "state.x0": draw(0.0, -2.0, 2.0), "state.p0": draw(0.0, -1.0, 1.0),
             "state.phase": draw(0.0, 0.0, 2.0 * math.pi)},
            {"state.kind": "cat", "state.separation": 4.0,
             "state.x0": draw(-1.0, -2.0, 2.0), "state.p0": draw(0.5, -1.0, 1.0),
             "state.phase": draw(math.pi / 2.0, 0.0, 2.0 * math.pi)},
        ]
        return {"kind": "cli", "configs": [
            _config(mode="transform", n_x=256,
                    **{key: repr(value) if isinstance(value, float) else value
                       for key, value in state.items()})
            for state in states]}
    if name == "certify_gentle":
        return {"kind": "cli", "configs": [_config(
            mode="certify", n_x=32, lambda_uv=6, times=0.6,
            **{"state.kind": "gaussian",
               "state.x0": repr(draw(0.0, -0.12, 0.12)),
               "state.p0": "0.0"},
            workers=1)]}
    raise ValueError(f"unknown workload {name!r}")
