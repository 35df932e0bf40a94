"""Plain-text run configuration: parsing, validation, defaults.

Format: UTF-8 text, one `key = value` pair per line, `#` starts a comment.
Dotted keys group related settings (state.*, quad.*, out.*).  Lists are
comma separated.  A key given more than once keeps its last value, and an
override replaces the value from the text.  Unknown keys are rejected by
name with the nearest valid key suggested; all invariant violations are
reported together, not one at a time.

    mode         transform | evolve | observables | certify
    d            spatial dimension (1 or 3; certify runs in 1)
    n_x          grid points per axis (even, >= 8)
    dx           grid spacing (omit for the balanced spacing of the state)
    x_min        leftmost node (omit to center the box on the state)
    m_s, m_e     system / bath masses
    g            coupling
    t_env        bath temperature (0 = vacuum)
    lambda_uv    UV momentum cutoff of the bath, and so the range |k| <= lambda_uv
                 of the k integral
    state.kind   gaussian | cat
    state.x0     packet center (comma list for d = 3)
    state.p0     packet momentum
    state.sigma  packet width
    state.separation, state.phase   cat parameters
    times        output times >= 0, strictly increasing; one or more (one to certify)
    quad.n_k     Gauss nodes per k panel, with n_k + 1 Kronrod nodes between them
                 (16 to 64)
    quad.rel_tol tolerance on each term's error estimate
    out.dir      output directory
    out.plot_data  true | false  (gnuplot triplet files)
    workers      worker threads for the four passes of each time step
    backend      auto | grid
    boundary_tol relative tail tolerance at the box boundary
"""

import difflib
from dataclasses import dataclass, field

import numpy as np

from .grids import PhaseSpaceGrid
from .propagators import ModelParams
from .states import InitialStateSpec, balanced_grid
from .evolution import QuadratureSpec

_DEFAULTS = {
    "mode": "evolve",
    "d": "1",
    "n_x": "128",
    "m_s": "1.0",
    "m_e": "1.0",
    "g": "0.1",
    "t_env": "0.0",
    "lambda_uv": "50.0",
    "state.kind": "gaussian",
    "state.x0": "0.0",
    "state.p0": "0.0",
    "state.sigma": "1.0",
    "state.separation": "0.0",
    "state.phase": "0.0",
    "times": "1.0",
    "quad.n_k": "24",
    "quad.rel_tol": "1e-6",
    "out.dir": "out",
    "out.plot_data": "true",
    "workers": "1",
    "backend": "auto",
    "boundary_tol": "1e-7",
}

# dx and x_min have no default: leaving them out picks the balanced grid
_KNOWN_KEYS = [*_DEFAULTS, "dx", "x_min"]

MODES = ("transform", "evolve", "observables", "certify")


class ConfigError(ValueError):
    """Aggregated configuration problems; `errors` lists every violation."""

    def __init__(self, errors):
        self.errors = list(errors)
        super().__init__("invalid configuration:\n  - " + "\n  - ".join(self.errors))


@dataclass
class RunConfig:
    mode: str
    model: ModelParams
    grid: PhaseSpaceGrid
    initial: InitialStateSpec
    times: list
    quad: QuadratureSpec
    out_dir: str
    plot_data: bool
    workers: int
    backend: str
    boundary_tol: float
    raw: dict = field(default_factory=dict)


def _parse_floats(text):
    return tuple(float(v.strip()) for v in text.split(",") if v.strip() != "")


def parse_config(text, overrides=None):
    """Parse and fully validate a configuration; raises ConfigError listing
    every violated invariant, not just the first."""
    errors = []
    raw = dict(_DEFAULTS)
    pairs = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            errors.append(f"line {lineno}: expected 'key = value', got {stripped!r}")
            continue
        pairs.append((f"line {lineno}",
                      *(part.strip() for part in stripped.split("=", 1))))
    pairs += [("override", key, value) for key, value in (overrides or {}).items()]
    for where, key, value in pairs:
        if key in _KNOWN_KEYS:
            raw[key] = value
            continue
        near = difflib.get_close_matches(key, _KNOWN_KEYS, n=1)
        hint = f" (did you mean {near[0]!r}?)" if near else ""
        errors.append(f"{where}: unknown key {key!r}{hint}")

    def grab(key, conv, desc):
        try:
            value = conv(raw[key])
        except Exception:
            errors.append(f"{key}: cannot parse {raw.get(key)!r} as {desc}")
            return None
        if not np.all(np.isfinite(value)):
            errors.append(f"{key}: {raw[key]!r} is not finite")
            return None
        return value

    mode = raw["mode"]
    if mode not in MODES:
        errors.append(f"mode: {mode!r} is not one of {'/'.join(MODES)}")

    d = grab("d", int, "integer")
    n_x = grab("n_x", int, "integer")
    m_s = grab("m_s", float, "number")
    m_e = grab("m_e", float, "number")
    g = grab("g", float, "number")
    t_env = grab("t_env", float, "number")
    lam = grab("lambda_uv", float, "number")
    sigma = grab("state.sigma", float, "number")
    sep = grab("state.separation", float, "number")
    phase = grab("state.phase", float, "number")
    x0 = grab("state.x0", _parse_floats, "comma list of numbers")
    p0 = grab("state.p0", _parse_floats, "comma list of numbers")
    times = grab("times", _parse_floats, "comma list of numbers")
    n_k = grab("quad.n_k", int, "integer")
    rel_tol = grab("quad.rel_tol", float, "number")
    workers = grab("workers", int, "integer")
    boundary_tol = grab("boundary_tol", float, "number")
    plot_flag = raw["out.plot_data"].strip().lower()
    if plot_flag not in ("true", "false", "1", "0", "yes", "no"):
        errors.append(f"out.plot_data: {raw['out.plot_data']!r} is not a boolean")
    backend = raw["backend"]
    if backend not in ("auto", "grid"):
        errors.append(f"backend: {backend!r} is not auto/grid ('closed' is retired: "
                      "auto takes the closed path for a closed-form state)")
    if mode == "certify" and d not in (None, 1):
        errors.append(f"d: certify mode runs in d = 1 only, got d = {d}")

    if n_x is not None and (n_x % 2 or n_x < 8):
        errors.append(f"n_x: must be even and >= 8, got {n_x}")
        n_x = None
    model = initial = grid = quad = None
    if d == 3:
        x0, p0 = (v * 3 if v is not None and len(v) == 1 else v for v in (x0, p0))
    dim_errors = [f"{key}: {len(v)} components for d = {d}"
                  for key, v in (("state.x0", x0), ("state.p0", p0))
                  if None not in (d, v) and len(v) != d]
    errors += dim_errors
    if None not in (d, m_s, m_e, g, t_env, lam):
        try:
            model = ModelParams(d=d, m_s=m_s, m_e=m_e, g=g, t_env=t_env,
                                lambda_uv=lam)
        except ValueError as exc:
            errors.append(f"model: {exc}")
    if not dim_errors and None not in (sigma, sep, phase, x0, p0):
        try:
            initial = InitialStateSpec(kind=raw["state.kind"], x0=x0, p0=p0,
                                       sigma=sigma, separation=sep, phase=phase)
        except ValueError as exc:
            errors.append(f"state: {exc}")
    if None not in (n_k, rel_tol):
        try:
            quad = QuadratureSpec(n_k=n_k, rel_tol=rel_tol)
        except ValueError as exc:
            errors.append(f"quad: {exc}")
    if initial is not None and n_x is not None:
        try:
            if "dx" in raw or "x_min" in raw:
                dxv = (grab("dx", float, "number") if "dx" in raw
                       else balanced_grid(initial, n_x).dx)
                x_minv = (grab("x_min", float, "number") if "x_min" in raw
                          else None if dxv is None
                          else float(np.mean(x0)) - (n_x / 2.0 - 0.5) * dxv)
                if None not in (dxv, x_minv):
                    grid = PhaseSpaceGrid(d=d, n_x=n_x, dx=dxv, x_min=x_minv)
            else:
                grid = balanced_grid(initial, n_x)
        except (TypeError, ValueError) as exc:
            errors.append(f"grid: {exc}")
    if times is not None:
        if not times:
            errors.append("times: at least one output time is required")
        if any(t < 0 for t in times):
            errors.append("times: all output times must be >= 0")
        if any(b <= a for a, b in zip(times, times[1:])):
            errors.append("times: output times must be strictly increasing")
        if mode == "certify" and len(times) > 1:
            errors.append(f"times: certify mode takes one output time, got {len(times)}")
    if workers is not None and workers < 1:
        errors.append("workers: must be >= 1")
    if boundary_tol is not None and boundary_tol <= 0:
        errors.append("boundary_tol: must be positive")

    if errors:
        raise ConfigError(errors)
    return RunConfig(
        mode=mode, model=model, grid=grid, initial=initial,
        times=list(times), quad=quad, out_dir=raw["out.dir"],
        plot_data=plot_flag in ("true", "1", "yes"),
        workers=workers, backend=backend, boundary_tol=boundary_tol, raw=raw)
