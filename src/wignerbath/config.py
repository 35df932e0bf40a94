"""Plain-text run configuration: parsing, validation, defaults.

Format: UTF-8 text, one `key = value` pair per line, `#` starts a comment.
Dotted keys group related settings (state.*, quad.*, out.*).  Lists are
comma separated.  A key given more than once keeps its last value, and an
override replaces the value from the text.  Unknown keys are rejected by
name with the nearest valid key suggested; all invariant violations are
reported together, not one at a time.

    mode         transform | evolve | observables | certify
    d            spatial dimension (1 or 3)
    n_x          grid points per axis (even, >= 8)
    dx           grid spacing (omit for the balanced spacing of the state)
    x_min        leftmost node (omit to center the box on the state)
    m_s, m_e     system / bath masses
    g            coupling
    t_env        bath temperature (0 = vacuum)
    lambda_uv    UV momentum cutoff for the bath
    state.kind   gaussian | cat
    state.x0     packet center (comma list for d = 3)
    state.p0     packet momentum
    state.sigma  packet width
    state.separation, state.phase   cat parameters
    times        output times, strictly increasing, >= 0
    quad.n_k, quad.k_max, quad.rel_tol
    quad.scheme  gauss-legendre (the only scheme)
    out.dir      output directory
    out.plot_data  true | false  (gnuplot triplet files)
    workers      worker threads for the diagram evaluations
    backend      auto | grid | closed
    boundary_tol relative tail tolerance at the box boundary
"""

import difflib
from dataclasses import dataclass, field

import numpy as np

from .grids import PhaseSpaceGrid
from .propagators import ModelParams
from .states import InitialStateSpec, balanced_grid
from .evolution import QuadratureSpec

_KNOWN_KEYS = [
    "mode", "d", "n_x", "dx", "x_min", "m_s", "m_e", "g", "t_env",
    "lambda_uv", "state.kind", "state.x0", "state.p0", "state.sigma",
    "state.separation", "state.phase", "times", "quad.n_k",
    "quad.k_max", "quad.rel_tol", "quad.scheme", "out.dir", "out.plot_data",
    "workers", "backend", "boundary_tol",
]

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
    "quad.k_max": "0",
    "quad.rel_tol": "1e-6",
    "quad.scheme": "gauss-legendre",
    "out.dir": "out",
    "out.plot_data": "true",
    "workers": "1",
    "backend": "auto",
    "boundary_tol": "1e-7",
}

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
    explicit = set()
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            errors.append(f"line {lineno}: expected 'key = value', got {stripped!r}")
            continue
        key, value = (part.strip() for part in stripped.split("=", 1))
        if key not in _KNOWN_KEYS:
            near = difflib.get_close_matches(key, _KNOWN_KEYS, n=1)
            hint = f" (did you mean {near[0]!r}?)" if near else ""
            errors.append(f"line {lineno}: unknown key {key!r}{hint}")
            continue
        raw[key] = value
        explicit.add(key)
    for key, value in (overrides or {}).items():
        if key not in _KNOWN_KEYS:
            near = difflib.get_close_matches(key, _KNOWN_KEYS, n=1)
            hint = f" (did you mean {near[0]!r}?)" if near else ""
            errors.append(f"override: unknown key {key!r}{hint}")
            continue
        raw[key] = value
        explicit.add(key)

    def grab(key, conv, desc):
        try:
            return conv(raw[key])
        except Exception:
            errors.append(f"{key}: cannot parse {raw.get(key)!r} as {desc}")
            return None

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
    k_max = grab("quad.k_max", float, "number")
    rel_tol = grab("quad.rel_tol", float, "number")
    workers = grab("workers", int, "integer")
    boundary_tol = grab("boundary_tol", float, "number")
    plot_flag = raw["out.plot_data"].strip().lower()
    if plot_flag not in ("true", "false", "1", "0", "yes", "no"):
        errors.append(f"out.plot_data: {raw['out.plot_data']!r} is not a boolean")
    backend = raw["backend"]
    if backend not in ("auto", "grid", "closed"):
        errors.append(f"backend: {backend!r} is not auto/grid/closed")
    scheme = raw["quad.scheme"]
    if scheme != "gauss-legendre":
        errors.append(f"quad.scheme: {scheme!r} is not supported; "
                      "the only scheme is 'gauss-legendre'")

    model = initial = grid = quad = None
    if d is not None and x0 is not None and len(x0) == 1 and d == 3:
        x0 = x0 * 3
    if d is not None and p0 is not None and len(p0) == 1 and d == 3:
        p0 = p0 * 3
    if None not in (d, m_s, m_e, g, t_env, lam):
        try:
            model = ModelParams(d=d, m_s=m_s, m_e=m_e, g=g, t_env=t_env,
                                lambda_uv=lam)
        except ValueError as exc:
            errors.append(f"model: {exc}")
    if None not in (sigma, sep, phase) and x0 is not None and p0 is not None:
        try:
            initial = InitialStateSpec(kind=raw["state.kind"], x0=x0, p0=p0,
                                       sigma=sigma, separation=sep, phase=phase)
        except ValueError as exc:
            errors.append(f"state: {exc}")
    if None not in (n_k, k_max, rel_tol) and scheme == "gauss-legendre":
        try:
            quad = QuadratureSpec(n_k=n_k, k_max=k_max, rel_tol=rel_tol,
                                  scheme=scheme)
        except ValueError as exc:
            errors.append(f"quad: {exc}")
    if initial is not None and n_x is not None:
        try:
            if "dx" in raw or "x_min" in raw:
                dxv = (grab("dx", float, "number") if "dx" in raw
                       else balanced_grid(initial, n_x).dx)
                x_minv = (grab("x_min", float, "number") if "x_min" in raw
                          else float(np.mean(x0)) - (n_x / 2.0 - 0.5) * dxv)
                grid = PhaseSpaceGrid(d=d, n_x=n_x, dx=dxv, x_min=x_minv)
            else:
                grid = balanced_grid(initial, n_x)
        except (TypeError, ValueError) as exc:
            errors.append(f"grid: {exc}")
    if times is not None:
        if any(t < 0 for t in times):
            errors.append("times: all output times must be >= 0")
        if any(b <= a for a, b in zip(times, times[1:])):
            errors.append("times: output times must be strictly increasing")
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
