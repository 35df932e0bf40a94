"""Run orchestration and persistence: CSV grids, JSON sidecars, gnuplot
triplets, and the run manifest.

Every data file is written atomically (a uniquely named temp file in the
target directory + rename, so two runs into one directory never share a
temp file) and contains no timestamps, so identical configurations produce
byte-identical files; the manifest inventories each file with its SHA-256
checksum and size, taken as the file is written, and is written last.  The
process exit status is nonzero iff any diagnostic exceeded its tolerance or
a quadrature flagged failure.

Every number in a CSV or plot file is written with FMT ("%.17g": 17
significant digits, enough to read each double back exactly).  `_render`
makes the bytes `FMT % v` makes, for every double, in numpy rather than by
one Python call per value:

- the decimal exponent e is floor(log10 |v|), corrected once where log10
  is one off next to a power of ten;
- x = |v|·10^(16−e) is formed as a double-double, by Dekker's exact product
  (Numer. Math. 18, 224 (1971)) against a (hi, lo) table of the powers of
  ten, to about 1e-14 absolute on x < 10^17.  The 17 digits are x rounded
  to an integer; a carry to 10^17 is 10^16 at exponent e + 1, the digits
  the next exponent gives, so an x within rounding of 10^16 or 10^17 needs
  no care beyond the correction;
- the digits become ASCII through a table of the 10^4 four-digit groups,
  and each value fills a cell of `_WIDTH` bytes with a slot for every byte
  FMT could write.  A mask per (sign, notation, last nonzero digit) turns
  the slots FMT leaves out into NULs: trailing zeros, an unused point,
  unused leading zeros, an exponent's third digit;
- a file is its cells and separators side by side with the NULs removed,
  written in blocks of `_ROWS` grid rows.

Where the double-double cannot settle the digits, the value goes to
`FMT % v` itself: an x whose fraction is within 1e-6 of one half (a
possible tie, which FMT rounds to even), an x still outside [10^16, 10^17)
after the correction, |v| outside [1e-250, 1e250] (where the product's
halves could leave the normal range; this includes subnormals), inf and
nan.  ±0 is written directly as "0" / "-0".
"""

import functools
import hashlib
import json
import os
import time
from types import SimpleNamespace

import numpy as np

from . import __version__
from .states import make_initial_wigner
from .wigner import observables, marginals, wigner_from_density, density_from_wigner
from .evolution import evolve
from .oracle import default_probes, certify_instance

FMT = "%.17g"

# A cell is 48 bytes, built as six 8-byte words: the sign, "0.000" (for
# 1e-4 <= |v| < 1), the leading digit and a point slot; four words of four
# digits, each followed by a point slot; "e", the exponent's sign, three
# exponent digits and padding.
_DIGIT = 6                              # slot of the leading digit
_EXP = 40                               # slot of the "e"
_WIDTH = 48
# notations: fixed with exponent -4..16 (0..20), scientific with a 2- or a
# 3-digit exponent (21, 22)
_NOTATIONS = 23
_SPLIT = 134217729.0                    # 2**27 + 1, Veltkamp's splitter
_POW_MIN, _POW_MAX = -240, 270          # 16 - e for 1e-250 <= |v| <= 1e250
_BLOCK = 4096                           # values per rendering pass
_ROWS = 32                              # grid rows per written block


def _powers_of_ten():
    """10**s for s in [_POW_MIN, _POW_MAX] as a double-double: rows of the
    correctly rounded double hi, its two Veltkamp halves, and the correctly
    rounded rest lo.  Python's int -> float and int / int round correctly."""
    hi, lo = [], []
    for s in range(_POW_MIN, _POW_MAX + 1):
        if s >= 0:
            h = float(10**s)
            rest = float(10**s - int(h))
        else:
            q = 10**-s
            h = 1 / q
            num, den = h.as_integer_ratio()
            rest = (den - num * q) / (den * q)
        hi.append(h)
        lo.append(rest)
    hi = np.array(hi)
    c = _SPLIT * hi
    big = c - (c - hi)
    return np.array([hi, big, hi - big, lo])


def _layouts():
    """Masks over the cell slots, 0xFF where FMT writes a byte and 0 where
    it writes none, as six words: one per (sign, notation, last nonzero
    digit), in the order `_render_block`'s key counts them."""
    slot = np.arange(_WIDTH)
    neg = np.arange(2)[:, None, None, None]
    notation = np.arange(_NOTATIONS)[:, None, None]
    last = np.arange(17)[:, None]
    fixed = notation < 21
    x = notation - 4                      # the exponent, where fixed
    digit = (slot - _DIGIT) // 2          # for a digit slot, or the point after it
    in_digits = (slot >= _DIGIT) & (slot < _EXP)      # 17 digits, 17 point slots
    is_digit = in_digits & (slot % 2 == 0)
    is_point = in_digits & (slot % 2 == 1)
    keep = (slot == 0) & (neg == 1)        # "-"; the next line broadcasts to all keys
    keep = keep | (is_digit & ((digit <= last) | (fixed & (digit <= x))))
    # the point follows digit x (fixed, x >= 0) or digit 0 (scientific) when
    # a nonzero digit follows it
    point = np.where(fixed, x, 0)
    keep |= is_point & (digit == point) & (last > point) & (point >= 0)
    # "0." and -x - 1 zeros before the digits where x < 0
    keep |= fixed & (x < 0) & ((slot == 1) | (slot == 2) | ((slot >= 3) & (slot < 2 - x)))
    # "e", its sign and two exponent digits, a third only where needed
    keep |= (~fixed & (slot >= _EXP) & (slot < _EXP + 5)
             & ((slot != _EXP + 2) | (notation == 22)))
    return np.where(keep, 0xFF, 0).astype(np.uint8).reshape(-1, _WIDTH).view(np.uint64)


def _words(texts):
    """Strings of 8 ASCII bytes as uint64 words."""
    return np.frombuffer("".join(texts).encode(), np.uint64)


@functools.cache
def _tables():
    """The renderer's lookup tables, read-only, built on its first use
    (about 4 ms, so a run that writes no grid does not pay for them)."""
    quad = np.indices((10,) * 4).reshape(4, -1).T        # the digits of 0000..9999
    text = np.full((10000, 8), ord("."), np.uint8)
    text[:, ::2] = quad + ord("0")
    exps = np.arange(-400, 401)
    tables = SimpleNamespace(
        pow10=_powers_of_ten(),
        layouts=_layouts(),
        # the first word: "-0.000", a leading digit and a point
        leads=_words(f"-0.000{i}." for i in range(10)),
        # a group of four digits as "d.d.d.d.", and its trailing zeros
        quads=text.view(np.uint64).ravel(),
        quad_zeros=np.cumprod(quad[:, ::-1] == 0, axis=1).sum(axis=1),
        # per exponent e in [-400, 400]: "e", sign and three digits, and the
        # notation
        exps=_words(f"e{e:+04d}\0\0\0" for e in exps),
        notation=np.where((exps >= -4) & (exps <= 16), exps + 4,
                          np.where(np.abs(exps) < 100, 21, 22)),
    )
    for table in vars(tables).values():
        table.setflags(write=False)
    return tables


def _times_pow10(a, s, pow10):
    """a·10**s as an unevaluated sum hi + lo, to about 2**-104 relative:
    Dekker's exact product a·hi(s) plus a·lo(s)."""
    p_hi, p_big, p_small, p_lo = pow10.take(s - _POW_MIN, axis=1)
    c = _SPLIT * a
    a_big = c - (c - a)
    a_small = a - a_big
    prod = a * p_hi
    err = (((a_big * p_big - prod) + a_big * p_small + a_small * p_big)
           + a_small * p_small) + a * p_lo
    hi = prod + err
    return hi, err - (hi - prod)


def _outside(hi, lo):
    """Where the double-double hi + lo lies below 1e16, and where at or above
    1e17."""
    return ((hi < 1e16) | ((hi == 1e16) & (lo < 0)),
            (hi > 1e17) | ((hi == 1e17) & (lo >= 0)))


def _render_block(v, out, t):
    """Lay the FMT rendering of each value of v into a row of `out` (uint8,
    _WIDTH wide, NUL-padded), with the tables t; returns which slots any of
    them uses."""
    a = np.abs(v)
    fast = (a >= 1e-250) & (a <= 1e250)
    a = np.where(fast, a, 1.0)
    e = np.floor(np.log10(a)).astype(np.int64)
    hi, lo = _times_pow10(a, 16 - e, t.pow10)
    under, over = _outside(hi, lo)
    fix = np.flatnonzero(under | over)
    if fix.size:                          # log10 one off next to a power of ten
        e[fix] += over[fix].astype(np.int64) - under[fix]
        hi[fix], lo[fix] = _times_pow10(a[fix], 16 - e[fix], t.pow10)
        under, over = _outside(hi, lo)
        fast &= ~(under | over)
    # hi is an integer (>= 2**53): the 17 digits are hi + rint(lo)
    unit = np.rint(lo)
    fast &= np.abs(np.abs(lo - unit) - 0.5) > 1e-6
    mant = hi.astype(np.int64) + unit.astype(np.int64)
    carry = mant == 10**17
    mant[carry] = 10**16
    e += carry
    lead = mant // 10**16
    rest = mant - lead * 10**16
    high = rest // 10**8
    low = rest - high * 10**8
    q0, q2 = high // 10**4, low // 10**4
    quads = (q0, high - q0 * 10**4, q2, low - q2 * 10**4)
    # the last nonzero digit: 16 less the trailing zeros, quad by quad
    last = 16 - t.quad_zeros.take(quads[3])
    run = last == 12
    for k in (2, 1, 0):
        zeros = t.quad_zeros.take(quads[k])
        last -= run * zeros
        run &= zeros == 4
    key = (np.signbit(v) * _NOTATIONS + t.notation.take(e + 400)) * 17 + last
    words = out.view(np.uint64)
    words[:, 0] = t.leads.take(lead)
    for k in range(4):
        words[:, 1 + k] = t.quads.take(quads[k])
    words[:, 5] = t.exps.take(e + 400)
    words &= t.layouts.take(key, axis=0)
    used = t.layouts.take(np.flatnonzero(np.bincount(key, minlength=len(t.layouts))),
                          axis=0).view(np.uint8).any(axis=0)
    zero = np.flatnonzero(v == 0.0)
    if zero.size:
        out[zero] = 0
        out[zero, 0] = np.where(np.signbit(v[zero]), ord("-"), 0)
        out[zero, 1] = ord("0")
        used[:2] = True
    for i in np.flatnonzero(~fast & (v != 0.0)):
        text = (FMT % float(v[i])).encode()
        out[i] = 0
        out[i, :len(text)] = np.frombuffer(text, np.uint8)
        used[:len(text)] = True
    return used


def _render(values):
    """Each value's FMT rendering as a NUL-padded uint8 cell: an array of
    shape values.shape + (width,), without the slots no value uses."""
    values = np.asarray(values, dtype=float)
    v = values.reshape(-1)
    cells = np.empty((v.size, _WIDTH), np.uint8)
    used = np.zeros(_WIDTH, bool)
    for i in range(0, v.size, _BLOCK):
        used |= _render_block(v[i:i + _BLOCK], cells[i:i + _BLOCK], _tables())
    return cells.take(np.flatnonzero(used), axis=1).reshape(values.shape + (-1,))


def _atomic_write(path, data, files=None):
    """Write `data` (a str, encoded as UTF-8, bytes, or an iterable of bytes
    blocks written one by one) through a uniquely named temp file beside
    `path`, then rename.

    If `files` is given, the file's manifest entry {"path": basename,
    "sha256": ..., "bytes": ...} is appended to it, hashed and counted as
    the bytes are written, so nothing is read back.  Exclusive creation
    ("x") gives the temp file the permissions a plain open() would, so the
    final file's mode follows the umask as before; the temp file is removed
    if the write or the rename fails.
    """
    if isinstance(data, str):
        data = data.encode()
    digest, size = hashlib.sha256(), 0
    tmp = f"{path}.{os.urandom(8).hex()}.tmp"
    fh = open(tmp, "xb")
    try:
        with fh:
            for block in (data,) if isinstance(data, bytes) else data:
                fh.write(block)
                digest.update(block)
                size += len(block)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise
    if files is not None:
        files.append({"path": os.path.basename(path), "sha256": digest.hexdigest(),
                      "bytes": size})


def _cat(shape, *parts):
    """The parts (uint8 cells, each broadcast to `shape`) side by side in
    each cell, as one uint8 array of shape + (total width,)."""
    widths = [part.shape[-1] for part in parts]
    out = np.empty(tuple(shape) + (sum(widths),), np.uint8)
    at = 0
    for part, width in zip(parts, widths):
        out[..., at:at + width] = part
        at += width
    return out


def _text(buf):
    """The bytes of `buf` without its NULs."""
    return buf.tobytes().translate(None, b"\0")


def _seps(n, sep, end):
    """Separator cells for n values in a line: `sep` after each, `end` after
    the last (NUL-padded to a common width)."""
    return np.array([sep] * (n - 1) + [end], dtype="S").view(np.uint8).reshape(n, -1)


_COMMA, _SPACE, _NEWLINE = (np.frombuffer(c, np.uint8) for c in (b",", b" ", b"\n"))


def write_wigner_csv(w, path, files=None):
    """Grid CSV: one row per x node, columns are p nodes, coordinates in the
    header; flattened lexicographically for d > 1, where the coordinates are
    the flat indices.

    Each value is written as FMT renders it, by `_render` (see the module
    docstring), in blocks of `_ROWS` rows.  Returns the rendered cells of
    W, which `emit_plot_data` can reuse; the file's manifest entry is
    appended to `files` if given (see `_atomic_write`).
    """
    grid = w.grid
    n = grid.n_x**grid.d
    cells = _render(w.values.reshape(n, n))
    if grid.d == 1:
        corner, head, coords = b"x\\p,", _render(grid.p_nodes), _render(grid.x_nodes)
    else:
        corner = b"xflat\\pflat,"
        head = coords = _render(np.arange(n))
    seps = _seps(n, b",", b"\n")

    def blocks():
        yield corner + _text(_cat((n,), head, seps))
        for r in range(0, n, _ROWS):
            rows = cells[r:r + _ROWS]
            body = _cat(rows.shape[:2], rows, seps).reshape(len(rows), -1)
            yield _text(_cat((len(rows),), coords[r:r + _ROWS], _COMMA, body))

    _atomic_write(path, blocks(), files)
    return cells


def emit_plot_data(w, stem, rows=None, files=None):
    """Gnuplot-ready (x, p, W) triplets plus marginal curves (d = 1).

    Byte-stable across reruns of the same configuration.  Values are
    written as FMT renders them, by `_render` (see the module docstring):
    each coordinate once per node, and W once per call, or not at all when
    `rows` holds the cells `write_wigner_csv` rendered for the same W.
    Returns the two paths; their manifest entries are appended to `files`
    if given.
    """
    grid = w.grid
    if grid.d != 1:
        raise ValueError("plot data emission is limited to d = 1")
    xs = _render(grid.x_nodes)
    ps = _render(grid.p_nodes)
    if rows is None:
        rows = _render(w.values)
    # one block of lines per x node, each block followed by an empty line
    ends = _seps(len(ps), b"\n", b"\n\n")

    def blocks():
        for r in range(0, len(xs), _ROWS):
            block = rows[r:r + _ROWS]
            yield _text(_cat(block.shape[:2], xs[r:r + _ROWS, None], _SPACE, ps,
                             _SPACE, block, ends))

    tri_path = stem + "_wigner.dat"
    _atomic_write(tri_path, blocks(), files)

    pos, mom = marginals(w)
    lines = _cat((len(xs),), xs, _SPACE, _render(pos), _SPACE, ps, _SPACE,
                 _render(mom), _NEWLINE)
    mar_path = stem + "_marginals.dat"
    _atomic_write(mar_path, b"# x  position_marginal  p  momentum_marginal\n" + _text(lines),
                  files)
    return [tri_path, mar_path]


def _write_json(path, obj, files=None):
    """`obj` as JSON through `_atomic_write`: indent 2, sorted keys, a
    trailing newline, and str() for what JSON cannot encode."""
    _atomic_write(path, json.dumps(obj, indent=2, sort_keys=True, default=str) + "\n", files)


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
        manifest["files"] = files
        man_path = os.path.join(config.out_dir, "manifest.json")
        _write_json(man_path, manifest)
        return manifest

    try:
        w0 = make_initial_wigner(config.initial, config.grid,
                                 boundary_tol=config.boundary_tol)
    except Exception as exc:
        return finish(failed=f"initial state: {_reason(exc)}")

    try:
        if config.mode == "observables":
            path = os.path.join(config.out_dir, "observables.json")
            _write_json(path, observables(w0).as_dict(), files)

        elif config.mode == "transform":
            rho = density_from_wigner(w0)
            w_back = wigner_from_density(rho)
            path = os.path.join(config.out_dir, "wigner_t0.csv")
            rows = write_wigner_csv(w_back, path, files)
            trace = rho.trace()
            sidecar = {
                "observables": observables(w_back).as_dict(),
                "roundtrip_sup_error": float(np.max(np.abs(w_back.values - w0.values))),
                "density_trace": [trace.real, trace.imag],
                "hermiticity_defect": rho.hermiticity_defect(),
            }
            path = os.path.join(config.out_dir, "wigner_t0.json")
            _write_json(path, sidecar, files)
            if config.plot_data and config.grid.d == 1:
                emit_plot_data(w_back, os.path.join(config.out_dir, "t0"), rows, files)

        elif config.mode == "evolve":
            for it, t in enumerate(config.times):
                result = evolve(w0, config.model, t, config.quad,
                                backend=config.backend, workers=config.workers)
                tag = f"t{it}"
                path = os.path.join(config.out_dir, f"wigner_{tag}.csv")
                rows = write_wigner_csv(result.w_total, path, files)
                diag = dict(result.diagnostics)
                sidecar = {
                    "time": t,
                    "observables": observables(result.w_total).as_dict(),
                    "diagnostics": diag,
                }
                path = os.path.join(config.out_dir, f"wigner_{tag}.json")
                _write_json(path, sidecar, files)
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
                    emit_plot_data(result.w_total, os.path.join(config.out_dir, tag),
                                   rows, files)

        elif config.mode == "certify":
            t, = config.times
            probes = default_probes(config.grid)
            record = certify_instance(w0, config.model, t, probes, config.quad,
                                      backend=config.backend)
            path = os.path.join(config.out_dir, "certification.json")
            _write_json(path, record, files)
            manifest["diagnostics"]["certification"] = {
                "all_passed": record["all_passed"],
                "oracle_rungs": {k: e["oracle_rungs"] for k, e in record["terms"].items()},
                "oracle_converged": {k: e["oracle_converged"] for k, e in record["terms"].items()},
                "runtime_s": record["runtime_s"],
            }
            if not record["all_passed"]:
                manifest["failures"].append("certification: oracle disagreement "
                                            "beyond tolerance")
    except Exception as exc:
        return finish(failed=_reason(exc))

    return finish()
