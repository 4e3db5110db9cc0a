"""Command line front end: synthesize datasets, fit them, analyze the plane.

Subcommands
  synth          write spectrum CSVs (plus sidecars and a manifest) on a grid
  fit            fit spectra to the two-level model; JSON per file, CSV summary
  analyze scan   tabulate a family's effective matrix over a parameter grid
  analyze ep     locate the eigenvalue degeneracy on a scan table
  analyze curve  trace the real-splitting contour through the plane
  analyze pt     run the symmetry normal-form chain along a traced curve
  analyze braid  track eigenvalue exchange around a closed parameter loop

Exit codes are stable: 0 success, 1 usage error, 2 data error, 3 numerical
failure. Every output file embeds a 16-hex-digit hash of the resolved
configuration, and re-running a command with the same configuration and seed
rewrites outputs bit-identically. EPLAB_OUTPUT_ROOT sets the default output
directory; an explicit --out wins, and the directory must already exist.

`fit` is the one path from spectra to a scan table. The analyze commands
but pt read their table through one loader, _table: a --family scan, or
with --in a scan CSV or a fit manifest.json, told apart by schema tag.
`analyze curve --in` takes the manifest only: its *_fit.json files carry
the fitted matrices that the tracer reads and passes on to `analyze pt`,
where a scan CSV holds observables alone.
"""

import argparse
import concurrent.futures
import ctypes
import glob
import hashlib
import json
import os
import sys

import numpy as np

from .core import EffHamiltonian, pt_report
from .epscan import (
    CurveTrace,
    ParamGrid,
    ScanResult,
    _scan_table,
    braid_loop,
    locate_ep,
    scan,
    trace_pt_curve,
)
from .errors import _MALFORMED, DataError, EplabError, InvalidArgumentError
from .fit import CHANNEL_NAMES, FitConfig, _channel_row_mask, fit_spectrum
from .synth import (
    NoiseSpec,
    _read_json,
    _sidecar_path,
    _write_json,
    _write_table,
    load_family,
    read_spectrum,
    synth_spectrum,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERICAL = 3

OUTPUT_ROOT_ENV = "EPLAB_OUTPUT_ROOT"

MANIFEST_SCHEMA = "eplab.manifest.v1"
FIT_SCHEMA = "eplab.fit.v1"
EP_SCHEMA = "eplab.ep.v1"
PT_SCHEMA = "eplab.pt.v1"
CURVE_CSV_SCHEMA = "eplab.curvecsv.v1"
PT_CSV_SCHEMA = "eplab.ptcsv.v1"


class _Parser(argparse.ArgumentParser):
    """argparse that raises InvalidArgumentError instead of exiting."""

    def error(self, message):
        # main names the program; name the subcommand path only
        where = self.prog.partition(" ")[2]
        raise InvalidArgumentError(f"{where}: {message}" if where else message)


# --------------------------------------------------------------- plumbing


def _config_hash(resolved):
    canon = json.dumps(resolved, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


def _resolve_out(ns):
    out = ns.out or os.environ.get(OUTPUT_ROOT_ENV) or "."
    if not os.path.isdir(out):
        raise DataError(f"output directory {out!r} does not exist")
    return out


def _parse_grid(text):
    axes = str(text).split("x")
    if len(axes) != 2:
        raise InvalidArgumentError(
            f"grid must be min:max:step x min:max:step, got {text!r}")
    spans = []
    for axis in axes:
        parts = axis.split(":")
        if len(parts) != 3:
            raise InvalidArgumentError(
                f"grid axis must be min:max:step, got {axis!r}")
        try:
            spans.append(tuple(float(p) for p in parts))
        except ValueError:
            raise InvalidArgumentError(f"grid axis {axis!r} is not numeric")
    grid = ParamGrid(spans[0][0], spans[0][1],
                     spans[1][0], spans[1][1], spans[0][2])
    if spans[0][2] != spans[1][2]:
        raise InvalidArgumentError("both grid axes must use the same step")
    for axis, (lo, hi, step) in zip(axes, spans):
        nodes = (hi - lo) / step        # whole, to the rounding of the text
        if abs(nodes - round(nodes)) > 1e-9 * nodes:
            raise InvalidArgumentError(
                f"grid axis {axis!r}: step does not divide the span")
    return grid


def _parse_point(text, what, table):
    """(s, delta) of "s,delta" in mm, or the EP located on table for "ep" or
    no text."""
    if text is None or str(text).strip().lower() == "ep":
        return tuple(locate_ep(table))
    parts = str(text).split(",")
    if len(parts) != 2:
        raise InvalidArgumentError(f"{what} must be s,delta (mm), got {text!r}")
    try:
        return float(parts[0]), float(parts[1])
    except ValueError:
        raise InvalidArgumentError(f"{what} {text!r} is not numeric")


def _parse_mask(text):
    """The --mask channels, checked like fit_spectrum checks them, once each
    in S11, S12, S21, S22 order; None when all four are named."""
    if text is None:
        return None
    include = _channel_row_mask(
        [part.strip() for part in str(text).split(",") if part.strip()])
    return (None if include.all() else
            tuple(name for name, on in zip(CHANNEL_NAMES, include) if on))


def _write_manifest(out, command, cfg_hash, seed, files):
    doc = {
        "schema": MANIFEST_SCHEMA,
        "command": command,
        "config_hash": cfg_hash,
        "seed": seed,
        "files": sorted(files),
    }
    _write_json(os.path.join(out, "manifest.json"), doc)


def _openblas_thread_functions():
    """(get, set) thread-count functions of the OpenBLAS numpy ships with.

    Wheels bundle it under numpy.libs (Linux) or numpy/.dylibs (macOS);
    other BLAS builds give an empty list.
    """
    root = os.path.dirname(np.__file__)
    paths = sorted(glob.glob(os.path.join(root + ".libs", "*openblas*"))
                   + glob.glob(os.path.join(root, ".dylibs", "*openblas*")))
    found = []
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for prefix in ("openblas", "scipy_openblas"):
            for suffix in ("", "64_"):
                get = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                put = getattr(lib, f"{prefix}_set_num_threads{suffix}", None)
                if get is not None and put is not None:
                    get.argtypes, get.restype = [], ctypes.c_int
                    put.argtypes, put.restype = [ctypes.c_int], None
                    found.append((get, put))
    return found


def _pin_blas_thread():
    """Pool initializer: run OpenBLAS in this worker on one thread.

    Workers share out the cores, so BLAS threads of their own would
    oversubscribe them. The count is read from the environment when numpy
    loads, so only the library's setter changes it afterwards; a forked
    worker inherits the parent's count, a spawned one OpenBLAS's default.
    """
    for _, put in _openblas_thread_functions():
        put(1)


def _pool_map(fn, items, jobs):
    """Yield fn(item) for every item, in input order, as results arrive;
    fewer than one job is refused before the first item."""
    if jobs is None:
        jobs = os.cpu_count() or 1
    if jobs < 1:
        raise InvalidArgumentError(f"--jobs must be >= 1, got {jobs}")
    if jobs == 1 or len(items) <= 1:
        yield from map(fn, items)
        return
    chunk = max(1, len(items) // (4 * jobs))
    with concurrent.futures.ProcessPoolExecutor(
            max_workers=jobs, initializer=_pin_blas_thread) as pool:
        yield from pool.map(fn, items, chunksize=chunk)


# ------------------------------------------------------------------- synth


def _point_seed(base, index):
    # collision-free per-point derivation: streams never overlap between
    # base seeds, and --jobs reordering cannot change any file's samples
    if base < 0:
        raise InvalidArgumentError(f"seed must be >= 0, got {base}")
    return int(np.random.SeedSequence([base, index]).generate_state(1)[0])


def _synth_task(args):
    fam, s, d, name, f0, span, fstep, noise, cfg_hash, out = args
    spec = synth_spectrum(fam.internal_at(s, d), fam.coupling, f0, span,
                          fstep, noise=noise)
    spec.meta.update(s_mm=s, delta_mm=d, B_mT=fam.b_mt, config_hash=cfg_hash)
    spec.write_csv(os.path.join(out, name))
    return name


def _cmd_synth(ns):
    fam = load_family(ns.family)
    f0, span, fstep = (fam.spectrum_defaults[key] for key in
                       ("f_center_mhz", "span_mhz", "step_mhz"))
    out = _resolve_out(ns)

    grid = _parse_grid(ns.grid)
    s, d = np.meshgrid(grid.s_values, grid.delta_values, indexing="ij")
    fam._check_bounds(s, d)
    points = list(zip(s.ravel(), d.ravel()))
    names = [f"{fam.name}_s{s:.4f}_d{d:.4f}.csv" for s, d in points]
    ordered = sorted(names)
    for a, b in zip(ordered, ordered[1:]):
        if a == b:
            raise InvalidArgumentError(
                f"two --grid points round to the file name {a}")

    # "point" stays a key, always None, and the window keys hold the
    # preset's, so existing hashes still hold
    resolved = {"command": "synth", "family": fam.name,
                "grid": ns.grid, "point": None, "sigma": ns.sigma,
                "seed": ns.seed, "f0": f0, "span": span, "fstep": fstep,
                "out": out}
    cfg_hash = _config_hash(resolved)

    # NoiseSpec refuses a bad --sigma here, before any file is written
    tasks = [(fam, s, d, name, f0, span, fstep,
              NoiseSpec(ns.sigma, _point_seed(ns.seed, k)), cfg_hash, out)
             for k, ((s, d), name) in enumerate(zip(points, names))]
    files = list(_pool_map(_synth_task, tasks, ns.jobs))
    _write_manifest(out, "synth", cfg_hash, ns.seed,
                    files + [_sidecar_path(f) for f in files])
    print(f"wrote {len(files)} spectra to {out} "
          f"(sigma={ns.sigma:g}, seed={ns.seed}, config={cfg_hash})")
    return EXIT_OK


# --------------------------------------------------------------------- fit


def _spectrum_inputs(ns):
    """Normalize --in or positional files to sorted (s, d, path).

    Each spectrum needs a sidecar JSON whose s_mm and delta_mm (read to
    1e-6 mm) are unique and sit on one grid. Under --in, a CSV with no
    sidecar at all, such as a summary.csv written there, is passed over.
    """
    if bool(ns.spectra) == bool(ns.indir):
        raise InvalidArgumentError(
            "fit requires spectra as files or as --in DIR, one of the two")

    if ns.indir:
        if not os.path.isdir(ns.indir):
            raise DataError(f"not a directory: {ns.indir}")
        paths = [os.path.join(ns.indir, name)
                 for name in sorted(os.listdir(ns.indir))
                 if name.endswith(".csv") and os.path.exists(
                     _sidecar_path(os.path.join(ns.indir, name)))]
        if not paths:
            raise DataError(f"no spectrum files with sidecars in {ns.indir}")
    else:
        paths = list(ns.spectra)

    seen = {}
    for path in paths:
        meta = _read_json(_sidecar_path(path), "sidecar")
        try:
            key = (round(float(meta["s_mm"]), 6),
                   round(float(meta["delta_mm"]), 6))
        except _MALFORMED:
            raise DataError(f"{path}: no s_mm/delta_mm in its sidecar")
        if key in seen:
            raise DataError(f"{path}: duplicates coordinates of {seen[key]}")
        seen[key] = path
    points = sorted((*key, path) for key, path in seen.items())
    ParamGrid.from_points([s for s, _, _ in points], [d for _, d, _ in points],
                          "spectrum coordinates")
    return points


def _fit_task(args):
    s, d, path, mask, cfg = args
    name = os.path.basename(path)
    try:
        doc = fit_spectrum(read_spectrum(path), cfg, mask=mask).to_json_dict()
    except EplabError as exc:
        doc = {"converged": False, "reason": type(exc).__name__,
               "detail": str(exc)}
    return name, s, d, doc


def _fit_table(docs):
    """Scan table of fit JSON documents, through the observables kernel.

    Grid nodes with no document are failed as missing-spectrum, failed
    fits with their recorded reason; converged fits are ok and keep the
    tau of their document.
    """
    grid, i, j = ParamGrid.from_points([doc["s_mm"] for doc in docs],
                                       [doc["delta_mm"] for doc in docs],
                                       "fit coordinates")
    mats = [np.full(grid.shape, np.nan, dtype=complex) for _ in range(4)]
    tau = np.full(grid.shape, np.nan)
    status = np.empty(grid.shape, dtype=object)
    status.fill("failed:missing-spectrum")
    for doc, a, b in zip(docs, i.tolist(), j.tolist()):
        if not doc["converged"]:
            status[a, b] = "failed:" + doc["reason"]
            continue
        status[a, b] = "ok"
        ham = EffHamiltonian.from_json_dict(doc)
        for arr, z in zip(mats, (ham.e1, ham.e2, ham.h1, ham.h2)):
            arr[a, b] = z
        tau[a, b] = float(doc["tau"])
    return _scan_table(grid, mats, status, tau=tau)


def _cmd_fit(ns):
    inputs = _spectrum_inputs(ns)
    mask = _parse_mask(ns.mask)
    cfg = FitConfig(n_starts=ns.n_starts)
    if not 0 <= ns.max_failures <= 1:
        raise InvalidArgumentError(
            f"--max-failures must be within [0, 1], got {ns.max_failures}")
    out = _resolve_out(ns)

    # "seed" stays a key, always 0, the scatter's seed, so hashes hold
    resolved = {"command": "fit",
                "inputs": [os.path.basename(p) for _, _, p in inputs],
                "mask": list(mask) if mask else None,
                "n_starts": cfg.n_starts, "seed": 0,
                "max_failures": ns.max_failures, "out": out}
    cfg_hash = _config_hash(resolved)

    # each *_fit.json is written as its result arrives, so an interrupted
    # run keeps the fits it finished; the summary is built from them at the
    # end, as _table builds it from the manifest
    results = _pool_map(_fit_task,
                        [(s, d, p, mask, cfg) for s, d, p in inputs],
                        ns.jobs)
    docs = []
    files = []
    for name, s, d, fit_doc in results:
        doc = {"schema": FIT_SCHEMA, "config_hash": cfg_hash,
               "source": name, "s_mm": s, "delta_mm": d, **fit_doc}
        fit_name = os.path.splitext(name)[0] + "_fit.json"
        _write_json(os.path.join(out, fit_name), doc)
        docs.append(doc)
        files.append(fit_name)

    _fit_table(docs).write_csv(os.path.join(out, "summary.csv"),
                               config_hash=cfg_hash)
    files.append("summary.csv")
    _write_manifest(out, "fit", cfg_hash, 0, files)

    n_failed_fits = sum(not doc["converged"] for doc in docs)
    rate = n_failed_fits / len(inputs)
    print(f"fitted {len(inputs)} spectra, {n_failed_fits} failures "
          f"(rate {rate:.3f}); wrote summary.csv (config={cfg_hash})")
    if rate > ns.max_failures:
        print(f"failure rate {rate:.3f} exceeds threshold {ns.max_failures:g}")
        return EXIT_NUMERICAL
    return EXIT_OK


# ----------------------------------------------------------------- analyze


def _table(family, grid, path):
    """The scan table of the --family preset on --grid (default: the
    preset's bounds at 0.01 mm), or of the scan CSV or fit manifest at path
    (--in), told apart by its schema tag."""
    if path is None:
        fam = load_family(family)
        grid = (_parse_grid(grid) if grid else
                ParamGrid(*fam.bounds_s, *fam.bounds_delta))
        return scan(grid, fam)
    with open(path, "rb") as fh:
        is_csv = fh.readline().startswith(b"# schema=")
    if is_csv:
        return ScanResult.read_csv(path)
    doc = _read_json(path, "manifest")
    if doc.get("schema") != MANIFEST_SCHEMA or doc.get("command") != "fit":
        raise DataError(f"{path} is neither a scan CSV nor a fit manifest")
    files = doc.get("files", [])
    if not (isinstance(files, list)
            and all(isinstance(name, str) for name in files)):
        raise DataError(f"manifest {path!r}: files must be a list of names")
    root = os.path.dirname(os.path.abspath(path))
    docs = [_read_json(os.path.join(root, name), "fit result")
            for name in files if name.endswith("_fit.json")]
    if not docs:
        raise DataError(f"manifest {path!r} lists no _fit.json files")
    try:
        if any(fit.get("schema") != FIT_SCHEMA for fit in docs):
            raise DataError(f"{path} lists a file without schema {FIT_SCHEMA}")
        return _fit_table(docs)
    except _MALFORMED as exc:
        raise DataError(f"{path} lists a malformed fit result: {exc!r}")


def _cmd_analyze_scan(ns):
    out = _resolve_out(ns)
    result = _table(ns.family, ns.grid, None)
    # "in" stays a key, always None, so existing scan.csv hashes still hold
    resolved = {"command": "analyze-scan", "family": ns.family,
                "in": None, "grid": ns.grid, "out": out}
    cfg_hash = _config_hash(resolved)

    result.write_csv(os.path.join(out, "scan.csv"), config_hash=cfg_hash)
    print(f"scanned {result.grid.shape[0]}x{result.grid.shape[1]} grid, "
          f"{result.n_failed} failed points; wrote scan.csv "
          f"(config={cfg_hash})")
    return EXIT_OK


def _cmd_analyze_ep(ns):
    out = _resolve_out(ns)
    loc = locate_ep(_table(None, None, ns.infile))
    resolved = {"command": "analyze-ep", "in": ns.infile, "out": out}
    cfg_hash = _config_hash(resolved)
    doc = {"schema": EP_SCHEMA, "config_hash": cfg_hash,
           "source": os.path.basename(ns.infile),
           "s_mm": loc.s, "delta_mm": loc.delta,
           "offset_s": loc.offset_s, "offset_delta": loc.offset_delta,
           "uncertainty_mm": loc.uncertainty}
    _write_json(os.path.join(out, "ep.json"), doc)
    print(f"EP at s={loc.s:.6f} mm, delta={loc.delta:.6f} mm "
          f"(uncertainty {loc.uncertainty:g} mm)")
    return EXIT_OK


def _cmd_analyze_curve(ns):
    if ns.grid is not None and ns.family is None:
        raise InvalidArgumentError("--grid scans a --family; --in traces on "
                                   "the fitted table's own grid")
    out = _resolve_out(ns)
    result = _table(ns.family, ns.grid, ns.infile)
    origin = ({"family": ns.family, "grid": ns.grid} if ns.infile is None
              else {"scan": os.path.basename(ns.infile)})

    start = _parse_point(ns.start, "--start", result)

    # "epsilon" and "step" stay keys, always None, so hashes hold
    resolved = {"command": "analyze-curve", "source": origin,
                "start": ns.start, "epsilon": None, "step": None, "out": out}
    cfg_hash = _config_hash(resolved)

    trace = trace_pt_curve(result, start)
    doc = trace.to_json_dict(source=origin, config_hash=cfg_hash)
    _write_json(os.path.join(out, "trace.json"), doc)
    _write_table(os.path.join(out, "curve.csv"), CURVE_CSV_SCHEMA, cfg_hash,
                 ("s_mm", "delta_mm", "reh2", "imh2", "cross", "tau", "d_re",
                  "d_im", "reh2_norm", "imh2_norm", "cross_norm"),
                 [*trace.points.T, trace.reh2, trace.imh2, trace.cross,
                  trace.tau, trace.d.real, trace.d.imag, *trace.split_norm.T])
    flag = " (truncated)" if trace.truncated else ""
    print(f"traced {trace.n_points} points, crossing at index "
          f"{trace.crossing_index}{flag}; wrote trace.json, curve.csv "
          f"(config={cfg_hash})")
    return EXIT_OK


def _cmd_analyze_pt(ns):
    trace = CurveTrace.from_json_dict(_read_json(ns.curve, "curve"))
    out = _resolve_out(ns)
    resolved = {"command": "analyze-pt", "curve": ns.curve, "out": out}
    cfg_hash = _config_hash(resolved)

    rows = []
    # each point is on the curve to the tolerance it was traced at
    for k, ham in enumerate(trace.hams):
        rep = pt_report(ham, eps_cross=trace.epsilon)
        rows.append({"index": k,
                     "s_mm": trace.points[k, 0],
                     "delta_mm": trace.points[k, 1],
                     "tau": rep.tau, "phase": rep.phase,
                     "residual": rep.form.residual,
                     "commutator_norm": rep.commutator_norm})
    flips = [k for k in range(1, len(rows))
             if rows[k]["phase"] != rows[k - 1]["phase"]]
    max_residual = max(r["residual"] for r in rows)
    max_commutator = max(r["commutator_norm"] for r in rows)

    doc = {"schema": PT_SCHEMA, "config_hash": cfg_hash,
           "source": os.path.basename(ns.curve),
           "n_points": len(rows), "crossing_index": trace.crossing_index,
           "phase_flips": flips, "max_residual": max_residual,
           "max_commutator_norm": max_commutator, "points": rows}
    _write_json(os.path.join(out, "pt.json"), doc)

    _write_table(os.path.join(out, "pt.csv"), PT_CSV_SCHEMA, cfg_hash,
                 tuple(rows[0]),
                 [np.array([r[k] for r in rows],
                           dtype=object if k in ("index", "phase") else float)
                  for k in rows[0]])

    flip_txt = ", ".join(str(k) for k in flips) if flips else "never"
    print(f"{len(rows)} points: phase flips at index {flip_txt} "
          f"(curve crossing index {trace.crossing_index}); "
          f"max residual {max_residual:.3g}, "
          f"max commutator {max_commutator:.3g}")
    return EXIT_OK


def _cmd_analyze_braid(ns):
    out = _resolve_out(ns)
    table = _table(ns.family, None, None)
    center = _parse_point(ns.center, "--center", table)

    # "grid" and "points" stay keys, at their one value, so hashes hold
    resolved = {"command": "analyze-braid", "family": table.family.name,
                "grid": None, "center": ns.center, "radius": ns.radius,
                "points": 64, "turns": ns.turns, "out": out}
    cfg_hash = _config_hash(resolved)

    trace = braid_loop(table, center, ns.radius, turns=ns.turns)
    doc = trace.to_json_dict(config_hash=cfg_hash)
    doc["center"] = [center[0], center[1]]
    doc["radius"] = ns.radius
    doc["turns"] = ns.turns
    _write_json(os.path.join(out, "braid.json"), doc)
    print(f"permutation: {trace.permutation} "
          f"(center {center[0]:.4f},{center[1]:.4f}, radius {ns.radius:g}, "
          f"turns {ns.turns})")
    return EXIT_OK


# ------------------------------------------------------------------ parser


def _add_common(parser):
    parser.add_argument("--out", help="output directory (must exist)")


def _build_parser():
    top = _Parser(prog="eplab", description=__doc__.splitlines()[0])
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="synthesize spectrum datasets")
    p.add_argument("--family", required=True,
                   help="preset name (b38, b0) or JSON path")
    p.add_argument("--grid", required=True,
                   help="min:max:step x min:max:step in mm")
    p.add_argument("--sigma", type=float, default=0.0,
                   help="noise level (default %(default)s)")
    p.add_argument("--seed", type=int, default=0,
                   help="base RNG seed (default %(default)s)")
    p.add_argument("--jobs", type=int, help="worker processes")
    _add_common(p)
    p.set_defaults(handler=_cmd_synth)

    p = sub.add_parser("fit", help="fit spectra to the two-level model")
    p.add_argument("spectra", nargs="*", help="spectrum CSV files")
    p.add_argument("--in", dest="indir", help="directory of spectra")
    p.add_argument("--mask", help="channels to fit, e.g. S11 or S11,S22")
    p.add_argument("--n-starts", type=int, default=FitConfig.n_starts,
                   help="at most this many starts per fit (default "
                        "%(default)s); a fit stops at its first exact or "
                        "white-residual start")
    p.add_argument("--max-failures", type=float, default=0.2,
                   help="acceptable failure fraction (default %(default)s)")
    p.add_argument("--jobs", type=int, help="worker processes")
    _add_common(p)
    p.set_defaults(handler=_cmd_fit)

    pa = sub.add_parser("analyze", help="plane analysis on fits or presets")
    mode = pa.add_subparsers(dest="mode", required=True)

    p = mode.add_parser("scan", help="tabulate a family on a grid")
    p.add_argument("--family", required=True, help="preset name or JSON path")
    p.add_argument("--grid", help="min:max:step x min:max:step in mm")
    _add_common(p)
    p.set_defaults(handler=_cmd_analyze_scan)

    p = mode.add_parser("ep", help="locate the degeneracy on a scan table")
    p.add_argument("--in", dest="infile", required=True,
                   help="scan CSV (also a fit summary.csv) or fit manifest")
    _add_common(p)
    p.set_defaults(handler=_cmd_analyze_ep)

    p = mode.add_parser("curve", help="trace the real-splitting contour")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--family", help="preset name or JSON path")
    source.add_argument("--in", dest="infile",
                        help="fit manifest.json to trace on")
    p.add_argument("--grid", help="grid when scanning a family")
    p.add_argument("--start", help="s,delta start point or 'ep' (default)")
    _add_common(p)
    p.set_defaults(handler=_cmd_analyze_curve)

    p = mode.add_parser("pt", help="symmetry analysis along a traced curve")
    p.add_argument("--curve", required=True,
                   help="trace.json from analyze curve")
    _add_common(p)
    p.set_defaults(handler=_cmd_analyze_pt)

    p = mode.add_parser("braid", help="eigenvalue exchange around a loop")
    p.add_argument("--family", required=True, help="preset name or JSON path")
    p.add_argument("--center", help="loop center s,delta or 'ep' (default)")
    p.add_argument("--radius", type=float, default=0.1,
                   help="loop radius mm (default %(default)s)")
    p.add_argument("--turns", type=int, default=1,
                   help="windings (default %(default)s)")
    _add_common(p)
    p.set_defaults(handler=_cmd_analyze_braid)

    return top


def main(argv=None):
    try:
        ns = _build_parser().parse_args(argv)
        return ns.handler(ns)
    except SystemExit as exc:          # argparse --help
        return EXIT_OK if not exc.code else EXIT_USAGE
    except InvalidArgumentError as exc:
        print(f"eplab: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (DataError, OSError) as exc:
        print(f"eplab: {exc}", file=sys.stderr)
        return EXIT_DATA
    except EplabError as exc:
        print(f"eplab: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    raise SystemExit(main())
