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

`fit` is the one driver from spectra to a scan table. `analyze ep` reads a
table with --in from a scan CSV or from a fit manifest.json; the schema tag
tells the two apart. `analyze curve --in` takes the manifest only: its
*_fit.json files carry the fitted matrices that the tracer reads and passes
on to `analyze pt`, where a scan CSV holds observables alone.
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
from .errors import (
    DataError,
    EplabError,
    InvalidArgumentError,
    OutOfBoundsError,
    UsageError,
)
from .fit import FitConfig, _channel_row_mask, fit_spectrum
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
    """argparse that reports problems as UsageError instead of exiting."""

    def error(self, message):
        raise UsageError(f"{self.prog}: {message}")


# --------------------------------------------------------------- plumbing


def _config_hash(resolved):
    canon = json.dumps(resolved, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


def _config_defaults(ns):
    """Set --config values as the command's option defaults, as text, so
    parsing argv again converts each by its option's type; flags win."""
    doc = _read_json(ns.config, "config file")
    options = set(vars(ns)) - {"command", "mode", "handler", "parser",
                               "config", "spectra"}
    unknown = sorted(set(doc) - options)
    if unknown:
        raise UsageError(f"unknown config keys: {', '.join(unknown)}")
    ns.parser.set_defaults(**{key: str(value) for key, value in doc.items()
                              if value is not None})


def _resolve_out(ns):
    out = ns.out or os.environ.get(OUTPUT_ROOT_ENV) or "."
    if not os.path.isdir(out):
        raise DataError(f"output directory {out!r} does not exist")
    return out


def _parse_grid(text):
    axes = str(text).split("x")
    if len(axes) != 2:
        raise UsageError(
            f"grid must be min:max:step x min:max:step, got {text!r}")
    spans = []
    for axis in axes:
        parts = axis.split(":")
        if len(parts) != 3:
            raise UsageError(f"grid axis must be min:max:step, got {axis!r}")
        try:
            spans.append(tuple(float(p) for p in parts))
        except ValueError:
            raise UsageError(f"grid axis {axis!r} is not numeric")
    if spans[0][2] != spans[1][2]:
        raise UsageError("both grid axes must use the same step")
    return ParamGrid(spans[0][0], spans[0][1],
                     spans[1][0], spans[1][1], spans[0][2])


def _parse_point(text, what="point", table=None):
    """(s, delta) of "s,delta" in mm; with table, the EP located on table()
    for "ep" or no text."""
    if table is not None and (text is None or str(text).strip().lower()
                              == "ep"):
        return tuple(locate_ep(table()))
    parts = str(text).split(",")
    if len(parts) != 2:
        raise UsageError(f"{what} must be s,delta (mm), got {text!r}")
    try:
        return float(parts[0]), float(parts[1])
    except ValueError:
        raise UsageError(f"{what} {text!r} is not numeric")


def _parse_mask(text):
    """The --mask channels as typed, checked like fit_spectrum checks them."""
    if text is None:
        return None
    mask = tuple(part.strip() for part in str(text).split(",") if part.strip())
    _channel_row_mask(mask)
    return mask


def _listed(path, doc, suffix):
    """Paths of the files with suffix that manifest doc at path lists."""
    files = doc.get("files", [])
    if not (isinstance(files, list)
            and all(isinstance(name, str) for name in files)):
        raise DataError(f"manifest {path!r}: files must be a list of names")
    root = os.path.dirname(os.path.abspath(path))
    paths = [os.path.join(root, n) for n in files if n.endswith(suffix)]
    if not paths:
        raise DataError(f"manifest {path!r} lists no {suffix} files")
    return paths


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
    """Yield fn(item) for every item, in input order, as results arrive."""
    if jobs is None:
        jobs = os.cpu_count() or 1
    if jobs <= 1 or len(items) <= 1:
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
    fam, s, d, f0, span, fstep, noise, cfg_hash, out = args
    spec = synth_spectrum(
        fam.internal_at(s, d), fam.coupling, f0, span, fstep, noise=noise,
        meta={"s_mm": s, "delta_mm": d, "B_mT": fam.b_mt, "seed": noise.seed,
              "sigma": noise.sigma, "config_hash": cfg_hash})
    name = f"{fam.name}_s{s:.4f}_d{d:.4f}.csv"
    spec.write_csv(os.path.join(out, name))
    return name


def _cmd_synth(ns):
    if ns.family is None:
        raise UsageError("synth requires --family")
    if (ns.grid is None) == (ns.point is None):
        raise UsageError("synth requires exactly one of --grid or --point")

    fam = load_family(ns.family)
    defaults = fam.spectrum_defaults
    f0 = ns.f0 if ns.f0 is not None else defaults["f_center_mhz"]
    span = ns.span if ns.span is not None else defaults["span_mhz"]
    fstep = ns.fstep if ns.fstep is not None else defaults["step_mhz"]
    out = _resolve_out(ns)

    if ns.grid is not None:
        grid = _parse_grid(ns.grid)
        points = [(s, d) for s in grid.s_values for d in grid.delta_values]
    else:
        points = [_parse_point(ns.point)]
    for s, d in points:
        if not fam.contains(s, d):
            raise OutOfBoundsError(
                f"point ({s:g}, {d:g}) outside family bounds "
                f"s in {fam.bounds_s}, delta in {fam.bounds_delta}")

    resolved = {"command": "synth", "family": fam.name,
                "grid": ns.grid, "point": ns.point, "sigma": ns.sigma,
                "seed": ns.seed, "f0": f0, "span": span, "fstep": fstep,
                "out": out}
    cfg_hash = _config_hash(resolved)

    # NoiseSpec refuses a bad --sigma here, before any file is written
    tasks = [(fam, s, d, f0, span, fstep,
              NoiseSpec(ns.sigma, _point_seed(ns.seed, k)), cfg_hash, out)
             for k, (s, d) in enumerate(points)]
    files = list(_pool_map(_synth_task, tasks, ns.jobs))
    _write_manifest(out, "synth", cfg_hash, ns.seed,
                    files + [_sidecar_path(f) for f in files])
    print(f"wrote {len(files)} spectra to {out} "
          f"(sigma={ns.sigma:g}, seed={ns.seed}, config={cfg_hash})")
    return EXIT_OK


# --------------------------------------------------------------------- fit


def _spectrum_inputs(ns):
    """Normalize --in / --manifest / positional files to sorted (s, d, path).

    Each spectrum needs a sidecar JSON whose s_mm and delta_mm (read to
    1e-6 mm) are unique and sit on one grid. Under --in, a CSV with no
    sidecar at all, such as a summary.csv written there, is passed over.
    """
    given = sum(bool(x) for x in (ns.spectra, ns.indir, ns.manifest))
    if given == 0:
        raise UsageError("fit requires spectra: files, --in DIR, or "
                         "--manifest FILE")
    if given > 1:
        raise UsageError("give spectra as files, --in, or --manifest, "
                         "not several at once")

    if ns.indir:
        if not os.path.isdir(ns.indir):
            raise DataError(f"not a directory: {ns.indir}")
        paths = [os.path.join(ns.indir, name)
                 for name in sorted(os.listdir(ns.indir))
                 if name.endswith(".csv") and os.path.exists(
                     _sidecar_path(os.path.join(ns.indir, name)))]
        if not paths:
            raise DataError(f"no spectrum files with sidecars in {ns.indir}")
    elif ns.manifest:
        paths = _listed(ns.manifest, _read_json(ns.manifest, "manifest"),
                        ".csv")
    else:
        paths = list(ns.spectra)

    seen = {}
    for path in paths:
        meta = _read_json(_sidecar_path(path), "sidecar")
        try:
            key = (round(float(meta["s_mm"]), 6),
                   round(float(meta["delta_mm"]), 6))
        except (ValueError, TypeError, KeyError):
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


def _read_table(path):
    """Scan table of a scan CSV or of a fit manifest, told by schema tag."""
    with open(path, "rb") as fh:
        is_csv = fh.readline().startswith(b"# schema=")
    if is_csv:
        return ScanResult.read_csv(path)
    doc = _read_json(path, "manifest")
    if doc.get("schema") != MANIFEST_SCHEMA or doc.get("command") != "fit":
        raise DataError(f"{path} is neither a scan CSV nor a fit manifest")
    docs = [_read_json(fit, "fit result")
            for fit in _listed(path, doc, "_fit.json")]
    try:
        if any(fit.get("schema") != FIT_SCHEMA for fit in docs):
            raise DataError(f"{path} lists a file without schema {FIT_SCHEMA}")
        return _fit_table(docs)
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise DataError(f"{path} lists a malformed fit result: {exc!r}")


def _cmd_fit(ns):
    inputs = _spectrum_inputs(ns)
    mask = _parse_mask(ns.mask)
    cfg = FitConfig(n_starts=ns.n_starts, seed=ns.seed)
    if not 0 <= ns.max_failures <= 1:
        raise InvalidArgumentError(
            f"--max-failures must be within [0, 1], got {ns.max_failures}")
    out = _resolve_out(ns)

    resolved = {"command": "fit",
                "inputs": [os.path.basename(p) for _, _, p in inputs],
                "mask": list(mask) if mask else None,
                "n_starts": cfg.n_starts, "seed": cfg.seed,
                "max_failures": ns.max_failures, "out": out}
    cfg_hash = _config_hash(resolved)

    # each *_fit.json is written as its result arrives, so an interrupted
    # run keeps the fits it finished; the summary is built from them at the
    # end, as _read_table builds it from the manifest
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
    _write_manifest(out, "fit", cfg_hash, cfg.seed, files)

    n_failed_fits = sum(not doc["converged"] for doc in docs)
    rate = n_failed_fits / len(inputs)
    print(f"fitted {len(inputs)} spectra, {n_failed_fits} failures "
          f"(rate {rate:.3f}); wrote summary.csv (config={cfg_hash})")
    if rate > ns.max_failures:
        print(f"failure rate {rate:.3f} exceeds threshold {ns.max_failures:g}")
        return EXIT_NUMERICAL
    return EXIT_OK


# ----------------------------------------------------------------- analyze


def _family_grid(ns):
    """The --family preset and its --grid (default: the family bounds)."""
    if not ns.family:
        raise UsageError("this command requires --family")
    if getattr(ns, "indir", None):
        raise UsageError("give --family or --in, not both")
    fam = load_family(ns.family)
    if getattr(ns, "grid", None):
        grid = _parse_grid(ns.grid)
    else:
        grid = ParamGrid(fam.bounds_s[0], fam.bounds_s[1],
                         fam.bounds_delta[0], fam.bounds_delta[1])
    return fam, grid


def _cmd_analyze_scan(ns):
    fam, grid = _family_grid(ns)
    out = _resolve_out(ns)
    # "in" stays a key, always None, so existing scan.csv hashes still hold
    resolved = {"command": "analyze-scan", "family": ns.family,
                "in": None, "grid": ns.grid, "out": out}
    cfg_hash = _config_hash(resolved)

    result = scan(grid, fam)
    result.write_csv(os.path.join(out, "scan.csv"), config_hash=cfg_hash)
    print(f"scanned {grid.shape[0]}x{grid.shape[1]} grid, "
          f"{result.n_failed} failed points; wrote scan.csv "
          f"(config={cfg_hash})")
    return EXIT_OK


def _cmd_analyze_ep(ns):
    if ns.infile is None:
        raise UsageError("analyze ep requires --in SCAN.csv or manifest.json")
    result = _read_table(ns.infile)
    loc = locate_ep(result)
    out = _resolve_out(ns)
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
    out = _resolve_out(ns)
    if ns.family:
        fam, grid = _family_grid(ns)
        result = scan(grid, fam)
        origin = {"family": ns.family, "grid": ns.grid}
    elif ns.indir:
        result = _read_table(ns.indir)
        origin = {"scan": os.path.basename(ns.indir)}
    else:
        raise UsageError("analyze curve requires --family or --in "
                         "manifest.json")

    start = _parse_point(ns.start, "--start", lambda: result)

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
    if ns.curve is None:
        raise UsageError("analyze pt requires --curve TRACE.json")
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
    fam, grid = _family_grid(ns)
    out = _resolve_out(ns)

    center = _parse_point(ns.center, "--center", lambda: scan(grid, fam))

    # "grid" and "points" stay keys, at their one value, so hashes hold
    resolved = {"command": "analyze-braid", "family": fam.name,
                "grid": None, "center": ns.center, "radius": ns.radius,
                "points": 64, "turns": ns.turns, "out": out}
    cfg_hash = _config_hash(resolved)

    trace = braid_loop(fam, center, ns.radius, turns=ns.turns)
    doc = trace.to_json_dict(config_hash=cfg_hash)
    doc["center"] = [center[0], center[1]]
    doc["radius"] = ns.radius
    doc["turns"] = ns.turns
    _write_json(os.path.join(out, "braid.json"), doc)
    print(f"permutation: {trace.permutation.value} "
          f"(center {center[0]:.4f},{center[1]:.4f}, radius {ns.radius:g}, "
          f"turns {ns.turns})")
    return EXIT_OK


# ------------------------------------------------------------------ parser


def _add_common(parser):
    parser.add_argument("--out", help="output directory (must exist)")
    parser.add_argument("--config", help="JSON config file; flags win")


def _build_parser():
    top = _Parser(prog="eplab", description=__doc__.splitlines()[0])
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="synthesize spectrum datasets")
    p.add_argument("--family", help="preset name (b38, b0) or JSON path")
    p.add_argument("--grid", help="min:max:step x min:max:step in mm")
    p.add_argument("--point", help="single s,delta point in mm")
    p.add_argument("--sigma", type=float, default=0.0,
                   help="noise level (default %(default)s)")
    p.add_argument("--seed", type=int, default=0,
                   help="base RNG seed (default %(default)s)")
    p.add_argument("--f0", type=float, help="center frequency MHz")
    p.add_argument("--span", type=float, help="frequency span MHz")
    p.add_argument("--fstep", type=float, help="frequency step MHz")
    p.add_argument("--jobs", type=int, help="worker processes")
    _add_common(p)
    p.set_defaults(handler=_cmd_synth, parser=p)

    p = sub.add_parser("fit", help="fit spectra to the two-level model")
    p.add_argument("spectra", nargs="*", help="spectrum CSV files")
    p.add_argument("--in", dest="indir", help="directory of spectra")
    p.add_argument("--manifest", help="dataset manifest JSON")
    p.add_argument("--mask", help="channels to fit, e.g. S11 or S11,S22")
    p.add_argument("--n-starts", type=int, default=FitConfig.n_starts,
                   help="at most this many starts per fit (default "
                        "%(default)s); a fit stops at its first exact or "
                        "white-residual start")
    p.add_argument("--seed", type=int, default=FitConfig.seed,
                   help="fit RNG seed (default %(default)s)")
    p.add_argument("--max-failures", type=float, default=0.2,
                   help="acceptable failure fraction (default %(default)s)")
    p.add_argument("--jobs", type=int, help="worker processes")
    _add_common(p)
    p.set_defaults(handler=_cmd_fit, parser=p)

    pa = sub.add_parser("analyze", help="plane analysis on fits or presets")
    mode = pa.add_subparsers(dest="mode", required=True)

    p = mode.add_parser("scan", help="tabulate a family on a grid")
    p.add_argument("--family", help="preset name or JSON path")
    p.add_argument("--grid", help="min:max:step x min:max:step in mm")
    _add_common(p)
    p.set_defaults(handler=_cmd_analyze_scan, parser=p)

    p = mode.add_parser("ep", help="locate the degeneracy on a scan table")
    p.add_argument("--in", dest="infile",
                   help="scan CSV (also a fit summary.csv) or fit manifest")
    _add_common(p)
    p.set_defaults(handler=_cmd_analyze_ep, parser=p)

    p = mode.add_parser("curve", help="trace the real-splitting contour")
    p.add_argument("--family", help="preset name or JSON path")
    p.add_argument("--in", dest="indir",
                   help="fit manifest.json to trace on")
    p.add_argument("--grid", help="grid when scanning a family")
    p.add_argument("--start", help="s,delta start point or 'ep' (default)")
    _add_common(p)
    p.set_defaults(handler=_cmd_analyze_curve, parser=p)

    p = mode.add_parser("pt", help="symmetry analysis along a traced curve")
    p.add_argument("--curve", help="trace.json from analyze curve")
    _add_common(p)
    p.set_defaults(handler=_cmd_analyze_pt, parser=p)

    p = mode.add_parser("braid", help="eigenvalue exchange around a loop")
    p.add_argument("--family", help="preset name or JSON path")
    p.add_argument("--center", help="loop center s,delta or 'ep' (default)")
    p.add_argument("--radius", type=float, default=0.1,
                   help="loop radius mm (default %(default)s)")
    p.add_argument("--turns", type=int, default=1,
                   help="windings (default %(default)s)")
    _add_common(p)
    p.set_defaults(handler=_cmd_analyze_braid, parser=p)

    return top


def main(argv=None):
    try:
        parser = _build_parser()
        ns = parser.parse_args(argv)
        if ns.config is not None:
            _config_defaults(ns)
            ns = parser.parse_args(argv)
        return ns.handler(ns)
    except SystemExit as exc:          # argparse --help
        return EXIT_OK if not exc.code else EXIT_USAGE
    except (UsageError, InvalidArgumentError, OutOfBoundsError) as exc:
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
