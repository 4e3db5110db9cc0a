"""The three workloads: what each runs, what it checks, what it reports.

Every workload is a batch job with one client. A round is one pass over the
workload's operations; the runner repeats whole rounds. Checks compare the
program's outputs with reference.py, which never calls eplab.
"""

import contextlib
import csv
import importlib
import io
import json
import math
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import numpy as np

from reference import Reference, dense, paired_error, poles

PLANTED_EP = (1.72, 41.78)
SIGMA = 0.005
# criterion 9's noisy tolerance on the paired eigenvalue error
NOISY_TOL_MHZ = 0.05
NOISELESS_TOL_MHZ = 1e-3
EXACT_TOL = 1e-9
# residual rms / sigma may stray this many standard deviations, 1/sqrt(2N)
RMS_BAND_SD = 6.0


def import_eplab():
    """Import eplab afresh, so each set-up pays for the import."""
    for name in [n for n in sys.modules
                 if n == "eplab" or n.startswith("eplab.")]:
        del sys.modules[name]
    return importlib.import_module("eplab.cli")


def median_or_zero(values):
    return statistics.median(values) if values else 0.0


class Round:
    """Timings and outputs of one pass over a workload's operations."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.stages = {}            # stage -> seconds
        self.failures = []          # failed operations, with detail
        self.extra = {}

    @property
    def wall(self):
        return sum(self.stages.values())


class Workload:
    name = None

    def __init__(self, root, seed, workdir):
        self.root = Path(root)
        self.seed = seed
        self.workdir = Path(workdir)
        self.preset = self.root / "src" / "eplab" / "presets" / "b38.json"

    def setup(self):
        """Imports, preset load, input generation, output directories."""
        self.cli = import_eplab()
        self.eplab = sys.modules["eplab"]
        self.family = self.eplab.load_family("b38")
        self.ref = Reference(self.preset)
        if self.workdir.exists():
            shutil.rmtree(self.workdir)
        self.workdir.mkdir(parents=True)
        self.prepare()

    def prepare(self):
        pass

    def end_to_end(self, rounds):
        return {"points_per_s": statistics.median(
            r.extra["points_per_s"] for r in rounds)}

    def probe(self):
        """Extra traced calls that the workload's rounds cannot show."""

    def _command(self, rnd, stage, argv, tracer):
        """Run one eplab command in this process, as a user's shell would."""
        rnd.attempted += 1
        text = io.StringIO()
        span = tracer.span(f"cli.{stage}") if tracer else contextlib.nullcontext()
        start = time.perf_counter()
        with span, contextlib.redirect_stdout(text), \
                contextlib.redirect_stderr(text):
            code = self.cli.main(argv)
        rnd.stages[stage] = time.perf_counter() - start
        if code != 0:
            rnd.failed += 1
            rnd.failures.append(f"eplab {' '.join(argv)} exited {code}: "
                                f"{text.getvalue().strip()}")
        return code == 0

    def _clear(self, *dirs):
        for d in dirs:
            if d.exists():
                shutil.rmtree(d)
            d.mkdir(parents=True)


# ---------------------------------------------------------------- fit_noisy


class FitNoisy(Workload):
    """Library fits of noisy b38 spectra across the criterion-9 window.

    The spectra are a fixed set: the points and their noise realizations do
    not depend on the seed. One noisy fit takes 6-12 s and its cost moves by
    about 20% with the noise realization, so the three fits a run can afford
    would not average that out; the seed orders the fits instead.
    """

    name = "fit_noisy"
    POINTS = ((1.57, 41.63), (1.72, 41.78), (1.87, 41.93))
    NOISE_BASE = 0

    def prepare(self):
        f0, span, step = self.ref.spectrum
        self.spectra = []
        for k, (s, d) in enumerate(self.POINTS):
            noise_seed = int(np.random.SeedSequence(
                [self.NOISE_BASE, k]).generate_state(1)[0])
            self.spectra.append(self.eplab.synth_spectrum(
                self.family.internal_at(s, d), self.family.coupling,
                f0, span, step,
                noise=self.eplab.NoiseSpec(sigma=SIGMA, seed=noise_seed)))
        self.truth = self.ref.eigenvalues([p[0] for p in self.POINTS],
                                          [p[1] for p in self.POINTS])
        self.order = [int(k) for k in
                      np.random.default_rng(self.seed).permutation(
                          len(self.POINTS))]

    def round(self, tracer):
        rnd = Round()
        fit = sys.modules["eplab.fit"]
        errors = sys.modules["eplab.errors"]
        rnd.extra["fits"] = {}
        for k in self.order:
            rnd.attempted += 1
            start = time.perf_counter()
            try:
                res = fit.fit_spectrum(self.spectra[k], fit.FitConfig())
            except errors.EplabError as exc:
                rnd.failed += 1
                rnd.failures.append(f"fit at {self.POINTS[k]}: "
                                    f"{type(exc).__name__}: {exc}")
                res = None
            rnd.stages[f"fit{k}"] = time.perf_counter() - start
            if res is not None:
                rnd.extra["fits"][k] = res
        rnd.extra["points_per_s"] = len(rnd.extra["fits"]) / rnd.wall
        return rnd

    def check(self, rnd):
        problems = []
        errs = []
        for k, res in sorted(rnd.extra["fits"].items()):
            h = res.ham
            found = np.linalg.eigvals(dense(h.e1, h.e2, h.h1, h.h2))
            err = paired_error(found, self.truth[k])
            errs.append(err)
            rows = 8 * self.spectra[k].n_points
            expected = math.sqrt((rows - 12) / rows)
            band = RMS_BAND_SD / math.sqrt(2.0 * rows)
            ratio = res.residual_rms / SIGMA
            where = f"fit at {self.POINTS[k]}"
            if not res.converged:
                problems.append(f"{where}: not converged")
            if not err < NOISY_TOL_MHZ:
                problems.append(f"{where}: eigenvalue error {err:.3g} MHz "
                                f">= {NOISY_TOL_MHZ}")
            if not abs(ratio - expected) <= band:
                problems.append(f"{where}: residual rms/sigma {ratio:.5f} "
                                f"outside {expected:.5f} +- {band:.5f}")
        rnd.extra["eig_err"] = errs
        return problems

    def per_layer(self, rounds):
        iters = [res.iterations for r in rounds
                 for res in r.extra["fits"].values()]
        errs = [e for r in rounds for e in r.extra["eig_err"]]
        return {"fit.iterations_p50": median_or_zero(iters),
                "eig_err_mhz": median_or_zero(errs)}

    def probe(self):
        probe_residual(self.spectra[self.order[0]],
                       self.ref.fit_params(*self.POINTS[self.order[0]]))


def probe_residual(spec, params, repeats=20):
    """One model row at every grid frequency: the S-matrix kernel's entry."""
    fit = sys.modules["eplab.fit"]
    for _ in range(repeats):
        fit.residual_vector(params, spec)


# ----------------------------------------------------------------- cli_grid


class CliGrid(Workload):
    """synth -> fit --jobs 2 -> analyze ep on a noiseless 11x11 b38 grid.

    Noiseless spectra carry no randomness; the seed reaches the program as
    `eplab synth --seed` (recorded in every sidecar) and picks the spectra
    the traced run reads back. The fit seed stays at its default: it moves
    the two slow lower-left fits, and with them the run, by about 20%.
    """

    name = "cli_grid"
    GRID = "1.52:1.92:0.04x41.58:41.98:0.04"
    STEP = 0.04
    JOBS = 2

    def prepare(self):
        self.data = self.workdir / "data"
        self.fits = self.workdir / "fits"
        axis = np.round(np.arange(11) * self.STEP, 10)
        s = np.repeat(1.52 + axis, 11)
        d = np.tile(41.58 + axis, 11)
        truth = self.ref.eigenvalues(s, d)
        self.truth = {(round(a, 6), round(b, 6)): t
                      for a, b, t in zip(s, d, truth)}

    def round(self, tracer):
        self._clear(self.data, self.fits)
        rnd = Round()
        ok = self._command(rnd, "synth", [
            "synth", "--family", "b38", "--grid", self.GRID,
            "--seed", str(self.seed), "--jobs", "1", "--out", str(self.data)],
            tracer)
        before = resource.getrusage(resource.RUSAGE_CHILDREN)
        ok = ok and self._command(rnd, "fit", [
            "fit", "--in", str(self.data), "--jobs", str(self.JOBS),
            "--out", str(self.fits)], tracer)
        after = resource.getrusage(resource.RUSAGE_CHILDREN)
        if ok:
            self._command(rnd, "analyze_ep", [
                "analyze", "ep", "--in", str(self.fits / "summary.csv"),
                "--out", str(self.fits)], tracer)
        rnd.extra["children_cpu_s"] = (after.ru_utime - before.ru_utime
                                       + after.ru_stime - before.ru_stime)
        rnd.extra["points_per_s"] = len(self.truth) / rnd.stages.get(
            "fit", math.inf)
        return rnd

    def check(self, rnd):
        problems = []
        rows = read_scan_csv(self.fits / "summary.csv")
        if len(rows) != len(self.truth):
            problems.append(f"summary.csv has {len(rows)} rows, "
                            f"expected {len(self.truth)}")
        errs = []
        for row in rows:
            key = (round(float(row["s_mm"]), 6), round(float(row["delta_mm"]), 6))
            if row["status"] != "ok" or key not in self.truth:
                problems.append(f"summary row {key}: status {row['status']}")
                continue
            err = paired_error(poles(*(float(row[c]) for c in
                                       ("f1", "g1", "f2", "g2"))),
                               self.truth[key])
            errs.append(err)
            if not err < NOISELESS_TOL_MHZ:
                problems.append(f"fit at {key}: eigenvalue error {err:.3g} "
                                f"MHz >= {NOISELESS_TOL_MHZ}")
        problems += check_ep(self.fits / "ep.json", self.STEP)
        docs = [json.loads(p.read_text()) for p in self.fits.glob("*_fit.json")]
        if len(docs) != len(self.truth):
            problems.append(f"{len(docs)} fit files, expected {len(self.truth)}")
        csvs = list(self.data.glob("*.csv"))
        rnd.extra.update(
            eig_err=errs,
            iterations=[doc["iterations"] for doc in docs],
            csv_bytes=statistics.mean(p.stat().st_size for p in csvs),
            scan_bytes=(self.fits / "summary.csv").stat().st_size)
        return problems

    def per_layer(self, rounds):
        fit_s = [r.stages["fit"] for r in rounds]
        cpu = [r.extra["children_cpu_s"] for r in rounds]
        return {
            "fit.iterations_p50": median_or_zero(
                [i for r in rounds for i in r.extra["iterations"]]),
            "synth.csv_bytes_per_spectrum": statistics.mean(
                r.extra["csv_bytes"] for r in rounds),
            "epscan.scan_csv_bytes": statistics.mean(
                r.extra["scan_bytes"] for r in rounds),
            "cli.fit.children_cpu_s": statistics.mean(cpu),
            "cli.fit.pool_busy": statistics.mean(
                c / (w * self.JOBS) for c, w in zip(cpu, fit_s)),
            "eig_err_mhz": median_or_zero(
                [e for r in rounds for e in r.extra["eig_err"]]),
        }

    def probe(self):
        """Calls the fit workers make, repeated where the tracer sees them."""
        synth = sys.modules["eplab.synth"]
        names = sorted(p.name for p in self.data.glob("*.csv"))
        picks = np.random.default_rng(self.seed).choice(
            len(names), size=8, replace=False)
        spec = None
        for k in picks:
            spec = synth.read_spectrum(str(self.data / names[k]))
        probe_residual(spec, self.ref.fit_params(spec.meta["s_mm"],
                                                 spec.meta["delta_mm"]))


# -------------------------------------------------------------------- plane


class Plane(Workload):
    """Closed-form plane analysis of the b38 family: no fit, no spectra.

    analyze scan covers a 241x241 grid at 0.0025 mm whose corner the seed
    shifts by whole steps inside the family bounds, so every seed scans the
    same number of points. The braid radius comes from the seed too.
    """

    name = "plane"
    STEP = 0.0025
    SIDE = 241
    S0, D0 = 1.40, 41.46          # family bounds, lower corner
    MAX_SHIFT = 15                # steps that keep the window in bounds
    SAMPLED_ROWS = 256

    def prepare(self):
        rng = np.random.default_rng(self.seed)
        i, j = (int(v) for v in rng.integers(0, self.MAX_SHIFT + 1, size=2))
        span = (self.SIDE - 1) * self.STEP
        s0 = self.S0 + i * self.STEP
        d0 = self.D0 + j * self.STEP
        self.grid = (f"{s0:.4f}:{s0 + span:.4f}:{self.STEP}x"
                     f"{d0:.4f}:{d0 + span:.4f}:{self.STEP}")
        self.radius = f"{rng.uniform(0.06, 0.14):.4f}"
        self.sampled = sorted(int(v) for v in rng.choice(
            self.SIDE * self.SIDE, size=self.SAMPLED_ROWS, replace=False))
        self.out = self.workdir / "plane"

    def round(self, tracer):
        self._clear(self.out)
        out = str(self.out)
        rnd = Round()
        steps = (
            ("analyze_scan", ["analyze", "scan", "--family", "b38",
                              "--grid", self.grid, "--out", out]),
            ("analyze_ep", ["analyze", "ep", "--in",
                            str(self.out / "scan.csv"), "--out", out]),
            ("analyze_curve", ["analyze", "curve", "--family", "b38",
                               "--out", out]),
            ("analyze_pt", ["analyze", "pt", "--curve",
                            str(self.out / "trace.json"), "--out", out]),
            ("analyze_braid", ["analyze", "braid", "--family", "b38",
                               "--center", "ep", "--radius", self.radius,
                               "--out", out]),
        )
        for stage, argv in steps:
            self._command(rnd, stage, argv, tracer)
        scan_s = rnd.stages["analyze_scan"]
        rnd.extra["points_per_s"] = self.SIDE * self.SIDE / scan_s
        return rnd

    def check(self, rnd):
        problems = []
        rows = read_scan_csv(self.out / "scan.csv")
        if len(rows) != self.SIDE * self.SIDE:
            problems.append(f"scan.csv has {len(rows)} rows")
        bad = [r for r in rows if r["status"] != "ok"]
        if bad:
            problems.append(f"{len(bad)} scan rows not ok, first "
                            f"{bad[0]['status']}")
        picked = [rows[k] for k in self.sampled if k < len(rows)]
        truth = self.ref.eigenvalues([float(r["s_mm"]) for r in picked],
                                     [float(r["delta_mm"]) for r in picked])
        errs = []
        for row, t in zip(picked, truth):
            found = poles(*(float(row[c]) for c in ("f1", "g1", "f2", "g2")))
            err = paired_error(found, t)
            errs.append(err)
            if not err <= EXACT_TOL * max(abs(t[0]), abs(t[1])):
                problems.append(f"scan row ({row['s_mm']}, {row['delta_mm']})"
                                f": eigenvalue error {err:.3g} MHz")
        problems += check_ep(self.out / "ep.json", self.STEP)

        trace = json.loads((self.out / "trace.json").read_text())
        pts = trace["points"]
        resid = self.ref.contour_residual([p["s_mm"] for p in pts],
                                          [p["delta_mm"] for p in pts])
        if not np.all(resid < EXACT_TOL):
            problems.append(f"traced curve leaves the contour: max "
                            f"|cross|/(reh2+imh2) {np.max(resid):.3g}")
        pt = json.loads((self.out / "pt.json").read_text())
        if pt["phase_flips"] != [pt["crossing_index"]]:
            problems.append(f"phase flips {pt['phase_flips']}, crossing "
                            f"index {pt['crossing_index']}")
        for key in ("max_residual", "max_commutator_norm"):
            if not pt[key] < EXACT_TOL:
                problems.append(f"pt.json {key} {pt[key]:.3g}")
        braid = json.loads((self.out / "braid.json").read_text())
        if braid["permutation"] != "swap":
            problems.append(f"braid around the EP gives "
                            f"{braid['permutation']}, expected swap")
        rnd.extra.update(eig_err=errs, trace_points=len(pts),
                         loop_points=len(braid["loop"]),
                         scan_bytes=(self.out / "scan.csv").stat().st_size)
        return problems

    def per_layer(self, rounds):
        return {
            "epscan.trace_pt_curve.points": statistics.mean(
                r.extra["trace_points"] for r in rounds),
            "epscan.braid_loop.loop_points": statistics.mean(
                r.extra["loop_points"] for r in rounds),
            "epscan.scan_csv_bytes": statistics.mean(
                r.extra["scan_bytes"] for r in rounds),
            "eig_err_mhz": median_or_zero(
                [e for r in rounds for e in r.extra["eig_err"]]),
        }


# ------------------------------------------------------------------ helpers


def read_scan_csv(path):
    """Rows of a scan-schema CSV as dicts, parsed without eplab."""
    with open(path, encoding="utf-8", newline="") as fh:
        lines = [line for line in fh if not line.startswith("#")]
    return list(csv.DictReader(lines))


def check_ep(path, step):
    doc = json.loads(Path(path).read_text())
    ds = abs(doc["s_mm"] - PLANTED_EP[0])
    dd = abs(doc["delta_mm"] - PLANTED_EP[1])
    if ds <= step and dd <= step:
        return []
    return [f"{path.name}: EP at ({doc['s_mm']:.6f}, {doc['delta_mm']:.6f}) "
            f"is more than one step ({step} mm) from {PLANTED_EP}"]


WORKLOADS = {cls.name: cls for cls in (FitNoisy, CliGrid, Plane)}
