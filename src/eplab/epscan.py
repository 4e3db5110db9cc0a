"""Parameter-plane analysis: scans, EP localization, contour tracing, braids.

Everything here works in the (s, delta) plane, both in mm. A scan table
holds the effective matrix on a rectangular grid with the per-point
eigenvalues, radicand split (reh2, imh2, cross) and reciprocity angle tau:
scan evaluates a synthetic family in closed form, `eplab fit` fits it point
by point, and one locally weighted least-squares fit, _local_fit, reads a
table between its nodes. On a scan table:

  * locate_ep solves D = 0 on the quadratic fit of complex D round the node
    of least |D|, with an error bar from the fit's residuals;
  * trace_pt_curve walks the zero contour of cross = Re h . Im h (where the
    shifted matrix has the antiunitary symmetry) on a family's closed form
    or the affine fit of a fit table's matrix entries;
  * braid tracks the two eigenvalues round a closed parameter loop and
    reports whether they swap, the topological signature of an EP.

Scan tables serialize to CSV with columns s_mm, delta_mm, f1, g1, f2, g2,
reh2, imh2, cross, tau, status: (f, g) are resonance frequency and full
width (E = f - i g/2) in the deterministic reporting order, status is "ok"
or "failed:<reason>", and failed points carry NaN data. Read back by
synth._read_table, a table holds no matrices: it feeds locate_ep but not
the tracer. Curve and braid traces serialize to JSON, a curve trace read
back from its matrices alone. Every file starts with a schema tag.
"""

__all__ = ["BraidTrace", "CurveTrace", "EPLocation", "ParamGrid",
           "Permutation", "ScanResult", "braid", "braid_loop", "locate_ep",
           "scan", "trace_pt_curve"]

import enum
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .core import EffHamiltonian, eigenvalues, observables, radicand
from .errors import (
    DataError,
    EPOutsideWindowError,
    InvalidArgumentError,
    NoEPFoundError,
    NotOnPTCurveError,
    OutOfBoundsError,
    RefineLoopError,
    ScanQualityError,
)
from .synth import SyntheticFamily, _read_table, _write_table

SCAN_SCHEMA = "eplab.scan.v1"
CURVE_SCHEMA = "eplab.curve.v1"
BRAID_SCHEMA = "eplab.braid.v1"

SCAN_COLUMNS = ("s_mm", "delta_mm", "f1", "g1", "f2", "g2",
                "reh2", "imh2", "cross", "tau", "status")
_OBSERVABLES = SCAN_COLUMNS[2:10]
_MATRICES = ("e1", "e2", "h1", "h2")

# relative |cross| tolerance for accepting a contour point
EPSILON_CURVE_EXACT = 1e-9      # closed-form family evaluations
EPSILON_CURVE_FITTED = 1e-3     # per-point fits, noise limited

_MAX_TRACE_POINTS = 100_000
_LOOP_POINTS = 64               # braid_loop's first samples per turn
_MAX_LOOP_POINTS = 4096         # braid_loop stops doubling its samples here


class Permutation(enum.Enum):
    IDENTITY = "identity"
    SWAP = "swap"


@dataclass(frozen=True)
class ParamGrid:
    """Rectangular (s, delta) grid, bounds inclusive, uniform step in mm."""

    s_min: float
    s_max: float
    delta_min: float
    delta_max: float
    step: float = 0.01

    def __post_init__(self):
        bounds = (self.s_min, self.s_max, self.delta_min, self.delta_max)
        if not all(map(math.isfinite, (*bounds, self.step))) or self.step <= 0:
            raise InvalidArgumentError(f"grid bounds {bounds} and step "
                                       f"{self.step} must be finite, step > 0")
        if self.s_max < self.s_min or self.delta_max < self.delta_min:
            raise InvalidArgumentError("grid bounds must be ordered")
        if self.n_s * self.n_delta > 10_000_000:
            raise InvalidArgumentError(
                f"grid of {self.n_s} x {self.n_delta} points is too large")

    @property
    def n_s(self):
        return int(round((self.s_max - self.s_min) / self.step)) + 1

    @property
    def n_delta(self):
        return int(round((self.delta_max - self.delta_min) / self.step)) + 1

    @property
    def shape(self):
        return (self.n_s, self.n_delta)

    @property
    def s_values(self):
        return self.s_min + self.step * np.arange(self.n_s)

    @property
    def delta_values(self):
        return self.delta_min + self.step * np.arange(self.n_delta)

    @classmethod
    def from_points(cls, s, delta, source):
        """The grid that (s, delta) points sit on, and each point's node.

        The step is the smallest spacing along either axis, the one along s
        when the two agree to 1e-6 mm. The points need not fill the grid.
        Returns (grid, i, j); raises DataError naming source unless every
        coordinate is finite and each point sits within 1e-6 mm of a node
        of its own.
        """
        s, delta = np.asarray(s, dtype=float), np.asarray(delta, dtype=float)
        if not (np.isfinite(s).all() and np.isfinite(delta).all()):
            raise DataError(f"{source}: point coordinates must be finite")
        steps = [np.min(np.diff(np.unique(v))) for v in (s, delta)
                 if np.ptp(v) > 0]
        step = float(min(steps, key=lambda st: round(st, 6), default=0.01))
        grid = cls(float(s.min()), float(s.max()),
                   float(delta.min()), float(delta.max()), step)
        i = np.rint((s - grid.s_min) / step).astype(int)
        j = np.rint((delta - grid.delta_min) / step).astype(int)
        if (np.max(np.abs(grid.s_values[i] - s)) > 1e-6
                or np.max(np.abs(grid.delta_values[j] - delta)) > 1e-6
                or np.unique(i * grid.n_delta + j).size != len(i)):
            raise DataError(
                f"{source}: points do not sit on distinct nodes of a "
                f"uniform grid")
        return grid, i, j


@dataclass
class ScanResult:
    """Per-grid-point effective matrices and derived observables.

    Arrays are shaped (n_s, n_delta). status holds each point's outcome as
    the CSV writes it, "ok" or "failed:<reason>"; ok and n_failed read it.
    Failed points carry NaN in every data array. The matrix arrays e1..h2
    are None for tables read back from CSV, which stores observables only.
    """

    grid: ParamGrid
    f1: np.ndarray
    g1: np.ndarray
    f2: np.ndarray
    g2: np.ndarray
    reh2: np.ndarray
    imh2: np.ndarray
    cross: np.ndarray
    tau: np.ndarray
    status: np.ndarray = field(repr=False)
    e1: np.ndarray = None
    e2: np.ndarray = None
    h1: np.ndarray = None
    h2: np.ndarray = None
    family: SyntheticFamily = field(default=None, repr=False)

    @property
    def ok(self):
        return self.status == "ok"

    @property
    def n_failed(self):
        return int(self.status.size - np.count_nonzero(self.ok))

    def write_csv(self, path, config_hash=None):
        n_s, n_d = self.grid.shape
        columns = [np.repeat(self.grid.s_values, n_d),
                   np.tile(self.grid.delta_values, n_s)]
        columns += [getattr(self, name).ravel() for name in _OBSERVABLES]
        _write_table(path, SCAN_SCHEMA, config_hash, SCAN_COLUMNS,
                     columns + [self.status.ravel()])

    @staticmethod
    def read_csv(path):
        """The table of a scan CSV, read with its status by _read_table."""
        table, status = _read_table(path, SCAN_COLUMNS, SCAN_SCHEMA,
                                    status=True)
        grid, i, j = ParamGrid.from_points(table[:, 0], table[:, 1], path)
        if len(table) != grid.n_s * grid.n_delta:
            raise DataError(f"{path} rows do not form a complete uniform grid")

        order = np.argsort(i * grid.n_delta + j)       # the row of each node
        return ScanResult(grid=grid, **{
            name: column[order].reshape(grid.shape) for name, column in
            zip(("status",) + _OBSERVABLES, [status, *table[:, 2:].T])})


# --------------------------------------------------------------------- scan


def scan(grid, family):
    """Evaluate a SyntheticFamily in closed form on every grid point.

    Points outside the family bounds are recorded as failed, not fatal,
    unless failures exceed 20% of the grid.
    """
    if not isinstance(family, SyntheticFamily):
        raise InvalidArgumentError(
            f"source must be a SyntheticFamily, got {type(family).__name__}")
    s, d = np.meshgrid(grid.s_values, grid.delta_values, indexing="ij")
    status = np.empty(grid.shape, dtype=object)
    status.fill("ok")
    status[~family.contains(s, d)] = "failed:out-of-bounds"
    result = _scan_table(grid, family.h_grid(s, d), status, family=family)
    if result.n_failed > 0.2 * result.status.size:
        raise ScanQualityError(
            f"{result.n_failed} of {result.status.size} grid points failed")
    return result


def _scan_table(grid, mats, status, family=None, tau=None):
    """ScanResult of matrices on the grid through the observables kernel.

    mats are the (e1, e2, h1, h2) arrays; status is "ok" where they hold a
    matrix and "failed:<reason>" elsewhere. Every ok point the kernel fails
    on is failed in place with the name of the exception the scalar chain
    would raise there. A source that reads tau itself passes it as tau: it
    replaces the kernel's, and every point with a matrix is ok (a fit reads
    an uncoupled doublet as tau = 0, where the kernel finds no ratio).
    """
    obs = observables(*mats)
    if tau is not None:
        obs = obs._replace(tau=tau, failure=np.zeros_like(obs.failure))
    for i, j in np.argwhere((status == "ok") & (obs.failure != 0)):
        status[i, j] = "failed:" + obs.reason((i, j))
    ok = status == "ok"
    data = {name: np.where(ok, getattr(obs, name), np.nan)
            for name in _OBSERVABLES}
    mats = {name: np.where(ok, m, np.nan) for name, m in zip(_MATRICES, mats)}
    return ScanResult(grid=grid, status=status, family=family, **data, **mats)


# ---------------------------------------------------------- EP localization


# Locally weighted least squares (Cleveland & Devlin, JASA 83, 596 (1988)):
# Gaussian weights of width 2 grid steps, shifted to reach zero 7 steps out
# so that a fit moves continuously with its center
_FIT_WIDTH = 2.0
_FIT_REACH = 7
_FIT_FLOOR = math.exp(-0.5 * (_FIT_REACH / _FIT_WIDTH) ** 2)
_AFFINE = ((0, 0), (1, 0), (0, 1))
_QUADRATIC = _AFFINE + ((2, 0), (1, 1), (0, 2))


def _local_fit(values, center, terms):
    """Weighted least-squares fit of the sum of c x^p y^q over (p, q) in
    terms to the finite nodes of values, (n_s, n_delta) or (n_s, n_delta,
    k), with (x, y) the offset from center, all in grid steps. Returns the
    coefficients and their variances E|c - c_true|^2 from the residuals,
    both NaN where the nodes do not fix every term."""
    box = tuple(slice(max(0, math.ceil(c - _FIT_REACH)),
                      max(0, math.floor(c + _FIT_REACH) + 1)) for c in center)
    x, y = np.meshgrid(*(np.arange(n)[b] - c for n, b, c in
                         zip(values.shape, box, center)), indexing="ij")
    w = np.exp(-0.5 * (x * x + y * y) / _FIT_WIDTH ** 2) - _FIT_FLOOR
    keep = (w > 0) & np.isfinite(values[box]).all(tuple(range(2, values.ndim)))
    x, y, w, vals = x[keep], y[keep], w[keep], values[box][keep]
    design = np.column_stack([x ** p * y ** q for p, q in terms])
    root = np.sqrt(w)
    u, sv, vt = np.linalg.svd(root[:, None] * design, full_matrices=False)
    if len(w) <= len(terms) or sv[-1] <= 1e-9 * sv[0]:
        nan = np.full((len(terms),) + values.shape[2:], np.nan)
        return nan, nan
    smoother = (vt.T / sv) @ u.T * root          # coef = smoother @ vals
    coef = smoother @ vals
    resid = np.abs(vals - design @ coef) ** 2
    # E sum w |r|^2 = sigma^2 sum w (1 - hat_ii) for the smoother's hat matrix
    dof = w @ (1.0 - np.einsum("ij,ji->i", design, smoother))
    return coef, np.multiply.outer((smoother ** 2).sum(1), w @ resid / dof)


@dataclass(frozen=True)
class EPLocation:
    """Refined EP estimate; uncertainty is its larger per-axis error, mm."""

    s: float
    delta: float
    offset_s: float            # from the node of least |D|, in grid steps
    offset_delta: float
    uncertainty: float

    def __iter__(self):
        return iter((self.s, self.delta))


def locate_ep(scan_result):
    """Locate the zero of the radicand D = reh2 - imh2 + 2i cross on a scan.

    From the node of least |D|, at most 8 Newton steps within one step of
    it solve D = 0 on the weighted quadratic fit of complex D, refitted
    round each estimate (exact for an affine family). uncertainty is the
    larger per-axis standard deviation: the fit's variance of D there, even
    over Re and Im, through the inverse Newton Jacobian. Raises
    EPOutsideWindowError when the minimum sits on the grid boundary,
    NoEPFoundError when the |D| landscape is too flat (min above half the
    median) or D has no regular fit.
    """
    d = np.where(scan_result.ok, scan_result.reh2 - scan_result.imh2
                 + 2j * scan_result.cross, np.nan)
    absd = np.abs(d)
    if not np.any(np.isfinite(absd)):
        raise NoEPFoundError("no valid grid points in scan")
    i, j = np.unravel_index(int(np.nanargmin(absd)), absd.shape)

    median = float(np.nanmedian(absd))
    if absd[i, j] >= 0.5 * median:
        raise NoEPFoundError(
            f"|D| landscape is flat: minimum {absd[i, j]:.3g} vs median "
            f"{median:.3g}")
    if i in (0, absd.shape[0] - 1) or j in (0, absd.shape[1] - 1):
        raise EPOutsideWindowError(
            f"|D| minimum sits on the scan boundary at index ({i}, {j})")

    off = np.zeros(2)
    for _ in range(8):
        coef, var = _local_fit(d, (i + off[0], j + off[1]), _QUADRATIC)
        jac = np.array([[coef[1].real, coef[2].real],
                        [coef[1].imag, coef[2].imag]])
        if not np.isfinite(jac).all() or np.linalg.cond(jac) > 1e12:
            raise NoEPFoundError(f"no regular fit of D round index ({i}, {j})")
        inv = np.linalg.inv(jac)
        step = inv @ (-coef[0].real, -coef[0].imag)
        off, last = np.clip(off + step, -1.0, 1.0), off
        if np.max(np.abs(off - last)) <= 1e-12:
            break

    grid = scan_result.grid
    sigma = math.sqrt(0.5 * var[0] * np.max(np.sum(inv * inv, axis=1)))
    return EPLocation(
        s=float(grid.s_values[i] + off[0] * grid.step),
        delta=float(grid.delta_values[j] + off[1] * grid.step),
        offset_s=float(off[0]),
        offset_delta=float(off[1]),
        uncertainty=sigma * grid.step,
    )


# ------------------------------------------------------------ curve tracing


class _PlaneField(object):
    """Point evaluator behind tracing and braiding.

    Family-backed fields evaluate the effective matrix in closed form;
    table-backed fields fit its four stored entries round the point with
    the weighted affine _local_fit, which an affine family passes exactly.
    cross_rel is the basis-invariant contour function cross/(reh2 + imh2).
    """

    def __init__(self, grid, family=None, scan_result=None):
        self.grid = grid
        self.family = family
        if scan_result is not None:
            self.entries = np.stack([getattr(scan_result, name)
                                     for name in _MATRICES], axis=-1)

    def in_window(self, s, delta, margin=0.0):
        """Point inside the window, at least margin away from its edges."""
        slack = 1e-9 * self.grid.step - margin
        if not (self.grid.s_min - slack <= s <= self.grid.s_max + slack
                and self.grid.delta_min - slack <= delta
                <= self.grid.delta_max + slack):
            return False
        if self.family is not None:
            return (self.family.contains(s - margin, delta - margin)
                    and self.family.contains(s + margin, delta + margin))
        return True

    def ham(self, s, delta):
        """The matrix at a point; InvalidArgumentError where the table's
        nodes fix no fit, OutOfBoundsError outside a family's bounds."""
        if self.family is not None:
            return self.family.h_at(s, delta)
        g = self.grid
        entries = _local_fit(self.entries, ((s - g.s_min) / g.step,
                                            (delta - g.delta_min) / g.step),
                             _AFFINE)[0][0]
        return EffHamiltonian(*entries.tolist())

    def cross_rel(self, s, delta):
        # read off the matrix, so a traced point meets the same test
        # pt_report applies to the matrix stored with it
        try:
            rad = radicand(self.ham(s, delta))
        except (InvalidArgumentError, OutOfBoundsError):
            return math.nan
        return rad.cross / (rad.reh2 + rad.imh2)

    def gradient(self, s, delta, h):
        gs = (self.cross_rel(s + h, delta) - self.cross_rel(s - h, delta)) / (2 * h)
        gd = (self.cross_rel(s, delta + h) - self.cross_rel(s, delta - h)) / (2 * h)
        return np.array([gs, gd])


def _field_for(source):
    if isinstance(source, SyntheticFamily):
        grid = ParamGrid(source.bounds_s[0], source.bounds_s[1],
                         source.bounds_delta[0], source.bounds_delta[1])
        return _PlaneField(grid, family=source)
    if isinstance(source, ScanResult):
        if source.family is None and source.e1 is None:
            raise DataError(
                "a scan table read from CSV carries no matrices to trace; "
                "trace the family (--family) or the fit manifest.json")
        return _PlaneField(source.grid, family=source.family,
                           scan_result=None if source.family else source)
    raise InvalidArgumentError(
        f"source must be a SyntheticFamily or ScanResult, "
        f"got {type(source).__name__}")


@dataclass
class CurveTrace:
    """Ordered walk along the cross = 0 contour: its points and matrices.

    points and hams (the matrix at each point) are the trace's source.
    Everything else is derived from hams once, by one observables call, so
    a trace read back from JSON holds the bits it was traced with: reh2,
    imh2, cross and tau per point, the complex radicand d, h1_abs_sq =
    |h1|^2, split_norm = (reh2, imh2, cross)/|h1|^2 (NaN rows where |h1|^2
    is not positive) and crossing_index, where |reh2 - imh2| is smallest.
    """

    points: np.ndarray                   # (n, 2) of (s, delta)
    hams: list = field(repr=False)       # EffHamiltonian per point
    truncated: bool
    epsilon: float
    step: float
    provenance: str

    def __post_init__(self):
        e1, e2, h1, h2 = (np.array([getattr(h, name) for h in self.hams])
                          for name in _MATRICES)
        obs = observables(e1, e2, h1, h2)
        obs.raise_first_failure()
        self.reh2, self.imh2, self.cross, self.tau = (
            obs.reh2, obs.imh2, obs.cross, obs.tau)
        self.d = np.empty(len(self.hams), dtype=complex)
        self.d.real = obs.reh2 - obs.imh2
        self.d.imag = 2.0 * obs.cross
        self.h1_abs_sq = np.hypot(h1.real, h1.imag) ** 2
        self.split_norm = np.full((len(self.hams), 3), np.nan)
        np.divide(np.column_stack((obs.reh2, obs.imh2, obs.cross)),
                  self.h1_abs_sq[:, None], out=self.split_norm,
                  where=(np.isfinite(self.h1_abs_sq)
                         & (self.h1_abs_sq > 0.0))[:, None])
        self.crossing_index = int(np.argmin(np.abs(obs.reh2 - obs.imh2)))

    @property
    def n_points(self):
        return self.points.shape[0]

    def to_json_dict(self, source=None, config_hash=None):
        rows = []
        for k in range(self.n_points):
            row = {
                "s_mm": float(self.points[k, 0]),
                "delta_mm": float(self.points[k, 1]),
                "reh2": float(self.reh2[k]),
                "imh2": float(self.imh2[k]),
                "cross": float(self.cross[k]),
                "tau": float(self.tau[k]),
                "d": [float(self.d[k].real), float(self.d[k].imag)],
                "h1_abs_sq": float(self.h1_abs_sq[k]),
            }
            if not np.isnan(self.split_norm[k, 0]):
                row.update(zip(("reh2_norm", "imh2_norm", "cross_norm"),
                               self.split_norm[k].tolist()))
            row["ham"] = self.hams[k].to_json_dict()
            rows.append(row)
        out = {
            "schema": CURVE_SCHEMA,
            "crossing_index": self.crossing_index,
            "truncated": bool(self.truncated),
            "epsilon": self.epsilon,
            "step": self.step,
            "provenance": self.provenance,
            "points": rows,
        }
        if source is not None:
            out["source"] = source
        if config_hash is not None:
            out["config_hash"] = config_hash
        return out

    @staticmethod
    def from_json_dict(d):
        """The trace of a JSON document; DataError unless every point
        carries its coordinates and matrix."""
        if not isinstance(d, dict) or d.get("schema") != CURVE_SCHEMA:
            raise DataError(f"expected schema {CURVE_SCHEMA}")
        try:
            rows = d["points"]
            if not any("ham" in r for r in rows):
                raise DataError("trace carries no matrices; re-trace from a "
                                "family or a fit manifest")
            for k, r in enumerate(rows):
                if "ham" not in r:
                    raise DataError(f"trace point {k} carries no matrix")
            return CurveTrace(
                points=np.array([[r["s_mm"], r["delta_mm"]] for r in rows],
                                dtype=float),
                hams=[EffHamiltonian.from_json_dict(r["ham"]) for r in rows],
                truncated=bool(d["truncated"]),
                epsilon=float(d["epsilon"]),
                step=float(d["step"]),
                provenance=str(d["provenance"]),
            )
        except (KeyError, IndexError, TypeError, ValueError) as exc:
            raise DataError(f"malformed trace: {exc!r}")


def _correct_onto_contour(field, point, epsilon, fd_step):
    """Newton steps along the contour-function gradient while |cross_rel| >
    1e-6 epsilon and each cuts it at least tenfold; the first that does not
    has met the rounding floor or a non-finite value and is discarded
    (Allgower & Georg), so from |cross_rel| <= 1/2 it ends within 15 steps
    for epsilon >= 1e-9. Returns (point, "ok") if the point lies within
    epsilon, (None, "exit") if a step leaves the window, or (None, "lost")."""
    p = np.array(point, dtype=float)
    c = field.cross_rel(*p)
    while abs(c) > 1e-6 * epsilon:
        g = field.gradient(*p, fd_step)
        g2 = float(g @ g)
        if not math.isfinite(g2) or g2 < 1e-300:
            return None, "lost"
        q = p - (c / g2) * g
        if not field.in_window(*q, margin=fd_step):
            return None, "exit"
        c_q = field.cross_rel(*q)
        if not abs(c_q) <= 0.1 * abs(c):
            break
        p, c = q, c_q
    return (p, "ok") if abs(c) <= epsilon else (None, "lost")


def _tangent(field, p, fd_step):
    """Unit contour tangent at p (the gradient turned by 90 degrees), or
    None where the gradient is not finite or vanishes."""
    g = field.gradient(*p, fd_step)
    norm = float(np.hypot(*g))
    if not math.isfinite(norm) or norm < 1e-300:
        return None
    return np.array([-g[1], g[0]]) / norm


def _march(field, start, direction, step, epsilon, fd_step):
    """Walk the contour one predictor-corrector step at a time."""
    points = []
    p = np.array(start, dtype=float)
    t_prev = np.array(direction, dtype=float)
    truncated = False
    while len(points) < _MAX_TRACE_POINTS:
        tangent = _tangent(field, p, fd_step)
        if tangent is None:
            truncated = True
            break
        if float(tangent @ t_prev) < 0:
            tangent = -tangent
        candidate = p + step * tangent
        if not field.in_window(*candidate, margin=fd_step):
            break                        # clean exit at the window edge
        corrected, status = _correct_onto_contour(field, candidate, epsilon,
                                                  fd_step)
        if status == "exit":
            break
        if status == "lost" or float(np.hypot(*(corrected - p))) > 2.0 * step:
            truncated = True
            break
        points.append(corrected)
        t_prev = tangent
        p = corrected
    return points, truncated


def trace_pt_curve(scan_result, start):
    """Trace the zero contour of cross through the window, both directions.

    scan_result is a SyntheticFamily or a ScanResult that carries matrices: a
    family scan or a fit table. Every point is read off a matrix, the family's
    closed form or the affine _local_fit of the table's entries; a table read
    from CSV stores none and raises DataError. The trace marches at the grid
    step (0.01 mm for a bare family); start must satisfy |cross|/(reh2+imh2)
    <= epsilon, EPSILON_CURVE_EXACT on a family and EPSILON_CURVE_FITTED on
    fitted matrices. The trace is ordered along the curve and holds each
    point's matrix and flags truncation where the corrector loses the contour.
    """
    field = _field_for(scan_result)
    step = field.grid.step
    epsilon = (EPSILON_CURVE_EXACT if field.family is not None
               else EPSILON_CURVE_FITTED)

    s0, d0 = float(start[0]), float(start[1])
    if not field.in_window(s0, d0):
        raise OutOfBoundsError(f"start ({s0}, {d0}) outside the scan window")
    c0 = field.cross_rel(s0, d0)
    if not (abs(c0) <= epsilon):
        raise NotOnPTCurveError(
            f"start point has |cross|/(reh2+imh2) = {abs(c0):.3g} > {epsilon:.3g}")

    fd_step = 0.05 * step
    polished, status = _correct_onto_contour(field, (s0, d0), epsilon, fd_step)
    if status == "ok":
        s0, d0 = float(polished[0]), float(polished[1])
    tangent = _tangent(field, (s0, d0), fd_step)
    if tangent is None:
        raise NotOnPTCurveError("contour direction undefined at start")

    forward, trunc_f = _march(field, (s0, d0), tangent, step, epsilon, fd_step)
    backward, trunc_b = _march(field, (s0, d0), -tangent, step, epsilon, fd_step)
    pts = np.array(backward[::-1] + [[s0, d0]] + forward)

    return CurveTrace(
        points=pts, hams=[field.ham(s, d) for s, d in pts],
        truncated=bool(trunc_f or trunc_b),
        epsilon=float(epsilon), step=float(step),
        provenance="family" if field.family is not None else "fit",
    )


# ------------------------------------------------------------------ braiding


class BraidTrace(NamedTuple):
    """Eigenvalue paths around a closed loop and the resulting permutation."""

    loop: np.ndarray                     # (n, 2), first row equals last
    path1: np.ndarray                    # complex (n,)
    path2: np.ndarray
    permutation: Permutation

    @property
    def n_points(self):
        return self.loop.shape[0]

    def to_json_dict(self, config_hash=None):
        out = {
            "schema": BRAID_SCHEMA,
            "permutation": self.permutation.value,
            "loop": [[float(s), float(d)] for s, d in self.loop],
            "path1": [[z.real, z.imag] for z in self.path1],
            "path2": [[z.real, z.imag] for z in self.path2],
        }
        if config_hash is not None:
            out["config_hash"] = config_hash
        return out


def braid(loop, source):
    """Track both eigenvalues around a closed loop in the (s, delta) plane.

    The loop must repeat its first point at the end. Eigenvalues continue by
    nearest-neighbor assignment; an assignment jump of at least half the
    local gap means the discretization cannot resolve the braid and raises
    RefineLoopError.
    """
    pts = np.asarray(loop, dtype=float)
    if (pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] < 4
            or not np.isfinite(pts).all()):
        raise InvalidArgumentError("loop must be (n >= 4, 2) finite points")
    if not np.allclose(pts[0], pts[-1], rtol=0.0, atol=1e-12):
        raise InvalidArgumentError("loop must be closed (first point == last)")

    field = _field_for(source)
    path1, path2 = np.empty((2, pts.shape[0]), dtype=complex)
    for k, (s, d) in enumerate(pts):
        pair = eigenvalues(field.ham(s, d))
        if k == 0:
            path1[0], path2[0] = pair.E1, pair.E2
            continue
        x, y = pair.E1, pair.E2
        a, b = path1[k - 1], path2[k - 1]
        straight = max(abs(x - a), abs(y - b))
        crossed = max(abs(y - a), abs(x - b))
        if crossed < straight:
            x, y = y, x
            straight = crossed
        gap = abs(x - y)
        if straight >= 0.5 * gap:
            raise RefineLoopError(
                f"eigenvalue jump {straight:.3g} at loop point {k} is not "
                f"below half the local gap {gap:.3g}; use a finer loop")
        path1[k], path2[k] = x, y

    swap = abs(path1[-1] - path2[0]) < abs(path1[-1] - path1[0])
    return BraidTrace(loop=pts, path1=path1, path2=path2,
                      permutation=Permutation.SWAP if swap
                      else Permutation.IDENTITY)


def braid_loop(source, center, radius, turns=1):
    """Braid around a circle, doubling the resolution until it resolves.

    turns > 1 traverses the circle repeatedly before closing, which composes
    the permutation with itself. The samples per turn double from
    _LOOP_POINTS up to _MAX_LOOP_POINTS; past that RefineLoopError propagates.
    """
    if not 0 < radius < math.inf:
        raise InvalidArgumentError(f"radius {radius} must be finite and > 0")
    if turns < 1:
        raise InvalidArgumentError(f"turns must be >= 1, got {turns}")
    cs, cd = float(center[0]), float(center[1])
    n = _LOOP_POINTS
    while True:
        angles = 2.0 * math.pi * turns * np.arange(n * turns + 1) / (n * turns)
        loop = np.column_stack([cs + radius * np.cos(angles),
                                cd + radius * np.sin(angles)])
        loop[-1] = loop[0]               # close exactly despite rounding
        try:
            return braid(loop, source)
        except RefineLoopError:
            if 2 * n > _MAX_LOOP_POINTS:
                raise
            n *= 2
