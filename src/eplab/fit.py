"""Two-resonance model fits of complex S-matrix spectra.

The model is the same resolvent kernel the generator uses: 12 real
parameters, packed as

    [Re e1, Im e1, Re e2, Im e2, Re h1, Im h1, Re h2, Im h2,
     W00, W01, W10, W11]

where (e1, e2, h1, h2) describe the effective (width-carrying) matrix
directly and the four W entries are the antenna coupling block. Dissipative
channels never enter the model explicitly; their effect is already inside
the imaginary parts of the effective matrix, and a physically equivalent
dissipative block is reconstructed for the returned CouplingSet after the
fit.

The optimizer is a damped least-squares loop (Levenberg-Marquardt with
Marquardt diagonal scaling and the Nielsen lambda update) over the analytic
Jacobian of the resolvent model, computed from one resolvent per frequency.
The real (8n, 12) Jacobian is never formed: each iteration writes its 8
distinct complex columns, for the included channels only, into one workspace
per start and takes J^T J and J^T r from their complex Gram matrix and the
complex residual. A trial step that moves a pole out of the frequency window
or makes it amplifying (Im E > 0) is rejected like a cost increase, so the
damping grows; a start whose steps only shrink to nothing because of such
rejections ends as a runaway, not as converged. The model has an exact
one-parameter gauge freedom (a common real orthogonal rotation of levels and
couplings), so the curvature matrix is singular along that direction;
damping regularizes it and the gauge is fixed after convergence, not during.

Starts run in a fixed order and stop early once one start reaches
EARLY_EXIT_RMS, or once a converged start repeats the rms of an earlier
converged start to RMS_AGREEMENT: with noise the exact exit can never fire,
and two starts agreeing on the rms have found the same minimum.

Post-fit canonicalization: gauge-fix the matrix, rotate W along, then pick
the representative with |W00| >= |W01| and W00, W11 >= 0 (column swap plus
sign flips, compensated inside H so the model output is unchanged). This
makes noiseless fits reproduce the generating parameters instead of a
random gauge copy.
"""

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .core import (
    EffHamiltonian,
    eigenvalues_sorted,
    extract_tau,
    gauge_fix,
)
from .errors import (
    InsufficientSpanError,
    InvalidArgumentError,
    NonConvergenceError,
    PoleOnGridError,
    UnresolvableDoubletError,
)
from .synth import CouplingSet, _resolvent, _sgrid

N_PARAMS = 12
# residual value used for every row when the model hits a resolvent pole;
# large enough that the optimizer always retreats, small enough to square
POLE_SENTINEL = 1.0e6
# a start this good is accepted immediately and remaining starts are skipped
EARLY_EXIT_RMS = 1.0e-9
# a converged start whose rms matches an earlier converged start's to this
# relative tolerance has found the same minimum; remaining starts are skipped
RMS_AGREEMENT = 1.0e-9

CHANNEL_NAMES = ("S11", "S12", "S21", "S22")


class Termination(Enum):
    """How one Levenberg-Marquardt start ended; only CONVERGED is truthy."""

    CONVERGED = "converged"
    RUNAWAY = "runaway"
    MAX_ITERATIONS = "max_iterations"
    DAMPING_OVERFLOW = "damping_overflow"

    def __bool__(self):
        return self is Termination.CONVERGED


@dataclass(frozen=True)
class FitConfig:
    max_iterations: int = 200
    gradient_tolerance: float = 1e-10
    step_tolerance: float = 1e-13
    n_starts: int = 8           # at most; starts stop early, see fit_spectrum
    damping_init: float = 1e-3
    seed: int = 0

    def __post_init__(self):
        if self.max_iterations < 1 or self.n_starts < 1:
            raise InvalidArgumentError("iteration and start counts must be >= 1")
        for name in ("gradient_tolerance", "step_tolerance", "damping_init"):
            if not getattr(self, name) > 0:
                raise InvalidArgumentError(f"{name} must be positive")


@dataclass
class FitResult:
    """Converged model parameters in the canonical gauge."""

    ham: EffHamiltonian
    coupling: CouplingSet
    tau: float
    residual_rms: float
    converged: bool
    covariance_proxy: np.ndarray = field(repr=False)
    iterations: int = 0
    starts_run: int = 0
    # starts per Termination value, every reason present, in enum order
    terminations: dict = field(default_factory=dict)

    def to_json_dict(self):
        d = self.ham.to_json_dict()
        d["W"] = [list(row) for row in self.coupling.w]
        d["tau"] = self.tau
        d["residual_rms"] = self.residual_rms
        d["converged"] = bool(self.converged)
        d["covariance_proxy"] = list(self.covariance_proxy)
        d["iterations"] = int(self.iterations)
        d["starts_run"] = int(self.starts_run)
        d["terminations"] = dict(self.terminations)
        return d


def pack_params(ham, w_ant):
    w_ant = np.asarray(w_ant, dtype=float)
    return np.array([
        ham.e1.real, ham.e1.imag, ham.e2.real, ham.e2.imag,
        ham.h1.real, ham.h1.imag, ham.h2.real, ham.h2.imag,
        w_ant[0, 0], w_ant[0, 1], w_ant[1, 0], w_ant[1, 1],
    ])


def unpack_params(params):
    p = np.asarray(params, dtype=float)
    if p.shape != (N_PARAMS,):
        raise InvalidArgumentError(f"expected {N_PARAMS} parameters, got {p.shape}")
    ham = EffHamiltonian(complex(p[0], p[1]), complex(p[2], p[3]),
                         complex(p[4], p[5]), complex(p[6], p[7]))
    w_ant = np.array([[p[8], p[9]], [p[10], p[11]]])
    return ham, w_ant


def _channel_row_mask(mask):
    """Boolean (4,) include-flags in S11, S12, S21, S22 order."""
    if mask is None:
        return np.ones(4, dtype=bool)
    include = np.zeros(4, dtype=bool)
    for name in mask:
        label = str(name).upper()
        if label not in CHANNEL_NAMES:
            raise InvalidArgumentError(
                f"unknown channel {name!r}; expected subset of {CHANNEL_NAMES}")
        include[CHANNEL_NAMES.index(label)] = True
    if not include.any():
        raise InvalidArgumentError("channel mask excludes every entry")
    return include


# (a, b) index pairs of S11, S12, S21, S22; also (c, i) of W00, W01, W10, W11
_INDEX_PAIRS = ((0, 0), (0, 1), (1, 0), (1, 1))
# real parameter k is -2 pi i _ALPHA[k] times complex column _COLUMN[k] (e1,
# e2, h1, h2, W00..W11): holomorphy gives d/dIm = i d/dRe, and the h2 column
# lacks its i. Lists, not arrays: numpy work at import costs every process.
_COLUMN = [0, 0, 1, 1, 2, 2, 3, 3, 4, 5, 6, 7]
_ALPHA = [1, 1j, 1, 1j, 1, 1j, 1j, -1, 1, 1, 1, 1]


class _Model:
    """The model against the included channels of one spectrum; a masked
    channel is dropped, not zeroed. The Jacobian workspace is allocated at
    the first linearization and refilled in place: once per LM start."""

    def __init__(self, spec, include):
        self.freqs = spec.freqs
        self.rows = 8 * spec.n_points     # masked channels are zero rows
        self.channels = np.flatnonzero(include)
        self.data = spec.s.reshape(-1, 4).T[self.channels]
        self._z = None

    def residual(self, p):
        """(r, cost): the complex (k, n) residual model - data of the k
        included channels and |r|^2 / 2; on a resolvent pole, None and
        the cost of POLE_SENTINEL in all 8n rows."""
        e1, e2, h1, h2 = (complex(p[k], p[k + 1]) for k in (0, 2, 4, 6))
        try:
            entries = _sgrid(e1, e2, h1, h2, *p[8:], self.freqs)
        except PoleOnGridError:
            return None, 0.5 * self.rows * POLE_SENTINEL ** 2
        r = np.empty_like(self.data)
        for row, c in enumerate(self.channels):
            np.subtract(entries[c], self.data[row], out=r[row])
        return r, 0.5 * np.vdot(r, r).real

    def normal_equations(self, p, r):
        """J^T J and J^T r of the real residual rows, from complex columns.

        With G = (f - H)^-1 the model is S = 1 - 2 pi i W G W^T, so a change
        dH moves S_ab by -2 pi i u_ai dH_ij v_jb with u = W G, v = G W^T,
        and a change of W_ci moves (W G W^T)_ab by
        delta_ac v_ib + delta_bc u_ai. The (Re, Im) row pairs of two real
        columns alpha z and alpha' z' sum to Re(conj(alpha z) alpha' z'),
        so with the Gram C = conj(Z) Z^T and y = conj(Z) r,
        J^T J = Re(conj(alpha_p) alpha_q C[col_p, col_q]) and
        J^T r = Re(conj(alpha_p) y[col_p]).
        """
        e1, e2, h1, h2 = (complex(p[k], p[k + 1]) for k in (0, 2, 4, 6))
        g = _resolvent(e1, e2, h1, h2, self.freqs)
        w = p[8:].reshape(2, 2)
        u = [[w[a, 0] * g[i] + w[a, 1] * g[2 + i] for i in range(2)]
             for a in range(2)]
        v = [[g[2 * j] * w[b, 0] + g[2 * j + 1] * w[b, 1] for b in range(2)]
             for j in range(2)]
        if self._z is None:      # W columns a channel lacks stay zero
            self._z = np.zeros((2, 8) + self.data.shape, dtype=complex)
        z, zc = self._z
        for k, c in enumerate(self.channels):
            a, b = _INDEX_PAIRS[c]
            np.multiply(u[a][0], v[0][b], out=z[0, k])
            np.multiply(u[a][1], v[1][b], out=z[1, k])
            s, t = u[a][0] * v[1][b], u[a][1] * v[0][b]
            np.add(s, t, out=z[2, k])
            np.subtract(t, s, out=z[3, k])
            for col, (wc, i) in enumerate(_INDEX_PAIRS, start=4):    # W_ci
                if a == wc == b:
                    np.add(v[i][b], u[a][i], out=z[col, k])
                elif a == wc or b == wc:
                    z[col, k] = v[i][b] if a == wc else u[a][i]
        np.conjugate(z, out=zc)
        zc = zc.reshape(8, -1)
        alpha = -2j * math.pi * np.array(_ALPHA)
        gram = (zc @ z.reshape(8, -1).T)[np.ix_(_COLUMN, _COLUMN)]
        jtj = (np.outer(alpha.conj(), alpha) * gram).real
        grad = (alpha.conj() * (zc @ r.reshape(-1))[_COLUMN]).real
        return jtj, grad


def residual_vector(params, spec, mask=None):
    """Real residual vector of length 8 x gridpoints.

    Per frequency the layout is [Re dS11, Im dS11, Re dS12, ..., Im dS22];
    masked channels give zero rows. At the generating parameters of a
    noiseless spectrum this is exactly zero: model and generator share one
    kernel. A resolvent pole on the grid yields the finite POLE_SENTINEL in
    every row instead of an exception.
    """
    p = np.asarray(params, dtype=float)
    if p.shape != (N_PARAMS,):
        raise InvalidArgumentError(f"expected {N_PARAMS} parameters, got {p.shape}")
    model = _Model(spec, _channel_row_mask(mask))
    r, _ = model.residual(p)
    if r is None:
        return np.full(model.rows, POLE_SENTINEL)
    out = np.zeros((spec.n_points, 4), dtype=complex)
    out[:, model.channels] = r.T
    return out.view(float).reshape(-1)


def _poles_physical(params, f_lo, f_hi):
    """Both poles inside [f_lo, f_hi] and neither amplifying (Im E <= 0)."""
    if not np.all(np.isfinite(params)):
        return False
    return all(f_lo <= e.real <= f_hi and e.imag <= 0.0
               for e in eigenvalues_sorted(unpack_params(params)[0]))


def _levenberg_marquardt(p0, spec, include, cfg):
    """Damped least squares; cost is monotone over accepted steps.

    Returns (params, rms, stop, iterations, jtj_diag, costs), where stop is
    the Termination of this start. Trial steps with unphysical poles are
    rejected like cost increases; if the step then shrinks below the step
    tolerance, the start is pinned at the physical boundary and ends as a
    runaway.
    """
    f_lo, f_hi = float(spec.freqs[0]), float(spec.freqs[-1])
    model = _Model(spec, include)
    p = np.array(p0, dtype=float)
    r, cost = model.residual(p)
    costs = [cost]
    lam = cfg.damping_init
    nu = 2.0
    stop = Termination.MAX_ITERATIONS
    it = 0
    jtj_diag = None
    for it in range(1, cfg.max_iterations + 1):
        try:
            jtj, grad = model.normal_equations(p, r)
        except PoleOnGridError:
            # a lossless pole on a grid frequency: the physical boundary
            stop = Termination.RUNAWAY
            break
        jtj_diag = np.diag(jtj).copy()
        if np.max(np.abs(grad)) < cfg.gradient_tolerance:
            stop = Termination.CONVERGED
            break
        scale = np.maximum(jtj_diag, 1e-12)
        accepted = False
        blocked = False          # a trial of this iteration was unphysical
        while lam < 1e14:
            try:
                step = np.linalg.solve(jtj + lam * np.diag(scale), -grad)
            except np.linalg.LinAlgError:
                lam *= nu
                nu *= 2.0
                continue
            if np.linalg.norm(step) < cfg.step_tolerance * (
                    np.linalg.norm(p) + cfg.step_tolerance):
                stop = Termination.RUNAWAY if blocked else Termination.CONVERGED
                break
            trial = p + step
            if _poles_physical(trial, f_lo, f_hi):
                r_trial, cost_trial = model.residual(trial)
                predicted = 0.5 * float(step @ (lam * scale * step - grad))
                rho = (cost - cost_trial) / predicted if predicted > 0 else -1.0
                if cost_trial < cost and rho > 0:
                    p, r, cost = trial, r_trial, cost_trial
                    costs.append(cost)
                    lam *= max(1.0 / 3.0, 1.0 - (2.0 * rho - 1.0) ** 3)
                    nu = 2.0
                    accepted = True
                    break
            else:
                blocked = True
            lam *= nu
            nu *= 2.0
        else:                    # the damping ran out before any step
            stop = Termination.DAMPING_OVERFLOW
        if not accepted:
            break
    rms = math.sqrt(2.0 * cost / model.rows)
    return p, rms, stop, it, jtj_diag, costs


# -------------------------------------------------------------------- seeding


def _half_depth_width(q, k, baseline, step):
    """Full width of dip k at half depth, by walking the samples outward.

    Returns (width, clipped) where clipped means the walk ran off both grid
    edges without recovering: the window does not contain the resonance.
    """
    target = 0.5 * (q[k] + baseline)
    left = k
    while left > 0 and q[left] < target:
        left -= 1
    right = k
    while right < q.size - 1 and q[right] < target:
        right += 1
    clipped = (left == 0 and q[0] < target) and (
        right == q.size - 1 and q[-1] < target)
    return max(right - left, 1) * step, clipped


def seed_initializer(spec):
    """Initial parameter vector from dip picking on the reflection spectra.

    Finds the two deepest separated minima of (|S11|^2 + |S22|^2)/2, reads
    positions and half-depth widths, inverts the one-level undercoupled
    depth formula for the diagonal couplings, and seeds the off-diagonal
    structure at 10% of the level spacing.
    """
    q = 0.5 * (np.abs(spec.s11) ** 2 + np.abs(spec.s22) ** 2)
    n = q.size
    if n < 16:
        raise UnresolvableDoubletError(f"{n} samples are too few to seed from")
    step = (spec.freqs[-1] - spec.freqs[0]) / (n - 1)
    baseline = float(np.median(q))
    if baseline < 0.6:
        # a window that covers the doublet always holds off-resonant samples
        # near unit reflection; a depressed median means the resonances
        # extend past the grid edges
        raise InsufficientSpanError(
            f"median reflection {baseline:.3f} shows no off-resonant "
            f"baseline inside the window; widen the grid")
    k1 = int(np.argmin(q))
    depth1 = baseline - q[k1]
    if depth1 < 0.02:
        raise UnresolvableDoubletError(
            f"deepest dip ({depth1:.4f} below baseline) is too shallow")
    span = float(spec.freqs[-1] - spec.freqs[0])
    width1, clipped1 = _half_depth_width(q, k1, baseline, step)
    if clipped1:
        raise InsufficientSpanError(
            f"the resonance never recovers to half depth inside the "
            f"{span:.3g} MHz window; widen the grid")
    # overlapping dips inflate the walk estimate; keep the start sane
    width1 = min(width1, 0.25 * span)

    # exclude a 4-width window around the first dip, then look again
    half_window = max(int(round(2.0 * width1 / step)), 2)
    masked = q.copy()
    masked[max(0, k1 - half_window):k1 + half_window + 1] = np.inf
    k2 = int(np.argmin(masked))
    depth2 = baseline - masked[k2] if np.isfinite(masked[k2]) else -np.inf

    if depth2 >= 0.02:
        width2 = min(_half_depth_width(q, k2, baseline, step)[0], 0.25 * span)
        dips = sorted([(spec.freqs[k1], width1, k1), (spec.freqs[k2], width2, k2)])
    else:
        # merged doublet: split the single dip symmetrically
        f0, w0 = spec.freqs[k1], width1
        dips = [(f0 - w0 / 4, w0 / 2, k1), (f0 + w0 / 4, w0 / 2, k1)]

    (f_lo, w_lo, k_lo), (f_hi, w_hi, k_hi) = dips
    e1 = complex(f_lo, -0.5 * w_lo)
    e2 = complex(f_hi, -0.5 * w_hi)

    # undercoupled inversion of the one-level dip depth, per antenna channel
    def antenna_w(refl, k, gamma_tot):
        depth = float(np.clip(1.0 - abs(refl[k]) ** 2, 0.0, 1.0))
        gamma_a = 0.5 * gamma_tot * (1.0 - math.sqrt(1.0 - depth))
        return math.sqrt(max(gamma_a, 1e-6) / (2.0 * math.pi))

    w00 = antenna_w(spec.s11, k_lo, w_lo)
    w11 = antenna_w(spec.s22, k_hi, w_hi)
    w_off = 0.05 * 0.5 * (w00 + w11)
    h1 = 0.1 * abs(e1 - e2)
    return np.array([
        e1.real, e1.imag, e2.real, e2.imag,
        h1, 0.0, 0.0, 0.0,
        w00, w_off, w_off, w11,
    ])


# ----------------------------------------------------------- canonical gauge


def _conjugate_levels(ham, w_ant, kind):
    """Apply one of the discrete level symmetries, compensating in W."""
    if kind == "swap":           # sigma_x conjugation: relabel the two levels
        ham2 = EffHamiltonian(ham.e2, ham.e1, ham.h1, -ham.h2)
        w2 = w_ant[:, ::-1].copy()
    elif kind == "flip0":        # diag(-1, 1) conjugation: level-1 sign
        ham2 = EffHamiltonian(ham.e1, ham.e2, -ham.h1, -ham.h2)
        w2 = w_ant.copy()
        w2[:, 0] = -w2[:, 0]
    elif kind == "flip1":        # diag(1, -1) conjugation: level-2 sign
        ham2 = EffHamiltonian(ham.e1, ham.e2, -ham.h1, -ham.h2)
        w2 = w_ant.copy()
        w2[:, 1] = -w2[:, 1]
    else:
        raise ValueError(kind)
    return ham2, w2


def _canonicalize(ham, w_ant):
    """Gauge-fix and pick the discrete representative; S is unchanged.

    Order matters: the continuous rotation first, then |W00| >= |W01| via a
    level swap, then nonnegative diagonal couplings via column sign flips.
    A fitted h2 at numerical-noise level would hand gauge_fix a 0/0 angle,
    so such matrices are treated as already gauge-fixed.
    """
    if abs(ham.h2) < 1e-9 * max(abs(ham.h1), abs(ham.h3)):
        fixed, w = ham, np.array(w_ant, dtype=float)
    else:
        fixed, transform = gauge_fix(ham)
        o = transform.matrix.real
        w = np.asarray(w_ant, dtype=float) @ o.T
    if abs(w[0, 0]) < abs(w[0, 1]):
        fixed, w = _conjugate_levels(fixed, w, "swap")
    if w[0, 0] < 0:
        fixed, w = _conjugate_levels(fixed, w, "flip0")
    if w[1, 1] < 0:
        fixed, w = _conjugate_levels(fixed, w, "flip1")
    return fixed, w


def _reconstruct_coupling(ham, w_ant):
    """Rebuild a four-channel CouplingSet consistent with the fitted widths.

    The total width matrix pi T = -Im(H) (as a real symmetric form) minus
    the antenna contribution leaves a dissipative block; its symmetric PSD
    square root provides two fictitious channels. Slightly negative
    eigenvalues (fit noise) are clipped to zero.
    """
    t_total = np.array([
        [-ham.e1.imag / math.pi, -ham.h1.imag / math.pi],
        [-ham.h1.imag / math.pi, -ham.e2.imag / math.pi],
    ])
    t_diss = t_total - w_ant.T @ w_ant
    t_diss = 0.5 * (t_diss + t_diss.T)
    evals, vecs = np.linalg.eigh(t_diss)
    evals = np.clip(evals, 0.0, None)
    diss = vecs @ np.diag(np.sqrt(evals)) @ vecs.T
    return CouplingSet(np.vstack([w_ant, diss]))


# ------------------------------------------------------------------ main fit


def _scatter_starts(p0, n_starts, rng):
    """The seed itself plus randomized variations around it.

    Positions move additively by fractions of the level spacing, widths and
    couplings rescale log-uniformly; entries seeded at zero get a small
    additive kick so no search direction starts out frozen.
    """
    starts = [np.array(p0, dtype=float)]
    spacing = max(abs(p0[0] - p0[2]), -4.0 * p0[1], -4.0 * p0[3], 0.5)
    w_scale = 0.25 * (abs(p0[8]) + abs(p0[11]))
    for _ in range(n_starts - 1):
        q = np.array(p0, dtype=float)
        q[0] += rng.normal(0.0, 0.25 * spacing)
        q[2] += rng.normal(0.0, 0.25 * spacing)
        q[[1, 3]] *= np.exp(rng.uniform(-0.7, 0.7, size=2))
        q[4:8] += rng.normal(0.0, 0.15 * spacing, size=4)
        q[8:12] *= np.exp(rng.uniform(-0.35, 0.35, size=4))
        q[8:12] += rng.normal(0.0, 0.05 * w_scale, size=4)
        starts.append(q)
    return starts


def fit_spectrum(spec, cfg=None, init=None, mask=None):
    """Fit the two-level model to a spectrum.

    init may be a FitResult or a packed parameter vector; without it the
    dip-picking seed is used. At most cfg.n_starts starts run, in a fixed
    order: the loop stops after a start below EARLY_EXIT_RMS, or after a
    converged start whose rms matches an earlier converged start's to
    RMS_AGREEMENT. Raises InsufficientSpanError when the grid does not
    cover 4x both seeded widths, NonConvergenceError (carrying the best
    residual and the starts per termination reason) when no start
    converges.
    """
    cfg = cfg or FitConfig()
    include = _channel_row_mask(mask)
    if init is None:
        p0 = seed_initializer(spec)
    elif isinstance(init, FitResult):
        p0 = pack_params(init.ham, init.coupling.antenna)
    else:
        p0 = np.asarray(init, dtype=float)
        if p0.shape != (N_PARAMS,):
            raise InvalidArgumentError(
                f"init must have {N_PARAMS} entries, got {p0.shape}")

    span = float(spec.freqs[-1] - spec.freqs[0])
    widths = (-2.0 * p0[1], -2.0 * p0[3])
    if span < 4.0 * max(*widths, 0.0):
        raise InsufficientSpanError(
            f"grid span {span:.3g} MHz does not cover 4x the seeded widths "
            f"{widths[0]:.3g}, {widths[1]:.3g} MHz")

    rng = np.random.default_rng(cfg.seed)
    best = None
    converged_rms = []
    counts = dict.fromkeys(Termination, 0)
    for start in _scatter_starts(p0, cfg.n_starts, rng):
        p, rms, stop, iters, jtj_diag, _ = _levenberg_marquardt(
            start, spec, include, cfg)
        counts[stop] += 1
        ok = bool(stop)
        if best is None or (ok and not best[2]) or (
                ok == best[2] and rms < best[1]):
            best = (p, rms, ok, iters, jtj_diag)
        if best[2] and best[1] < EARLY_EXIT_RMS:
            break
        if ok:
            if any(abs(rms - prev) <= RMS_AGREEMENT * prev
                   for prev in converged_rms):
                break
            converged_rms.append(rms)

    p, rms, ok, iters, jtj_diag = best
    starts_run = sum(counts.values())
    terminations = {stop.value: n for stop, n in counts.items()}
    if not ok:
        tally = ", ".join(f"{n} {reason}" for reason, n in terminations.items())
        raise NonConvergenceError(
            f"no start converged within {cfg.max_iterations} iterations "
            f"(best residual rms {rms:.3e}; {starts_run} starts run: {tally})",
            best_rms=rms)

    ham_raw, w_raw = unpack_params(p)
    ham, w_ant = _canonicalize(ham_raw, w_raw)
    return FitResult(
        ham=ham,
        coupling=_reconstruct_coupling(ham, w_ant),
        tau=extract_tau(ham),
        residual_rms=rms,
        converged=True,
        covariance_proxy=jtj_diag,
        iterations=iters,
        starts_run=starts_run,
        terminations=terminations,
    )
