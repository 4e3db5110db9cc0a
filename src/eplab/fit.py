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
per fit and takes J^T J and J^T r from their complex Gram matrix and the
complex residual. A trial step that moves a pole out of the frequency window
or makes it amplifying (Im E > 0) is rejected like a cost increase, so the
damping grows. A start ends when its step shrinks to nothing or an accepted
step gains less than CHI2_STALL of chi^2 per row; as a runaway, not
converged, if a rejection came first. The model has an exact one-parameter
gauge freedom (a common real orthogonal rotation of levels and couplings),
so the curvature matrix is singular along that direction; damping
regularizes it and the gauge is fixed after convergence, not during.
Residual sums are einsum reductions, not BLAS dot products, whose summation
order varies with the BLAS thread count.

The first start is a closed-form two-pole fit of the spectrum from weighted
moments (see seed_initializer): exact on noiseless data, a few LM iterations
from the minimum with noise, and passive and inside the window even where
noise seeds a pole amplifying or outside it. The other starts scatter around
it; their level kicks are Hermitian (Re h1, Re h2), so every start keeps the
seed's passive dissipative part. Starts run in a fixed order and stop early
on one of three rules. A start that reaches EARLY_EXIT_RMS is exact. With
noise that can never fire; instead a converged start that is the best so far
stops the loop once its residual is white: its lag-1 correlation along
frequency, pooled over the included channels, lies below NOISE_FLOOR_SIGMAS
standard deviations of white noise (the Durbin-Watson statistic). A residual
at the noise floor is white, while a wrong or unfinished minimum leaves a
smooth, correlated one. Failing both, a converged start that repeats the rms
of an earlier converged start to RMS_AGREEMENT has found the same minimum, so
the earlier of them is kept; this also stops real data with correlated noise.

Post-fit canonicalization: gauge-fix the matrix, rotate W along, then pick
the representative with |W00| >= |W01| and W00, W11 >= 0 (column swap plus
sign flips, compensated inside H so the model output is unchanged). This
makes noiseless fits reproduce the generating parameters instead of a
random gauge copy.
"""

__all__ = ["FitConfig", "FitResult", "fit_spectrum", "seed_initializer"]

import cmath
import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .core import (
    EffHamiltonian,
    eigenvalues_sorted,
    extract_tau,
    from_matrix,
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
# a start ends at a step gaining less chi^2 per row (Numerical Recipes 15.5)
CHI2_STALL = 1e-3
# a converged best start whose residual's lag-1 correlation lies below this
# many standard deviations of white noise, NOISE_FLOOR_SIGMAS / sqrt(2 k n)
# for k channels of n points, is at the noise floor; remaining starts are
# skipped (Durbin & Watson, Biometrika 37, 409 (1950))
NOISE_FLOOR_SIGMAS = 6.0
# Levenberg-Marquardt: iteration cap per start, gradient and relative step
# below which a start has converged, and the initial damping
MAX_ITERATIONS = 200
GRADIENT_TOLERANCE = 1e-10
STEP_TOLERANCE = 1e-13
DAMPING_INIT = 1e-3

CHANNEL_NAMES = ("S11", "S12", "S21", "S22")
# S - _DELTA is the resonant part of S11, S12, S21, S22
_DELTA = [1.0, 0.0, 0.0, 1.0]
# reweighted passes of the closed-form seed; the first is unweighted
SEED_PASSES = 3


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
    n_starts: int = 8           # at most; a fit stops at its first exact or
                                # white-residual start, see fit_spectrum

    def __post_init__(self):
        if self.n_starts < 1:
            raise InvalidArgumentError("the start count must be >= 1")


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
    # what ended the starts: "exact", "noise_floor", "agreement" or
    # "exhausted" (all cfg.n_starts ran); see fit_spectrum
    stop_rule: str = "exhausted"
    # lag-1 correlation of the kept start's residual along frequency
    residual_lag1: float = 0.0
    # negative eigenvalue magnitude clipped off the dissipative width block
    clipped_dissipation: float = 0.0

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
        d["stop_rule"] = self.stop_rule
        d["residual_lag1"] = float(self.residual_lag1)
        d["clipped_dissipation"] = float(self.clipped_dissipation)
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
    """The model against the included channels of one spectrum, over its
    frequency window; a masked channel is dropped, not zeroed. The Jacobian
    workspace is allocated at the first linearization and refilled in
    place, by every LM start of a fit."""

    def __init__(self, spec, include):
        self.freqs = spec.freqs
        self.window = (float(spec.freqs[0]), float(spec.freqs[-1]))
        self.rows = 8 * spec.n_points     # masked channels are zero rows
        self.channels = np.flatnonzero(include)
        self.data = spec.s[self.channels]
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
        f = r.view(float)
        return r, 0.5 * np.einsum("ij,ij->", f, f)

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


def _residual_lag1(r):
    """Lag-1 correlation of a complex (k, n) residual along frequency.

    Pooled over the channels and over real and imaginary parts:
    sum Re(conj(r[:, 1:]) r[:, :-1]) / sum |r|^2. White noise gives about
    0 with standard deviation 1/sqrt(2 k n), a smooth misfit nearly 1; an
    all-zero residual gives 0. On the interleaved (Re, Im) float view a
    frequency step is a shift of two.
    """
    f = r.view(float)
    power = np.einsum("ij,ij->", f, f)
    if power == 0.0:
        return 0.0
    return float(np.einsum("ij,ij->", f[:, 2:], f[:, :-2]) / power)


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


def _levenberg_marquardt(p0, model):
    """Damped least squares on model; cost is monotone over accepted steps.

    Returns (params, residual, rms, stop, iterations, jtj_diag, costs),
    where residual is the complex (k, n) residual at params (None on a
    resolvent pole) and stop is the Termination of this start. Trial steps
    with unphysical poles are rejected like cost increases. A step below the
    step tolerance, or an accepted one gaining less than CHI2_STALL * cost /
    rows, ends the start: as a runaway if a trial of it was unphysical.
    """
    f_lo, f_hi = model.window
    p = np.array(p0, dtype=float)
    r, cost = model.residual(p)
    costs = [cost]
    lam = DAMPING_INIT
    nu = 2.0
    stop = Termination.MAX_ITERATIONS
    it = 0
    jtj_diag = None
    for it in range(1, MAX_ITERATIONS + 1):
        try:
            jtj, grad = model.normal_equations(p, r)
        except PoleOnGridError:
            # a lossless pole on a grid frequency: the physical boundary
            stop = Termination.RUNAWAY
            break
        jtj_diag = np.diag(jtj).copy()
        if np.max(np.abs(grad)) < GRADIENT_TOLERANCE:
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
            if np.linalg.norm(step) < STEP_TOLERANCE * (
                    np.linalg.norm(p) + STEP_TOLERANCE):
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
        if costs[-2] - cost < CHI2_STALL * cost / model.rows:
            stop = Termination.RUNAWAY if blocked else Termination.CONVERGED
            break
    rms = math.sqrt(2.0 * cost / model.rows)
    return p, r, rms, stop, it, jtj_diag, costs


# -------------------------------------------------------------------- seeding


def _two_pole_moments(x, r):
    """(c1, c0, num): d = x^2 + c1 x + c0 and the (2, k) x and 1 coefficients
    of the numerators of r's k rows. Projecting B = [w x, w], w = 1/|d|, out
    of w r x^(2-j) leaves the Gram sum rho w^2 x^(4-j-l) - b_j^H (B^T B)^-1
    b_l: rho = sum_ch |r_ch|^2, b_j = [m_(3-j), m_(2-j)], m_k = sum w^2 x^k r"""
    powers = np.array([np.ones_like(x), x, x * x, x * x * x, x * x * x * x])
    rows = np.ones((2 + 2 * len(r), x.size))      # 1, rho, Re and Im of r_ch
    rows[2::2], rows[3::2] = r.real, r.imag
    np.sum(rows[2:] ** 2, axis=0, out=rows[1])
    d = np.ones_like(x)
    for _ in range(SEED_PASSES):
        mom = (powers / (d.real ** 2 + d.imag ** 2)) @ rows.T
        b = mom[:4, 2:].view(complex)[[[3, 2], [2, 1], [1, 0]]]
        bb_inv = np.linalg.inv(mom[[[2, 1], [1, 0]], 0])
        gram = (mom[4 - np.add.outer(range(3), range(3)), 1]
                - np.einsum("jac,ab,lbc->jl", b.conj(), bb_inv, b))
        scale = (gram[1, 1] * gram[2, 2]).real
        if not scale - abs(gram[1, 2]) ** 2 > 1e-12 * scale:
            raise UnresolvableDoubletError("the spectrum shows no resonance")
        c1, c0 = np.linalg.solve(gram[1:, 1:], -gram[1:, 0])
        d = x * (x + c1) + c0
    return c1, c0, bb_inv @ (b[0] + c1 * b[1] + c0 * b[2])


def seed_initializer(spec, mask=None):
    """Initial parameters from a closed-form two-pole fit of the spectrum.

    As adj(f - H) = (f - tr H) + H for 2x2 matrices, the model obeys
    (S - 1) d(f) = -2 pi i (f M1 + M0) with d = det(f - H), M1 = W W^T and
    M0 = W (H - tr H) W^T, linear in d and the numerators (Levy). With
    d = x^2 + c1 x + c0 on centred, scaled frequencies x, weighted moments
    project out the real numerator columns [x, 1] that all included
    channels share, and c1, c0 solve a 2x2 complex normal system; each of
    SEED_PASSES passes weights the rows by 1/|d| of the pass before
    (Sanathanan-Koerner; see _two_pole_moments). Then W = sqrt(M1) and
    H = K - tr K with K = W^-1 M0 W^-T; with one transmission masked,
    det K = c0 fixes its entry of M0. Without a transmission or without both
    reflections M1 is unidentified: W is then diagonal from the known
    reflections (their mean for a missing one, 1 with none), and the levels
    are the roots of d mixed equally between the basis states, so each
    channel sees both. A seeded pole is moved, not refused: an amplifying
    one by lowering both Im e by its Im E plus 0.05 MHz, which keeps the
    positions, and one outside the window to its edge, with its width.

    Raises UnresolvableDoubletError on fewer than 16 samples or a spectrum
    without resonant structure.
    """
    include = _channel_row_mask(mask)
    if spec.n_points < 16:
        raise UnresolvableDoubletError(f"{spec.n_points} samples are too few")
    f_lo, f_hi = float(spec.freqs[0]), float(spec.freqs[-1])
    mid, half = 0.5 * (f_lo + f_hi), 0.5 * (f_hi - f_lo)
    x = (spec.freqs - mid) / half
    channels = np.flatnonzero(include)
    r = spec.s[channels] - np.array(_DELTA)[channels, None]
    c1, c0, coef = _two_pole_moments(x, r)
    num = np.zeros((2, 4), dtype=complex)   # M1, M0 of H_x = (H - mid) / half
    num[:, channels] = 0.5j * half / math.pi * coef
    m1, m0 = num[0].real.reshape(2, 2), num[1].reshape(2, 2)
    known = include.reshape(2, 2)
    n_off = int(known[0, 1]) + int(known[1, 0])
    m1[0, 1] = m1[1, 0] = (m1[0, 1] + m1[1, 0]) / max(n_off, 1)
    evals, vecs = np.linalg.eigh(m1)
    if known.diagonal().all() and n_off and evals[0] > 0.0:
        w_ant = (vecs * np.sqrt(evals)) @ vecs.T
        w_inv = np.linalg.inv(w_ant)
        k = w_inv @ m0 @ w_inv.T
        if n_off == 1:       # det(K + t a b^T) = det K + t b^T adj(K) a
            a, b = w_inv[:, np.argwhere(~known)[0]].T
            adj = np.array([[k[1, 1], -k[0, 1]], [-k[1, 0], k[0, 0]]])
            # uncoupled levels and diagonal W make the denominator exactly 0
            k += (c0 - np.linalg.det(k)) / (b @ adj @ a or 1.0) * np.outer(a, b)
        h_x = k - np.trace(k) * np.eye(2)
    else:
        diag = m1.diagonal()[known.diagonal()]
        w_ant = np.diag(np.sqrt(np.abs(np.where(
            known.diagonal(), m1.diagonal(), diag.mean() if diag.size else 1.0))))
        disc = cmath.sqrt(c1 * c1 - 4.0 * c0)
        h_x = np.array([[-c1, disc], [disc, -c1]]) / 2.0
    p0 = pack_params(from_matrix(mid * np.eye(2) + half * h_x), w_ant)
    lift = max(e.imag for e in eigenvalues_sorted(unpack_params(p0)[0]))
    if lift > 0.0:                # amplifying: 0.05 MHz below the real axis
        p0[[1, 3]] -= lift + 0.05
    if not _poles_physical(p0, f_lo, f_hi):   # outside: to the window edge
        lam, vecs = np.linalg.eig(unpack_params(p0)[0].matrix)
        lam = np.clip(lam.real, f_lo, f_hi) + 1j * lam.imag
        p0 = pack_params(from_matrix(vecs * lam @ np.linalg.inv(vecs)), w_ant)
    return p0


# ----------------------------------------------------------- canonical gauge


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
    # each step is a level symmetry of H, compensated in W
    if abs(w[0, 0]) < abs(w[0, 1]):      # sigma_x: relabel the two levels
        fixed = EffHamiltonian(fixed.e2, fixed.e1, fixed.h1, -fixed.h2)
        w = w[:, ::-1].copy()
    for col in (0, 1):                   # diag(+-1): the sign of one level
        if w[col, col] < 0:
            fixed = EffHamiltonian(fixed.e1, fixed.e2, -fixed.h1, -fixed.h2)
            w[:, col] = -w[:, col]
    return fixed, w


def _reconstruct_coupling(ham, w_ant):
    """Rebuild a four-channel CouplingSet consistent with the fitted widths.

    The total width matrix pi T = -Im(H) (as a real symmetric form) minus
    the antenna contribution leaves a dissipative block; its symmetric PSD
    square root provides two fictitious channels. Negative eigenvalues (fit
    noise, or widths the antennas cannot carry) are clipped to zero; returns
    (coupling, clipped) with clipped the magnitude of the most negative
    eigenvalue, 0.0 for a passive block.
    """
    t_total = np.array([
        [-ham.e1.imag / math.pi, -ham.h1.imag / math.pi],
        [-ham.h1.imag / math.pi, -ham.e2.imag / math.pi],
    ])
    t_diss = t_total - w_ant.T @ w_ant
    t_diss = 0.5 * (t_diss + t_diss.T)
    evals, vecs = np.linalg.eigh(t_diss)
    clipped = max(0.0, -float(evals[0]))
    evals = np.clip(evals, 0.0, None)
    diss = vecs @ np.diag(np.sqrt(evals)) @ vecs.T
    return CouplingSet(np.vstack([w_ant, diss])), clipped


# ------------------------------------------------------------------ main fit


def _scatter_starts(p0, n_starts, rng):
    """The seed itself, then randomized variations around it, drawn lazily.

    Positions move additively by fractions of the level spacing, widths and
    couplings rescale log-uniformly, and Re h1, Re h2 get additive kicks.
    Those are Hermitian, so every start keeps the seed's dissipative part.
    """
    yield np.array(p0, dtype=float)
    spacing = max(abs(p0[0] - p0[2]), -4.0 * p0[1], -4.0 * p0[3], 0.5)
    w_scale = 0.25 * (abs(p0[8]) + abs(p0[11]))
    for _ in range(n_starts - 1):
        q = np.array(p0, dtype=float)
        q[0] += rng.normal(0.0, 0.25 * spacing)
        q[2] += rng.normal(0.0, 0.25 * spacing)
        q[[1, 3]] *= np.exp(rng.uniform(-0.7, 0.7, size=2))
        q[[4, 6]] += rng.normal(0.0, 0.15 * spacing, size=2)
        q[8:12] *= np.exp(rng.uniform(-0.35, 0.35, size=4))
        q[8:12] += rng.normal(0.0, 0.05 * w_scale, size=4)
        yield q


def fit_spectrum(spec, cfg=None, mask=None):
    """Fit the two-level model to a spectrum.

    The first start is the closed-form seed of the included channels
    (seed_initializer); at most cfg.n_starts starts run, in a fixed order.
    The loop stops after a converged start that is the best so far and
    either lies below EARLY_EXIT_RMS ("exact") or leaves a residual whose
    lag-1 correlation along frequency is below NOISE_FLOOR_SIGMAS /
    sqrt(2 k n) for k included channels of n points ("noise_floor"); or after a
    converged start whose rms matches an earlier converged start's to
    RMS_AGREEMENT, keeping the earlier one ("agreement"); else all starts
    run ("exhausted"). The result records that rule as stop_rule, the kept
    start's residual_lag1, and the dissipation clipped to keep the
    reconstructed coupling passive. Raises InsufficientSpanError when the
    grid does not cover 4x the widths of both eigenvalues of the kept start,
    NonConvergenceError (carrying the best residual and the starts per
    termination reason) when no start converges. The span check reads the
    kept start, not the seed: with noise the seed's widths can come out
    several times the fitted ones.
    """
    cfg = cfg or FitConfig()
    model = _Model(spec, _channel_row_mask(mask))
    p0 = seed_initializer(spec, mask)

    white = NOISE_FLOOR_SIGMAS / math.sqrt(2.0 * model.data.size)
    best = None
    converged_rms = []
    counts = dict.fromkeys(Termination, 0)
    stop_rule = "exhausted"
    for start in _scatter_starts(p0, cfg.n_starts, np.random.default_rng(0)):
        p, r, rms, stop, iters, jtj_diag, _ = _levenberg_marquardt(
            start, model)
        counts[stop] += 1
        ok = bool(stop)
        agrees = ok and any(abs(rms - prev) <= RMS_AGREEMENT * prev
                            for prev in converged_rms)
        if best is None or (ok and not best[2]) or (
                ok == best[2] and rms < best[1] and not agrees):
            lag1 = _residual_lag1(r) if ok else None
            best = (p, rms, ok, iters, jtj_diag, lag1)
            if ok and rms < EARLY_EXIT_RMS:
                stop_rule = "exact"
            elif ok and lag1 < white:
                stop_rule = "noise_floor"
        if agrees:
            stop_rule = "agreement"
        if stop_rule != "exhausted":
            break
        if ok:
            converged_rms.append(rms)

    p, rms, ok, iters, jtj_diag, lag1 = best
    span = float(spec.freqs[-1] - spec.freqs[0])
    widths = [-2.0 * e.imag for e in eigenvalues_sorted(unpack_params(p)[0])]
    if span < 4.0 * max(*widths, 0.0):
        raise InsufficientSpanError(
            f"grid span {span:.3g} MHz does not cover 4x the fitted widths "
            f"{widths[0]:.3g}, {widths[1]:.3g} MHz")
    starts_run = sum(counts.values())
    terminations = {stop.value: n for stop, n in counts.items()}
    if not ok:
        tally = ", ".join(f"{n} {reason}" for reason, n in terminations.items())
        raise NonConvergenceError(
            f"no start converged within {MAX_ITERATIONS} iterations "
            f"(best residual rms {rms:.3e}; {starts_run} starts run: {tally})",
            best_rms=rms)

    ham_raw, w_raw = unpack_params(p)
    ham, w_ant = _canonicalize(ham_raw, w_raw)
    # uncoupled levels have no off-diagonal ratio, so no phase to read
    coupled = abs(ham.h1) + abs(ham.h2) > 1e-9 * abs(ham.h3)
    coupling, clipped = _reconstruct_coupling(ham, w_ant)
    return FitResult(
        ham=ham,
        coupling=coupling,
        tau=extract_tau(ham) if coupled else 0.0,
        residual_rms=rms,
        converged=True,
        covariance_proxy=jtj_diag,
        iterations=iters,
        starts_run=starts_run,
        terminations=terminations,
        stop_rule=stop_rule,
        residual_lag1=lag1,
        clipped_dissipation=clipped,
    )
