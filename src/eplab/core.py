"""Exact algebra of the 2x2 non-Hermitian effective Hamiltonian.

The central object is

    H = ((e1 + e2)/2) I + sigma . h,    h = (h1, h2, h3),  h3 = (e1 - e2)/2,

with complex entries in MHz, i.e. the dense form

    H = [[e1, h1 - i*h2], [h1 + i*h2, e2]].

Eigenvalues are tr/2 +- sqrt(D) with the radicand split into the three
basis-invariant pieces

    D = |Re h|^2 - |Im h|^2 + 2i (Re h . Im h).

D = 0 with h != 0 marks an exceptional point (EP): both eigenvalues and
eigenvectors coalesce and the matrix becomes defective (a Jordan block).

Conventions:
  * sqrt branch: principal (Re >= 0), ties broken toward Im >= 0; E1 carries
    the "+" branch. Continuity tracking around branch points lives in epscan.
  * eigenvalue shape E = f - i*Gamma/2 with Gamma >= 0 for a dissipative
    matrix; width_offset recenters the trace on the real axis.
  * basis changes are conjugations M -> U M U^dagger with either a real plane
    rotation O(phi) = [[cos, sin], [-sin, cos]] or a phase twist
    U(theta) = diag(e^{i theta}, e^{-i theta}). Both act on h as rotations and
    therefore preserve (|Re h|^2, |Im h|^2, Re h . Im h).

One kernel, observables, evaluates the eigenvalues, the radicand split and
tau of a single matrix or of a whole grid, with the same bits either way;
eigenvalues, radicand, gauge_fix and extract_tau are views of its stages.

One function, pt_report, is the symmetry chain: gauge fix, tau, width
shift, then the twist and rotation onto the symmetric normal form
[[A+iB, C+iD], [C-iD, A-iB]], with its residual and commutator norm.

All types are immutable values and all operations are pure functions; they
are safe to call from any number of workers.
"""

__all__ = ["EPS_CROSS", "BasisTransform", "EffHamiltonian", "EigenPair",
           "Observables", "PTNormalForm", "PTReport", "Radicand",
           "TransformKind", "eigenvalues", "extract_tau", "from_matrix",
           "from_pauli", "gauge_fix", "is_ep", "observables",
           "pt_commutator_norm", "pt_report", "radicand", "width_offset"]

import cmath
import math
import warnings
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np

from .errors import (
    DegenerateGaugeError,
    InvalidArgumentError,
    NotGaugeFixedError,
    NotOnPTCurveError,
    SingularRatioError,
)

# Default tolerances (MHz^2 scales are relative to reh2+imh2).
EPS_CROSS = 1e-6     # relative |Re h . Im h| gate for the symmetrizing step
RATIO_TOL = 1e-6     # allowed deviation of |off-diagonal ratio| from 1
EP_EPS_D = 1e-8      # relative |D| below which is_ep sees an EP
EP_EPS_H = 1e-9      # MHz^2 floor on reh2+imh2 below which H is scalar

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)


def _require_finite(**values):
    for name, z in values.items():
        z = complex(z)
        if not (math.isfinite(z.real) and math.isfinite(z.imag)):
            raise InvalidArgumentError(f"{name} must be finite, got {z!r}")


@dataclass(frozen=True)
class EffHamiltonian:
    """2x2 effective Hamiltonian in Pauli-vector form.

    Only e1, e2, h1, h2 are stored; h3 = (e1 - e2)/2 is derived on access so
    the redundancy constraint can never be violated.
    """

    e1: complex
    e2: complex
    h1: complex
    h2: complex

    def __post_init__(self):
        _require_finite(e1=self.e1, e2=self.e2, h1=self.h1, h2=self.h2)

    @property
    def h3(self):
        return 0.5 * (self.e1 - self.e2)

    @property
    def matrix(self):
        return np.array(
            [[self.e1, self.h1 - 1j * self.h2],
             [self.h1 + 1j * self.h2, self.e2]],
            dtype=complex,
        )

    def to_json_dict(self):
        return {name: [getattr(self, name).real, getattr(self, name).imag]
                for name in ("e1", "e2", "h1", "h2")}

    @staticmethod
    def from_json_dict(d):
        return EffHamiltonian(*(complex(d[name][0], d[name][1])
                                for name in ("e1", "e2", "h1", "h2")))


def from_pauli(e1, e2, h1, h2):
    """Build an EffHamiltonian from its Pauli-vector components."""
    return EffHamiltonian(complex(e1), complex(e2), complex(h1), complex(h2))


def from_matrix(m):
    """Inverse of EffHamiltonian.matrix (exact for e1, e2; h to rounding)."""
    m = np.asarray(m, dtype=complex)
    if m.shape != (2, 2):
        raise InvalidArgumentError(f"expected a 2x2 matrix, got shape {m.shape}")
    h1 = 0.5 * (m[1, 0] + m[0, 1])
    h2 = -0.5j * (m[1, 0] - m[0, 1])
    return EffHamiltonian(complex(m[0, 0]), complex(m[1, 1]), complex(h1), complex(h2))


class EigenPair(NamedTuple):
    """Eigenvalues E_j = f_j - i*Gamma_j/2, E1 on the '+' sqrt branch."""

    E1: complex
    E2: complex


class Radicand(NamedTuple):
    """Basis-invariant decomposition of the eigenvalue radicand [MHz^2]."""

    reh2: float
    imh2: float
    cross: float

    @property
    def d(self):
        return complex(self.reh2 - self.imh2, 2.0 * self.cross)


class TransformKind(Enum):
    GAUGE_O0 = "gauge_o0"   # plane rotation fixing the off-diagonal ratio
    TAU_U = "tau_u"         # phase twist removing the ratio phase
    ROT_O = "rot_o"         # plane rotation onto the symmetric normal form


class BasisTransform(NamedTuple):
    """A conjugation M -> U M U^dagger.

    angle is Phi0 for GAUGE_O0, tau/2 for TAU_U and Phi for ROT_O.
    """

    kind: TransformKind
    angle: float

    @property
    def matrix(self):
        if self.kind is TransformKind.TAU_U:
            return np.array(
                [[cmath.exp(1j * self.angle), 0.0],
                 [0.0, cmath.exp(-1j * self.angle)]],
                dtype=complex,
            )
        c, s = math.cos(self.angle), math.sin(self.angle)
        return np.array([[c, s], [-s, c]], dtype=complex)

    def apply(self, ham):
        u = self.matrix
        return from_matrix(u @ ham.matrix @ u.conj().T)


# --------------------------------------------------------- observables kernel
#
# One body evaluates one matrix or a whole grid of them. It works on real and
# imaginary parts in float64 with real arithmetic and numpy ufuncs, which give
# a point the same bits alone as inside an array. Complex numpy arithmetic
# would not: its multiply rounds differently in array and scalar loops.

# failure classes, in the order the chain gauge_fix -> extract_tau meets them
_FAIL_NONE = 0
_FAIL_GAUGE = 1          # h is a complex multiple of a real vector
_FAIL_DENOMINATOR = 2    # h1 - i*h2 = 0
_FAIL_NOT_FIXED = 3      # |ratio| off 1 beyond the tolerance
_FAIL_BOUNDARY = 4       # ratio on the negative real axis

_FAILURES = {
    _FAIL_GAUGE: (DegenerateGaugeError, "gauge angle undefined: Im(h1/h2) "
                  "and Im(h3/h2) both vanish"),
    _FAIL_DENOMINATOR: (SingularRatioError, "off-diagonal ratio denominator "
                        "h1 - i*h2 is zero"),
    _FAIL_NOT_FIXED: (NotGaugeFixedError, "|ratio| deviates from 1 beyond "
                      "the tolerance; call gauge_fix first"),
    _FAIL_BOUNDARY: (SingularRatioError, "ratio on the negative real axis: "
                     "tau at the excluded boundary +-pi/2"),
}


def _select(cond, a, b):
    """np.where(cond, a, b); a plain choice for a scalar condition.

    Both pick the same values, so a point keeps its bits, and a one-point
    call stays cheap.
    """
    if isinstance(cond, np.ndarray):
        return np.where(cond, a, b)
    return a if cond else b


def _raise_failure(code, detail=""):
    error, message = _FAILURES[int(code)]
    raise error(message + detail)


def _h_parts(e1r, e1i, e2r, e2i, h1r, h1i, h2r, h2i):
    """Real and imaginary parts of (h1, h2, h3), h3 = (e1 - e2)/2."""
    return h1r, h1i, h2r, h2i, 0.5 * (e1r - e2r), 0.5 * (e1i - e2i)


def _radicand_parts(h1r, h1i, h2r, h2i, h3r, h3i):
    """|Re h|^2, |Im h|^2 and Re h . Im h."""
    return (h1r * h1r + h2r * h2r + h3r * h3r,
            h1i * h1i + h2i * h2i + h3i * h3i,
            h1r * h1i + h2r * h2i + h3r * h3i)


def _eigen_parts(e1r, e1i, e2r, e2i, reh2, imh2, cross):
    """(Re E1, Im E1, Re E2, Im E2) with E = tr/2 +- sqrt(D).

    sqrt(D) is principal (Re >= 0) and evaluated without cancellation on
    either side of the imaginary axis; an exactly imaginary root is taken
    with Im >= 0.
    """
    x = reh2 - imh2
    y = 2.0 * cross
    t = np.sqrt(0.5 * (np.hypot(x, y) + abs(x)))
    q = y / _select(t > 0.0, 2.0 * t, 1.0)        # y = 0 wherever t = 0
    right = x >= 0.0
    sr = _select(right, t, abs(q))
    si = _select(right, q, np.copysign(t, y))
    si = _select(sr == 0.0, abs(si), si)
    mr = 0.5 * (e1r + e2r)
    mi = 0.5 * (e1i + e2i)
    return mr + sr, mi + si, mr - sr, mi - si


def _reporting_order(ar, ai, br, bi):
    """The pair by ascending real part, larger imaginary part first on ties."""
    swap = (br < ar) | ((br == ar) & (bi > ai))
    return (_select(swap, br, ar), _select(swap, bi, ai),
            _select(swap, ar, br), _select(swap, ai, bi))


def _gauge_parts(h1r, h1i, h2r, h2i, h3r, h3i):
    """Gauge rotation: (2*Phi0, degenerate mask, rotated h1, rotated h3).

    Conjugation by O(Phi0) turns (h1, h3) by 2*Phi0 and leaves h2 alone;
    the angle solves Im(h1' conj h2) = 0 and is folded into (-pi/2, pi/2].
    With h2 = 0 the angle is 0 and h1 comes back unchanged.
    """
    a = h1i * h2r - h1r * h2i                     # Im(h1 conj h2)
    b = h3i * h2r - h3r * h2i                     # Im(h3 conj h2)
    degenerate = (a == 0.0) & (b == 0.0) & ((h2r != 0.0) | (h2i != 0.0))
    two_phi = np.arctan2(a, b)
    two_phi = _select(two_phi > 0.5 * math.pi, two_phi - math.pi,
                      _select(two_phi <= -0.5 * math.pi, two_phi + math.pi,
                              two_phi))
    c, s = np.cos(two_phi), np.sin(two_phi)
    return (two_phi, degenerate, (c * h1r - s * h3r, c * h1i - s * h3i),
            (s * h1r + c * h3r, s * h1i + c * h3i))


def _tau_parts(h1r, h1i, h2r, h2i):
    """(tau, |ratio|, failure class) of a gauge-fixed matrix.

    ratio = (h1 + i h2)/(h1 - i h2); its phase is read off
    num * conj(den), so no complex division is needed.
    """
    nr, ni = h1r - h2i, h1i + h2r                 # h1 + i*h2
    dr, di = h1r + h2i, h1i - h2r                 # h1 - i*h2
    pr = nr * dr + ni * di
    pim = ni * dr - nr * di
    den = np.hypot(dr, di)
    zero = den == 0.0
    mag = np.hypot(nr, ni) / _select(zero, 1.0, den)
    failure = _select(
        zero, _FAIL_DENOMINATOR,
        _select(abs(mag - 1.0) > RATIO_TOL, _FAIL_NOT_FIXED,
                _select((pim == 0.0) & (pr < 0.0), _FAIL_BOUNDARY,
                        _FAIL_NONE)))
    return 0.5 * np.arctan2(pim, pr), mag, failure


class Observables(NamedTuple):
    """Per-point output of the observables kernel (arrays or 0-d values).

    (f, g) are frequency and full width of the eigenvalues in reporting
    order, E = f - i*g/2; tau is NaN where failure is nonzero. failure
    holds the class of the exception the chain gauge_fix -> extract_tau
    would raise there, 0 for none.
    """

    f1: np.ndarray
    g1: np.ndarray
    f2: np.ndarray
    g2: np.ndarray
    reh2: np.ndarray
    imh2: np.ndarray
    cross: np.ndarray
    tau: np.ndarray
    failure: np.ndarray

    def reason(self, index=()):
        """Exception class name of one point's failure, None when it is ok."""
        code = int(np.asarray(self.failure)[index])
        return _FAILURES[code][0].__name__ if code else None

    def raise_first_failure(self):
        """Raise the exception of the first failed point, if there is one."""
        bad = np.flatnonzero(self.failure)
        if bad.size:
            _raise_failure(np.ravel(self.failure)[bad[0]])


def observables(e1, e2, h1, h2):
    """The observables of H = [[e1, h1 - i*h2], [h1 + i*h2, e2]].

    e1, e2, h1, h2 are complex scalars or broadcast-compatible arrays. One
    point gives the same bits alone as inside any array. The eigenvalues
    come out in the order of eigenvalues_sorted, the radicand split as in
    radicand, and tau as extract_tau(gauge_fix(H)[0]).
    """
    e1r, e1i, e2r, e2i = np.real(e1), np.imag(e1), np.real(e2), np.imag(e2)
    h = _h_parts(e1r, e1i, e2r, e2i, np.real(h1), np.imag(h1),
                 np.real(h2), np.imag(h2))
    rad = _radicand_parts(*h)
    ar, ai, br, bi = _reporting_order(*_eigen_parts(e1r, e1i, e2r, e2i, *rad))
    _, degenerate, (g1r, g1i), _ = _gauge_parts(*h)
    tau, _, failure = _tau_parts(g1r, g1i, h[2], h[3])
    failure = _select(degenerate, _FAIL_GAUGE, failure)
    return Observables(f1=ar, g1=-2.0 * ai, f2=br, g2=-2.0 * bi,
                       reh2=rad[0], imh2=rad[1], cross=rad[2],
                       tau=_select(failure == _FAIL_NONE, tau, np.nan),
                       failure=failure)


def _ham_parts(ham):
    return _h_parts(ham.e1.real, ham.e1.imag, ham.e2.real, ham.e2.imag,
                    ham.h1.real, ham.h1.imag, ham.h2.real, ham.h2.imag)


def _eigen_of(ham):
    return _eigen_parts(ham.e1.real, ham.e1.imag, ham.e2.real, ham.e2.imag,
                        *_radicand_parts(*_ham_parts(ham)))


def eigenvalues(ham):
    """Eigenvalues via the closed form tr/2 +- sqrt(D).

    The square root is principal (Re >= 0); an exactly imaginary result is
    normalized to Im >= 0 so that labeling is deterministic.
    """
    ar, ai, br, bi = _eigen_of(ham)
    return EigenPair(complex(ar, ai), complex(br, bi))


def eigenvalues_sorted(ham):
    """Eigenvalues in reporting order: ascending real part, then descending
    imaginary part (narrower resonance first on an exact position tie)."""
    ar, ai, br, bi = _reporting_order(*_eigen_of(ham))
    return complex(ar, ai), complex(br, bi)


def radicand(ham):
    """Split D into |Re h|^2, |Im h|^2 and Re h . Im h."""
    return Radicand(*_radicand_parts(*_ham_parts(ham)))


def width_offset(ham):
    """Shift H by +i*(Gamma1+Gamma2)/4 * I so the trace becomes real.

    The offset is this matrix's own (Gamma1+Gamma2)/4. h (and hence the
    radicand) is untouched; only the eigenvalue centroid moves.
    """
    offset = -0.5 * (ham.e1.imag + ham.e2.imag)   # = (Gamma1+Gamma2)/4
    pair = eigenvalues(ham)
    tol = 1e-12 * max(1.0, abs(pair.E1), abs(pair.E2))
    if pair.E1.imag > tol or pair.E2.imag > tol:
        warnings.warn(
            "width_offset applied to a matrix with amplifying eigenvalues "
            "(positive imaginary part); dissipative convention violated",
            RuntimeWarning,
            stacklevel=2,
        )
    shift = 1j * offset
    return EffHamiltonian(ham.e1 + shift, ham.e2 + shift, ham.h1, ham.h2)


def gauge_fix(ham):
    """Rotate to the basis where the off-diagonal ratio is unimodular.

    Returns (rotated H, transform). The rotation mixes (h1, h3) and leaves
    h2 alone; the angle solves Im(h1' conj(h2)) = 0, which is equivalent to
    |h1 + i*h2| = |h1 - i*h2|.

    Raises
    ------
    DegenerateGaugeError
        If h is a complex multiple of a real vector (every angle works, so
        none is defined).
    """
    if ham.h2 == 0:
        return ham, BasisTransform(TransformKind.GAUGE_O0, 0.0)
    two_phi, degenerate, (h1r, h1i), (h3r, h3i) = _gauge_parts(
        *_ham_parts(ham))
    if degenerate:
        _raise_failure(_FAIL_GAUGE)
    mean = 0.5 * (ham.e1 + ham.e2)
    h3 = complex(h3r, h3i)
    fixed = EffHamiltonian(mean + h3, mean - h3, complex(h1r, h1i), ham.h2)
    return fixed, BasisTransform(TransformKind.GAUGE_O0, 0.5 * float(two_phi))


def extract_tau(ham):
    """Half phase of the off-diagonal ratio, in (-pi/2, pi/2).

    The input must already be gauge fixed (ratio modulus within RATIO_TOL
    of 1). tau = +-pi/4 is maximal time-reversal violation; h2 = 0 gives 0.
    """
    tau, mag, failure = _tau_parts(ham.h1.real, ham.h1.imag,
                                   ham.h2.real, ham.h2.imag)
    if failure:
        detail = (f" (|ratio| = {float(mag):.9g}, tolerance {RATIO_TOL:g})"
                  if failure == _FAIL_NOT_FIXED else "")
        _raise_failure(failure, detail)
    return float(tau)


class PTNormalForm(NamedTuple):
    """Entries of the symmetric normal form [[A+iB, C+iD], [C-iD, A-iB]].

    residual is the largest entrywise distance of the actually transformed
    matrix from that pattern (0 means the pattern holds exactly).
    """

    a: float
    b: float
    c: float
    dpt: float
    residual: float

    @property
    def eigenvalues(self):
        """A +- sqrt(C^2 + D^2 - B^2): real or a conjugate pair."""
        s = cmath.sqrt(complex(self.c * self.c + self.dpt * self.dpt
                               - self.b * self.b, 0.0))
        if s.real == 0.0 and s.imag < 0.0:
            s = -s
        return (self.a + s, self.a - s)


def _symmetrizing_angle(m):
    # Angle 2*Phi minimizing (Im h1')^2 + (Re h3')^2 under the (h1, h3)
    # rotation; on the curve Re h . Im h = 0 the minimum is an exact zero.
    r1, i1 = m.h1.real, m.h1.imag
    r3, i3 = m.h3.real, m.h3.imag
    alpha = i1 * i1 + r3 * r3
    beta = i3 * i3 + r1 * r1
    gam = r1 * r3 - i1 * i3
    if alpha == beta and gam == 0.0:
        return 0.0
    return 0.5 * math.atan2(-2.0 * gam, -(alpha - beta))


def pt_commutator_norm(m):
    """Max-entry norm of the antilinear commutator with sigma_x * conj.

    The antilinear map v -> sigma_x conj(v) commutes with M exactly when
    sigma_x conj(M) == M sigma_x; the norm is 0 for any matrix of the
    symmetric normal-form pattern.
    """
    m = np.asarray(m, dtype=complex)
    k = SIGMA_X @ np.conj(m) - m @ SIGMA_X
    return float(np.max(np.abs(k)))


def is_ep(ham):
    """EP test: |D| small relative to |Re h|^2 + |Im h|^2, with h not tiny.

    |D| must be within EP_EPS_D of the scale; the EP_EPS_H floor excludes
    the scalar-matrix case h ~ 0, which is a diabolic degeneracy, not an EP.
    """
    rad = radicand(ham)
    scale = rad.reh2 + rad.imh2
    return bool(abs(rad.d) <= EP_EPS_D * scale and scale >= EP_EPS_H)


class PTReport(NamedTuple):
    """Full symmetry analysis of one Hamiltonian.

    offset is the applied imaginary shift (Gamma1+Gamma2)/4, phi0/tau/phi the
    transformation angles, form the resulting normal form, commutator_norm
    the antilinear commutator of the actually transformed matrix. phase is
    "exact" where |Re h|^2 >= |Im h|^2 (real shifted eigenvalues), else
    "broken" (a complex-conjugate pair).
    """

    offset: float
    phi0: float
    tau: float
    phi: float
    form: PTNormalForm
    commutator_norm: float
    phase: str


def pt_report(ham, eps_cross=EPS_CROSS):
    """Run the full symmetry chain on one Hamiltonian.

    gauge_fix, then extract_tau, then width_offset by this matrix's own
    (Gamma1+Gamma2)/4; then the phase twist U(tau/2) and the plane rotation
    O(Phi) take the shifted matrix onto the symmetric pattern. The normal
    form, its residual and the commutator norm all read that one
    transformed matrix.

    Raises NotOnPTCurveError where |Re h . Im h| exceeds eps_cross times
    reh2 + imh2, and the errors of gauge_fix and extract_tau.
    """
    fixed, o0 = gauge_fix(ham)
    tau = extract_tau(fixed)
    offset = -0.5 * (fixed.e1.imag + fixed.e2.imag)
    shifted = width_offset(fixed)
    rad = radicand(shifted)
    scale = rad.reh2 + rad.imh2
    if abs(rad.cross) > eps_cross * scale:
        raise NotOnPTCurveError(
            f"|Re h . Im h| = {abs(rad.cross):.3e} exceeds "
            f"{eps_cross:g} * (reh2+imh2) = {eps_cross * scale:.3e}"
        )

    u = BasisTransform(TransformKind.TAU_U, 0.5 * tau)
    twisted = u.apply(shifted)
    o = BasisTransform(TransformKind.ROT_O,
                       0.5 * _symmetrizing_angle(twisted))
    mat = o.apply(twisted).matrix
    apb = 0.5 * (mat[0, 0] + mat[1, 1].conjugate())   # A + iB
    cpd = 0.5 * (mat[0, 1] + mat[1, 0].conjugate())   # C + iD
    residual = 0.5 * max(
        abs(mat[0, 0] - mat[1, 1].conjugate()),
        abs(mat[0, 1] - mat[1, 0].conjugate()),
    )
    reh2, imh2, _ = radicand(ham)
    return PTReport(
        offset=float(offset),
        phi0=o0.angle,
        tau=tau,
        phi=o.angle,
        form=PTNormalForm(a=apb.real, b=apb.imag, c=cpd.real, dpt=cpd.imag,
                          residual=residual),
        commutator_norm=pt_commutator_norm(mat),
        phase="exact" if reh2 >= imh2 else "broken",
    )
