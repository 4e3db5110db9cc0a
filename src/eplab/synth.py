"""Forward scattering model and the planted two-parameter synthetic family.

The S-matrix of two levels coupled to open channels is

    S_ab(f) = delta_ab - 2 pi i sum_{mu nu} W_a,mu G_mu,nu(f) W_b,nu,
    G(f) = (f I - Heff)^(-1),     Heff = Hint - i pi W^T W,

with Hint Hermitian (the closed cavity), W real and frequency independent,
and the channel sum in W^T W running over antenna AND fictitious dissipative
channels. Only the two antenna channels appear in the returned S.

The resolvent is evaluated as adjugate over determinant; every consumer
(point evaluation, grid generation, fit model) funnels through the same
vectorized kernel so that identical inputs give bit-identical outputs.
Reciprocity breaking is computed in difference form,

    S_21 = S_12 - 2 pi i (W_20 W_11 - W_10 W_21) (G_01 - G_10),

which makes S_12 == S_21 hold exactly (not just to rounding) whenever the
effective matrix is complex symmetric (h2 = 0).

The synthetic family plants an exceptional point at preset coordinates
(s*, d*) in the two mechanical parameters: every matrix entry is affine in
(s - s*, d - d*), and the coefficient vectors are dyadic rationals chosen so
the radicand vanishes to the last bit at the EP. Shipped presets: "b38"
(broken time-reversal, tau != 0) and "b0" (T-invariant, h2 identically 0).

Units: frequencies and widths in MHz, couplings in sqrt(MHz), mechanical
parameters in mm.
"""

__all__ = ["CSV_HEADER", "CouplingSet", "NoiseSpec", "Spectrum",
           "SyntheticFamily", "effective_hamiltonian", "frequency_grid",
           "load_family", "read_spectrum", "smatrix_at", "synth_spectrum"]

import itertools
import json
import math
import os
from dataclasses import dataclass

import numpy as np

from .core import EffHamiltonian, is_ep, observables, radicand
from .errors import (
    DataError,
    InvalidArgumentError,
    OutOfBoundsError,
    PoleOnGridError,
)

TWO_PI = 2.0 * math.pi

# CSV column layout for spectrum files, one row per frequency
CSV_HEADER = "f_MHz,reS11,imS11,reS12,imS12,reS21,imS21,reS22,imS22"

_ROW_BLOCK = 1024      # CSV rows formatted at once: the formatter holds
                       # about 300 bytes a value, 2.7 MB for 1024 rows x 9


def _write_table(path, schema, config_hash, header, columns):
    """Write equal-length columns as a CSV: schema tag and config hash
    (each when given), header of column names, then one row per index.

    The bytes are the UTF-8 of a per-row ",".join of "%.17g" floats and "%s"
    texts (a lone surrogate backslash-escaped; no NUL in a text), though
    _format_g17 formats a block of rows at a time, one block held at once.
    """
    n = len(columns[0])
    with open(path, "wb") as fh:
        if schema is not None:
            fh.write(f"# schema={schema}\n".encode())
        if config_hash is not None:
            fh.write(f"# config_hash={config_hash}\n".encode())
        fh.write((",".join(header) + "\n").encode())
        for start in range(0, n, _ROW_BLOCK):
            fh.write(_rows_text([col[start:start + _ROW_BLOCK]
                                 for col in columns]))


def _rows_text(columns):
    """The CSV rows of equal-length columns, as bytes: every field is laid
    out NUL-padded to a fixed width with its separator, and the NULs are
    dropped."""
    rows = len(columns[0])
    floats = [col for col in columns if col.dtype != object]
    fields = iter(_format_g17(np.stack(floats, axis=1)).reshape(
        rows, len(floats), _FIELD).transpose(1, 0, 2) if floats else ())
    parts = []
    for k, col in enumerate(columns):
        sep = "\n" if k == len(columns) - 1 else ","
        if col.dtype == object:
            parts.append(np.array([(str(v) + sep).encode(
                "utf-8", "backslashreplace") for v in col])
                         .view(np.uint8).reshape(rows, -1))
        else:
            parts.append(next(fields))
            parts[-1][:, -1] = ord(sep)
    return np.concatenate(parts, axis=1).tobytes().translate(None, b"\0")


def _read_table(path, header, schema=None, status=False):
    """The data rows of a CSV with column names header, as the float array
    of one np.loadtxt call; with status, its numbers and an object array of
    its last column, "ok" or "failed:<reason>", one string per distinct
    text. With schema, the first line must be its tag. "#" comment and blank
    lines may stand anywhere; DataError naming path unless the first other
    line is the header and data rows follow, each (counted from 1) with
    header's field count, a valid status and fields that parse."""
    def rows(lines, start=0):         # (index, line) that numpy reads as rows
        return ((k, line) for k, line in enumerate(lines, start)
                if line.partition("#")[0].rstrip("\n"))

    width = len(header)
    with open(path, encoding="utf-8", errors="replace") as fh:
        if schema and fh.readline().strip() != f"# schema={schema}":
            raise DataError(f"{path} does not carry schema {schema}")
        lines = rows(fh, bool(schema))
        head = next(lines, (0, ""))[1].partition("#")[0].strip()
        skip = next(lines, (None,))[0]
    if head not in ("", ",".join(header)):
        raise DataError(f"{path}: expected the header {','.join(header)!r}, "
                        f"found {head!r}")
    if skip is None:
        raise DataError(f"{path} has no data rows")
    codes, calls = {}, itertools.count(1)

    def code(text):                   # called once per data row, in order
        row = next(calls)
        if text != "ok" and not (text.startswith("failed:") and text[7:]):
            raise DataError(f"{path}: data row {row} has status {text!r}, "
                            f"expected ok or failed:<reason>")
        return codes.setdefault(text, len(codes))

    try:
        table = np.loadtxt(path, delimiter=",", skiprows=skip, ndmin=2,
                           encoding="utf-8",
                           converters={-1: code} if status else None)
        if table.shape[1] != width:   # every row: the scan below names one
            raise ValueError(f"rows of {table.shape[1]} fields")
    except ValueError as exc:         # also text that is not UTF-8
        if isinstance(exc.__cause__, DataError):   # a status, numpy-wrapped
            raise exc.__cause__
        with open(path, encoding="utf-8", errors="replace") as fh:
            data = [line.partition("#")[0].split(",")
                    for k, line in rows(fh) if k >= skip]
        for row, fields in enumerate(data, 1):
            if len(fields) != width:
                raise DataError(f"{path}: data row {row} has {len(fields)} "
                                f"fields, expected {width}")
            try:
                np.array(fields[:width - status], dtype=float)
            except ValueError as err:         # names the text
                raise DataError(f"{path}: data row {row}: {err}")
        raise DataError(f"{path}: {exc}")
    if not status:
        return table
    texts = np.array(list(codes), dtype=object)
    return table[:, :-1], texts[table[:, -1].astype(np.intp)]


# "%.17g" in array operations. A finite nonzero x is formatted from the
# 17-digit integer n = round(|x| * 10**(16 - X)), X its decimal exponent:
# the product is taken in double-double arithmetic against a table of
# powers of ten, rounded half to even, and its digits laid out in a field
# by X. Bytes "%.17g" has no character for are NUL. A value outside the
# table, NaN, +-inf, a subnormal, or one whose rounding the product's error
# could flip is formatted by "%" itself.

_FIELD = 32            # bytes of a field; the widest "%.17g" text is 24
_X_LIM = 150           # |x| in [10**-_X_LIM, 10**_X_LIM) takes the kernel
_X_TAB = _X_LIM + 2    # table rows cover X in [-_X_TAB, _X_TAB]
_HALF_MARGIN = 2.0 ** -40   # above the scaled value's error, < 2**-47
_SPLIT = 134217729.0   # 2**27 + 1, Veltkamp's splitting factor
_D0 = 7                # byte of the leading digit

# Field bytes: 0 sign, 1-5 "0." and the zeros of a fixed form below 1,
# 7-23 the 17 digits (A), 8-24 the same digits one byte later (B), the point
# between A's digits and B's, 25-29 "e+123"; byte 31 is left for the
# separator. A layout shows A up to the point and B after it.


def _ten_table():
    """10**(16 - X) for each table row as hi + lo: hi the rounded double,
    lo the rounded rest (0 when hi is exact), from Python's correctly
    rounded int division; and hi's Veltkamp halves."""
    hi, lo = [], []
    for x in range(-_X_TAB, _X_TAB + 1):
        num, den = (10 ** (16 - x), 1) if x <= 16 else (1, 10 ** (x - 16))
        h = num / den
        hn, hd = h.as_integer_ratio()
        hi.append(h)
        lo.append((num * hd - hn * den) / (den * hd))
    hi = np.array(hi)
    c = hi * _SPLIT
    hh = c - (c - hi)
    return hi, np.array(lo), hh, hi - hh


def _layout_tables():
    """The field's constant bytes and the digit bytes it keeps, per layout
    = 18 * form + significant digits (1-17), form X + 4 for the fixed form
    (-4 <= X <= 16) and 21 for the exponent form; per table row its form
    and its exponent text in the field's last word."""
    ints = np.ones(22, np.int64)             # integer digits of each form
    shown = np.zeros((2, 22, _FIELD), bool)  # bytes of A and of B shown
    const = np.zeros((22, _FIELD), np.uint8)
    point = np.zeros((22, _FIELD), np.uint8)
    for form in range(22):
        x = form - 4 if form < 21 else 0
        if x < 0:                            # "0.", zeros, then all of A
            shown[0, form, _D0:_D0 + 17] = True
            prefix = b"0." + b"0" * (-x - 1)
            const[form, 1:1 + len(prefix)] = list(prefix)
            ints[form] = 0
        else:                                # x + 1 digits of A, point, B
            shown[0, form, _D0:_D0 + x + 1] = True
            shown[1, form, _D0 + x + 2:_D0 + 18] = True
            point[form, _D0 + x + 1] = ord(".")
            ints[form] = x + 1
    # trailing zeros are shown only before the point
    kept = np.maximum(np.arange(18), ints[:, None])[..., None]
    at = np.arange(_FIELD)
    masks = np.stack([shown[0][:, None] & (at >= _D0) & (at < _D0 + kept),
                      shown[1][:, None] & (at > _D0) & (at <= _D0 + kept)])
    masks = (masks * np.uint8(255)).reshape(2, -1, _FIELD).view("<u8")
    const = const[:, None] | point[:, None] * (kept > ints[:, None, None])
    x = np.arange(-_X_TAB, _X_TAB + 1)
    mag = np.abs(x)
    exponent = (ord("e") << 8 | np.where(x < 0, 45, 43) << 16
                | np.where(mag >= 100, 48 + mag // 100, 0) << 24
                | (48 + mag // 10 % 10) << 32 | (48 + mag % 10) << 40)
    fixed = (x >= -4) & (x <= 16)
    return (np.where(fixed, x + 4, 21) * 18,
            np.where(fixed, 0, exponent).astype(np.uint64),
            const.reshape(-1, _FIELD).view("<u8"),
            np.ascontiguousarray(np.concatenate(
                [masks[0, :, 1:3], masks[1, :, 1:4]], axis=1).T))


_TEN_HI, _TEN_LO, _TEN_HH, _TEN_HL = _ten_table()
_FORM, _EXPONENT, _CONST, _MASKS = _layout_tables()
_TEN = np.arange(10)
# per four-digit group 0000-9999: its text as a word, and its trailing zeros
_QUAD_TEXT = ((48 + _TEN[:, None, None, None]) | (48 + _TEN[:, None, None]) << 8
              | (48 + _TEN[:, None]) << 16 | (48 + _TEN) << 24
              ).ravel().astype(np.uint64)
_QUAD_ZEROS = ((_TEN == 0) * (1 + (_TEN[:, None] == 0) * (
    1 + (_TEN[:, None, None] == 0) * (1 + (_TEN[:, None, None, None] == 0))))
    ).ravel().astype(np.int64)
del _TEN


def _scaled(a, row):
    """a * 10**(16 - X) as p + tail: p the rounded product, tail its
    error by Dekker's exact product plus a * lo; and whether p + tail is
    exact (lo is 0)."""
    hh, hl, lo = _TEN_HH.take(row), _TEN_HL.take(row), _TEN_LO.take(row)
    p = a * _TEN_HI.take(row)
    c = a * _SPLIT
    ah = c - (c - a)
    al = a - ah
    tail = ah * hh - p
    tail += ah * hl
    tail += al * hh
    tail += al * hl
    tail += a * lo
    return p, tail, lo == 0


def _format_g17(values):
    """The "%.17g" text of each value, as rows of _FIELD bytes padded with
    NULs; the last byte of each row is NUL."""
    x = np.asarray(values, dtype=float).ravel()
    a = np.abs(x)
    fast = (a >= 10.0 ** -_X_LIM) & (a < 10.0 ** _X_LIM)
    zero = a == 0
    a[~fast] = 1.0                        # formatted as 1, then replaced
    # X of the unrounded value: log10's estimate, corrected by the product
    row = np.floor(np.log10(a)).astype(np.int64) + _X_TAB
    p, tail, exact = _scaled(a, row)
    low = (p < 1e16) | ((p == 1e16) & (tail < 0))
    high = (p > 1e17) | ((p == 1e17) & (tail >= 0))
    fix = np.flatnonzero(low | high)
    if fix.size:
        row[fix] += high[fix].astype(np.int64) - low[fix]
        p[fix], tail[fix], exact[fix] = _scaled(a[fix], row[fix])
    # round half to even; near a half only an exact product decides
    whole = np.floor(tail)
    frac = tail - whole
    n = p.astype(np.int64) + whole.astype(np.int64)
    n += (frac > 0.5) | ((frac == 0.5) & ((n & 1) == 1))
    fast &= exact | (np.abs(frac - 0.5) > _HALF_MARGIN)
    carry = n == 10 ** 17
    n[carry] = 10 ** 16
    row += carry
    fast &= (n >= 10 ** 16) & (n < 10 ** 17)       # 17 digits, as proven

    # the digits: the leading one, then four groups of four by table
    lead = n // 10 ** 16
    n -= lead * 10 ** 16
    high8 = n // 10 ** 8
    low8 = n - high8 * 10 ** 8
    q1, q3 = high8 // 10 ** 4, low8 // 10 ** 4
    q2, q4 = high8 - q1 * 10 ** 4, low8 - q3 * 10 ** 4
    z1, z2, z3, z4 = (_QUAD_ZEROS.take(q) for q in (q1, q2, q3, q4))
    zeros = z4 + (z4 == 4) * (z3 + (z3 == 4) * (z2 + (z2 == 4) * z1))
    layout = _FORM.take(row) + 17 - zeros
    hi8 = _QUAD_TEXT.take(q1) | _QUAD_TEXT.take(q2) << np.uint64(32)
    lo8 = _QUAD_TEXT.take(q3) | _QUAD_TEXT.take(q4) << np.uint64(32)
    d0 = (48 + lead - zero).astype(np.uint64)        # a zero's "1" is "0"

    # the shown bytes of A and B, over the layout's constant bytes
    a1, a2, b1, b2, b3 = (mask.take(layout) for mask in _MASKS)
    out = _CONST.take(layout, axis=0)
    out[:, 0] |= (d0 << np.uint64(56)
                  | np.signbit(x).astype(np.uint64) * np.uint64(ord("-")))
    out[:, 1] |= hi8 & a1 | hi8 << np.uint64(8) & b1
    out[:, 2] |= lo8 & a2 | (lo8 << np.uint64(8) | hi8 >> np.uint64(56)) & b2
    out[:, 3] |= lo8 >> np.uint64(56) & b3 | _EXPONENT.take(row)
    text = out.view(np.uint8)

    slow = np.flatnonzero(~(fast | zero))
    if slow.size:
        fallback = ("%.17g\0" * slow.size % tuple(x[slow].tolist())).encode()
        text[slow] = np.array(fallback.split(b"\0")[:-1], f"S{_FIELD}"
                              ).view(np.uint8).reshape(-1, _FIELD)
    return text


def _read_json(path, what):
    """The JSON object in a file; DataError if the file cannot be read, is
    not UTF-8 JSON, or holds anything but an object."""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise DataError(f"cannot read {what} {path!r}: {exc}")
    except ValueError as exc:          # bad JSON, or text that is not UTF-8
        raise DataError(f"{what} {path!r} is not valid JSON: {exc}")
    if not isinstance(doc, dict):
        raise DataError(f"{what} {path!r} must hold a JSON object")
    return doc


def _write_json(path, doc):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(doc, indent=2) + "\n")


class CouplingSet:
    """Real, frequency-independent channel couplings.

    w has one row per channel and one column per level; rows 0 and 1 are the
    antenna channels, any further rows are fictitious dissipative channels.
    """

    __slots__ = ("w",)

    def __init__(self, w):
        w = np.array(w, dtype=float)
        if w.ndim != 2 or w.shape[1] != 2:
            raise InvalidArgumentError(
                f"coupling matrix must be channels x 2, got shape {w.shape}")
        if w.shape[0] < 2:
            raise InvalidArgumentError("need at least the two antenna channels")
        if not np.all(np.isfinite(w)):
            raise InvalidArgumentError("coupling entries must be finite")
        w.flags.writeable = False
        self.w = w

    @property
    def channels(self):
        return self.w.shape[0]

    @property
    def antenna(self):
        """The 2x2 block of antenna rows."""
        return self.w[:2]

    def t_entries(self):
        """Entries (t00, t01, t11) of the symmetric channel sum W^T W."""
        t00 = float(self.w[:, 0] @ self.w[:, 0])
        t01 = float(self.w[:, 0] @ self.w[:, 1])
        t11 = float(self.w[:, 1] @ self.w[:, 1])
        return t00, t01, t11

    def __repr__(self):
        return f"CouplingSet(channels={self.channels})"


@dataclass(frozen=True)
class NoiseSpec:
    """Additive i.i.d. complex Gaussian noise, sigma per quadrature."""

    sigma: float = 0.0
    seed: int | None = None

    def __post_init__(self):
        if not (self.sigma >= 0.0 and math.isfinite(self.sigma)):
            raise InvalidArgumentError(f"sigma must be >= 0, got {self.sigma}")


class Spectrum:
    """Complex S-matrix samples on a uniform ascending frequency grid.

    s is a C-contiguous (4, n) array, one row per channel in the order
    S11, S12, S21, S22 (the CSV's and the fit's order); s11..s22 are views
    of its rows.
    """

    __slots__ = ("freqs", "s", "meta")

    def __init__(self, freqs, s, meta=None):
        freqs = np.array(freqs, dtype=float)
        s = np.array(s, dtype=complex, order="C")
        if freqs.ndim != 1 or s.shape != (4, freqs.size):
            raise InvalidArgumentError(
                f"shape mismatch: freqs {freqs.shape}, S {s.shape}")
        if not np.all(np.isfinite(freqs)):
            raise InvalidArgumentError("frequencies must be finite")
        if freqs.size >= 2:
            steps = np.diff(freqs)
            nominal = (freqs[-1] - freqs[0]) / (freqs.size - 1)
            if nominal <= 0 or np.any(steps <= 0):
                raise InvalidArgumentError("frequency grid must be ascending")
            if np.max(np.abs(steps - nominal)) > 1e-9 * nominal:
                raise InvalidArgumentError("frequency grid must be uniform")
        freqs.flags.writeable = False
        s.flags.writeable = False
        self.freqs = freqs
        self.s = s
        self.meta = dict(meta) if meta else {}

    @property
    def n_points(self):
        return self.freqs.size

    s11 = property(lambda self: self.s[0])
    s12 = property(lambda self: self.s[1])
    s21 = property(lambda self: self.s[2])
    s22 = property(lambda self: self.s[3])

    def write_csv(self, path):
        """Write the CSV file plus the JSON metadata sidecar."""
        parts = [part for row in self.s for part in (row.real, row.imag)]
        _write_table(path, None, None, CSV_HEADER.split(","),
                     [self.freqs] + parts)
        keys = ("s_mm", "delta_mm", "B_mT", "seed", "sigma", "config_hash")
        _write_json(_sidecar_path(path), {k: self.meta.get(k) for k in keys})


def _sidecar_path(csv_path):
    root, _ = os.path.splitext(str(csv_path))
    return root + ".json"


def read_spectrum(path):
    """Load a spectrum CSV (and its sidecar, when present); DataError if
    _read_table refuses its table, the table is not a spectrum (a
    non-finite, descending or uneven frequency grid), or its sidecar does
    not parse as a JSON object."""
    data = _read_table(path, CSV_HEADER.split(","))
    sidecar = _sidecar_path(path)
    meta = _read_json(sidecar, "sidecar") if os.path.exists(sidecar) else {}
    # each (Re, Im) column pair is one complex column, bit for bit
    try:
        return Spectrum(data[:, 0], data[:, 1:].view(complex).T, meta)
    except InvalidArgumentError as exc:
        raise DataError(f"{path}: {exc}")


# ------------------------------------------------------------ S-matrix kernel


def _resolvent(e1, e2, h1, h2, freqs):
    """Entries (g00, g01, g10, g11) of G = (f - H)^-1 on the grid."""
    m12 = h1 - 1j * h2
    m21 = h1 + 1j * h2
    a00 = freqs - e1
    a11 = freqs - e2
    det = a00 * a11 - m12 * m21
    if np.any(det == 0):
        raise PoleOnGridError("resolvent pole hit a grid frequency exactly")
    return a11 / det, m12 / det, m21 / det, a00 / det


def _sgrid(e1, e2, h1, h2, w00, w01, w10, w11, freqs):
    """Shared S-matrix kernel; broadcasts over freqs.

    e1, e2, h1, h2 describe the effective (already width-carrying) matrix;
    w00..w11 are the antenna coupling entries. All may be scalars or
    broadcast-compatible arrays. Returns (s11, s12, s21, s22). Op order is
    fixed: do not reorder terms, several tests pin bit-level reproducibility
    across call paths.
    """
    g00, g01, g10, g11 = _resolvent(e1, e2, h1, h2, freqs)
    c = TWO_PI * 1j
    s11 = 1.0 - c * (w00 * w00 * g00 + w00 * w01 * g01
                     + w01 * w00 * g10 + w01 * w01 * g11)
    s12 = -c * (w00 * w10 * g00 + w00 * w11 * g01
                + w01 * w10 * g10 + w01 * w11 * g11)
    s21 = s12 - c * ((w10 * w01 - w00 * w11) * (g01 - g10))
    s22 = 1.0 - c * (w10 * w10 * g00 + w10 * w11 * g01
                     + w11 * w10 * g10 + w11 * w11 * g11)
    return s11, s12, s21, s22


def effective_hamiltonian(ham, coupling):
    """Heff = Hint - i pi W^T W, with the channel sum over all rows.

    This is the exact arithmetic smatrix_at performs internally; fits that
    parametrize Heff directly reproduce generated spectra bit-exactly when
    seeded with this value.
    """
    t00, t01, t11 = coupling.t_entries()
    return EffHamiltonian(
        ham.e1 - 1j * (math.pi * t00),
        ham.e2 - 1j * (math.pi * t11),
        ham.h1 - 1j * (math.pi * t01),
        ham.h2,
    )


def smatrix_at(ham, coupling, f):
    """Evaluate the 2x2 S-matrix at one frequency.

    ham is the Hermitian internal Hamiltonian; the dissipative shift
    -i pi W^T W is applied here, never by the caller.
    """
    if not math.isfinite(f):
        raise InvalidArgumentError(f"frequency must be finite, got {f}")
    eff = effective_hamiltonian(ham, coupling)
    wa = coupling.antenna
    return np.reshape(_sgrid(eff.e1, eff.e2, eff.h1, eff.h2,
                             wa[0, 0], wa[0, 1], wa[1, 0], wa[1, 1],
                             np.array([float(f)])), (2, 2))


def frequency_grid(f0, span, step):
    """Uniform grid centered on f0: round(span/step)+1 points."""
    if not (span > 0 and step > 0
            and all(map(math.isfinite, (f0, span, step)))):
        raise InvalidArgumentError(f"f0, span and step must be finite and "
                                   f"span, step > 0; got {f0}, {span}, {step}")
    n = int(round(span / step)) + 1
    if n > 10_000_001:
        raise InvalidArgumentError(f"grid of {n} points exceeds the 1e7 cap")
    return (f0 - 0.5 * span) + np.arange(n) * step


def synth_spectrum(ham, coupling, f0, span, step, noise=None, meta=None):
    """Sample the S-matrix on a grid, optionally adding measurement noise.

    With noise.sigma = 0 (or noise None) the result equals smatrix_at at
    every grid point bit-exactly. Identical inputs and seed give bit-identical
    spectra.
    """
    freqs = frequency_grid(f0, span, step)
    eff = effective_hamiltonian(ham, coupling)
    wa = coupling.antenna
    s = np.array(_sgrid(eff.e1, eff.e2, eff.h1, eff.h2,
                        wa[0, 0], wa[0, 1], wa[1, 0], wa[1, 1], freqs))
    full_meta = dict(meta) if meta else {}
    if noise is not None and noise.sigma > 0.0:
        # drawn frequency by frequency, S11..S22 at each
        rng = np.random.default_rng(noise.seed)
        s = s + noise.sigma * (rng.standard_normal(s.shape[::-1]).T
                               + 1j * rng.standard_normal(s.shape[::-1]).T)
        full_meta.setdefault("sigma", noise.sigma)
        full_meta.setdefault("seed", noise.seed)
    else:
        full_meta.setdefault("sigma", 0.0)
        full_meta.setdefault("seed", noise.seed if noise else None)
    return Spectrum(freqs, s, full_meta)


# ----------------------------------------------------------- synthetic family


class SyntheticFamily:
    """Affine two-parameter Hamiltonian family with a planted EP.

    Hint(s, d) = fc I + sigma . g(s, d) with real
    g(s, d) = g0 + gs (s - s*) + gd (d - d*), and a constant imaginary Pauli
    vector m entering Heff = Hint - i pi W^T W = (fc - i gamma0) I
    + sigma . (g + i m). At (s*, d*): |g0| = |m|, g0 . m = 0, both exactly,
    so the radicand vanishes to the last bit.
    """

    __slots__ = ("name", "description", "b_mt", "fc", "gamma0", "s_ep",
                 "delta_ep", "bounds_s", "bounds_delta", "g0", "gs", "gd", "m",
                 "coupling", "spectrum_defaults")

    def __init__(self, name, description, b_mt, fc, gamma0, s_ep, delta_ep,
                 bounds_s, bounds_delta, g0, gs, gd, m, coupling,
                 spectrum_defaults):
        self.name = name
        self.description = description
        self.b_mt = float(b_mt)
        self.fc = float(fc)
        self.gamma0 = float(gamma0)
        self.s_ep = float(s_ep)
        self.delta_ep = float(delta_ep)
        self.bounds_s = (float(bounds_s[0]), float(bounds_s[1]))
        self.bounds_delta = (float(bounds_delta[0]), float(bounds_delta[1]))
        for label, vec in (("g0", g0), ("gs", gs), ("gd", gd), ("m", m)):
            vec = np.array(vec, dtype=float)
            if vec.shape != (3,) or not np.all(np.isfinite(vec)):
                raise DataError(f"family vector {label} must be 3 finite reals")
            vec.flags.writeable = False
            setattr(self, label, vec)
        self.coupling = coupling
        self.spectrum_defaults = dict(spectrum_defaults)

    def contains(self, s, delta):
        """Inside the bounds; elementwise for arrays of points."""
        return ((self.bounds_s[0] <= s) & (s <= self.bounds_s[1])
                & (self.bounds_delta[0] <= delta)
                & (delta <= self.bounds_delta[1]))

    def _check_bounds(self, s, delta):
        if not self.contains(s, delta):
            raise OutOfBoundsError(
                f"(s, delta) = ({s}, {delta}) mm outside family bounds "
                f"s in {self.bounds_s}, delta in {self.bounds_delta}")

    def _entries(self, s, delta):
        """(real, imaginary) parts of e1, e2, h1, h2; elementwise for arrays.

        The one body of the family's formula, shared by h_at, h_grid and
        internal_at so that all three give the same bits.
        """
        g = [self.g0[k] + self.gs[k] * (s - self.s_ep)
             + self.gd[k] * (delta - self.delta_ep) for k in range(3)]
        return ((self.fc + g[2], -self.gamma0 + self.m[2]),
                (self.fc - g[2], -self.gamma0 - self.m[2]),
                (g[0], self.m[0]), (g[1], self.m[1]))

    def h_at(self, s, delta):
        """Effective (width-carrying) Hamiltonian at one parameter point."""
        self._check_bounds(s, delta)
        return EffHamiltonian(*(complex(re, im)
                                for re, im in self._entries(s, delta)))

    def h_grid(self, s, delta):
        """Entries (e1, e2, h1, h2) of h_at over arrays of points.

        No bounds check (mask with contains).
        """
        entries = self._entries(np.asarray(s, dtype=float),
                                np.asarray(delta, dtype=float))
        out = []
        for re, im in entries:
            z = np.empty(np.shape(re), dtype=complex)
            z.real = re
            z.imag = im
            out.append(z)
        return tuple(out)

    def internal_at(self, s, delta):
        """Hermitian closed-cavity Hamiltonian (pass to smatrix_at)."""
        self._check_bounds(s, delta)
        return EffHamiltonian(*(complex(re)
                                for re, _ in self._entries(s, delta)))

    def tau_profile(self, s, delta):
        """Reciprocity-violation angle of the local effective matrix."""
        ham = self.h_at(s, delta)
        obs = observables(ham.e1, ham.e2, ham.h1, ham.h2)
        obs.raise_first_failure()
        return float(obs.tau)

    def __repr__(self):
        return (f"SyntheticFamily({self.name!r}, B={self.b_mt} mT, "
                f"EP=({self.s_ep}, {self.delta_ep}) mm)")


def _validate_family(fam):
    # coupling must reproduce the declared width parameters
    p = (fam.gamma0 - fam.m[2]) / math.pi
    r = (fam.gamma0 + fam.m[2]) / math.pi
    q = -fam.m[0] / math.pi
    t00, t01, t11 = fam.coupling.t_entries()
    err = max(abs(t00 - p), abs(t01 - q), abs(t11 - r))
    if err > 1e-12:
        raise DataError(f"family {fam.name!r}: W^T W deviates from the "
                        f"declared widths by {err:.3e}")
    if fam.m[1] != 0.0:
        raise DataError(f"family {fam.name!r}: m2 must be 0 (real coupling)")
    # the EP must be planted exactly
    rad = radicand(fam.h_at(fam.s_ep, fam.delta_ep))
    if rad.d != 0 or not is_ep(fam.h_at(fam.s_ep, fam.delta_ep)):
        raise DataError(f"family {fam.name!r}: radicand at the declared EP "
                        f"is {rad.d!r}, not an exact zero")
    # direct Heff must agree with the smatrix_at construction
    probe = (fam.bounds_s[0], fam.bounds_delta[1])
    direct = fam.h_at(*probe)
    built = effective_hamiltonian(fam.internal_at(*probe), fam.coupling)
    gap = max(abs(direct.e1 - built.e1), abs(direct.e2 - built.e2),
              abs(direct.h1 - built.h1), abs(direct.h2 - built.h2))
    if gap > 1e-10:
        raise DataError(f"family {fam.name!r}: affine coefficients and "
                        f"couplings disagree by {gap:.3e}")
    if not fam.contains(fam.s_ep, fam.delta_ep):
        raise DataError(f"family {fam.name!r}: EP outside declared bounds")


def load_family(source):
    """Load a family preset by name ("b38", "b0") or from a JSON file path."""
    if isinstance(source, str) and source.lower() in ("b38", "b0"):
        source = os.path.join(os.path.dirname(__file__), "presets",
                              f"{source.lower()}.json")
    doc = _read_json(source, "family preset")
    if doc.get("schema") != "eplab.family.v1":
        raise DataError(f"family preset {source!r}: unsupported schema "
                        f"{doc.get('schema')!r}")
    try:
        spectrum = {key: float(doc["spectrum"][key]) for key in
                    ("f_center_mhz", "span_mhz", "step_mhz")}
        if not all(map(math.isfinite, spectrum.values())):
            raise ValueError(f"spectrum values {spectrum} must be finite")
        fam = SyntheticFamily(
            name=doc["name"],
            description=doc.get("description", ""),
            b_mt=doc["b_mt"],
            fc=doc["fc_mhz"],
            gamma0=doc["gamma0_mhz"],
            s_ep=doc["ep"]["s_mm"],
            delta_ep=doc["ep"]["delta_mm"],
            bounds_s=doc["bounds"]["s_mm"],
            bounds_delta=doc["bounds"]["delta_mm"],
            g0=doc["g0"], gs=doc["gs"], gd=doc["gd"], m=doc["m"],
            coupling=CouplingSet(doc["w"]),
            spectrum_defaults=spectrum,
        )
    except (IndexError, KeyError, TypeError, ValueError) as exc:
        raise DataError(f"family preset {source!r}: malformed field {exc!r}")
    _validate_family(fam)
    return fam
