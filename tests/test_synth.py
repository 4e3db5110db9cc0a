"""Forward model: S-matrix kernel, noise, presets, spectrum file format.

The one-level reflection oracle used below was derived by hand before the
implementation: one antenna (w) and one dissipative channel (d) on a single
level at f1 give

    S11(f) = (f - f1 + i pi (d^2 - w^2)) / (f - f1 + i pi (w^2 + d^2)),

so the dip depth is 1 - ((w^2-d^2)/(w^2+d^2))^2 and the full width at half
depth is exactly Gamma_tot = 2 pi (w^2 + d^2).
"""

import hashlib
import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from eplab import (
    CSV_HEADER,
    CouplingSet,
    DataError,
    InvalidArgumentError,
    NoiseSpec,
    OutOfBoundsError,
    PoleOnGridError,
    Spectrum,
    effective_hamiltonian,
    frequency_grid,
    from_pauli,
    is_ep,
    load_family,
    radicand,
    read_spectrum,
    smatrix_at,
    synth_spectrum,
)
from eplab.synth import _ROW_BLOCK, _write_table

# one-level Breit-Wigner setup shared by several tests
BW_W, BW_D = 0.2, 0.3
BW_F1 = 2725.0
BW_GAMMA_TOT = 2 * math.pi * (BW_W**2 + BW_D**2)   # 0.8168140899333462
BW_MIN_DEPTH = 25.0 / 169.0                        # ((d^2-w^2)/(d^2+w^2))^2


def _bw_parts():
    coupling = CouplingSet([[BW_W, 0.0], [0.0, 0.0], [BW_D, 0.0]])
    ham = from_pauli(BW_F1, BW_F1 - 300.0, 0.0, 0.0)   # partner level far away
    return ham, coupling


# ------------------------------------------------------------------ couplings


def test_coupling_validation():
    with pytest.raises(InvalidArgumentError):
        CouplingSet(np.zeros((2, 3)))
    with pytest.raises(InvalidArgumentError):
        CouplingSet(np.zeros((1, 2)))
    with pytest.raises(InvalidArgumentError):
        CouplingSet([[0.0, float("inf")], [0.0, 0.0]])
    c = CouplingSet(np.arange(8.0).reshape(4, 2))
    assert c.channels == 4
    assert c.antenna.shape == (2, 2)
    assert not c.w.flags.writeable


def test_coupling_t_entries():
    c = CouplingSet([[1.0, 2.0], [3.0, 4.0], [0.5, -0.5]])
    t00, t01, t11 = c.t_entries()
    assert t00 == 1 + 9 + 0.25
    assert t01 == 2 + 12 - 0.25
    assert t11 == 4 + 16 + 0.25


# ------------------------------------------------------------- kernel oracles


def test_smatrix_identity_when_decoupled():
    ham = from_pauli(2725.0, 2720.0, 1.0, 0.5)
    coupling = CouplingSet(np.zeros((2, 2)))
    for f in (2700.0, 2725.0, 2722.5):
        assert np.array_equal(smatrix_at(ham, coupling, f), np.eye(2))


def test_breit_wigner_depth():
    ham, coupling = _bw_parts()
    s = smatrix_at(ham, coupling, BW_F1)
    assert abs(s[0, 0]) ** 2 == pytest.approx(BW_MIN_DEPTH, abs=1e-13)
    # the second antenna is decoupled
    assert s[0, 1] == 0 and s[1, 0] == 0 and s[1, 1] == 1


def test_breit_wigner_full_width_at_half_depth():
    # no grid search: evaluate exactly at f1 +- Gamma_tot/2
    ham, coupling = _bw_parts()
    half = 0.5 * (1.0 + BW_MIN_DEPTH)
    for sgn in (1.0, -1.0):
        s = smatrix_at(ham, coupling, BW_F1 + sgn * BW_GAMMA_TOT / 2)
        assert abs(abs(s[0, 0]) ** 2 - half) < 1e-12


def test_breit_wigner_lorentzian_profile():
    ham, coupling = _bw_parts()
    a = math.pi * (BW_D**2 - BW_W**2)
    b = math.pi * (BW_D**2 + BW_W**2)
    for df in (-3.0, -0.7, 0.05, 1.3, 8.0):
        s = smatrix_at(ham, coupling, BW_F1 + df)
        want = (df * df + a * a) / (df * df + b * b)
        assert abs(abs(s[0, 0]) ** 2 - want) < 1e-12


def test_pole_on_grid_raises():
    ham = from_pauli(2725.0, 2730.0, 0.0, 0.0)
    coupling = CouplingSet(np.zeros((2, 2)))   # no widths: real poles
    with pytest.raises(PoleOnGridError):
        smatrix_at(ham, coupling, 2725.0)
    with pytest.raises(PoleOnGridError):
        synth_spectrum(ham, coupling, 2725.0, 2.0, 0.5)


def test_nonfinite_frequency_rejected():
    ham, coupling = _bw_parts()
    with pytest.raises(InvalidArgumentError):
        smatrix_at(ham, coupling, float("nan"))


# ----------------------------------------------------------------- grid/noise


def test_default_grid_has_4001_points():
    freqs = frequency_grid(2725.0, 40.0, 0.01)
    assert freqs.size == 4001
    assert freqs[0] == 2705.0 and freqs[-1] == pytest.approx(2745.0, abs=1e-9)
    steps = np.diff(freqs)
    assert np.max(np.abs(steps - 0.01)) <= 1e-9 * 0.01


def test_grid_validation():
    with pytest.raises(InvalidArgumentError):
        frequency_grid(2725.0, -1.0, 0.01)
    with pytest.raises(InvalidArgumentError):
        frequency_grid(2725.0, 40.0, 0.0)
    with pytest.raises(InvalidArgumentError):
        frequency_grid(2725.0, 200.0, 1e-8)


def test_noiseless_grid_matches_pointwise_bitexact():
    fam = load_family("b38")
    spec = synth_spectrum(fam.internal_at(1.9, 41.9), fam.coupling,
                          2725.0, 40.0, 0.01)
    for k in (0, 777, 2000, 4000):
        pt = smatrix_at(fam.internal_at(1.9, 41.9), fam.coupling,
                        spec.freqs[k])
        assert np.array_equal(pt, spec.s[:, k].reshape(2, 2))


def test_noise_statistics():
    fam = load_family("b38")
    ham, coupling = fam.internal_at(1.9, 41.9), fam.coupling
    clean = synth_spectrum(ham, coupling, 2725.0, 40.0, 0.01)
    noisy = synth_spectrum(ham, coupling, 2725.0, 40.0, 0.01,
                           noise=NoiseSpec(sigma=0.01, seed=5))
    resid = (noisy.s - clean.s).ravel()
    assert abs(np.std(resid.real) - 0.01) < 0.0005
    assert abs(np.std(resid.imag) - 0.01) < 0.0005
    assert abs(np.mean(resid.real)) < 5 * 0.01 / math.sqrt(resid.size)


def test_noise_determinism_and_seed_sensitivity():
    fam = load_family("b0")
    args = (fam.internal_at(1.8, 41.3), fam.coupling, 2725.0, 4.0, 0.01)
    a = synth_spectrum(*args, noise=NoiseSpec(0.01, seed=42))
    b = synth_spectrum(*args, noise=NoiseSpec(0.01, seed=42))
    c = synth_spectrum(*args, noise=NoiseSpec(0.01, seed=43))
    assert np.array_equal(a.s, b.s)
    assert not np.array_equal(a.s, c.s)


def test_sigma_zero_is_skipped_entirely():
    fam = load_family("b0")
    args = (fam.internal_at(1.8, 41.3), fam.coupling, 2725.0, 4.0, 0.01)
    a = synth_spectrum(*args)
    b = synth_spectrum(*args, noise=NoiseSpec(0.0, seed=42))
    assert np.array_equal(a.s, b.s)


def test_spectrum_validation():
    s = np.zeros((4, 3), dtype=complex)
    with pytest.raises(InvalidArgumentError):
        Spectrum([1.0, 2.0, 2.5], s)          # nonuniform
    with pytest.raises(InvalidArgumentError):
        Spectrum([3.0, 2.0, 1.0], s)          # descending
    with pytest.raises(InvalidArgumentError):
        Spectrum([1.0, 2.0], s)               # shape mismatch


@pytest.mark.parametrize("k, value", [(100, np.nan), (-1, np.inf),
                                      (0, -np.inf)])
def test_spectrum_refuses_a_non_finite_frequency(tmp_path, k, value):
    fam = load_family("b38")
    spec = synth_spectrum(fam.internal_at(1.72, 41.78), fam.coupling,
                          2725.0, 40.0, 0.01)
    freqs = spec.freqs.copy()
    freqs[k] = value
    with warnings.catch_warnings():
        warnings.simplefilter("error")        # refused before any arithmetic
        with pytest.raises(InvalidArgumentError, match="finite"):
            Spectrum(freqs, spec.s)
    path = tmp_path / "point.csv"
    spec.write_csv(path)
    lines = path.read_text().splitlines()
    line = k + 1 if k >= 0 else k             # after the header
    lines[line] = "%.17g" % value + lines[line][lines[line].index(","):]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(DataError, match="point.csv: frequencies must be"):
        read_spectrum(path)


# -------------------------------------------------------------------- presets


@pytest.mark.parametrize("name,s_ep,delta_ep", [("b38", 1.72, 41.78),
                                                ("b0", 1.68, 41.19)])
def test_family_ep_planted_exactly(name, s_ep, delta_ep):
    fam = load_family(name)
    assert (fam.s_ep, fam.delta_ep) == (s_ep, delta_ep)
    ham = fam.h_at(s_ep, delta_ep)
    rad = radicand(ham)
    assert rad.d == 0j         # to the last bit, by construction
    assert is_ep(ham)


def test_b0_family_is_t_invariant():
    fam = load_family("b0")
    for s, delta in [(1.68, 41.19), (1.5, 41.0), (1.95, 41.45)]:
        assert fam.h_at(s, delta).h2 == 0
        assert fam.tau_profile(s, delta) == 0.0


def test_b38_family_breaks_reciprocity():
    fam = load_family("b38")
    tau = fam.tau_profile(1.72, 41.78)
    assert abs(tau) > 0.1
    spec = synth_spectrum(fam.internal_at(1.9, 41.9), fam.coupling,
                          2725.0, 40.0, 0.01)
    assert np.max(np.abs(spec.s12 - spec.s21)) > 1e-3


def test_b0_reciprocity_bitexact_on_grid():
    fam = load_family("b0")
    spec = synth_spectrum(fam.internal_at(1.8, 41.3), fam.coupling,
                          2725.0, 40.0, 0.01)
    assert np.array_equal(spec.s12, spec.s21)


def test_family_entries_affine_in_parameters():
    fam = load_family("b38")
    # second differences of every matrix entry vanish along both axes
    for axis in ("s", "delta"):
        pts = []
        for k in range(3):
            t = 0.08 * k
            args = (1.60 + t, 41.70) if axis == "s" else (1.70, 41.60 + t)
            pts.append(fam.h_at(*args))
        for attr in ("e1", "e2", "h1", "h2"):
            a, b, c = (getattr(p, attr) for p in pts)
            assert abs(a - 2 * b + c) < 1e-12


def test_family_bounds_enforced():
    fam = load_family("b38")
    with pytest.raises(OutOfBoundsError):
        fam.h_at(0.5, 41.78)
    with pytest.raises(OutOfBoundsError):
        fam.h_at(1.72, 45.0)
    with pytest.raises(OutOfBoundsError):
        fam.internal_at(1.72, 45.0)
    assert isinstance(fam.coupling, CouplingSet)
    assert is_ep(fam.h_at(1.72, 41.78))


def test_family_phase_dichotomy_along_curve():
    # on the planted curve (the diagonal), s > s_EP gives real shifted
    # eigenvalues (reh2 > imh2) and s < s_EP the conjugate pair
    for name in ("b38", "b0"):
        fam = load_family(name)
        for t in (-0.25, -0.1, 0.1, 0.25):
            rad = radicand(fam.h_at(fam.s_ep + t, fam.delta_ep + t))
            assert abs(rad.cross) <= 1e-12 * (rad.reh2 + rad.imh2)
            assert (rad.reh2 > rad.imh2) == (t > 0)


def test_family_effective_matches_internal_plus_couplings():
    for name in ("b38", "b0"):
        fam = load_family(name)
        for s, delta in [(fam.s_ep, fam.delta_ep),
                         (fam.s_ep - 0.2, fam.delta_ep + 0.1)]:
            direct = fam.h_at(s, delta)
            built = effective_hamiltonian(fam.internal_at(s, delta),
                                          fam.coupling)
            for attr in ("e1", "e2", "h1", "h2"):
                assert abs(getattr(direct, attr) - getattr(built, attr)) < 1e-12


def test_family_passivity_on_grid():
    for name in ("b38", "b0"):
        fam = load_family(name)
        for ds in (-0.3, 0.0, 0.3):
            for dd in (-0.3, 0.0, 0.3):
                spec = synth_spectrum(
                    fam.internal_at(fam.s_ep + ds, fam.delta_ep + dd),
                    fam.coupling, 2725.0, 40.0, 0.05)
                assert np.max(np.abs(spec.s11)) <= 1 + 1e-12
                assert np.max(np.abs(spec.s22)) <= 1 + 1e-12


def test_far_from_resonance_approaches_identity():
    fam = load_family("b38")
    spec = synth_spectrum(fam.internal_at(1.72, 41.78), fam.coupling,
                          2725.0, 40.0, 0.01)
    for k in (0, spec.n_points - 1):
        assert np.max(np.abs(spec.s[:, k] - np.eye(2).ravel())) < 0.05


def test_load_family_rejects_garbage(tmp_path):
    with pytest.raises(DataError):
        load_family(str(tmp_path / "missing.json"))
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(DataError):
        load_family(str(bad))
    doc = json.loads(
        importlib_read("b38"))
    doc["schema"] = "something.else"
    other = tmp_path / "schema.json"
    other.write_text(json.dumps(doc))
    with pytest.raises(DataError):
        load_family(str(other))
    # tampered coupling: W no longer reproduces the declared widths
    doc = json.loads(importlib_read("b38"))
    doc["w"][0][0] *= 1.01
    tampered = tmp_path / "tampered.json"
    tampered.write_text(json.dumps(doc))
    with pytest.raises(DataError):
        load_family(str(tampered))


def importlib_read(name):
    import importlib.resources
    return importlib.resources.files("eplab").joinpath(
        "presets", f"{name}.json").read_text()


def test_load_family_from_path_roundtrip(tmp_path):
    doc = json.loads(importlib_read("b0"))
    path = tmp_path / "copy.json"
    path.write_text(json.dumps(doc))
    fam = load_family(str(path))
    assert fam.name == "b0"
    assert fam.h_at(1.68, 41.19).h2 == 0


@pytest.mark.parametrize("name", ["b38", "b0"])
def test_every_preset_field_reaches_its_family(name):
    doc = json.loads(importlib_read(name))
    fam = load_family(name)
    # the preset fields no family attribute reads
    assert set(doc) - {"name", "b_mt", "fc_mhz", "gamma0_mhz", "ep", "bounds",
                       "g0", "gs", "gd", "m", "w", "spectrum"} == {
        "schema", "description", "antenna_fraction"}
    assert fam.name == doc["name"]
    scalars = (fam.b_mt, fam.fc, fam.gamma0, fam.s_ep, fam.delta_ep)
    assert scalars == (doc["b_mt"], doc["fc_mhz"], doc["gamma0_mhz"],
                       doc["ep"]["s_mm"], doc["ep"]["delta_mm"])
    assert all(type(x) is float for x in scalars)
    assert fam.bounds_s == tuple(doc["bounds"]["s_mm"])
    assert fam.bounds_delta == tuple(doc["bounds"]["delta_mm"])
    for key in ("g0", "gs", "gd", "m"):
        vec = getattr(fam, key)
        assert vec.dtype == float and vec.tolist() == doc[key]
        assert not vec.flags.writeable
    assert fam.coupling.w.tolist() == doc["w"]
    assert fam.spectrum_defaults == doc["spectrum"]


# ------------------------------------------------------------------- file I/O


def test_spectrum_csv_roundtrip(tmp_path):
    fam = load_family("b38")
    spec = synth_spectrum(fam.internal_at(1.9, 41.9), fam.coupling,
                          2725.0, 4.0, 0.01,
                          noise=NoiseSpec(0.005, seed=7),
                          meta={"s_mm": 1.9, "delta_mm": 41.9, "B_mT": 38.0})
    path = tmp_path / "point_s1.900_d41.900.csv"
    spec.write_csv(path)
    text = path.read_text()
    assert text.splitlines()[0] == CSV_HEADER
    back = read_spectrum(path)
    assert np.array_equal(back.freqs, spec.freqs)
    assert back.s.tobytes() == spec.s.tobytes()
    assert back.meta["s_mm"] == 1.9
    assert back.meta["delta_mm"] == 41.9
    assert back.meta["B_mT"] == 38.0
    assert back.meta["sigma"] == 0.005
    assert back.meta["seed"] == 7
    # sidecar sits next to the csv, named after the full stem
    assert (tmp_path / "point_s1.900_d41.900.json").exists()


@pytest.mark.parametrize("sidecar",
                         [b"{not json", b'{"s_mm": "\xff"}', b"[1, 2]"])
def test_read_spectrum_refuses_a_sidecar_that_is_not_json(tmp_path, sidecar):
    fam = load_family("b38")
    path = tmp_path / "point.csv"
    synth_spectrum(fam.internal_at(1.9, 41.9), fam.coupling,
                   2725.0, 4.0, 0.1).write_csv(path)
    (tmp_path / "point.json").write_bytes(sidecar)
    with pytest.raises(DataError, match="point.json"):
        read_spectrum(path)


@pytest.fixture
def spectrum_lines(tmp_path):
    """The lines of a small spectrum CSV, with its sidecar beside it."""
    fam = load_family("b38")
    path = tmp_path / "point.csv"
    synth_spectrum(fam.internal_at(1.9, 41.9), fam.coupling,
                   2725.0, 4.0, 0.5).write_csv(path)
    return path, path.read_text().splitlines(keepends=True)


@pytest.mark.parametrize("lines", [1, 0], ids=["header", "empty"])
def test_read_spectrum_refuses_a_file_with_no_data_rows(spectrum_lines,
                                                        lines):
    path, text = spectrum_lines
    path.write_text("".join(text[:lines]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")    # numpy's "input contained no data"
        with pytest.raises(DataError, match="point.csv has no data rows"):
            read_spectrum(path)


def test_read_spectrum_names_a_row_with_a_wrong_field_count(spectrum_lines):
    path, text = spectrum_lines
    text[4] = text[4].rstrip("\n") + ",0\n"           # the fourth data row
    path.write_text("".join(text))
    with pytest.raises(DataError, match="point.csv: data row 4 has 10 "
                                        "fields, expected 9") as info:
        read_spectrum(path)
    assert "usecols" not in str(info.value)
    # every data row one field short: the first is named
    path.write_text(text[0] + "".join(line.rsplit(",", 1)[0] + "\n"
                                      for line in text[1:]))
    with pytest.raises(DataError, match="data row 1 has 8 fields, expected 9"):
        read_spectrum(path)


def test_read_spectrum_refuses_a_file_without_its_header(spectrum_lines):
    path, text = spectrum_lines
    path.write_text("".join(text[1:]))
    with pytest.raises(DataError, match="point.csv: expected the header "
                                        "'f_MHz,reS11,"):
        read_spectrum(path)


def test_read_spectrum_names_a_field_that_does_not_parse(spectrum_lines):
    path, text = spectrum_lines
    text[3] = "abc" + text[3]                          # the third data row
    path.write_text("".join(text))
    with pytest.raises(DataError, match="point.csv: data row 3: could not "
                                        "convert string to float: 'abc2"):
        read_spectrum(path)


def test_read_spectrum_accepts_comment_lines_before_the_header(
        spectrum_lines):
    path, text = spectrum_lines
    spec = read_spectrum(path)
    path.write_text("# measured 2011\n\n# a,b,c\n" + "".join(text))
    back = read_spectrum(path)
    assert back.freqs.tobytes() == spec.freqs.tobytes()
    assert back.s.tobytes() == spec.s.tobytes()


# values the block formatter must get right, with their "%.17g" text
FORMAT_TRAPS = [
    (1e-12, "9.9999999999999998e-13"),        # exponent of the unrounded value
    (189225 / 2**18, "0.72183609008789062"),  # exact half, rounded to even
    (-0.0, "-0"),
    (1e16, "10000000000000000"),              # 17 integer digits, fixed form
    (1e17, "1e+17"),
    (float(np.nextafter(1e-4, 0)), "9.9999999999999991e-05"),
]


def test_spectrum_csv_bytes_match_per_row_format(tmp_path):
    # 4001 rows span more than one formatting block; magnitudes from 1e-12
    # up, a NaN, signed zeros and the formatter's traps exercise every
    # "%.17g" branch
    rng = np.random.default_rng(23)
    freqs = frequency_grid(2725.0, 40.0, 0.01)
    shape = (4, freqs.size)
    s = (rng.normal(size=shape) + 1j * rng.normal(size=shape)) \
        * 10.0 ** rng.integers(-12, 3, size=shape)
    s[1, 7] = complex(np.nan, -0.0)
    s[3, 8] = complex(-0.0, 0.0)
    for k, (value, text) in enumerate(FORMAT_TRAPS):
        assert "%.17g" % value == text
        s[k % 4, 9 + k] = complex(value, -value)
    spec = Spectrum(freqs, s)
    path = tmp_path / "golden.csv"
    spec.write_csv(path)

    rows = [CSV_HEADER]
    for k, f in enumerate(freqs):
        values = [f]
        for z in s[:, k]:
            values += [z.real, z.imag]
        rows.append(",".join("%.17g" % v for v in values))
    assert path.read_bytes() == ("\n".join(rows) + "\n").encode()


def test_noisy_spectrum_csv_bytes_are_pinned(tmp_path):
    # a fixed digest of a noisy b38 spectrum on the preset grid: the kernel,
    # the noise draw order and the number format all show in these bytes
    fam = load_family("b38")
    grid = fam.spectrum_defaults
    spec = synth_spectrum(fam.internal_at(1.72, 41.78), fam.coupling,
                          grid["f_center_mhz"], grid["span_mhz"],
                          grid["step_mhz"], noise=NoiseSpec(0.005, seed=3))
    path = tmp_path / "point.csv"
    spec.write_csv(path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == (
        "527e2362a7839ac6d5aea7aca7d26b3a2a6f2c9e62e6e79a4a8af01e0c7ca6c7")


def _float64s():
    """Any float64: drawn as a float, or as 64 bits (NaN payloads,
    subnormals and every exponent)."""
    return st.one_of(st.floats(), st.integers(0, 2**64 - 1).map(
        lambda bits: float(np.array(bits, np.uint64).view(np.float64))))


@settings(max_examples=100, deadline=None)
@given(values=st.lists(_float64s(), min_size=1, max_size=40),
       n_rows=st.integers(_ROW_BLOCK - 2, _ROW_BLOCK + 2),
       n_floats=st.integers(1, 4),
       texts=st.lists(st.one_of(
           st.integers(-10**20, 10**20),
           st.text(st.characters(blacklist_characters="\0"))),
           min_size=1, max_size=5),
       at=st.integers(0, 4))
@example(values=[0.0], n_rows=_ROW_BLOCK, n_floats=1, texts=["\ud800"], at=0)
def test_table_bytes_match_per_row_format(tmp_path_factory, values, n_rows,
                                          n_floats, texts, at):
    # float columns of the drawn values, cycled across a block boundary,
    # and one object column of ints and strings among them
    cells = np.resize(np.array(values), (n_floats, n_rows))
    columns = list(cells) + [np.resize(np.array(texts, dtype=object), n_rows)]
    columns.insert(min(at, n_floats), columns.pop())
    header = [f"c{k}" for k in range(len(columns))]
    path = tmp_path_factory.mktemp("table") / "table.csv"
    _write_table(path, "test.v1", "0123456789abcdef", header, columns)
    lines = ["# schema=test.v1", "# config_hash=0123456789abcdef",
             ",".join(header)]
    for row in zip(*columns):
        lines.append(",".join(
            "%s" % v if col.dtype == object else "%.17g" % v
            for v, col in zip(row, columns)))
    assert path.read_bytes() == ("\n".join(lines) + "\n").encode(
        "utf-8", "backslashreplace")


CHANNELS = ("s11", "s12", "s21", "s22")


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 30).flatmap(lambda n: st.lists(
    st.floats(allow_nan=False), min_size=8 * n, max_size=8 * n)))
def test_spectrum_csv_roundtrip_keeps_samples(tmp_path_factory, values):
    # a table of drawn samples is read, written and read again; every
    # channel keeps the drawn samples' bits, signed zeros and infinities
    # included, and the second file has the first's bytes
    columns = np.array(values).reshape(-1, 8).T
    n = columns.shape[1]
    freqs = frequency_grid(2725.0, 0.01 * (n - 1), 0.01)
    folder = tmp_path_factory.mktemp("spectrum")
    drawn, again = folder / "drawn.csv", folder / "again.csv"
    drawn.write_text(CSV_HEADER + "\n" + "".join(
        ",".join("%.17g" % v for v in row) + "\n"
        for row in zip(freqs, *columns)))
    spec = read_spectrum(drawn)
    for k, name in enumerate(CHANNELS):
        parts = getattr(spec, name).view(float)
        assert parts.tobytes() == columns[2 * k:2 * k + 2].T.tobytes()
    spec.write_csv(again)
    assert again.read_bytes() == drawn.read_bytes()
    back = read_spectrum(again)
    assert back.freqs.tobytes() == spec.freqs.tobytes()
    assert back.s.tobytes() == spec.s.tobytes()
    for name in CHANNELS:
        assert getattr(back, name).tobytes() == getattr(spec, name).tobytes()
