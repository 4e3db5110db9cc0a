"""Plane-analysis tests: grid scans, EP localization, contour traces, braids.

The synthetic families are the oracle throughout: the radicand zero is
planted at a known (s, delta), the zero contour of cross is the exact
diagonal through it, and the reciprocity angle along that curve comes from
the same closed form the scanner must reproduce.
"""

import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import eplab.epscan
from eplab import EffHamiltonian, SyntheticFamily, load_family, synth_spectrum
from eplab.cli import _read_table, main
from eplab.core import (
    eigenvalues_sorted,
    extract_tau,
    gauge_fix,
    pt_report,
    radicand,
)
from eplab.epscan import (
    BraidTrace,
    CurveTrace,
    EPLocation,
    ParamGrid,
    Permutation,
    ScanResult,
    braid,
    braid_loop,
    locate_ep,
    scan,
    trace_pt_curve,
)
from eplab.errors import (
    DataError,
    EplabError,
    EPOutsideWindowError,
    InvalidArgumentError,
    NoEPFoundError,
    NotOnPTCurveError,
    OutOfBoundsError,
    RefineLoopError,
    ScanQualityError,
)

B38_EP = (1.72, 41.78)
B0_EP = (1.68, 41.19)


def ep_window(ep, half=0.25, step=0.01):
    return ParamGrid(ep[0] - half, ep[0] + half,
                     ep[1] - half, ep[1] + half, step)


@pytest.fixture(scope="module")
def b38():
    return load_family("b38")


@pytest.fixture(scope="module")
def b0():
    return load_family("b0")


@pytest.fixture(scope="module")
def b38_scan(b38):
    return scan(ep_window(B38_EP), b38)


@pytest.fixture(scope="module")
def b0_scan(b0):
    return scan(ep_window(B0_EP), b0)


@pytest.fixture(scope="module")
def b38_trace(b38_scan):
    return trace_pt_curve(b38_scan, B38_EP)


# ------------------------------------------------------------------- grids


def test_param_grid_geometry():
    g = ParamGrid(1.0, 1.5, 40.0, 40.2, 0.1)
    assert g.shape == (6, 3)
    assert np.allclose(g.s_values, [1.0, 1.1, 1.2, 1.3, 1.4, 1.5])
    assert np.allclose(g.delta_values, [40.0, 40.1, 40.2])


def test_param_grid_validation():
    with pytest.raises(InvalidArgumentError):
        ParamGrid(1.0, 2.0, 40.0, 41.0, step=0.0)
    with pytest.raises(InvalidArgumentError):
        ParamGrid(2.0, 1.0, 40.0, 41.0)
    with pytest.raises(InvalidArgumentError):
        ParamGrid(0.0, 4000.0, 0.0, 4000.0, step=0.01)


# -------------------------------------------------------------------- scans


def test_family_scan_is_complete_and_exact(b38, b38_scan):
    assert b38_scan.family is b38
    assert b38_scan.n_failed == 0
    assert b38_scan.ok.shape == (51, 51)

    # spot-check one grid point against a direct evaluation
    i, j = 7, 31
    s = b38_scan.grid.s_values[i]
    d = b38_scan.grid.delta_values[j]
    ham = b38.h_at(s, d)
    pair = eigenvalues_sorted(ham)
    rad = radicand(ham)
    assert b38_scan.f1[i, j] == pair[0].real
    assert b38_scan.g1[i, j] == -2.0 * pair[0].imag
    assert b38_scan.reh2[i, j] == rad.reh2
    assert b38_scan.cross[i, j] == rad.cross
    assert b38_scan.tau[i, j] == b38.tau_profile(s, d)
    assert EffHamiltonian(*(complex(getattr(b38_scan, name)[i, j])
                            for name in ("e1", "e2", "h1", "h2"))) == ham


def test_scan_minimum_splitting_at_planted_ep(b38_scan):
    absd = np.abs(b38_scan.reh2 - b38_scan.imh2 + 2j * b38_scan.cross)
    i, j = np.unravel_index(np.nanargmin(absd), absd.shape)
    assert math.isclose(b38_scan.grid.s_values[i], B38_EP[0], abs_tol=1e-12)
    assert math.isclose(b38_scan.grid.delta_values[j], B38_EP[1], abs_tol=1e-12)
    assert absd[i, j] == 0.0


def test_single_point_scan_equals_direct_evaluation(b38):
    g = ParamGrid(1.69, 1.69, 41.80, 41.80)
    sr = scan(g, b38)
    assert sr.ok.shape == (1, 1) and sr.ok[0, 0]
    pair = eigenvalues_sorted(b38.h_at(1.69, 41.80))
    assert sr.f1[0, 0] == pair[0].real
    assert sr.f2[0, 0] == pair[1].real


def test_scan_threshold_lobes_sit_on_either_side(b38):
    # real-part differences collapse left of the EP, width differences right
    sr = scan(ep_window(B38_EP, half=0.30, step=0.02), b38)
    f_diff = np.abs(sr.f1 - sr.f2)
    g_diff = np.abs(sr.g1 - sr.g2)
    s_grid = np.broadcast_to(sr.grid.s_values[:, None], f_diff.shape)
    only_f = (f_diff < 3.0) & (g_diff >= 0.35)
    only_g = (g_diff < 0.35) & (f_diff >= 3.0)
    assert only_f.sum() > 10 and only_g.sum() > 10
    assert s_grid[only_f].mean() < B38_EP[0]
    assert s_grid[only_g].mean() > B38_EP[0]


def test_scan_records_out_of_bounds_points(b38):
    # window pokes 2 of 15 columns past the family edge: reported, not fatal
    s_hi = b38.bounds_s[1]
    g = ParamGrid(s_hi - 0.12, s_hi + 0.02, 41.78, 41.78, 0.01)
    sr = scan(g, b38)
    assert sr.n_failed == 2
    assert sr.status[~sr.ok].tolist() == ["failed:out-of-bounds"] * 2


def test_scan_fails_loudly_when_mostly_outside(b38):
    s_hi = b38.bounds_s[1]
    g = ParamGrid(s_hi - 0.01, s_hi + 0.03, 41.78, 41.78, 0.01)
    with pytest.raises(ScanQualityError):
        scan(g, b38)


def test_scan_rejects_unknown_source():
    with pytest.raises(InvalidArgumentError):
        scan(ep_window(B38_EP), "b38")


def test_family_scan_is_deterministic(b38):
    g = ep_window(B38_EP, half=0.05)
    a, b = scan(g, b38), scan(g, b38)
    assert np.array_equal(a.f1, b.f1)
    assert np.array_equal(a.cross, b.cross)
    assert np.array_equal(a.tau, b.tau)


def test_scan_csv_roundtrip(tmp_path, b38_scan):
    path = tmp_path / "scan.csv"
    b38_scan.write_csv(path, config_hash="cafe0123")
    text = path.read_text().splitlines()
    assert text[0] == "# schema=eplab.scan.v1"
    assert text[1] == "# config_hash=cafe0123"

    back = ScanResult.read_csv(path)
    assert back.grid.shape == b38_scan.grid.shape
    assert back.grid.step == pytest.approx(0.01)
    assert back.e1 is None
    assert np.array_equal(back.status, b38_scan.status)
    for name in ("f1", "g1", "f2", "g2", "reh2", "imh2", "cross", "tau"):
        assert np.array_equal(getattr(back, name), getattr(b38_scan, name))


def test_scan_csv_rejects_foreign_content(tmp_path):
    bad = tmp_path / "other.csv"
    bad.write_text("s_mm,delta_mm\n1.0,2.0\n")
    with pytest.raises(DataError):
        ScanResult.read_csv(bad)


def test_scan_csv_bytes_match_per_row_format(tmp_path):
    # more rows than one formatting block, failed rows of two reasons, NaN
    # and signed zeros
    grid = ParamGrid(1.0, 1.69, 40.0, 40.69, 0.01)
    rng = np.random.default_rng(17)
    data = {name: rng.normal(size=grid.shape)
            * 10.0 ** rng.integers(-15, 5, size=grid.shape)
            for name in ("f1", "g1", "f2", "g2", "reh2", "imh2", "cross",
                         "tau")}
    ok = rng.random(grid.shape) > 0.05
    for arr in data.values():
        arr[~ok] = np.nan
    data["cross"][3, 4] = -0.0
    status = np.where(ok, "ok", "failed:DegenerateGaugeError").astype(object)
    status[tuple(np.argwhere(~ok)[0])] = "failed:missing-spectrum"
    table = ScanResult(grid=grid, status=status, **data)
    path = tmp_path / "scan.csv"
    table.write_csv(path, config_hash="cafe0123")

    lines = ["# schema=eplab.scan.v1", "# config_hash=cafe0123",
             "s_mm,delta_mm,f1,g1,f2,g2,reh2,imh2,cross,tau,status"]
    for i, sv in enumerate(grid.s_values):
        for j, dv in enumerate(grid.delta_values):
            row = [sv, dv] + [data[name][i, j] for name in
                              ("f1", "g1", "f2", "g2", "reh2", "imh2",
                               "cross", "tau")]
            lines.append(",".join("%.17g" % v for v in row)
                         + f",{status[i, j]}")
    assert path.read_bytes() == ("\n".join(lines) + "\n").encode()

    back = ScanResult.read_csv(path)
    assert np.array_equal(back.status, status)
    for name, arr in data.items():
        assert np.array_equal(getattr(back, name), arr, equal_nan=True)


def test_scan_csv_reader_rejects_damaged_rows(tmp_path, b38_scan):
    good = tmp_path / "scan.csv"
    b38_scan.write_csv(good)
    lines = good.read_text().splitlines(keepends=True)

    numbers = [line.rsplit(",", 1)[0] for line in lines]
    cases = {
        "short": lines[:5] + [lines[5].rsplit(",", 2)[0] + "\n"] + lines[6:],
        "long": lines[:5] + [numbers[5] + ",0,ok\n"] + lines[6:],
        "wide": lines[:2] + [n + ",0,ok\n" for n in numbers[2:]],
        "status": lines[:5] + [numbers[5] + ",okay\n"] + lines[6:],
        "no reason": lines[:5] + [numbers[5] + ",failed:\n"] + lines[6:],
        "text": lines[:5] + ["x" + lines[5]] + lines[6:],
        "duplicate": lines[:5] + [lines[6]] + lines[6:],
        "missing": lines[:5] + lines[6:],
        "empty": lines[:2],                   # schema and header only
    }
    for name, content in cases.items():
        bad = tmp_path / f"{name}.csv"
        bad.write_text("".join(content))
        with pytest.raises(DataError):
            ScanResult.read_csv(bad)


def test_scan_csv_row_with_an_extra_field_is_named(tmp_path, b38_scan):
    path = tmp_path / "scan.csv"
    b38_scan.write_csv(path)
    lines = path.read_text().splitlines(keepends=True)
    head, _, state = lines[5].rpartition(",")       # the fourth data row
    lines[5] = f"{head},0,{state}"
    path.write_text("".join(lines))
    with pytest.raises(DataError, match="data row 4 has 12 fields, "
                                        "expected 11") as info:
        ScanResult.read_csv(path)
    assert "usecols" not in str(info.value)


def test_scan_csv_without_its_header_is_refused(tmp_path, b38_scan):
    # a missing header would otherwise be skipped in place of the first
    # data row, and the table read back one node short
    path = tmp_path / "scan.csv"
    b38_scan.write_csv(path, config_hash="cafe0123")
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(lines[:2] + lines[3:]))
    with pytest.raises(DataError, match="expected the header 's_mm,delta_mm,"):
        ScanResult.read_csv(path)


def test_scan_csv_accepts_comment_lines_before_the_header(tmp_path,
                                                          b38_scan):
    path = tmp_path / "scan.csv"
    b38_scan.write_csv(path, config_hash="cafe0123")
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(lines[:2] + ["# note\n", "\n"] + lines[2:]))
    back = ScanResult.read_csv(path)
    assert np.array_equal(back.status, b38_scan.status)
    assert back.tau.tobytes() == b38_scan.tau.tobytes()


def test_scan_csv_second_header_line_is_refused(tmp_path, b38_scan):
    # eplab writes one header; a second among the data rows is not skipped
    path = tmp_path / "scan.csv"
    b38_scan.write_csv(path)
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(lines[:6] + [lines[1]] + lines[6:]))
    with pytest.raises(DataError, match="scan.csv: .*'s_mm'"):
        ScanResult.read_csv(path)


@pytest.mark.parametrize("wrapped", [True, False],
                         ids=["cause-wrapped", "raised-as-is"])
def test_scan_csv_bad_status_gives_one_error_however_numpy_reports_it(
        tmp_path, b38_scan, monkeypatch, wrapped):
    # numpy 2 raises a ValueError whose __cause__ is the converter's
    # exception; older numpy may let the converter's exception through
    path = tmp_path / "scan.csv"
    b38_scan.write_csv(path)
    lines = path.read_text().splitlines(keepends=True)
    lines[5] = lines[5].rsplit(",", 1)[0] + ",okay\n"  # the fourth data row
    path.write_text("".join(lines))
    loadtxt = np.loadtxt

    def unwrapped(*args, **kwargs):
        try:
            return loadtxt(*args, **kwargs)
        except ValueError as exc:
            if exc.__cause__ is None:
                raise
            raise exc.__cause__

    if not wrapped:
        monkeypatch.setattr(np, "loadtxt", unwrapped)
    with pytest.raises(DataError) as info:
        ScanResult.read_csv(path)
    assert str(info.value) == (f"{path}: data row 4 has status 'okay', "
                               f"expected ok or failed:<reason>")


# every status a scan table records: ok, and its own, the kernel's and the
# fits' reasons for failing
_STATUSES = ("ok",) + tuple("failed:" + reason for reason in (
    "out-of-bounds", "missing-spectrum", "DegenerateGaugeError",
    "SingularRatioError", "NotGaugeFixedError", "InsufficientSpanError",
    "NonConvergenceError", "DataError"))
_TABLE_VALUES = st.one_of(
    st.floats(allow_nan=False),
    st.sampled_from([math.nan, 0.0, -0.0, math.inf, -math.inf, 5e-324,
                     -2.2250738585072014e-308, 1.7976931348623157e308]))


@st.composite
def _scan_tables(draw):
    n_s, n_d = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    step = draw(st.sampled_from([0.01, 0.02, 0.05, 0.25]))
    s0 = draw(st.integers(-200, 200)) * step
    d0 = draw(st.integers(0, 5000)) * step
    grid = ParamGrid(s0, s0 + (n_s - 1) * step,
                     d0, d0 + (n_d - 1) * step, step)
    size = n_s * n_d
    data = {name: np.array(draw(st.lists(_TABLE_VALUES, min_size=size,
                                         max_size=size))).reshape(grid.shape)
            for name in ("f1", "g1", "f2", "g2", "reh2", "imh2", "cross",
                         "tau")}
    status = draw(st.lists(st.sampled_from(_STATUSES), min_size=size,
                           max_size=size))
    return grid, data, np.array(status, dtype=object).reshape(grid.shape)


@settings(max_examples=60, deadline=None)
@given(table=_scan_tables(), inserts=st.lists(
    st.tuples(st.integers(0, 25), st.sampled_from(["\n", "# note\n",
                                                    "# a,b,c\n"])),
    max_size=6))
def test_scan_csv_roundtrip_keeps_bits_and_status(tmp_path_factory, table,
                                                  inserts):
    grid, data, status = table
    path = tmp_path_factory.mktemp("scan") / "scan.csv"
    ScanResult(grid=grid, status=status, **data).write_csv(
        path, config_hash="cafe0123")

    # comment and blank lines between the data rows (after the header)
    lines = path.read_text().splitlines(keepends=True)
    head, rows = lines[:3], lines[3:]
    for at, extra in inserts:
        rows.insert(at % (len(rows) + 1), extra)
    path.write_text("".join(head + rows))

    back = ScanResult.read_csv(path)
    assert back.grid.shape == grid.shape
    assert np.array_equal(back.status, status)
    for name, arr in data.items():
        assert getattr(back, name).tobytes() == arr.tobytes()


def _chain_reason(ham):
    try:
        extract_tau(gauge_fix(ham)[0])
    except EplabError as exc:
        return type(exc).__name__
    return None


def _family_through(h):
    """A family with Pauli vector h at (1, 1) and generic elsewhere."""
    h = np.asarray(h, dtype=complex)
    return SyntheticFamily(
        name="probe", description="", b_mt=0.0, fc=2725.0, gamma0=1.0,
        s_ep=1.0, delta_ep=1.0, bounds_s=(0.5, 1.5), bounds_delta=(0.5, 1.5),
        g0=h.real, gs=(0.5, -0.25, 0.75), gd=(-0.5, 0.125, 0.25), m=h.imag,
        coupling=None, spectrum_defaults={})


@pytest.mark.parametrize("h,reason", [
    ((1 + 1j, 2 + 2j, 3 + 3j), "DegenerateGaugeError"),
    ((0, 0, 1 - 0.5j), "SingularRatioError"),        # h1 - i*h2 = 0
    ((0, 1, 1j), "SingularRatioError"),              # ratio -1 after fixing
    ((0.5, 0, 0.25j), None),                         # h2 = 0
    ((0.5j - 0.25, 0.5 + 0.25j, 0.25), None),        # h1 = i*h2, h3 != 0
])
def test_scan_reasons_match_the_scalar_chain(h, reason):
    fam = _family_through(h)
    grid = ParamGrid(0.5, 1.5, 0.5, 1.5, 0.25)
    result = scan(grid, fam)
    assert _chain_reason(fam.h_at(1.0, 1.0)) == reason
    for i, sv in enumerate(grid.s_values):
        for j, dv in enumerate(grid.delta_values):
            reason = _chain_reason(fam.h_at(sv, dv))
            assert result.status[i, j] == (
                "ok" if reason is None else "failed:" + reason)


# -------------------------------------------------------- spectrum archives
#
# `eplab fit` is the one driver from a directory of spectra to a scan table,
# and its manifest carries the fitted matrices on.


def write_point(fam, directory, s, d):
    spec = synth_spectrum(fam.internal_at(s, d), fam.coupling,
                          2725.0, 40.0, 0.01,
                          meta={"s_mm": s, "delta_mm": d})
    spec.write_csv(directory / f"point_{s:.3f}_{d:.3f}.csv")


def dirs(tmp_path):
    data, fits = tmp_path / "data", tmp_path / "fits"
    data.mkdir()
    fits.mkdir()
    return data, fits


def test_spectrum_directory_indexes_sidecars(tmp_path, b38):
    data, fits = dirs(tmp_path)
    write_point(b38, data, 1.69, 41.80)
    write_point(b38, data, 1.70, 41.80)
    (data / "summary.csv").write_text("no sidecar, so not a spectrum\n")
    assert main(["fit", "--in", str(data), "--out", str(fits)]) == 0
    assert sorted(p.name for p in fits.glob("*_fit.json")) == [
        "point_1.690_41.800_fit.json", "point_1.700_41.800_fit.json"]


def test_spectrum_directory_requires_spectra(tmp_path):
    assert main(["fit", "--in", str(tmp_path), "--out", str(tmp_path)]) == 2
    assert main(["fit", "--in", str(tmp_path / "missing"),
                 "--out", str(tmp_path)]) == 2


def test_scan_from_fitted_spectra_matches_family(tmp_path, b38):
    data, fits = dirs(tmp_path)
    points = [(s, d) for s in (1.69, 1.70)
              for d in (41.80, 41.81, 41.82)]
    for s, d in points[:-1]:             # drop one file: recorded, not fatal
        write_point(b38, data, s, d)
    assert main(["fit", "--in", str(data), "--out", str(fits)]) == 0

    sr = _read_table(str(fits / "manifest.json"))
    assert sr.grid.shape == (2, 3)
    assert sr.family is None
    assert sr.n_failed == 1
    assert sr.status[~sr.ok].tolist() == ["failed:missing-spectrum"]
    assert sr.e1 is not None
    for i, s in enumerate(sr.grid.s_values):
        for j, d in enumerate(sr.grid.delta_values):
            if not sr.ok[i, j]:
                continue
            pair = eigenvalues_sorted(b38.h_at(s, d))
            assert abs(sr.f1[i, j] - pair[0].real) < 1e-3
            assert abs(sr.g1[i, j] + 2.0 * pair[0].imag) < 1e-3
            assert abs(sr.tau[i, j] - b38.tau_profile(s, d)) < 1e-3


# ----------------------------------------------------------- EP localization


def test_locate_ep_finds_planted_locations(b38_scan, b0_scan):
    for sr, ep in ((b38_scan, B38_EP), (b0_scan, B0_EP)):
        loc = locate_ep(sr)
        assert abs(loc.s - ep[0]) <= 0.01
        assert abs(loc.delta - ep[1]) <= 0.01
        assert loc.uncertainty <= 1e-9     # D is exactly quadratic here
        assert abs(loc.offset_s) <= 1.0 and abs(loc.offset_delta) <= 1.0
        assert tuple(loc) == (loc.s, loc.delta)


def test_locate_ep_refines_between_grid_nodes(b38):
    # nodes straddle the planted point; refinement must beat the half step
    g = ParamGrid(B38_EP[0] - 0.045, B38_EP[0] + 0.055,
                  B38_EP[1] - 0.045, B38_EP[1] + 0.055, 0.01)
    loc = locate_ep(scan(g, b38))
    assert abs(loc.s - B38_EP[0]) < 0.005
    assert abs(loc.delta - B38_EP[1]) < 0.005


@pytest.mark.parametrize("shift", [0.0, 0.003, 0.0071, -0.0049])
def test_locate_ep_solves_the_radicand_zero(b38, b0, shift):
    # the family entries are affine, so D is quadratic in (s, delta) and
    # its weighted quadratic fit is exact
    for fam, ep in ((b38, B38_EP), (b0, B0_EP)):
        loc = locate_ep(scan(ep_window((ep[0] + shift, ep[1] + shift)), fam))
        assert abs(loc.s - ep[0]) <= 1e-9
        assert abs(loc.delta - ep[1]) <= 1e-9


@pytest.mark.parametrize("sigma", [0.002, 0.005, 0.01])
def test_locate_ep_uncertainty_is_the_spread_it_predicts(b38, sigma):
    # i.i.d. complex noise on the entries of an 11x11 b38 table: the
    # predicted standard error must match the spread of the located EPs
    grid = ParamGrid(1.62, 1.82, 41.68, 41.88, 0.02)
    exact = b38.h_grid(*np.meshgrid(grid.s_values, grid.delta_values,
                                    indexing="ij"))
    rng = np.random.default_rng(21)
    found, predicted = [], []
    for _ in range(200):
        mats = [m + sigma * (rng.normal(size=m.shape)
                             + 1j * rng.normal(size=m.shape)) for m in exact]
        status = np.full(grid.shape, "ok", dtype=object)
        loc = locate_ep(eplab.epscan._scan_table(grid, mats, status))
        found.append(tuple(loc))
        predicted.append(loc.uncertainty)
    observed = np.max(np.std(found, axis=0))
    ratio = math.sqrt(np.mean(np.square(predicted))) / observed
    assert 0.8 <= ratio <= 1.25


def test_locate_ep_boundary_minimum_raises(b38):
    g = ParamGrid(B38_EP[0] + 0.08, B38_EP[0] + 0.20,
                  B38_EP[1] - 0.10, B38_EP[1] + 0.10, 0.01)
    with pytest.raises(EPOutsideWindowError):
        locate_ep(scan(g, b38))


def test_locate_ep_flat_landscape_raises(b38):
    # far off-diagonal window: |D| varies gently and never dips; a shallow
    # minimum is reported as "no EP" even when it touches the boundary
    g = ParamGrid(B38_EP[0] + 0.16, B38_EP[0] + 0.24,
                  B38_EP[1] - 0.24, B38_EP[1] - 0.16, 0.01)
    with pytest.raises(NoEPFoundError):
        locate_ep(scan(g, b38))


def test_locate_ep_from_csv_scan(tmp_path, b38_scan):
    path = tmp_path / "scan.csv"
    b38_scan.write_csv(path)
    loc = locate_ep(ScanResult.read_csv(path))
    assert abs(loc.s - B38_EP[0]) <= 0.01
    assert abs(loc.delta - B38_EP[1]) <= 0.01


# ------------------------------------------------------------ curve tracing


def test_trace_follows_contour_through_window(b38_scan, b38_trace):
    tr = b38_trace
    assert not tr.truncated
    assert tr.n_points > 40
    rel = np.abs(tr.cross) / (tr.reh2 + tr.imh2)
    assert np.max(rel) <= tr.epsilon
    gaps = np.hypot(*np.diff(tr.points, axis=0).T)
    assert np.max(gaps) <= 2.0 * tr.step
    # the planted contour is the diagonal through the EP
    expected_delta = B38_EP[1] + (tr.points[:, 0] - B38_EP[0])
    assert np.max(np.abs(tr.points[:, 1] - expected_delta)) < 1e-6


def test_trace_passes_through_located_ep(b38_scan, b38_trace):
    loc = locate_ep(b38_scan)
    k = b38_trace.crossing_index
    dist = np.hypot(b38_trace.points[k, 0] - loc.s,
                    b38_trace.points[k, 1] - loc.delta)
    assert dist <= b38_scan.grid.step
    # the split sign flips exactly there
    diffs = b38_trace.reh2 - b38_trace.imh2
    assert diffs[k - 2] < 0 < diffs[k + 2]


def test_trace_split_sign_matches_side_of_ep(b38_trace):
    for k in range(b38_trace.n_points):
        ds = b38_trace.points[k, 0] - B38_EP[0]
        if abs(ds) < 0.02:
            continue
        assert np.sign(b38_trace.reh2[k] - b38_trace.imh2[k]) == np.sign(ds)


def test_trace_reproduces_planted_tau_profile(b38, b38_trace):
    planted = np.array([b38.tau_profile(s, d) for s, d in b38_trace.points])
    assert np.max(np.abs(b38_trace.tau - planted)) < 1e-6
    assert np.ptp(b38_trace.tau) > 0.5                  # clearly nonconstant
    assert np.max(np.abs(np.diff(b38_trace.tau))) < 0.2  # and smooth


def test_trace_reciprocal_family_has_zero_tau(b0, b0_scan):
    tr = trace_pt_curve(b0_scan, B0_EP)
    assert not tr.truncated
    assert np.all(tr.tau == 0.0)
    k = tr.crossing_index
    assert np.hypot(tr.points[k, 0] - B0_EP[0],
                    tr.points[k, 1] - B0_EP[1]) <= 0.01


def test_trace_symmetry_analysis_on_curve_points(b38_trace):
    # the traced matrices admit the antiunitary normal form to high accuracy
    assert b38_trace.hams is not None
    for ham in b38_trace.hams[::7]:
        rep = pt_report(ham)
        assert rep.form.residual < 1e-9
        assert rep.commutator_norm < 1e-9


def test_trace_point_set_is_start_independent(b38_scan, b38_trace):
    other = trace_pt_curve(b38_scan, (B38_EP[0] + 0.1, B38_EP[1] + 0.1))
    for p in other.points:
        dist = np.min(np.hypot(b38_trace.points[:, 0] - p[0],
                               b38_trace.points[:, 1] - p[1]))
        assert dist < b38_trace.step


def test_trace_rejects_bad_starts(b38_scan):
    with pytest.raises(NotOnPTCurveError):
        trace_pt_curve(b38_scan, (B38_EP[0] + 0.05, B38_EP[1] - 0.05))
    with pytest.raises(OutOfBoundsError):
        trace_pt_curve(b38_scan, (B38_EP[0] + 9.0, B38_EP[1]))


def test_trace_interpolated_scan_without_closed_form(b38_scan):
    # same grids, but the walker only sees the sampled tables
    tables = ScanResult(
        grid=b38_scan.grid,
        f1=b38_scan.f1, g1=b38_scan.g1, f2=b38_scan.f2, g2=b38_scan.g2,
        reh2=b38_scan.reh2, imh2=b38_scan.imh2, cross=b38_scan.cross,
        tau=b38_scan.tau, status=b38_scan.status,
        e1=b38_scan.e1, e2=b38_scan.e2, h1=b38_scan.h1, h2=b38_scan.h2,
    )
    tr = trace_pt_curve(tables, B38_EP)
    assert tr.provenance == "fit"
    assert tr.epsilon == 1e-3
    assert tr.n_points > 40
    expected_delta = B38_EP[1] + (tr.points[:, 0] - B38_EP[0])
    assert np.max(np.abs(tr.points[:, 1] - expected_delta)) < 5e-3


@settings(max_examples=40, deadline=None)
@given(u=st.floats(min_value=0.0, max_value=1.0),
       v=st.floats(min_value=0.0, max_value=1.0))
def test_table_field_reproduces_the_affine_family(b38, b38_scan, u, v):
    # the family's entries are affine, so the field read off its sampled
    # matrices must give the closed form back anywhere in the window
    g = b38_scan.grid
    s = g.s_min + u * (g.s_max - g.s_min)
    d = g.delta_min + v * (g.delta_max - g.delta_min)
    table = dataclasses.replace(b38_scan, family=None)
    got = eplab.epscan._field_for(table).ham(s, d)
    want = b38.h_at(s, d)
    names = ("e1", "e2", "h1", "h2")
    scale = max(abs(getattr(want, name)) for name in names)
    for name in names:
        assert abs(getattr(got, name) - getattr(want, name)) <= 1e-12 * scale


def test_fitted_gauge_is_continuous_near_the_ep(tmp_path):
    # the table-backed field fits each entry across nodes, so neighbouring
    # nodes must hold the same level in e1 and the same sign of h1 and h2
    data, fits = dirs(tmp_path)
    assert main(["synth", "--family", "b38",
                 "--grid", "1.66:1.78:0.02x41.72:41.84:0.02",
                 "--sigma", "0.005", "--seed", "0", "--out", str(data)]) == 0
    assert main(["fit", "--in", str(data), "--jobs", "2",
                 "--out", str(fits)]) == 0
    sr = _read_table(str(fits / "manifest.json"))
    assert sr.n_failed == 0
    for axis in (0, 1):
        (e1, f1), (e2, f2), (h1, k1), (h2, k2) = (
            (m[:-1], m[1:]) for m in (np.moveaxis(getattr(sr, name), axis, 0)
                                      for name in ("e1", "e2", "h1", "h2")))
        kept = abs(e1 - f1) + abs(e2 - f2) + abs(h1 - k1) + abs(h2 - k2)
        swapped = abs(e1 - f2) + abs(e2 - f1) + abs(h1 - k1) + abs(h2 + k2)
        flipped = abs(e1 - f1) + abs(e2 - f2) + abs(h1 + k1) + abs(h2 + k2)
        assert np.all(kept < swapped) and np.all(kept < flipped)


def test_trace_csv_backed_scan_is_refused(tmp_path, b38_scan):
    # a scan CSV stores observables only; the tracer reads matrices
    path = tmp_path / "scan.csv"
    b38_scan.write_csv(path)
    table = ScanResult.read_csv(path)
    with pytest.raises(DataError, match="manifest.json"):
        trace_pt_curve(table, B38_EP)
    with pytest.raises(DataError):
        braid_loop(table, B38_EP, 0.1)


def test_trace_json_roundtrip(b38_trace):
    doc = b38_trace.to_json_dict(source={"family": "b38"},
                                 config_hash="beef4567")
    assert doc["schema"] == "eplab.curve.v1"
    assert doc["source"] == {"family": "b38"}
    assert doc["config_hash"] == "beef4567"
    assert "reh2_norm" in doc["points"][0]
    encoded = json.dumps(doc)

    back = CurveTrace.from_json_dict(json.loads(encoded))
    assert np.allclose(back.points, b38_trace.points)
    assert np.allclose(back.tau, b38_trace.tau)
    assert back.crossing_index == b38_trace.crossing_index
    assert back.hams is not None
    assert abs(back.hams[0].h1 - b38_trace.hams[0].h1) < 1e-15

    with pytest.raises(DataError):
        CurveTrace.from_json_dict({"schema": "something-else"})


@settings(max_examples=12, deadline=None)
@given(name=st.sampled_from(["b38", "b0"]),
       step=st.floats(min_value=0.002, max_value=0.02))
def test_trace_read_back_is_bit_identical(name, step):
    # the observables a trace reads back are the ones it was traced with;
    # the trace marches at the grid step of the table it runs on
    fam = load_family(name)
    ep = (fam.s_ep, fam.delta_ep)
    trace = trace_pt_curve(scan(ep_window(ep, half=0.1, step=step), fam), ep)
    assert trace.step == step
    doc = trace.to_json_dict()
    back = CurveTrace.from_json_dict(json.loads(json.dumps(doc)))
    assert json.dumps(back.to_json_dict()) == json.dumps(doc)
    for field in ("points", "reh2", "imh2", "cross", "tau", "d", "h1_abs_sq"):
        assert getattr(back, field).tobytes() == \
            getattr(trace, field).tobytes(), field
    assert back.crossing_index == trace.crossing_index


# ------------------------------------------------------------------ braiding


def test_braid_validates_loops(b38):
    with pytest.raises(InvalidArgumentError):
        braid(np.zeros((3, 3)), b38)
    open_loop = [(1.6, 41.7), (1.8, 41.7), (1.8, 41.9), (1.6, 41.9)]
    with pytest.raises(InvalidArgumentError):
        braid(open_loop, b38)
    nan_loop = [(1.6, 41.7), (1.8, 41.7), (math.nan, 41.9), (1.6, 41.7)]
    with pytest.raises(InvalidArgumentError, match="finite"):
        braid(nan_loop, b38)


def test_braid_swap_iff_loop_encloses_ep(b38, b0):
    for fam, ep in ((b38, B38_EP), (b0, B0_EP)):
        assert braid_loop(fam, ep, 0.1).permutation is Permutation.SWAP
        off = (ep[0] + 0.2, ep[1])
        assert braid_loop(fam, off, 0.05).permutation is Permutation.IDENTITY


def test_braid_double_loop_composes_to_identity(b38):
    assert braid_loop(b38, B38_EP, 0.1,
                      turns=2).permutation is Permutation.IDENTITY


def test_braid_homotopic_loops_agree(b38):
    rng = np.random.default_rng(7)
    for _ in range(5):
        center = (B38_EP[0] + rng.uniform(-0.02, 0.02),
                  B38_EP[1] + rng.uniform(-0.02, 0.02))
        radius = rng.uniform(0.05, 0.15)
        assert braid_loop(b38, center, radius).permutation is Permutation.SWAP
    for _ in range(5):
        angle = rng.uniform(0, 2 * math.pi)
        center = (B38_EP[0] + 0.2 * math.cos(angle),
                  B38_EP[1] + 0.2 * math.sin(angle))
        assert braid_loop(b38, center,
                          0.04).permutation is Permutation.IDENTITY


def test_braid_coarse_loop_raises_until_refined(b38, monkeypatch):
    t = np.linspace(0.0, 2.0 * math.pi, 5)
    coarse = np.column_stack([B38_EP[0] + 0.15 * np.cos(t),
                              B38_EP[1] + 0.15 * np.sin(t)])
    coarse[-1] = coarse[0]
    with pytest.raises(RefineLoopError):
        braid(coarse, b38)
    # the adaptive wrapper succeeds from the same starting resolution
    monkeypatch.setattr(eplab.epscan, "_LOOP_POINTS", 4)
    assert braid_loop(b38, B38_EP, 0.15).permutation is Permutation.SWAP


def test_braid_loop_through_ep_cannot_resolve(b38, monkeypatch):
    center = (B38_EP[0] + 0.05, B38_EP[1] + 0.05)
    radius = math.hypot(0.05, 0.05)      # passes exactly through the EP
    monkeypatch.setattr(eplab.epscan, "_LOOP_POINTS", 8)
    monkeypatch.setattr(eplab.epscan, "_MAX_LOOP_POINTS", 64)
    with pytest.raises(RefineLoopError):
        braid_loop(b38, center, radius)


def test_braid_trace_serializes(b38):
    tr = braid_loop(b38, B38_EP, 0.1)
    doc = tr.to_json_dict(config_hash="0011aabb")
    assert doc["schema"] == "eplab.braid.v1"
    assert doc["permutation"] == "swap"
    assert len(doc["loop"]) == tr.n_points
    assert len(doc["path1"]) == tr.n_points
    json.dumps(doc)


def test_braid_paths_are_continuous(b38):
    tr = braid_loop(b38, B38_EP, 0.1)
    for path in (tr.path1, tr.path2):
        jumps = np.abs(np.diff(path))
        gaps = np.abs(tr.path1 - tr.path2)
        assert np.all(jumps[1:] < 0.5 * gaps[1:-1] + 1e-12)
