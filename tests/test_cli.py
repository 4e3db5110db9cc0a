"""End-to-end command line tests: exit codes, file layout, idempotence.

Everything runs main() in process for speed; one subprocess test proves the
module entry point works. Fits use --n-starts 2 to keep the suite quick.
"""

import hashlib
import importlib
import json
import os
import shutil
import subprocess
import sys
import warnings

import numpy as np
import pytest

import eplab.cli
from eplab import CouplingSet, EffHamiltonian, load_family, synth_spectrum
from eplab.cli import main
from eplab.core import eigenvalues_sorted, pt_report
from eplab.epscan import CurveTrace, ScanResult
from eplab.synth import CSV_HEADER, read_spectrum

B38_EP = (1.72, 41.78)


def digest(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def synth_args(out, grid="1.68:1.76:0.02x41.74:41.82:0.02", sigma="0"):
    return ["synth", "--family", "b38", "--grid", grid,
            "--sigma", sigma, "--seed", "3", "--out", str(out)]


def write_flat(path, s, d):
    """A spectrum with S = 1 everywhere, and its sidecar at (s, d)."""
    rows = [CSV_HEADER]
    for f in np.arange(2705.0, 2745.01, 0.5):
        rows.append(",".join("%.17g" % v for v in
                             (f, 1, 0, 0, 0, 0, 0, 1, 0)))
    path.write_text("\n".join(rows) + "\n")
    path.with_suffix(".json").write_text(
        json.dumps({"s_mm": s, "delta_mm": d}))


def per_row_csv(schema, config_hash, header, rows):
    """A table's CSV bytes formatted row by row: "%s" for int and str
    fields, "%.17g" for the rest."""
    lines = [f"# schema={schema}", f"# config_hash={config_hash}",
             ",".join(header)]
    for row in rows:
        lines.append(",".join("%s" % v if isinstance(v, (int, str))
                              else "%.17g" % v for v in row))
    return ("\n".join(lines) + "\n").encode()


def paired_err(a1, a2, b1, b2):
    straight = max(abs(a1 - b1), abs(a2 - b2))
    crossed = max(abs(a1 - b2), abs(a2 - b1))
    return min(straight, crossed)


# -------------------------------------------------------------------- synth


def test_synth_grid_writes_dataset(tmp_path):
    assert main(synth_args(tmp_path)) == 0
    csvs = sorted(tmp_path.glob("b38_*.csv"))
    assert len(csvs) == 25
    assert len(list(tmp_path.glob("b38_*.json"))) == 25

    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["schema"] == "eplab.manifest.v1"
    assert manifest["command"] == "synth"
    assert manifest["seed"] == 3
    assert len(manifest["files"]) == 50
    assert set(manifest["files"]) == {p.name for p in tmp_path.glob("b38_*")}

    spec = read_spectrum(csvs[0])
    assert spec.meta["s_mm"] == 1.68
    assert spec.meta["config_hash"] == manifest["config_hash"]
    assert len(spec.freqs) == 4001


def test_synth_single_point(tmp_path):
    code = main(["synth", "--family", "b0", "--point", "1.68,41.19",
                 "--sigma", "0", "--out", str(tmp_path)])
    assert code == 0
    assert len(list(tmp_path.glob("b0_*.csv"))) == 1


def test_synth_requires_one_target(tmp_path):
    assert main(["synth", "--family", "b38", "--out", str(tmp_path)]) == 1
    assert main(["synth", "--family", "b38", "--grid", "1.6:1.7:0.1x41.7:41.8:0.1",
                 "--point", "1.7,41.8", "--out", str(tmp_path)]) == 1


def test_synth_missing_output_dir(tmp_path):
    code = main(["synth", "--family", "b38", "--point", "1.72,41.78",
                 "--out", str(tmp_path / "nope")])
    assert code == 2


def test_synth_out_of_bounds_writes_nothing(tmp_path):
    code = main(["synth", "--family", "b38",
                 "--grid", "1.7:2.1:0.2x41.7:41.9:0.2",
                 "--out", str(tmp_path)])
    assert code == 1
    assert list(tmp_path.iterdir()) == []


POINT = ["synth", "--family", "b38", "--point", "1.7,41.8"]
BRAID = ["analyze", "braid", "--family", "b38"]


# each row names the value its error message must name; DATA stands for
# the module's dataset directory
OUT_OF_DOMAIN = [
    (POINT + ["--sigma", "-0.01"], "sigma"),
    (POINT + ["--sigma", "nan"], "sigma"),
    (POINT + ["--f0", "nan"], "f0"),
    (POINT + ["--fstep", "inf"], "step"),
    (POINT + ["--span", "inf"], "span"),
    (["analyze", "scan", "--family", "b38",
      "--grid", "1.5:1.9:infx41.6:42:inf"], "step"),
    (BRAID + ["--radius", "nan"], "radius"),
    (BRAID + ["--radius", "inf"], "radius"),
    (POINT + ["--seed", "-1"], "seed"),
    (["fit", "--in", "DATA", "--seed", "-1"], "seed"),
    (["fit", "--in", "DATA", "--max-failures", "nan"], "max-failures"),
    (["fit", "--in", "DATA", "--max-failures", "1.5"], "max-failures"),
    (["fit", "--in", "DATA", "--n-starts", "0"], "start count"),
    (POINT + ["--fstep", "0"], "step"),
    (BRAID + ["--radius", "0"], "radius"),
    (BRAID + ["--turns", "0"], "turns"),
]


@pytest.mark.parametrize("argv, named", OUT_OF_DOMAIN,
                         ids=[f"argv{k}" for k in range(len(OUT_OF_DOMAIN))])
def test_value_outside_its_domain_writes_nothing(dataset, tmp_path, capsys,
                                                 argv, named):
    argv = [str(dataset) if arg == "DATA" else arg for arg in argv]
    assert main(argv + ["--out", str(tmp_path)]) == 1
    assert named in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_synth_rejects_mismatched_axis_steps(tmp_path):
    code = main(["synth", "--family", "b38",
                 "--grid", "1.6:1.7:0.01x41.7:41.8:0.02",
                 "--out", str(tmp_path)])
    assert code == 1


def test_synth_unknown_family(tmp_path):
    assert main(["synth", "--family", "b99", "--point", "1.7,41.8",
                 "--out", str(tmp_path)]) == 2


def test_synth_idempotent_with_noise(tmp_path):
    args = ["synth", "--family", "b38", "--point", "1.70,41.80",
            "--sigma", "0.005", "--seed", "11", "--out", str(tmp_path)]
    assert main(args) == 0
    first = {p.name: digest(p) for p in tmp_path.iterdir()}
    assert main(args) == 0
    second = {p.name: digest(p) for p in tmp_path.iterdir()}
    assert first == second

    # a different seed must actually change the samples
    assert main(args[:-3] + ["12", "--out", str(tmp_path)]) == 0
    third = {p.name: digest(p) for p in tmp_path.iterdir()}
    assert third["b38_s1.7000_d41.8000.csv"] != first["b38_s1.7000_d41.8000.csv"]


def test_output_root_env_var(tmp_path, monkeypatch):
    monkeypatch.setenv("EPLAB_OUTPUT_ROOT", str(tmp_path))
    code = main(["synth", "--family", "b38", "--point", "1.72,41.78"])
    assert code == 0
    assert len(list(tmp_path.glob("b38_*.csv"))) == 1


def test_config_file_fills_gaps_but_flags_win(tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"sigma": 0.005, "seed": 11}))
    a, b, c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    for d in (a, b, c):
        d.mkdir()

    base = ["synth", "--family", "b38", "--point", "1.70,41.80"]
    assert main(base + ["--sigma", "0.005", "--seed", "11",
                        "--out", str(a)]) == 0
    assert main(base + ["--config", str(cfg), "--out", str(b)]) == 0
    assert main(base + ["--config", str(cfg), "--sigma", "0",
                        "--out", str(c)]) == 0

    name = "b38_s1.7000_d41.8000.csv"
    assert digest(a / name) == digest(b / name)       # file supplied values
    assert digest(a / name) != digest(c / name)       # flag overrode sigma


def test_config_file_rejects_unknown_keys(tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"bogus": 1}))
    assert main(["synth", "--family", "b38", "--point", "1.72,41.78",
                 "--config", str(cfg), "--out", str(tmp_path)]) == 1


def test_config_values_parse_like_their_flags(tmp_path, capsys):
    cfg = tmp_path / "c.json"
    braid = ["analyze", "braid", "--family", "b38", "--out", str(tmp_path)]
    for doc, message in (({"radius": "abc"}, "argument --radius: invalid "
                          "float value: 'abc'"),
                         ({"turns": True}, "argument --turns: invalid "
                          "int value: 'True'")):
        cfg.write_text(json.dumps(doc))
        assert main(braid + ["--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("eplab: ") and message in err

    # a value in the file gives the bytes its flag gives; null is unset
    runs = (
        (["synth", "--family", "b38", "--sigma", "0.005", "--grid",
          "1.70:1.72:0.02x41.78:41.78:0.02"], ["--jobs", "2"], {"jobs": "2"}),
        (["fit", "--in", str(tmp_path)],
         ["--n-starts", "3", "--max-failures", "0.5", "--seed", "5"],
         {"n_starts": 3, "max_failures": "0.5", "seed": 5, "mask": None}),
        (braid, ["--radius", "0.05", "--turns", "2"],
         {"radius": 0.05, "turns": "2", "center": None}),
    )
    for argv, flags, doc in runs:
        cfg.write_text(json.dumps(doc))
        digests = []
        for extra in (flags, ["--config", str(cfg)]):
            assert main(argv + extra + ["--out", str(tmp_path)]) == 0
            digests.append({p.name: digest(p) for p in tmp_path.iterdir()
                            if p.suffix in (".csv", ".json") and p != cfg})
        assert digests[0] == digests[1]


def test_help_shows_the_defaults(capsys):
    for argv in (["synth"], ["fit"], ["analyze", "scan"], ["analyze", "ep"],
                 ["analyze", "curve"], ["analyze", "pt"],
                 ["analyze", "braid"]):
        assert main(argv + ["--help"]) == 0
    assert "(default 0.1)" in capsys.readouterr().out      # braid --radius


# ---------------------------------------------------------------------- fit


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    out = tmp_path_factory.mktemp("dataset")
    assert main(synth_args(out)) == 0
    return out


@pytest.fixture(scope="module")
def fitted(dataset, tmp_path_factory):
    out = tmp_path_factory.mktemp("fitted")
    code = main(["fit", "--in", str(dataset), "--n-starts", "2",
                 "--out", str(out)])
    assert code == 0
    return out


def test_fit_outputs_match_family_truth(fitted):
    summary = ScanResult.read_csv(fitted / "summary.csv")
    assert summary.grid.shape == (5, 5)
    assert summary.n_failed == 0

    fam = load_family("b38")
    worst = 0.0
    for i, s in enumerate(summary.grid.s_values):
        for j, d in enumerate(summary.grid.delta_values):
            pair = eigenvalues_sorted(fam.h_at(s, d))
            err = paired_err(
                complex(summary.f1[i, j], -0.5 * summary.g1[i, j]),
                complex(summary.f2[i, j], -0.5 * summary.g2[i, j]),
                pair[0], pair[1])
            worst = max(worst, err)
    assert worst < 1e-3

    docs = sorted(fitted.glob("*_fit.json"))
    assert len(docs) == 25
    doc = json.loads(docs[0].read_text())
    assert doc["schema"] == "eplab.fit.v1"
    assert doc["converged"] is True
    assert doc["residual_rms"] < 1e-9
    manifest = json.loads((fitted / "manifest.json").read_text())
    assert doc["config_hash"] == manifest["config_hash"]
    assert "summary.csv" in manifest["files"]


def test_fit_is_idempotent(dataset, fitted):
    before = digest(fitted / "summary.csv")
    assert main(["fit", "--in", str(dataset), "--n-starts", "2",
                 "--out", str(fitted)]) == 0
    assert digest(fitted / "summary.csv") == before


def test_fit_accepts_manifest_and_file_list(dataset, tmp_path):
    via_manifest = tmp_path / "m"
    via_files = tmp_path / "f"
    via_manifest.mkdir()
    via_files.mkdir()
    name = "b38_s1.7200_d41.7800.csv"

    assert main(["fit", "--manifest", str(dataset / "manifest.json"),
                 "--n-starts", "2", "--out", str(via_manifest)]) == 0
    assert main(["fit", str(dataset / name), "--n-starts", "2",
                 "--out", str(via_files)]) == 0
    doc_m = json.loads((via_manifest / "b38_s1.7200_d41.7800_fit.json")
                       .read_text())
    doc_f = json.loads((via_files / "b38_s1.7200_d41.7800_fit.json")
                       .read_text())
    assert doc_m["e1"] == doc_f["e1"]


def test_fit_rejects_duplicates_and_orphans(dataset, tmp_path):
    name = str(dataset / "b38_s1.7200_d41.7800.csv")
    assert main(["fit", name, name, "--out", str(tmp_path)]) == 2

    orphan = tmp_path / "orphan.csv"
    orphan.write_text("freq_MHz\n")
    assert main(["fit", str(orphan), "--out", str(tmp_path)]) == 2


def test_fit_input_forms_share_one_sidecar_check(dataset, tmp_path):
    data, out = tmp_path / "data", tmp_path / "out"
    data.mkdir()
    out.mkdir()
    name = "b38_s1.7200_d41.7800"
    for suffix in (".csv", ".json"):
        for copy in (name, "copy"):
            shutil.copy(dataset / (name + suffix), data / (copy + suffix))
    manifest = data / "manifest.json"
    manifest.write_text(json.dumps({"files": [name + ".csv", "copy.csv"]}))
    forms = (["--in", str(data)], ["--manifest", str(manifest)],
             [str(data / (name + ".csv")), str(data / "copy.csv")])

    # two spectra at one point: every form refuses them
    for form in forms:
        assert main(["fit", *form, "--out", str(out)]) == 2
    # so does a sidecar without coordinates
    (data / "copy.json").write_text(json.dumps({"s_mm": 1.74}))
    for form in forms:
        assert main(["fit", *form, "--out", str(out)]) == 2
    assert list(out.iterdir()) == []


def test_fit_failure_threshold_sets_exit_code(tmp_path):
    out = tmp_path / "out"
    out.mkdir()
    flat = tmp_path / "flat.csv"
    write_flat(flat, 1.0, 2.0)

    assert main(["fit", str(flat), "--out", str(out)]) == 3
    summary = ScanResult.read_csv(out / "summary.csv")
    assert summary.n_failed == 1
    assert main(["fit", str(flat), "--max-failures", "1.0",
                 "--out", str(out)]) == 0


@pytest.mark.parametrize("span", ["0.3", "0.5", "1"])
def test_failed_fit_keeps_its_detail(tmp_path, span):
    data, fits = tmp_path / "data", tmp_path / "fits"
    data.mkdir()
    fits.mkdir()
    # a window at the EP narrower than the 1.875 MHz widths holds no whole
    # resonance: the seed's poles are wider than a quarter of the span
    assert main(["synth", "--family", "b38", "--point", "1.72,41.78",
                 "--span", span, "--fstep", "0.01", "--out", str(data)]) == 0
    assert main(["fit", "--in", str(data), "--out", str(fits)]) == 3

    doc = json.loads((fits / "b38_s1.7200_d41.7800_fit.json").read_text())
    manifest = json.loads((fits / "manifest.json").read_text())
    assert doc == {"schema": "eplab.fit.v1",
                   "config_hash": manifest["config_hash"],
                   "source": "b38_s1.7200_d41.7800.csv",
                   "s_mm": 1.72, "delta_mm": 41.78, "converged": False,
                   "reason": "InsufficientSpanError", "detail": doc["detail"]}
    assert f"grid span {span} MHz does not cover 4x" in doc["detail"]
    assert manifest["files"] == ["b38_s1.7200_d41.7800_fit.json",
                                 "summary.csv"]
    summary = ScanResult.read_csv(fits / "summary.csv")
    assert summary.status.tolist() == [["failed:InsufficientSpanError"]]


@pytest.mark.parametrize("how", ["flag", "config"])
def test_fit_refuses_an_unknown_mask_channel_before_any_fit(dataset, tmp_path,
                                                            capsys, how):
    out = tmp_path / "out"
    out.mkdir()
    argv = ["fit", "--in", str(dataset), "--out", str(out)]
    if how == "flag":
        argv += ["--mask", "S11,S13"]
    else:
        # a JSON list is not the comma-separated text --mask takes
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"mask": ["S11", "S22"]}))
        argv += ["--config", str(cfg)]
    assert main(argv) == 1
    assert "unknown channel" in capsys.readouterr().err
    assert list(out.iterdir()) == []


def test_fit_writes_each_result_as_it_arrives(dataset, tmp_path,
                                              monkeypatch):
    real_task = eplab.cli._fit_task
    seen = []

    def interrupted_on_third(args):
        seen.append(os.path.basename(args[2]))
        if len(seen) == 3:
            raise KeyboardInterrupt
        return real_task(args)

    monkeypatch.setattr(eplab.cli, "_fit_task", interrupted_on_third)
    with pytest.raises(KeyboardInterrupt):
        main(["fit", "--in", str(dataset), "--n-starts", "2", "--jobs", "1",
              "--out", str(tmp_path)])
    written = sorted(p.name for p in tmp_path.glob("*_fit.json"))
    assert written == sorted(os.path.splitext(name)[0] + "_fit.json"
                             for name in seen[:2])
    assert not (tmp_path / "summary.csv").exists()


def test_jobs_leave_every_output_byte_identical(tmp_path):
    data, fits = tmp_path / "data", tmp_path / "fits"
    data.mkdir()
    fits.mkdir()
    runs = []
    for jobs in ("1", "2"):
        assert main(synth_args(data, grid="1.70:1.74:0.02x41.76:41.78:0.02",
                               sigma="0.005") + ["--jobs", jobs]) == 0
        assert main(["fit", "--in", str(data), "--jobs", jobs,
                     "--out", str(fits)]) == 0
        runs.append({str(p.relative_to(tmp_path)): digest(p)
                     for p in sorted(tmp_path.rglob("*")) if p.is_file()})
    assert len(runs[0]) == 2 * 6 + 1 + 6 + 2     # spectra, sidecars, fits
    assert runs[0] == runs[1]


def _blas_threads(_):
    return [get() for get, _ in eplab.cli._openblas_thread_functions()]


def _numpy_links_openblas():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return "openblas" in str(blas.get("name", "")).lower()


def test_pool_workers_run_one_blas_thread(monkeypatch):
    functions = eplab.cli._openblas_thread_functions()
    # an empty discovery would pass everything below as [] == []
    assert functions or not _numpy_links_openblas()
    before = _blas_threads(None)
    seen = []

    def counting_fit(ns):
        seen.append(_blas_threads(None))
        seen.extend(eplab.cli._pool_map(_blas_threads, [0, 1, 2], ns.jobs))
        return 0

    monkeypatch.setattr(eplab.cli, "_cmd_fit", counting_fit)
    try:
        for _, put in functions:
            put(2)
        assert main(["fit", "--in", "unused", "--jobs", "2"]) == 0
        after = _blas_threads(None)
    finally:
        for (_, put), n in zip(functions, before):
            put(n)
    # the command runs at the caller's count and leaves it there; the
    # workers share out the cores, one BLAS thread each
    assert seen == [[2] * len(functions)] + [[1] * len(functions)] * 3
    assert after == [2] * len(functions)


@pytest.mark.skipif(not eplab.cli._openblas_thread_functions()
                    or (os.cpu_count() or 1) < 2,
                    reason="needs numpy's own OpenBLAS and two cores")
def test_fits_ignore_the_callers_blas_threads(tmp_path):
    # OpenBLAS sums in an order that depends on its thread count; these fits
    # give other bits on two threads unless eplab pins its own count
    data, fits = tmp_path / "data", tmp_path / "fits"
    data.mkdir()
    fits.mkdir()
    assert main(synth_args(data, grid="1.62:1.67:0.05x41.68:41.78:0.05",
                           sigma="0.005")) == 0
    functions = eplab.cli._openblas_thread_functions()
    before = [get() for get, _ in functions]
    runs = []
    try:
        for threads in (2, 1):
            for _, put in functions:
                put(threads)
            assert main(["fit", "--in", str(data), "--jobs", "1",
                         "--out", str(fits)]) == 0
            runs.append({p.name: digest(p) for p in fits.iterdir()})
    finally:
        for (_, put), n in zip(functions, before):
            put(n)
    assert len(runs[0]) == 6 + 2                 # fits, summary, manifest
    assert runs[0] == runs[1]


# ------------------------------------------------------------------ analyze


def test_analyze_scan_and_ep_family(tmp_path, capsys):
    assert main(["analyze", "scan", "--family", "b38",
                 "--grid", "1.62:1.82:0.01x41.68:41.88:0.01",
                 "--out", str(tmp_path)]) == 0
    scan_csv = tmp_path / "scan.csv"
    assert scan_csv.exists()

    assert main(["analyze", "ep", "--in", str(scan_csv),
                 "--out", str(tmp_path)]) == 0
    doc = json.loads((tmp_path / "ep.json").read_text())
    assert doc["schema"] == "eplab.ep.v1"
    assert abs(doc["s_mm"] - B38_EP[0]) <= 0.01
    assert abs(doc["delta_mm"] - B38_EP[1]) <= 0.01
    assert "EP at s=" in capsys.readouterr().out


def test_analyze_ep_from_fit_summary(fitted):
    assert main(["analyze", "ep", "--in", str(fitted / "summary.csv"),
                 "--out", str(fitted)]) == 0
    doc = json.loads((fitted / "ep.json").read_text())
    assert abs(doc["s_mm"] - B38_EP[0]) <= 0.01
    assert abs(doc["delta_mm"] - B38_EP[1]) <= 0.01


def test_analyze_ep_error_paths(tmp_path):
    assert main(["analyze", "ep", "--out", str(tmp_path)]) == 1
    assert main(["analyze", "ep", "--in", str(tmp_path / "gone.csv"),
                 "--out", str(tmp_path)]) == 2


def test_analyze_ep_no_minimum_is_numerical_failure(tmp_path):
    assert main(["analyze", "scan", "--family", "b38",
                 "--grid", "1.80:1.92:0.01x41.54:41.66:0.01",
                 "--out", str(tmp_path)]) == 0
    assert main(["analyze", "ep", "--in", str(tmp_path / "scan.csv"),
                 "--out", str(tmp_path)]) == 3


def test_analyze_curve_then_pt(tmp_path, capsys):
    assert main(["analyze", "curve", "--family", "b38",
                 "--grid", "1.47:1.97:0.01x41.53:42.03:0.01",
                 "--out", str(tmp_path)]) == 0
    trace = json.loads((tmp_path / "trace.json").read_text())
    assert trace["schema"] == "eplab.curve.v1"
    assert not trace["truncated"]
    curve_lines = (tmp_path / "curve.csv").read_text().splitlines()
    assert curve_lines[0] == "# schema=eplab.curvecsv.v1"
    assert len(curve_lines) == len(trace["points"]) + 3
    # the trace read back holds the bits it was traced with
    traced = CurveTrace.from_json_dict(trace)
    assert (tmp_path / "curve.csv").read_bytes() == per_row_csv(
        "eplab.curvecsv.v1", trace["config_hash"],
        ("s_mm", "delta_mm", "reh2", "imh2", "cross", "tau", "d_re", "d_im",
         "reh2_norm", "imh2_norm", "cross_norm"),
        zip(*traced.points.T, traced.reh2, traced.imh2, traced.cross,
            traced.tau, traced.d.real, traced.d.imag, *traced.split_norm.T))

    assert main(["analyze", "pt", "--curve", str(tmp_path / "trace.json"),
                 "--out", str(tmp_path)]) == 0
    doc = json.loads((tmp_path / "pt.json").read_text())
    # int and str fields as "%s", the rest "%.17g"
    reports = [pt_report(ham, eps_cross=traced.epsilon)
               for ham in traced.hams]
    assert (tmp_path / "pt.csv").read_bytes() == per_row_csv(
        "eplab.ptcsv.v1", doc["config_hash"],
        ("index", "s_mm", "delta_mm", "tau", "phase", "residual",
         "commutator_norm"),
        [(k, s, d, rep.tau, rep.phase, rep.form.residual, rep.commutator_norm)
         for k, ((s, d), rep) in enumerate(zip(traced.points, reports))])
    assert doc["phase_flips"] == [doc["crossing_index"]]
    assert doc["max_residual"] < 1e-6
    assert doc["max_commutator_norm"] < 1e-6
    phases = [row["phase"] for row in doc["points"]]
    k = doc["crossing_index"]
    assert set(phases[:k]) == {"broken"} and set(phases[k:]) == {"exact"}
    out = capsys.readouterr().out
    assert "phase flips at index" in out


@pytest.mark.parametrize("family,grid,ep", [
    ("b38", "1.605:1.835:0.01x41.68:41.90:0.01", (1.72, 41.78)),
    ("b0", "1.605:1.835:0.01x41.08:41.30:0.01", (1.68, 41.19)),
])
def test_analyze_curve_starts_at_an_off_node_ep(tmp_path, family, grid, ep):
    # the planted EP sits half a step off every node of these grids; the
    # trace starts at the located EP, not at the nearest node
    assert main(["analyze", "curve", "--family", family, "--grid", grid,
                 "--start", "ep", "--out", str(tmp_path)]) == 0
    trace = json.loads((tmp_path / "trace.json").read_text())
    crossing = trace["points"][trace["crossing_index"]]
    assert abs(crossing["s_mm"] - ep[0]) <= 0.01
    assert abs(crossing["delta_mm"] - ep[1]) <= 0.01


def test_analyze_pt_needs_matrices(tmp_path, capsys):
    assert main(["analyze", "curve", "--family", "b38",
                 "--out", str(tmp_path)]) == 0
    path = tmp_path / "trace.json"
    doc = json.loads(path.read_text())
    for row in doc["points"]:
        del row["ham"]
    path.write_text(json.dumps(doc))
    assert main(["analyze", "pt", "--curve", str(path),
                 "--out", str(tmp_path)]) == 2
    assert "trace carries no matrices" in capsys.readouterr().err
    assert not (tmp_path / "pt.json").exists()


def test_analyze_curve_refuses_a_scan_csv(tmp_path, capsys):
    # a scan CSV holds observables only; the tracer reads matrices
    assert main(["analyze", "scan", "--family", "b38",
                 "--grid", "1.62:1.82:0.01x41.68:41.88:0.01",
                 "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    assert main(["analyze", "curve", "--in", str(tmp_path / "scan.csv"),
                 "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "--family" in err and "manifest.json" in err
    assert not (tmp_path / "trace.json").exists()
    assert not (tmp_path / "curve.csv").exists()


def assert_pt_phases_are_the_report_phases(out):
    """pt.json phases: pt_report's, and the radicand split of the trace."""
    trace = json.loads((out / "trace.json").read_text())
    rows = json.loads((out / "pt.json").read_text())["points"]
    assert len(rows) == len(trace["points"])
    for row, point in zip(rows, trace["points"]):
        rep = pt_report(EffHamiltonian.from_json_dict(point["ham"]),
                        eps_cross=trace["epsilon"])
        assert row["phase"] == rep.phase
        assert rep.phase == ("exact" if point["reh2"] >= point["imh2"]
                             else "broken")


@pytest.mark.parametrize("family", ["b38", "b0"])
def test_pt_phases_are_the_report_phases_on_family_curves(tmp_path, family):
    assert main(["analyze", "curve", "--family", family,
                 "--out", str(tmp_path)]) == 0
    assert main(["analyze", "pt", "--curve", str(tmp_path / "trace.json"),
                 "--out", str(tmp_path)]) == 0
    assert_pt_phases_are_the_report_phases(tmp_path)


def test_analyze_braid_classes(tmp_path, capsys):
    assert main(["analyze", "braid", "--family", "b38", "--center", "ep",
                 "--radius", "0.1", "--out", str(tmp_path)]) == 0
    doc = json.loads((tmp_path / "braid.json").read_text())
    assert doc["schema"] == "eplab.braid.v1"
    assert doc["permutation"] == "swap"
    assert "permutation: swap" in capsys.readouterr().out

    assert main(["analyze", "braid", "--family", "b38",
                 "--center", "1.92,41.78", "--radius", "0.04",
                 "--out", str(tmp_path)]) == 0
    doc = json.loads((tmp_path / "braid.json").read_text())
    assert doc["permutation"] == "identity"


@pytest.mark.parametrize("family, grid", [
    ("b38", "1.62:1.82:0.01x41.68:41.88:0.01"),
    ("b0", "1.58:1.78:0.01x41.09:41.29:0.01")])
def test_family_analysis_is_idempotent(tmp_path, family, grid):
    out = str(tmp_path)
    commands = (
        ["analyze", "scan", "--family", family, "--grid", grid],
        ["analyze", "ep", "--in", str(tmp_path / "scan.csv")],
        ["analyze", "curve", "--family", family],
        ["analyze", "pt", "--curve", str(tmp_path / "trace.json")],
        ["analyze", "braid", "--family", family],
    )
    runs = []
    for _ in range(2):
        for argv in commands:
            assert main(argv + ["--out", out]) == 0
        runs.append({p.name: digest(p) for p in sorted(tmp_path.iterdir())})
    assert len(runs[0]) == 7
    assert runs[0] == runs[1]


def test_plane_config_hashes_are_pinned(tmp_path, monkeypatch):
    # a run that sets no tuning value keeps the hash, and so the bytes, of
    # every earlier run of the same command
    monkeypatch.chdir(tmp_path)
    for argv, name, pinned in (
            (["analyze", "curve", "--family", "b38"], "trace.json",
             "8662ebbd5ec06d14"),
            (["analyze", "braid", "--family", "b38", "--center", "ep",
              "--radius", "0.1"], "braid.json", "9219a538b74ce5b6")):
        assert main(argv + ["--out", "."]) == 0
        doc = json.loads((tmp_path / name).read_text())
        assert doc["config_hash"] == pinned


def test_analyze_scan_from_spectra_directory(tmp_path):
    # spectra become a scan table through `eplab fit` alone
    data = tmp_path / "data"
    data.mkdir()
    assert main(["synth", "--family", "b38",
                 "--grid", "1.69:1.69:0.01x41.80:41.81:0.01",
                 "--sigma", "0", "--out", str(data)]) == 0
    assert main(["analyze", "scan", "--in", str(data),
                 "--out", str(tmp_path)]) == 1
    assert not (tmp_path / "scan.csv").exists()


def test_analyze_pt_names_a_point_without_matrix(tmp_path, capsys):
    assert main(["analyze", "curve", "--family", "b38",
                 "--out", str(tmp_path)]) == 0
    path = tmp_path / "trace.json"
    doc = json.loads(path.read_text())
    del doc["points"][3]["ham"]
    path.write_text(json.dumps(doc))
    assert main(["analyze", "pt", "--curve", str(path),
                 "--out", str(tmp_path)]) == 2
    assert "trace point 3 carries no matrix" in capsys.readouterr().err


def test_summary_csv_is_the_manifest_table(dataset, tmp_path):
    data, fits = tmp_path / "data", tmp_path / "fits"
    data.mkdir()
    fits.mkdir()
    for s in ("1.7000", "1.7200"):
        for d in ("41.7600", "41.7800", "41.8000"):
            for suffix in (".csv", ".json"):
                name = f"b38_s{s}_d{d}{suffix}"
                shutil.copy(dataset / name, data / name)
    os.remove(data / "b38_s1.7200_d41.8000.csv")
    write_flat(data / "b38_s1.7000_d41.7800.csv", 1.70, 41.78)
    assert main(["fit", "--in", str(data), "--n-starts", "2",
                 "--max-failures", "1", "--out", str(fits)]) == 0

    table = eplab.cli._read_table(str(fits / "manifest.json"))
    summary = ScanResult.read_csv(fits / "summary.csv")
    assert table.e1 is not None
    assert table.status.tolist() == summary.status.tolist() == [
        ["ok", "failed:UnresolvableDoubletError", "ok"],
        ["ok", "ok", "failed:missing-spectrum"]]
    for name in ("f1", "g1", "f2", "g2", "reh2", "imh2", "cross", "tau"):
        assert getattr(table, name).tobytes() == \
            getattr(summary, name).tobytes(), name

    # a manifest of another command is no scan table
    assert main(["analyze", "ep", "--in", str(dataset / "manifest.json"),
                 "--out", str(fits)]) == 2


def test_fit_records_nodes_without_a_spectrum(dataset, tmp_path):
    # no spectrum at s = 1.72 nor at delta = 41.76: the grid keeps both
    # lines and records their nodes as missing, it does not refuse them
    data, fits = tmp_path / "data", tmp_path / "fits"
    data.mkdir()
    fits.mkdir()
    for s in ("1.6800", "1.7000", "1.7400"):
        for d in ("41.7400", "41.7800"):
            for suffix in (".csv", ".json"):
                name = f"b38_s{s}_d{d}{suffix}"
                shutil.copy(dataset / name, data / name)
    assert main(["fit", "--in", str(data), "--n-starts", "2",
                 "--out", str(fits)]) == 0

    summary = ScanResult.read_csv(fits / "summary.csv")
    table = eplab.cli._read_table(str(fits / "manifest.json"))
    assert summary.grid.shape == table.grid.shape == (4, 3)
    missing = {(2, 0), (2, 1), (2, 2), (0, 1), (1, 1), (3, 1)}
    status = [["failed:missing-spectrum" if (i, j) in missing else "ok"
               for j in range(3)] for i in range(4)]
    assert summary.status.tolist() == table.status.tolist() == status


def test_fit_summary_keeps_an_uncoupled_fit(tmp_path):
    # the fit lands exactly on h1 = h2 = 0 and reads tau = 0 there, where
    # the kernel finds no off-diagonal ratio: the summary keeps its verdict
    coupling = CouplingSet(np.array([[0.2, 0.0], [0.0, 0.2],
                                     [0.3, 0.0], [0.0, 0.3]]))
    spec = synth_spectrum(EffHamiltonian(2720.0, 2730.0, 0.0, 0.0),
                          coupling, 2725.0, 40.0, 0.01,
                          meta={"s_mm": 1.7, "delta_mm": 41.8})
    spec.write_csv(tmp_path / "uncoupled.csv")
    out = tmp_path / "out"
    out.mkdir()
    assert main(["fit", str(tmp_path / "uncoupled.csv"),
                 "--out", str(out)]) == 0

    doc = json.loads((out / "uncoupled_fit.json").read_text())
    assert doc["converged"] is True
    assert doc["tau"] == 0.0
    summary = ScanResult.read_csv(out / "summary.csv")
    assert summary.n_failed == 0
    assert summary.tau[0, 0] == 0.0
    assert eplab.cli._read_table(str(out / "manifest.json")).n_failed == 0


def test_fitted_matrices_reach_the_symmetry_analysis(tmp_path):
    data, fits = tmp_path / "data", tmp_path / "fits"
    data.mkdir()
    fits.mkdir()
    assert main(["synth", "--family", "b38",
                 "--grid", "1.62:1.82:0.02x41.68:41.88:0.02",
                 "--sigma", "0.005", "--seed", "0", "--out", str(data)]) == 0
    assert main(["fit", "--in", str(data), "--jobs", "2",
                 "--out", str(fits)]) == 0
    manifest = str(fits / "manifest.json")
    assert main(["analyze", "ep", "--in", manifest, "--out", str(fits)]) == 0
    ep = json.loads((fits / "ep.json").read_text())
    assert abs(ep["s_mm"] - B38_EP[0]) <= 0.02
    assert abs(ep["delta_mm"] - B38_EP[1]) <= 0.02
    # the error bar is the fit's, a small fraction of the 0.02 mm step
    assert ep["uncertainty_mm"] < 0.002
    assert abs(ep["s_mm"] - B38_EP[0]) <= 4 * ep["uncertainty_mm"]
    assert abs(ep["delta_mm"] - B38_EP[1]) <= 4 * ep["uncertainty_mm"]

    assert main(["analyze", "curve", "--in", manifest, "--start", "ep",
                 "--out", str(fits)]) == 0
    assert main(["analyze", "pt", "--curve", str(fits / "trace.json"),
                 "--out", str(fits)]) == 0
    doc = json.loads((fits / "pt.json").read_text())
    assert len(doc["phase_flips"]) == 1
    assert abs(doc["phase_flips"][0] - doc["crossing_index"]) <= 1
    # sigma = 0.005 leaves a normal-form residual of 9.4e-4 MHz here
    assert doc["max_residual"] <= 2e-3
    assert_pt_phases_are_the_report_phases(fits)


def test_every_traced_fit_point_passes_the_pt_gate(tmp_path):
    # on this coarser, noisier grid the interpolated observables leave one
    # traced point off the curve by the test pt_report applies to its
    # interpolated matrix; tracing on the matrix itself keeps them all on
    data, fits = tmp_path / "data", tmp_path / "fits"
    data.mkdir()
    fits.mkdir()
    assert main(["synth", "--family", "b38",
                 "--grid", "1.56:1.88:0.04x41.62:41.94:0.04",
                 "--sigma", "0.01", "--seed", "0", "--out", str(data)]) == 0
    assert main(["fit", "--in", str(data), "--jobs", "2",
                 "--out", str(fits)]) == 0
    assert main(["analyze", "curve", "--in", str(fits / "manifest.json"),
                 "--start", "ep", "--out", str(fits)]) == 0
    assert main(["analyze", "pt", "--curve", str(fits / "trace.json"),
                 "--out", str(fits)]) == 0
    doc = json.loads((fits / "pt.json").read_text())
    assert len(doc["phase_flips"]) == 1
    assert abs(doc["phase_flips"][0] - doc["crossing_index"]) <= 1


# --------------------------------------------------------- unreadable input


def assert_data_error(code, capsys):
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("eplab: ")
    assert "Traceback" not in err
    return err


def preset(**fields):
    """The b38 preset file's bytes, with fields replaced."""
    path = os.path.join(os.path.dirname(eplab.synth.__file__), "presets",
                        "b38.json")
    with open(path, encoding="utf-8") as fh:
        return json.dumps({**json.load(fh), **fields}).encode()


@pytest.mark.parametrize("command, content", [
    (["fit", "--manifest"], b"[1, 2]"),
    (["fit", "--manifest"], b'{"files": [3]}'),
    (["analyze", "ep", "--in"],
     b'{"schema": "eplab.manifest.v1", "command": "fit", "files": [1]}'),
    (["analyze", "scan", "--family"], b"[1]"),
    (["analyze", "scan", "--family"], b"\xff\xfe"),
    (["analyze", "scan", "--family"],
     preset(bounds={"s_mm": [1.4], "delta_mm": [41.46, 42.1]})),
    (["analyze", "scan", "--family"], preset(b_mt="abc")),
    (["synth", "--point", "1.72,41.78", "--family"], preset(spectrum={})),
    (["synth", "--point", "1.72,41.78", "--family"],
     preset(spectrum={"f_center_mhz": 2725.0, "span_mhz": "abc",
                      "step_mhz": 0.01})),
    (["synth", "--point", "1.72,41.78", "--family"],
     preset(spectrum={"f_center_mhz": 2725.0, "span_mhz": float("nan"),
                      "step_mhz": 0.01})),
    (["analyze", "ep", "--in"],
     b"# schema=eplab.scan.v1\n"
     b"s_mm,delta_mm,f1,g1,f2,g2,reh2,imh2,cross,tau,status\n"),
], ids=["manifest-list", "manifest-number-file", "fit-manifest-number-file",
        "preset-list", "preset-not-utf8", "preset-short-bounds",
        "preset-text-field", "preset-empty-spectrum", "preset-text-span",
        "preset-nan-span", "scan-header-only"])
def test_malformed_input_file_exits_2_and_writes_nothing(tmp_path, capsys,
                                                         command, content):
    path, out = tmp_path / "input.json", tmp_path / "out"
    path.write_bytes(content)
    out.mkdir()
    err = assert_data_error(main(command + [str(path), "--out", str(out)]),
                            capsys)
    assert str(path) in err
    assert list(out.iterdir()) == []


def test_fit_records_a_header_only_spectrum_as_having_no_data_rows(
        dataset, tmp_path):
    # one message for an empty table, whichever reader meets it, and no
    # numpy "input contained no data" warning
    data, fits = tmp_path / "data", tmp_path / "fits"
    data.mkdir()
    fits.mkdir()
    name = "b38_s1.7200_d41.7800"
    shutil.copy(dataset / (name + ".json"), data / (name + ".json"))
    (data / (name + ".csv")).write_text(CSV_HEADER + "\n")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["fit", "--in", str(data), "--out", str(fits)]) == 3
    assert caught == []
    doc = json.loads((fits / (name + "_fit.json")).read_text())
    assert doc["reason"] == "DataError"
    assert doc["detail"].endswith(name + ".csv has no data rows")


def test_non_finite_sidecar_coordinate_exits_2(dataset, tmp_path, capsys):
    data, out = tmp_path / "data", tmp_path / "out"
    data.mkdir()
    out.mkdir()
    for name in ("b38_s1.7000_d41.7600", "b38_s1.7200_d41.7600"):
        for suffix in (".csv", ".json"):
            shutil.copy(dataset / (name + suffix), data / (name + suffix))
    (data / "b38_s1.7000_d41.7600.json").write_text(
        '{"s_mm": NaN, "delta_mm": 41.76}')
    assert_data_error(main(["fit", "--in", str(data), "--out", str(out)]),
                      capsys)
    assert list(out.iterdir()) == []


def test_non_finite_scan_csv_coordinate_exits_2(tmp_path, capsys):
    table, out = tmp_path / "scan.csv", tmp_path / "out"
    out.mkdir()
    assert main(["analyze", "scan", "--family", "b38",
                 "--grid", "1.70:1.74:0.01x41.76:41.80:0.01",
                 "--out", str(tmp_path)]) == 0
    lines = table.read_text().splitlines(keepends=True)
    lines[5] = "nan" + lines[5][lines[5].index(","):]
    table.write_text("".join(lines))
    capsys.readouterr()
    assert_data_error(main(["analyze", "ep", "--in", str(table),
                            "--out", str(out)]), capsys)
    assert list(out.iterdir()) == []


def test_fit_records_a_non_numeric_spectrum_and_goes_on(dataset, tmp_path,
                                                        capsys):
    data, fits = tmp_path / "data", tmp_path / "fits"
    data.mkdir()
    fits.mkdir()
    names = [f"b38_s{s}_d{d}" for s in ("1.7000", "1.7200")
             for d in ("41.7600", "41.7800")]
    for name in names:
        for suffix in (".csv", ".json"):
            shutil.copy(dataset / (name + suffix), data / (name + suffix))
    bad = data / (names[1] + ".csv")
    lines = bad.read_text().splitlines()
    lines[100] = "abc" + lines[100][lines[100].index(","):]
    bad.write_text("\n".join(lines) + "\n")

    # one failure in four exceeds the default threshold of 0.2
    assert main(["fit", "--in", str(data), "--n-starts", "2",
                 "--out", str(fits)]) == 3
    assert "Traceback" not in capsys.readouterr().err
    doc = json.loads((fits / (names[1] + "_fit.json")).read_text())
    assert doc["converged"] is False
    assert doc["reason"] == "DataError"
    assert str(bad) in doc["detail"]
    for name in names[:1] + names[2:]:
        doc = json.loads((fits / (name + "_fit.json")).read_text())
        assert doc["converged"] is True
    summary = ScanResult.read_csv(fits / "summary.csv")
    assert summary.status.tolist() == [["ok", "failed:DataError"],
                                       ["ok", "ok"]]


# line 101 holds frequency 100; line -1 the last one
@pytest.mark.parametrize("line, text", [(101, "nan"), (-1, "inf")])
def test_fit_records_a_non_finite_frequency_as_a_data_error(
        dataset, tmp_path, line, text):
    # read as a spectrum, it would fail the fit for a reason it does not have
    data, fits = tmp_path / "data", tmp_path / "fits"
    data.mkdir()
    fits.mkdir()
    name = "b38_s1.7200_d41.7800"
    shutil.copy(dataset / (name + ".json"), data / (name + ".json"))
    lines = (dataset / (name + ".csv")).read_text().splitlines()
    lines[line] = text + lines[line][lines[line].index(","):]
    (data / (name + ".csv")).write_text("\n".join(lines) + "\n")
    assert main(["fit", "--in", str(data), "--out", str(fits)]) == 3
    doc = json.loads((fits / (name + "_fit.json")).read_text())
    assert doc["reason"] == "DataError"
    assert name + ".csv" in doc["detail"]
    assert "frequencies must be finite" in doc["detail"]


def test_analyze_ep_refuses_a_file_that_is_not_utf8(tmp_path, capsys):
    path = tmp_path / "table"
    path.write_bytes(b"\xff\xfe\x00{\x93\n")
    assert_data_error(main(["analyze", "ep", "--in", str(path),
                            "--out", str(tmp_path)]), capsys)


def test_analyze_ep_refuses_a_scan_csv_line_that_is_not_utf8(tmp_path,
                                                             capsys):
    assert main(["analyze", "scan", "--family", "b38",
                 "--grid", "1.62:1.82:0.01x41.68:41.88:0.01",
                 "--out", str(tmp_path)]) == 0
    path = tmp_path / "scan.csv"
    lines = path.read_bytes().splitlines(keepends=True)
    lines[10] = b"1.63,\xff\xfe\n"
    path.write_bytes(b"".join(lines))
    capsys.readouterr()
    assert_data_error(main(["analyze", "ep", "--in", str(path),
                            "--out", str(tmp_path)]), capsys)


def test_analyze_pt_refuses_a_malformed_trace_row(tmp_path, capsys):
    assert main(["analyze", "curve", "--family", "b38",
                 "--out", str(tmp_path)]) == 0
    path = tmp_path / "trace.json"
    doc = json.loads(path.read_text())
    del doc["points"][2]["delta_mm"]
    path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert_data_error(main(["analyze", "pt", "--curve", str(path),
                            "--out", str(tmp_path)]), capsys)
    assert not (tmp_path / "pt.json").exists()


# ------------------------------------------------------------- entry point


def test_help_and_missing_subcommand():
    assert main(["--help"]) == 0
    assert main([]) == 1
    assert main(["analyze"]) == 1
    assert main(["frobnicate"]) == 1


def test_module_entry_point_runs():
    # the child imports eplab from this process's path, as pytest set it up
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.run([sys.executable, "-m", "eplab", "--help"],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert "synth" in proc.stdout


def test_importing_the_main_module_does_not_run_the_cli(monkeypatch):
    # a spawn-started worker imports __main__; it must not rerun the command
    monkeypatch.setattr(sys, "argv", ["eplab", "--help"])
    monkeypatch.delitem(sys.modules, "eplab.__main__", raising=False)
    importlib.import_module("eplab.__main__")


PUBLIC_NAMES = [
    "EPS_CROSS", "BasisTransform", "EffHamiltonian", "EigenPair",
    "Observables", "PTNormalForm", "PTReport", "Radicand", "TransformKind",
    "eigenvalues", "extract_tau", "from_matrix", "from_pauli", "gauge_fix",
    "is_ep", "observables", "pt_commutator_norm", "pt_report", "radicand",
    "width_offset",
    "CSV_HEADER", "CouplingSet", "NoiseSpec", "Spectrum", "SyntheticFamily",
    "effective_hamiltonian", "frequency_grid", "load_family",
    "read_spectrum", "smatrix_at", "synth_spectrum",
    "FitConfig", "FitResult", "fit_spectrum", "seed_initializer",
    "BraidTrace", "CurveTrace", "EPLocation", "ParamGrid", "Permutation",
    "ScanResult", "braid", "braid_loop", "locate_ep", "scan",
    "trace_pt_curve",
    "EplabError", "InvalidArgumentError", "DegenerateGaugeError",
    "NotGaugeFixedError", "SingularRatioError", "NotOnPTCurveError",
    "OutOfBoundsError", "PoleOnGridError", "UnresolvableDoubletError",
    "InsufficientSpanError", "NonConvergenceError", "ScanQualityError",
    "EPOutsideWindowError", "NoEPFoundError", "RefineLoopError",
    "UsageError", "DataError",
]


def test_public_names_are_listed_once():
    assert eplab.__all__ == PUBLIC_NAMES
    namespace = {}
    exec("from eplab import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(PUBLIC_NAMES)
