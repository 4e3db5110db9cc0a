"""End-to-end command line tests: exit codes, file layout, idempotence.

Everything runs main() in process for speed; one subprocess test proves the
module entry point works. Fits use --n-starts 2 to keep the suite quick.
"""

import hashlib
import importlib
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import eplab.cli
from eplab import load_family
from eplab.cli import main
from eplab.core import eigenvalues_sorted
from eplab.epscan import ScanResult
from eplab.synth import CSV_HEADER, read_spectrum

B38_EP = (1.72, 41.78)


def digest(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def synth_args(out, grid="1.68:1.76:0.02x41.74:41.82:0.02", sigma="0"):
    return ["synth", "--family", "b38", "--grid", grid,
            "--sigma", sigma, "--seed", "3", "--out", str(out)]


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


def test_fit_failure_threshold_sets_exit_code(tmp_path):
    out = tmp_path / "out"
    out.mkdir()
    freqs = np.arange(2705.0, 2745.01, 0.5)
    rows = [CSV_HEADER]
    for f in freqs:
        rows.append(",".join("%.17g" % v for v in
                             (f, 1, 0, 0, 0, 0, 0, 1, 0)))
    flat = tmp_path / "flat.csv"
    flat.write_text("\n".join(rows) + "\n")
    (tmp_path / "flat.json").write_text(
        json.dumps({"s_mm": 1.0, "delta_mm": 2.0}))

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
    assert summary.reasons == {(0, 0): "InsufficientSpanError"}


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


def test_commands_run_one_blas_thread(monkeypatch):
    before = _blas_threads(None)
    seen = []

    def counting_fit(ns):
        seen.append(_blas_threads(None))
        seen.extend(eplab.cli._pool_map(_blas_threads, [0, 1, 2], ns.jobs))
        return 0

    monkeypatch.setattr(eplab.cli, "_cmd_fit", counting_fit)
    for jobs in ("1", "2"):
        assert main(["fit", "--in", "unused", "--jobs", jobs]) == 0
    assert seen == [[1] * len(before)] * 8       # this process and workers
    assert _blas_threads(None) == before         # the caller's count is back


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

    assert main(["analyze", "pt", "--curve", str(tmp_path / "trace.json"),
                 "--out", str(tmp_path)]) == 0
    doc = json.loads((tmp_path / "pt.json").read_text())
    assert doc["phase_flips"] == [doc["crossing_index"]]
    assert doc["max_residual"] < 1e-6
    assert doc["max_commutator_norm"] < 1e-6
    phases = [row["phase"] for row in doc["points"]]
    k = doc["crossing_index"]
    assert set(phases[:k]) == {"broken"} and set(phases[k:]) == {"exact"}
    out = capsys.readouterr().out
    assert "phase flips at index" in out


def test_analyze_pt_needs_matrices(tmp_path):
    assert main(["analyze", "scan", "--family", "b38",
                 "--grid", "1.62:1.82:0.01x41.68:41.88:0.01",
                 "--out", str(tmp_path)]) == 0
    assert main(["analyze", "curve", "--in", str(tmp_path / "scan.csv"),
                 "--out", str(tmp_path)]) == 0
    assert main(["analyze", "pt", "--curve", str(tmp_path / "trace.json"),
                 "--out", str(tmp_path)]) == 2


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


def test_analyze_scan_from_spectra_directory(tmp_path):
    data = tmp_path / "data"
    data.mkdir()
    assert main(["synth", "--family", "b38",
                 "--grid", "1.69:1.69:0.01x41.80:41.81:0.01",
                 "--sigma", "0", "--out", str(data)]) == 0
    assert main(["analyze", "scan", "--in", str(data),
                 "--out", str(tmp_path)]) == 0
    summary = ScanResult.read_csv(tmp_path / "scan.csv")
    assert summary.grid.shape == (1, 2)
    assert summary.n_failed == 0


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
