"""Acceptance gate: ten pinned criteria, one test each.

Every tolerance and runtime bound here is part of the package contract and
must not be loosened. Criterion 9 performs the full 41x41 end-to-end
recovery run plus a 100-seed noise study, so this module dominates the
suite's runtime (several minutes on one core).
"""

import cmath
import math
import time

import numpy as np

from eplab.core import (
    EffHamiltonian,
    eigenvalues,
    eigenvalues_sorted,
    extract_tau,
    from_matrix,
    gauge_fix,
    pt_report,
    radicand,
    width_offset,
)
from eplab.epscan import (
    ParamGrid,
    braid_loop,
    locate_ep,
    scan,
    trace_pt_curve,
)
from eplab.errors import EplabError
from eplab.fit import FitConfig, fit_spectrum
from eplab.synth import NoiseSpec, load_family, synth_spectrum

B38_EP = (1.72, 41.78)
B0_EP = (1.68, 41.19)
GRID = (2725.0, 40.0, 0.01)

N_ORACLE = 10_000
N_INVARIANCE = 1_000
N_DICHOTOMY = 1_000
N_LOOPS = 50


def _random_hams(n, seed):
    rng = np.random.default_rng(seed)
    scales = rng.choice([0.1, 1.0, 10.0], size=n)
    vals = rng.normal(size=(n, 8)) * scales[:, None]
    return [EffHamiltonian(complex(v[0], v[1]), complex(v[2], v[3]),
                       complex(v[4], v[5]), complex(v[6], v[7]))
            for v in vals]


def _paired_err(a1, a2, b1, b2):
    straight = max(abs(a1 - b1), abs(a2 - b2))
    crossed = max(abs(a1 - b2), abs(a2 - b1))
    return min(straight, crossed)


def _ep_window(ep, half=0.25, step=0.01):
    return ParamGrid(ep[0] - half, ep[0] + half,
                     ep[1] - half, ep[1] + half, step)


def test_criterion_01_eigenvalue_oracle_equivalence():
    """Closed-form eigenvalues match companion-matrix roots to 1e-10, < 5 s."""
    hams = _random_hams(N_ORACLE, seed=101)
    t0 = time.monotonic()
    worst = 0.0
    for ham in hams:
        pair = eigenvalues(ham)
        m = ham.matrix
        trace = m[0, 0] + m[1, 1]
        det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
        roots = np.roots([1.0, -trace, det])
        scale = max(abs(pair[0]), abs(pair[1]), 1e-300)
        err = _paired_err(pair[0], pair[1], roots[0], roots[1]) / scale
        worst = max(worst, err)
    elapsed = time.monotonic() - t0
    assert worst <= 1e-10
    assert elapsed < 5.0


def test_criterion_02_radicand_is_squared_half_splitting():
    """D equals ((E1-E2)/2)^2 to 1e-10 relative on the same ensemble."""
    for ham in _random_hams(N_ORACLE, seed=101):
        pair = eigenvalues(ham)
        d = radicand(ham).d
        ref = (0.5 * (pair[0] - pair[1])) ** 2
        assert abs(d - ref) <= 1e-10 * max(abs(d), abs(ref), 1e-300)


def _rotation(angle):
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[c, s], [-s, c]], dtype=complex)


def _twist(angle):
    return np.array([[cmath.exp(1j * angle), 0.0],
                     [0.0, cmath.exp(-1j * angle)]], dtype=complex)


def test_criterion_03_radicand_basis_invariance():
    """reh2, imh2, cross survive 1e3 random transform compositions to 1e-10."""
    rng = np.random.default_rng(103)
    # the symmetry chain's basis changes: rotation, twist, rotation
    kinds = [_rotation, _twist, _rotation]
    for ham in _random_hams(N_INVARIANCE, seed=113):
        before = radicand(ham)
        moved = ham
        for _ in range(int(rng.integers(1, 4))):
            u = kinds[rng.integers(len(kinds))](rng.uniform(-math.pi, math.pi))
            moved = from_matrix(u @ moved.matrix @ u.conj().T)
        after = radicand(moved)
        tol = 1e-10 * (1.0 + abs(before.reh2) + abs(before.imh2)
                       + abs(before.cross))
        assert abs(after.reh2 - before.reh2) <= tol
        assert abs(after.imh2 - before.imh2) <= tol
        assert abs(after.cross - before.cross) <= tol


def test_criterion_04_real_or_conjugate_dichotomy():
    """cross=0: offset spectrum is real iff reh2 >= imh2, else conjugate."""
    rng = np.random.default_rng(104)
    n_real = n_conj = 0
    for _ in range(N_DICHOTOMY):
        re = rng.normal(size=3)
        im = rng.normal(size=3)
        im -= (im @ re) / (re @ re) * re
        # keep |Im h| clearly away from |Re h| so neither side is marginal
        factor = rng.uniform(0.2, 0.85) if rng.random() < 0.5 \
            else rng.uniform(1.15, 2.0)
        im *= factor * np.linalg.norm(re) / np.linalg.norm(im)
        h = re + 1j * im
        depth = 1.1 * math.hypot(np.linalg.norm(re), np.linalg.norm(im)) + 0.1
        mean = rng.normal() * 10.0 - 1j * depth
        ham = EffHamiltonian(mean + h[2], mean - h[2], h[0], h[1])

        rad = radicand(ham)
        pair = eigenvalues(width_offset(ham))
        scale = max(1.0, abs(pair[0]), abs(pair[1]))
        if rad.reh2 >= rad.imh2:
            n_real += 1
            assert abs(pair[0].imag) <= 1e-10 * scale
            assert abs(pair[1].imag) <= 1e-10 * scale
        else:
            n_conj += 1
            assert abs(pair[0].imag + pair[1].imag) <= 1e-10 * scale
            assert abs(pair[0].imag) > 1e-6 * scale
    assert n_real > 100 and n_conj > 100    # both branches exercised


def test_criterion_05_normal_form_on_both_family_curves():
    """Normal-form residual and commutator < 1e-9 on every traced point."""
    for name, ep in (("b38", B38_EP), ("b0", B0_EP)):
        fam = load_family(name)
        trace = trace_pt_curve(scan(_ep_window(ep), fam), ep)
        assert trace.hams is not None and trace.n_points > 40
        for ham in trace.hams:
            rep = pt_report(ham)
            assert rep.form.residual < 1e-9
            assert rep.commutator_norm < 1e-9
        if name == "b38":
            assert np.max(np.abs(trace.tau)) > 0.5   # nonreciprocal points too


def test_criterion_06_degeneracy_localization():
    """Both presets localize to the pinned (s, delta) within one 0.01 step."""
    for name, ep in (("b38", B38_EP), ("b0", B0_EP)):
        fam = load_family(name)
        t0 = time.monotonic()
        result = scan(_ep_window(ep), fam)
        assert time.monotonic() - t0 < 60.0
        assert result.grid.shape == (51, 51)
        loc = locate_ep(result)
        assert abs(loc.s - ep[0]) <= 0.01
        assert abs(loc.delta - ep[1]) <= 0.01


def test_criterion_07_curve_structure():
    """On-curve purity < 1e-9; split components cross exactly at the EP."""
    fam = load_family("b38")
    trace = trace_pt_curve(scan(_ep_window(B38_EP), fam), B38_EP)

    rel = np.abs(trace.cross) / (trace.reh2 + trace.imh2)
    assert np.max(rel) < 1e-9

    diffs = trace.reh2 - trace.imh2
    k = trace.crossing_index
    assert np.argmin(np.abs(diffs)) == k
    assert np.hypot(trace.points[k, 0] - B38_EP[0],
                    trace.points[k, 1] - B38_EP[1]) <= trace.step
    for i in range(trace.n_points):
        ds = trace.points[i, 0] - B38_EP[0]
        if abs(ds) > 0.02:
            assert np.sign(diffs[i]) == np.sign(ds)


def test_criterion_08_braiding_statistics():
    """50/50 random loops per class: swap, identity, doubled identity."""
    fam = load_family("b38")
    table = scan(ParamGrid(*fam.bounds_s, *fam.bounds_delta), fam)
    rng = np.random.default_rng(108)

    def enclosing_geometry():
        radius = rng.uniform(0.05, 0.20)
        shift = 0.4 * radius * rng.random()
        angle = rng.uniform(0.0, 2.0 * math.pi)
        center = (B38_EP[0] + shift * math.cos(angle),
                  B38_EP[1] + shift * math.sin(angle))
        return center, radius

    for _ in range(N_LOOPS):
        center, radius = enclosing_geometry()
        assert braid_loop(table, center,
                          radius).permutation == "swap"

    for _ in range(N_LOOPS):
        radius = rng.uniform(0.03, 0.08)
        dist = radius + rng.uniform(0.02, 0.10)
        angle = rng.uniform(0.0, 2.0 * math.pi)
        center = (B38_EP[0] + dist * math.cos(angle),
                  B38_EP[1] + dist * math.sin(angle))
        assert braid_loop(table, center,
                          radius).permutation == "identity"

    for _ in range(N_LOOPS):
        center, radius = enclosing_geometry()
        assert braid_loop(table, center, radius,
                          turns=2).permutation == "identity"


def test_criterion_09_end_to_end_recovery():
    """41x41 noiseless recovery < 1e-3 MHz at 99% of points in < 10 min,
    and 0.05 MHz at the 95th percentile over 100 noisy seeds."""
    fam = load_family("b38")
    # default multi-start config: from the closed-form seed every point of
    # this window converges in one LM iteration, so no scattered start runs
    cfg = FitConfig()
    s_values = np.round(np.arange(B38_EP[0] - 0.20, B38_EP[0] + 0.2001, 0.01), 6)
    d_values = np.round(np.arange(B38_EP[1] - 0.20, B38_EP[1] + 0.2001, 0.01), 6)
    assert len(s_values) == 41 and len(d_values) == 41

    t0 = time.monotonic()
    errs = []
    for s in s_values:
        for d in d_values:
            truth = eigenvalues_sorted(fam.h_at(s, d))
            spec = synth_spectrum(fam.internal_at(s, d), fam.coupling, *GRID)
            try:
                res = fit_spectrum(spec, cfg)
            except EplabError:
                errs.append(np.inf)
                continue
            fitted = eigenvalues_sorted(res.ham)
            errs.append(_paired_err(fitted[0], fitted[1],
                                    truth[0], truth[1]))
    elapsed = time.monotonic() - t0
    errs = np.asarray(errs)
    assert elapsed < 600.0
    assert np.mean(errs < 1e-3) >= 0.99

    s, d = 1.69, 41.82
    # well-separated point: the seed's start reaches the noise floor and
    # the white-residual exit stops there, so the second start never runs
    cfg = FitConfig(n_starts=2)
    truth = eigenvalues_sorted(fam.h_at(s, d))
    noisy_errs = []
    for seed in range(100):
        spec = synth_spectrum(fam.internal_at(s, d), fam.coupling, *GRID,
                              noise=NoiseSpec(sigma=0.005, seed=seed))
        try:
            res = fit_spectrum(spec, cfg)
        except EplabError:
            noisy_errs.append(np.inf)    # counts against the percentile
            continue
        fitted = eigenvalues_sorted(res.ham)
        noisy_errs.append(_paired_err(fitted[0], fitted[1],
                                      truth[0], truth[1]))
    assert np.percentile(noisy_errs, 95) < 0.05


def test_criterion_10_reciprocity():
    """Reciprocal family: S12 == S21 bit-exact and fitted |tau| < 1e-3;
    nonreciprocal family: fitted tau tracks the planted profile to 2%."""
    b0 = load_family("b0")
    rng = np.random.default_rng(110)
    for _ in range(5):
        s = rng.uniform(*b0.bounds_s)
        d = rng.uniform(*b0.bounds_delta)
        spec = synth_spectrum(b0.internal_at(s, d), b0.coupling, *GRID)
        assert np.array_equal(spec.s[1], spec.s[2])

    cfg = FitConfig(n_starts=2)
    spec = synth_spectrum(b0.internal_at(1.63, 41.25), b0.coupling, *GRID)
    assert abs(fit_spectrum(spec, cfg).tau) < 1e-3

    b38 = load_family("b38")
    for t in (-0.12, -0.06, 0.06, 0.12, 0.18):
        s, d = B38_EP[0] + t, B38_EP[1] + t     # points on the planted curve
        planted = extract_tau(gauge_fix(b38.h_at(s, d))[0])
        spec = synth_spectrum(b38.internal_at(s, d), b38.coupling, *GRID)
        fitted = fit_spectrum(spec, cfg).tau
        if abs(planted) >= 1e-3:
            assert abs(fitted - planted) <= 0.02 * abs(planted)
        else:
            assert abs(fitted - planted) <= 2e-5
