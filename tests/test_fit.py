"""Fit-stage tests: residual contract, seeding, recovery, canonical gauge.

Recovery tests compare against the canonicalized generator truth: the raw
family parameters are one gauge copy out of a continuum, and the fitter is
contractually allowed to return only the canonical representative.
"""

import itertools
import json
import math
import os
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import eplab.cli
import eplab.fit
from eplab import (
    CouplingSet,
    EffHamiltonian,
    NoiseSpec,
    Spectrum,
    effective_hamiltonian,
    load_family,
    synth_spectrum,
)
from eplab.core import (
    BasisTransform,
    TransformKind,
    eigenvalues_sorted,
    radicand,
)
from eplab.errors import (
    InsufficientSpanError,
    InvalidArgumentError,
    NonConvergenceError,
    UnresolvableDoubletError,
)
from eplab.fit import (
    FitConfig,
    FitResult,
    CHANNEL_NAMES,
    N_PARAMS,
    NOISE_FLOOR_SIGMAS,
    POLE_SENTINEL,
    Termination,
    _Model,
    _canonicalize,
    _levenberg_marquardt,
    _channel_row_mask,
    _reconstruct_coupling,
    _residual_lag1,
    _scatter_starts,
    fit_spectrum,
    pack_params,
    residual_vector,
    seed_initializer,
    unpack_params,
)

GENERIC = (1.69, 41.82)        # a b38 point away from the EP and the window edge
GRID = (2725.0, 40.0, 0.01)


def family_spectrum(name, s, delta, noise=None):
    fam = load_family(name)
    return fam, synth_spectrum(fam.internal_at(s, delta), fam.coupling,
                               *GRID, noise)


def truth_params(fam, s, delta):
    """Packed parameter vector that reproduces the spectrum bit-exactly."""
    return truth_params_of(fam.internal_at(s, delta), fam.coupling)


def truth_params_of(ham, coupling):
    eff = effective_hamiltonian(ham, coupling)
    return pack_params(eff, coupling.antenna)


def canonical_truth(fam, s, delta):
    """Generator truth mapped to the gauge representative the fitter returns."""
    eff = effective_hamiltonian(fam.internal_at(s, delta), fam.coupling)
    return _canonicalize(eff, fam.coupling.antenna)


def paired_error(got, want):
    """Eigenvalue comparison robust to label order at near-degeneracy."""
    a = max(abs(got[0] - want[0]), abs(got[1] - want[1]))
    b = max(abs(got[0] - want[1]), abs(got[1] - want[0]))
    return min(a, b)


def separated_doublet(separation=10.0):
    """Two uncoupled levels, widths 2*pi*(0.04+0.09) = 0.817 MHz each."""
    ham = EffHamiltonian(2725.0 - separation / 2, 2725.0 + separation / 2,
                         0.0, 0.0)
    w = CouplingSet(np.array([
        [0.2, 0.0], [0.0, 0.2],          # antennas
        [0.3, 0.0], [0.0, 0.3],          # dissipative
    ]))
    return ham, w


def noise_floor_limit(spec):
    """The lag-1 correlation below which a 4-channel residual is white."""
    return NOISE_FLOOR_SIGMAS / math.sqrt(2.0 * 4 * spec.n_points)


# ------------------------------------------------------------------ residuals


def test_residual_zero_at_generator_truth():
    fam, spec = family_spectrum("b38", *GENERIC)
    r = residual_vector(truth_params(fam, *GENERIC), spec)
    assert r.shape == (8 * spec.n_points,)
    assert np.max(np.abs(r)) == 0.0


def test_residual_rms_matches_noise_level():
    sigma = 0.005
    fam, spec = family_spectrum("b38", *GENERIC, NoiseSpec(sigma, seed=11))
    r = residual_vector(truth_params(fam, *GENERIC), spec)
    rms = math.sqrt(float(r @ r) / r.size)
    assert abs(rms - sigma) < 0.1 * sigma


def test_residual_decoupled_params_give_identity_mismatch():
    fam, spec = family_spectrum("b38", *GENERIC)
    p = truth_params(fam, *GENERIC)
    p[8:12] = 0.0                         # W = 0 makes the model S = identity
    r = residual_vector(p, spec)
    expected = np.empty((spec.n_points, 8))
    expected[:, 0] = (1.0 - spec.s11).real
    expected[:, 1] = (1.0 - spec.s11).imag
    expected[:, 2] = -spec.s12.real
    expected[:, 3] = -spec.s12.imag
    expected[:, 4] = -spec.s21.real
    expected[:, 5] = -spec.s21.imag
    expected[:, 6] = (1.0 - spec.s22).real
    expected[:, 7] = (1.0 - spec.s22).imag
    assert np.array_equal(r, expected.ravel())


def test_residual_pole_on_grid_returns_sentinel():
    fam, spec = family_spectrum("b38", *GENERIC)
    # lossless decoupled params with a level exactly on a grid frequency
    p = np.zeros(N_PARAMS)
    p[0] = float(spec.freqs[17])
    p[2] = 2750.0
    r = residual_vector(p, spec)
    assert np.all(np.isfinite(r))
    assert np.all(r == POLE_SENTINEL)


ALL_MASKS = [names for k in range(1, 5)
             for names in itertools.combinations(CHANNEL_NAMES, k)]


def central_difference_jacobian(params, spec, mask):
    """(8n, 12) reference from 24 public residual vectors."""
    steps = 1e-7 * (np.abs(params) + 1.0)
    cols = []
    for k in range(N_PARAMS):
        up, down = params.copy(), params.copy()
        up[k] += steps[k]
        down[k] -= steps[k]
        cols.append((residual_vector(up, spec, mask)
                     - residual_vector(down, spec, mask)) / (2.0 * steps[k]))
    return np.array(cols).T


def normal_equations(params, spec, mask):
    """J^T J and J^T r as the fit's LM iteration takes them."""
    model = _Model(spec, _channel_row_mask(mask))
    r, _ = model.residual(params)
    return model.normal_equations(params, r)


def kicked_truth(s, delta, kick):
    """Parameters within a few widths of a b38 point: levels by 0.05 MHz,
    W by 2%."""
    fam, spec = family_spectrum("b38", s, delta)
    p = truth_params(fam, s, delta)
    p[:8] += 0.05 * np.asarray(kick[:8])
    p[8:] *= 1.0 + 0.02 * np.asarray(kick[8:])
    return spec, p


KICKS = st.lists(st.floats(-1.0, 1.0), min_size=N_PARAMS, max_size=N_PARAMS)


@settings(max_examples=8, deadline=None)
@given(s=st.floats(1.52, 1.92), delta=st.floats(41.58, 41.98), kick=KICKS)
def test_jacobian_matches_central_differences(s, delta, kick):
    # the fit never forms the Jacobian; its products J^T J and J^T r must
    # match those of the central differences, per column within 1e-5 of
    # the column's norm
    spec, p = kicked_truth(s, delta, kick)
    for mask in ALL_MASKS:
        jtj, grad = normal_equations(p, spec, mask)
        ref = central_difference_jacobian(p, spec, mask)
        r = residual_vector(p, spec, mask)
        assert jtj.shape == (N_PARAMS, N_PARAMS)
        assert grad.shape == (N_PARAMS,)
        col_norm = np.linalg.norm(ref, axis=0)
        assert np.all(np.abs(jtj - ref.T @ ref)
                      <= 1e-5 * np.outer(col_norm, col_norm))
        assert np.all(np.abs(grad - ref.T @ r)
                      <= 1e-5 * col_norm * np.linalg.norm(r))


@settings(max_examples=8, deadline=None)
@given(s=st.floats(1.52, 1.92), delta=st.floats(41.58, 41.98), kick=KICKS,
       mask=st.sampled_from(ALL_MASKS[:-1]), seed=st.integers(0, 2 ** 16))
def test_masked_channel_data_never_enters_the_normal_equations(
        s, delta, kick, mask, seed):
    spec, p = kicked_truth(s, delta, kick)
    include = _channel_row_mask(mask)
    rng = np.random.default_rng(seed)
    s_other = spec.s.copy()
    s_other[~include] = (rng.standard_normal((4, spec.n_points))
                         + 1j * rng.standard_normal((4, spec.n_points))
                         )[~include]
    other = Spectrum(spec.freqs, s_other)
    for got, want in zip(normal_equations(p, other, mask),
                         normal_equations(p, spec, mask)):
        assert np.array_equal(got, want)


def test_residual_rejects_bad_shapes():
    fam, spec = family_spectrum("b38", *GENERIC)
    with pytest.raises(InvalidArgumentError):
        residual_vector(np.zeros(5), spec)


# -------------------------------------------------------------------- seeding


@settings(max_examples=25, deadline=None)
@given(s=st.floats(1.4, 2.04), delta=st.floats(41.46, 42.1))
def test_seed_eigenvalues_match_noiseless_truth(s, delta):
    # the closed-form seed is exact on a noiseless spectrum up to rounding,
    # which the square root of the discriminant amplifies near the EP
    fam, spec = family_spectrum("b38", s, delta)
    got = eigenvalues_sorted(unpack_params(seed_initializer(spec))[0])
    assert paired_error(got, eigenvalues_sorted(fam.h_at(s, delta))) < 1e-6


def test_seed_positions_within_half_width():
    ham, w = separated_doublet(10.0)     # ~12 widths apart
    spec = synth_spectrum(ham, w, *GRID)
    p0 = seed_initializer(spec)
    gamma = 2.0 * math.pi * (0.2 ** 2 + 0.3 ** 2)
    assert abs(p0[0] - ham.e1.real) < 0.5 * gamma
    assert abs(p0[2] - ham.e2.real) < 0.5 * gamma
    assert 0.25 * gamma < -2.0 * p0[1] < 4.0 * gamma
    assert 0.25 * gamma < -2.0 * p0[3] < 4.0 * gamma


def test_seed_merged_doublet_splits_symmetrically():
    fam = load_family("b38")
    spec = synth_spectrum(fam.internal_at(fam.s_ep, fam.delta_ep), fam.coupling,
                          *GRID)
    q = 0.5 * (np.abs(spec.s11) ** 2 + np.abs(spec.s22) ** 2)
    f_dip = spec.freqs[int(np.argmin(q))]
    p0 = seed_initializer(spec)
    assert p0[0] < p0[2]
    assert abs(0.5 * (p0[0] + p0[2]) - f_dip) < 1.0
    assert abs(p0[0] - p0[2]) < 4.0



def test_seed_flat_spectrum_raises():
    # W = 0 gives S = identity; keep the lossless poles off the grid
    ham = EffHamiltonian(2720.0037, 2730.0041, 0.0, 0.0)
    w0 = CouplingSet(np.zeros((4, 2)))
    spec = synth_spectrum(ham, w0, *GRID)
    with pytest.raises(UnresolvableDoubletError):
        seed_initializer(spec)


def test_seed_needs_enough_samples():
    ham, w = separated_doublet()
    spec = synth_spectrum(ham, w, 2725.0, 0.1, 0.01)    # 11 points
    with pytest.raises(UnresolvableDoubletError):
        seed_initializer(spec)


def test_fit_refuses_poles_outside_window():
    # a true pole above the 2705-2745 MHz window: the seed moves it to the
    # edge, and every start runs into the edge trying to leave
    _, w = separated_doublet()
    spec = synth_spectrum(EffHamiltonian(2720.0, 2748.0, 0.0, 0.0), w, *GRID)
    with pytest.raises(NonConvergenceError, match="0 converged, 8 runaway"):
        fit_spectrum(spec)


@pytest.mark.parametrize("point", [(1.72, 41.78), (1.57, 41.63)])
def test_seed_moves_a_pole_outside_the_window_to_its_edge(point):
    # at sigma = 0.05 this noise seed throws one seeded pole of a mid-window
    # doublet past 2745 MHz; moved to the edge with its width, it still
    # seeds a fit that converges from the first start
    fam, spec = family_spectrum("b38", *point, NoiseSpec(0.05, seed=25))
    with pytest.MonkeyPatch.context() as m:
        m.setattr(eplab.fit, "_poles_physical", lambda *args: True)
        raw = eigenvalues_sorted(unpack_params(seed_initializer(spec))[0])
    moved = eigenvalues_sorted(unpack_params(seed_initializer(spec))[0])
    f_hi = spec.freqs[-1]
    assert raw[0].real < f_hi < raw[1].real
    assert moved[0] == pytest.approx(raw[0], abs=1e-9)
    assert moved[1] == pytest.approx(complex(f_hi, raw[1].imag), abs=1e-9)

    res = fit_spectrum(spec)
    assert (res.stop_rule, res.starts_run) == ("noise_floor", 1)
    assert res.residual_rms == pytest.approx(0.05, rel=0.02)
    assert paired_error(eigenvalues_sorted(res.ham),
                        eigenvalues_sorted(fam.h_at(*point))) < 0.2


def test_seed_moves_amplifying_poles_passive():
    # the seed finds the amplifying pole exactly, then lowers both Im e by
    # its Im E plus 0.05 MHz: positions and the width difference stay, and
    # the seed is passive
    _, w = separated_doublet()
    ham = EffHamiltonian(2720.0 + 2.0j, 2730.0, 0.0, 0.0)
    spec = synth_spectrum(ham, w, *GRID)
    truth = eigenvalues_sorted(effective_hamiltonian(ham, w))
    assert max(e.imag for e in truth) > 0.0
    lift = max(e.imag for e in truth) + 0.05
    got = eigenvalues_sorted(unpack_params(seed_initializer(spec))[0])
    for g, t in zip(got, truth):
        assert abs(g - (t - 1j * lift)) < 1e-6
    assert max(e.imag for e in got) == pytest.approx(-0.05)


def qr_two_pole_passes(x, r):
    """The seed's passes as a QR projection of the (3, k, n) weighted
    columns, as the seed took them before the moment form; the reference
    that pins _two_pole_moments."""
    powers = x ** np.array([2.0, 1.0, 0.0])[:, None, None]
    d = np.ones_like(x)
    for _ in range(eplab.fit.SEED_PASSES):
        w = 1.0 / np.abs(d)
        q, tri = np.linalg.qr(np.stack([w * x, w], axis=1))
        z = r * w * powers                # columns w r x^2, w r x, w r
        z -= (z.reshape(-1, x.size) @ q @ q.T).reshape(z.shape)
        gram = z.reshape(3, -1).conj() @ z.reshape(3, -1).T
        scale = (gram[1, 1] * gram[2, 2]).real
        if not scale - abs(gram[1, 2]) ** 2 > 1e-12 * scale:
            raise UnresolvableDoubletError("the spectrum shows no resonance")
        c1, c0 = np.linalg.solve(gram[1:, 1:], -gram[1:, 0])
        d = x * (x + c1) + c0
    return c1, c0, np.linalg.solve(tri, q.T @ (r * (w * d)).T)


def seed_or_error(spec, mask):
    try:
        return seed_initializer(spec, mask)
    except UnresolvableDoubletError as err:
        return type(err)


def level_peaks(fam, s, delta, channels):
    """The peak |S - delta| each level adds to the channels: its residue
    2 pi |(W v) (u W^T)| over its half width, for right and left
    eigenvectors v, u of the effective matrix."""
    eff = effective_hamiltonian(fam.internal_at(s, delta), fam.coupling)
    energies, right = np.linalg.eig(np.array(eff.matrix))
    left = np.linalg.inv(right)
    w = fam.coupling.antenna
    peaks = []
    for k in range(2):
        residue = np.outer(w @ right[:, k], left[k] @ w.T).reshape(4)[channels]
        peaks.append(2.0 * math.pi * np.max(np.abs(residue)) / -energies[k].imag)
    return peaks


@settings(max_examples=60, deadline=None)
@given(s=st.floats(1.4, 2.04), delta=st.floats(41.46, 42.1),
       log_sigma=st.one_of(st.none(), st.floats(-7.0, math.log10(0.05))),
       mask=st.sampled_from(ALL_MASKS), noise_seed=st.integers(0, 2 ** 16))
def test_moment_seed_matches_qr_reference(s, delta, log_sigma, mask,
                                          noise_seed):
    # the two forms round differently, and a two-pole fit is only as well
    # posed as its weaker level is visible: where the channels show it below
    # 1% of the other or below 10 sigma, both forms are off the truth by
    # up to ~1e-8 and only agree that far (S11 alone near (1.525, 42.054))
    channels = np.flatnonzero(_channel_row_mask(mask))
    sigma = 0.0 if log_sigma is None else 10.0 ** log_sigma
    fam = load_family("b38")
    peaks = level_peaks(fam, s, delta, channels)
    assume(min(peaks) >= max(1e-2 * max(peaks), 10.0 * sigma))
    noise = NoiseSpec(sigma, seed=noise_seed) if sigma else None
    _, spec = family_spectrum("b38", s, delta, noise)
    x = (spec.freqs - GRID[0]) / (0.5 * GRID[1])
    r = spec.s[channels] - np.eye(2).reshape(4)[channels, None]
    c1, c0, num = eplab.fit._two_pole_moments(x, r)
    ref_c1, ref_c0, ref_num = qr_two_pole_passes(x, r)
    # the roots of d to 1e-9 of the half window, the unit of x
    scale = max(abs(ref_c1), math.sqrt(abs(ref_c0)))
    assert abs(c1 - ref_c1) <= 1e-9
    assert abs(c0 - ref_c0) <= 1e-9 * scale
    assert np.max(np.abs(num - ref_num)) <= 1e-9 * np.max(np.abs(ref_num))

    p0 = seed_or_error(spec, mask)
    with pytest.MonkeyPatch.context() as m:
        m.setattr(eplab.fit, "_two_pole_moments", qr_two_pole_passes)
        ref = seed_or_error(spec, mask)
    if isinstance(ref, type):
        assert p0 is ref
        return
    # where both poles share Re E the discriminant lies on the square
    # root's branch cut, and rounding picks the sign of h1 in a seed that
    # mixes the levels equally; either sign is the same seed
    flipped = ref.copy()
    flipped[4:6] *= -1.0
    for part in (slice(0, 8), slice(8, 12)):
        assert min(np.max(np.abs(p0[part] - q[part])) for q in (ref, flipped)) \
            <= 1e-9 * np.max(np.abs(ref[part]))


def test_span_check_reads_eigenvalue_widths():
    # diagonal widths 6.1 MHz pass 4x in the 40 MHz window, but the
    # eigenvalues 2725 - i(3.05 -+ 3) carry widths 0.1 and 12.1 MHz
    t = np.array([[3.05, -3.0], [-3.0, 3.05]]) / math.pi
    evals, vecs = np.linalg.eigh(t)
    w = CouplingSet((vecs * np.sqrt(evals)) @ vecs.T)
    spec = synth_spectrum(EffHamiltonian(2725.0, 2725.0, 0.0, 0.0), w, *GRID)
    widths = sorted(-2.0 * e.imag for e in eigenvalues_sorted(
        effective_hamiltonian(EffHamiltonian(2725.0, 2725.0, 0.0, 0.0), w)))
    assert widths == pytest.approx([0.1, 12.1])
    with pytest.raises(InsufficientSpanError, match="4x the fitted widths"):
        fit_spectrum(spec)


def test_fit_raises_when_window_misses_baseline():
    # critically coupled doublet, widths ~3.1 MHz, window only 0.8 MHz:
    # the grid sits entirely inside the dips, no off-resonant samples
    ham = EffHamiltonian(2723.5, 2726.5, 0.0, 0.0)
    w = CouplingSet(np.array([
        [0.5, 0.0], [0.0, 0.5],
        [0.5, 0.0], [0.0, 0.5],
    ]))
    spec = synth_spectrum(ham, w, 2723.5, 0.8, 0.005)
    with pytest.raises(InsufficientSpanError):
        fit_spectrum(spec)


# ------------------------------------------------------------------- fitting


def test_fit_recovers_generator_parameters():
    fam, spec = family_spectrum("b38", *GENERIC)
    res = fit_spectrum(spec)
    ham_c, w_c = canonical_truth(fam, *GENERIC)

    assert res.converged
    assert res.residual_rms < 1e-9
    assert paired_error(eigenvalues_sorted(res.ham),
                        eigenvalues_sorted(ham_c)) < 1e-6
    for got, want in ((res.ham.e1, ham_c.e1), (res.ham.e2, ham_c.e2),
                      (res.ham.h1, ham_c.h1), (res.ham.h2, ham_c.h2)):
        assert abs(got - want) < 1e-6
    assert np.allclose(res.coupling.antenna, w_c, atol=1e-6)


def test_fit_recovers_reciprocal_family_with_zero_tau():
    fam, spec = family_spectrum("b0", 1.63, 41.25)
    res = fit_spectrum(spec)
    ham_c, _ = canonical_truth(fam, 1.63, 41.25)
    assert res.converged
    assert paired_error(eigenvalues_sorted(res.ham),
                        eigenvalues_sorted(ham_c)) < 1e-6
    assert abs(res.tau) < 1e-3
    assert abs(res.ham.h2) < 1e-6


def test_fit_at_exceptional_point_uses_fallback_seed():
    fam = load_family("b38")
    spec = synth_spectrum(fam.internal_at(fam.s_ep, fam.delta_ep), fam.coupling,
                          *GRID)
    res = fit_spectrum(spec)
    ham_c, _ = canonical_truth(fam, fam.s_ep, fam.delta_ep)
    assert res.converged
    assert res.residual_rms < 1e-9
    assert paired_error(eigenvalues_sorted(res.ham),
                        eigenvalues_sorted(ham_c)) < 1e-4
    assert abs(radicand(res.ham).d) < 1e-4


@pytest.mark.parametrize("mask", [None, ("S11", "S12", "S22")])
def test_fit_uncoupled_doublet_reads_zero_tau(mask):
    # the seed is exact, so the fit lands on h1 = h2 = 0, where the
    # off-diagonal ratio that tau is the phase of is 0/0
    ham, w = separated_doublet()
    res = fit_spectrum(synth_spectrum(ham, w, *GRID), mask=mask)
    assert res.converged
    assert res.tau == 0.0
    assert abs(res.ham.h1) + abs(res.ham.h2) < 1e-9
    assert paired_error(eigenvalues_sorted(res.ham), eigenvalues_sorted(
        effective_hamiltonian(ham, w))) < 1e-9


def test_fitted_tau_matches_planted_profile():
    fam = load_family("b38")
    s_ep, d_ep = fam.s_ep, fam.delta_ep
    for ds in (-0.05, 0.07):
        s, d = s_ep + ds, d_ep + ds      # the planted zero-cross diagonal
        spec = synth_spectrum(fam.internal_at(s, d), fam.coupling, *GRID)
        res = fit_spectrum(spec)
        planted = fam.tau_profile(s, d)
        assert abs(res.tau - planted) < 0.02 * abs(planted)


def test_fit_noisy_spectrum_stays_accurate():
    fam, spec = family_spectrum("b38", *GENERIC, NoiseSpec(0.005, seed=3))
    res = fit_spectrum(spec, FitConfig(n_starts=2))
    ham_c, _ = canonical_truth(fam, *GENERIC)
    assert res.converged
    assert abs(res.residual_rms - 0.005) < 0.001
    assert paired_error(eigenvalues_sorted(res.ham),
                        eigenvalues_sorted(ham_c)) < 0.05


@pytest.mark.parametrize("mask", [None, ("S11", "S22")])
def test_fit_rms_is_the_rms_of_the_public_residual(mask):
    # the LM sums its complex residual over the included channels only, but
    # its rms divides by all 8n rows, as the public residual vector does
    fam, spec = family_spectrum("b38", *GENERIC, NoiseSpec(0.005, seed=3))
    res = fit_spectrum(spec, FitConfig(n_starts=2), mask=mask)
    r = residual_vector(pack_params(res.ham, res.coupling.antenna), spec,
                        mask)
    rms = math.sqrt(float(r @ r) / r.size)
    assert abs(res.residual_rms - rms) <= 1e-12 * rms


def test_fit_observables_invariant_under_rotated_initialization(monkeypatch):
    fam, spec = family_spectrum("b38", *GENERIC)
    res_seeded = fit_spectrum(spec)

    eff = effective_hamiltonian(fam.internal_at(*GENERIC), fam.coupling)
    rot = BasisTransform(TransformKind.ROT_O, 0.3)
    ham_r = rot.apply(eff)
    w_r = fam.coupling.antenna @ rot.matrix.real.T
    monkeypatch.setattr(eplab.fit, "seed_initializer",
                        lambda spec, mask=None: pack_params(ham_r, w_r))
    res_rotated = fit_spectrum(spec)

    assert paired_error(eigenvalues_sorted(res_rotated.ham),
                        eigenvalues_sorted(res_seeded.ham)) < 1e-8 * 2725.0
    ra, rb = radicand(res_seeded.ham), radicand(res_rotated.ham)
    scale = ra.reh2 + ra.imh2
    assert abs(ra.reh2 - rb.reh2) < 1e-8 * scale
    assert abs(ra.imh2 - rb.imh2) < 1e-8 * scale
    assert abs(ra.cross - rb.cross) < 1e-8 * scale


def test_fit_synth_fit_loop_reproduces_spectrum():
    fam, spec = family_spectrum("b38", *GENERIC)
    res = fit_spectrum(spec)
    t00, t01, t11 = res.coupling.t_entries()
    pi = math.pi
    internal = EffHamiltonian(res.ham.e1 + 1j * pi * t00,
                              res.ham.e2 + 1j * pi * t11,
                              res.ham.h1 + 1j * pi * t01,
                              res.ham.h2)
    spec2 = synth_spectrum(internal, res.coupling, *GRID)
    assert np.max(np.abs(spec2.s - spec.s)) < 1e-6


def test_fit_start_order_does_not_change_noiseless_answer(monkeypatch):
    fam, spec = family_spectrum("b38", *GENERIC)
    res_a = fit_spectrum(spec, FitConfig())
    # the same fit with the scatter drawn from another stream
    scatter = eplab.fit._scatter_starts
    monkeypatch.setattr(eplab.fit, "_scatter_starts", lambda p0, n, rng:
                        scatter(p0, n, np.random.default_rng(123)))
    res_b = fit_spectrum(spec, FitConfig())
    assert paired_error(eigenvalues_sorted(res_a.ham),
                        eigenvalues_sorted(res_b.ham)) < 1e-8 * 2725.0


def test_accepted_costs_never_increase():
    # with noise the seed is not the minimum, so the LM accepts steps
    fam, spec = family_spectrum("b38", *GENERIC, NoiseSpec(0.005, seed=3))
    p0 = seed_initializer(spec)
    model = _Model(spec, _channel_row_mask(None))
    _, _, _, converged, _, _, costs = _levenberg_marquardt(p0, model)
    assert converged
    assert len(costs) >= 2
    assert np.all(np.diff(costs) <= 0.0)


def test_lm_start_pinned_at_window_edge_is_runaway():
    # the second level sits at 2748 MHz, outside the 2705-2745 MHz window;
    # a start just inside can only creep toward the edge and stall there
    ham = EffHamiltonian(2720.0, 2748.0, 0.0, 0.0)
    _, w = separated_doublet()
    spec = synth_spectrum(ham, w, *GRID)
    p0 = truth_params_of(ham, w)
    p0[2] = 2743.0
    p, _, _, stop, _, _, costs = _levenberg_marquardt(
        p0, _Model(spec, _channel_row_mask(None)))
    assert stop is Termination.RUNAWAY
    assert not stop                      # reads as converged=False
    assert np.all(np.diff(costs) <= 0.0)
    poles = eigenvalues_sorted(unpack_params(p)[0])
    assert all(spec.freqs[0] <= e.real <= spec.freqs[-1] for e in poles)
    assert all(e.imag <= 0.0 for e in poles)


def test_fit_recovers_point_where_first_step_leaves_window():
    # the seed's first LM step swings a pole far outside the window here;
    # rejecting that trial, not abandoning the start, leads to the truth
    point = (1.64, 41.74)
    fam, spec = family_spectrum("b38", *point)
    res = fit_spectrum(spec)
    ham_c, _ = canonical_truth(fam, *point)
    assert res.converged
    assert paired_error(eigenvalues_sorted(res.ham),
                        eigenvalues_sorted(ham_c)) < 1e-3


def test_noisy_fit_at_ep_stops_at_the_noise_floor():
    fam = load_family("b38")
    spec = synth_spectrum(fam.internal_at(fam.s_ep, fam.delta_ep), fam.coupling,
                          *GRID, NoiseSpec(0.005, seed=7))
    cfg = FitConfig()
    res = fit_spectrum(spec, cfg)
    assert res.converged
    # noise keeps the rms far above EARLY_EXIT_RMS, but the seed's start
    # leaves a white residual, so no second start confirms it
    assert res.starts_run == 1 < cfg.n_starts
    assert res.terminations["converged"] == 1
    assert res.stop_rule == "noise_floor"
    assert abs(res.residual_lag1) < noise_floor_limit(spec)
    assert abs(res.residual_rms - 0.005) < 0.001


def test_structured_residual_does_not_stop_the_starts(monkeypatch):
    # the first start converges 0.03 MHz off the minimum in Re e1: 4% above
    # the floor's rms, with a residual correlated along frequency
    fam, spec = family_spectrum("b38", *GENERIC, NoiseSpec(0.005, seed=1))
    real_lm = eplab.fit._levenberg_marquardt
    runs = []

    def off_minimum_first(p0, model):
        out = real_lm(p0, model)
        if not runs:
            p = out[0].copy()
            p[0] += 0.03
            r, cost = model.residual(p)
            rms = math.sqrt(2.0 * cost / model.rows)
            out = (p, r, rms) + out[3:]
        runs.append(out)
        return out

    monkeypatch.setattr(eplab.fit, "_levenberg_marquardt", off_minimum_first)
    res = fit_spectrum(spec)
    first_r, first_rms = runs[0][1:3]
    assert _residual_lag1(first_r) > 2.0 * noise_floor_limit(spec)
    # the second start reaches the minimum, which is white
    assert (res.starts_run, res.stop_rule) == (2, "noise_floor")
    assert res.residual_rms == runs[1][2] < first_rms / 1.03


def test_zero_residual_reads_white_without_warning(monkeypatch):
    fam, spec = family_spectrum("b38", *GENERIC)
    assert _residual_lag1(np.zeros((4, spec.n_points), dtype=complex)) == 0.0
    p = truth_params(fam, *GENERIC)

    def exact(p0, model):
        r = np.zeros_like(model.data)
        return p, r, 0.0, Termination.CONVERGED, 1, np.ones(N_PARAMS), [0.0]

    monkeypatch.setattr(eplab.fit, "_levenberg_marquardt", exact)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = fit_spectrum(spec)
    assert (res.starts_run, res.stop_rule, res.residual_lag1) == (1, "exact", 0.0)


def test_every_start_of_a_fit_runs_on_one_model(monkeypatch):
    # no start is white and none agrees, so all eight run; they share the
    # fit's one _Model and its Jacobian workspace
    fam, spec = family_spectrum("b38", *GENERIC, NoiseSpec(0.005, seed=1))
    built = []

    class CountedModel(_Model):
        def __init__(self, *args):
            super().__init__(*args)
            built.append(self)

    monkeypatch.setattr(eplab.fit, "_Model", CountedModel)
    monkeypatch.setattr(eplab.fit, "NOISE_FLOOR_SIGMAS", -math.inf)
    monkeypatch.setattr(eplab.fit, "RMS_AGREEMENT", -1.0)
    res = fit_spectrum(spec, FitConfig(n_starts=8))
    assert (res.starts_run, res.stop_rule) == (8, "exhausted")
    assert len(built) == 1


@settings(max_examples=25, deadline=None)
@given(st.sampled_from([(1.69, 41.82), (1.72, 41.78), (1.57, 41.63)]),
       st.floats(-7.0, math.log10(0.05)),
       st.integers(0, 2**16))
def test_white_first_start_is_the_fit(point, log_sigma, noise_seed):
    # whenever the seed's own start converges to a white residual, the fit
    # is that start, canonicalized, whatever the later starts would find
    fam, spec = family_spectrum("b38", *point,
                                NoiseSpec(10.0 ** log_sigma, seed=noise_seed))
    p0 = seed_initializer(spec)
    p, r, rms, stop, iters, _, _ = _levenberg_marquardt(
        p0, _Model(spec, _channel_row_mask(None)))
    assume(stop and _residual_lag1(r) < noise_floor_limit(spec))
    res = fit_spectrum(spec)
    ham, w = _canonicalize(*unpack_params(p))
    assert (res.ham, res.residual_rms, res.iterations) == (ham, rms, iters)
    assert np.array_equal(res.coupling.antenna, w)
    assert (res.starts_run, res.stop_rule) == (1, "noise_floor")
    assert res.residual_lag1 == _residual_lag1(r)


@pytest.mark.parametrize("sigma", [0.02, 0.03])
def test_noisy_fits_where_the_seed_amplifies_converge(sigma):
    # here noise seeds an amplifying pole in most realizations; moved
    # passive, the seed's start converges, and both true poles sit at
    # Re E = 2725 MHz, so eigenvalues compare as matched pairs
    point = (1.57, 41.63)
    fam = load_family("b38")
    truth = eigenvalues_sorted(fam.h_at(*point))
    for noise_seed in range(10):
        _, spec = family_spectrum("b38", *point, NoiseSpec(sigma, seed=noise_seed))
        res = fit_spectrum(spec)
        assert res.converged
        assert paired_error(eigenvalues_sorted(res.ham), truth) <= 2.0 * sigma


@pytest.mark.parametrize("point", [(1.69, 41.82), (1.72, 41.78), (1.57, 41.63)])
def test_lm_restart_from_a_noisy_fit_stays_put(point):
    # the chi^2 stall stop ends a start at the minimum, not short of it: a
    # start from the returned fit moves no eigenvalue by more than 1e-4 MHz
    for noise_seed in (1, 2, 3):
        _, spec = family_spectrum("b38", *point, NoiseSpec(0.005, seed=noise_seed))
        res = fit_spectrum(spec)
        p, _, _, stop, _, _, _ = _levenberg_marquardt(
            pack_params(res.ham, res.coupling.antenna),
            _Model(spec, _channel_row_mask(None)))
        assert stop
        assert paired_error(eigenvalues_sorted(unpack_params(p)[0]),
                            eigenvalues_sorted(res.ham)) <= 1e-4


def test_reflection_only_noisy_fits_stop_before_the_cap():
    # the reflections leave a nearly flat direction (the off-diagonal of
    # W W^T) that a start used to crawl along to MAX_ITERATIONS; the chi^2
    # stall stop ends it once a step gains nothing
    for point in ((1.69, 41.82), (1.72, 41.78), (1.57, 41.63)):
        for noise_seed in range(1, 6):
            _, spec = family_spectrum("b38", *point,
                                      NoiseSpec(0.005, seed=noise_seed))
            res = fit_spectrum(spec, mask=("S11", "S22"))
            assert res.converged
            assert res.terminations["max_iterations"] == 0


def test_fit_reflection_only_mask_converges():
    fam, spec = family_spectrum("b38", *GENERIC)
    res = fit_spectrum(spec, mask=("s11",))
    ham_c, _ = canonical_truth(fam, *GENERIC)
    assert res.converged
    assert paired_error(eigenvalues_sorted(res.ham),
                        eigenvalues_sorted(ham_c)) < 1e-2


# eigenvalue errors (MHz) of the dip-seeded fit at GENERIC with sigma = 0.005
# and noise seed 1, recorded when the closed-form seed replaced dip picking
DIP_SEED_NOISY_ERRORS = {
    ("S11",): 2.665e-02,
    ("S12",): 3.116e-02,
    ("S21",): 1.176e-02,
    ("S22",): 8.736e-03,
    ("S11", "S12"): 3.180e-02,
    ("S11", "S21"): 4.197e-03,
    ("S11", "S22"): 3.996e-03,
    ("S12", "S21"): 8.142e-03,
    ("S12", "S22"): 6.541e-03,
    ("S21", "S22"): 4.966e-03,
    ("S11", "S12", "S21"): 5.300e-03,
    ("S11", "S12", "S22"): 4.029e-03,
    ("S11", "S21", "S22"): 4.307e-03,
    ("S12", "S21", "S22"): 3.636e-03,
    ("S11", "S12", "S21", "S22"): 3.335e-03,
}


@pytest.mark.parametrize("sigma", [0.0, 0.005])
@pytest.mark.parametrize("mask", ALL_MASKS, ids=",".join)
def test_every_mask_fits(mask, sigma):
    # masks without a transmission or without both reflections leave the
    # seed's M1 unidentified; the seed completes it and the LM resolves it
    noise = NoiseSpec(sigma, seed=1) if sigma else None
    fam, spec = family_spectrum("b38", *GENERIC, noise)
    res = fit_spectrum(spec, mask=mask)
    err = paired_error(eigenvalues_sorted(res.ham),
                       eigenvalues_sorted(fam.h_at(*GENERIC)))
    assert res.converged
    assert err <= (1.5 * DIP_SEED_NOISY_ERRORS[mask] if sigma else 1e-6)


def test_mask_validation():
    with pytest.raises(InvalidArgumentError):
        _channel_row_mask(("S13",))
    with pytest.raises(InvalidArgumentError):
        _channel_row_mask(())
    assert np.array_equal(_channel_row_mask(("s21", "S12")),
                          np.array([False, True, True, False]))


def test_agreeing_later_start_keeps_the_earlier(monkeypatch):
    # a later start whose rms is lower only in the last bits must not win;
    # one lower beyond RMS_AGREEMENT does
    fam, spec = family_spectrum("b38", *GENERIC)
    p = truth_params(fam, *GENERIC)
    script = iter([(0.006, 12), (0.005, 17), (0.005 * (1.0 - 1e-12), 41)])
    # a smooth residual, far from white, so only agreement stops the starts
    r = np.ones((4, spec.n_points), dtype=complex)

    def scripted(p0, model):
        rms, iters = next(script)
        return p, r, rms, Termination.CONVERGED, iters, np.ones(N_PARAMS), [1.0]

    monkeypatch.setattr(eplab.fit, "_levenberg_marquardt", scripted)
    res = fit_spectrum(spec)
    assert res.starts_run == 3
    assert (res.residual_rms, res.iterations) == (0.005, 17)
    assert res.stop_rule == "agreement"


def test_scatter_draws_only_the_starts_taken():
    # the seed's start draws nothing; a later start has the same bits
    # whether or not the starts after it are drawn
    p0 = truth_params(load_family("b38"), *GENERIC)
    rng = np.random.default_rng(5)
    starts = _scatter_starts(p0, 8, rng)
    assert np.array_equal(next(starts), p0)
    assert rng.bit_generator.state == np.random.default_rng(5).bit_generator.state
    third = list(itertools.islice(starts, 2))[-1]
    every = list(_scatter_starts(p0, 8, np.random.default_rng(5)))
    assert len(every) == 8
    assert np.array_equal(third, every[2])


def test_nonconvergence_reports_best_residual(monkeypatch):
    fam, spec = family_spectrum("b38", *GENERIC, NoiseSpec(0.005, seed=5))
    monkeypatch.setattr(eplab.fit, "MAX_ITERATIONS", 1)
    monkeypatch.setattr(eplab.fit, "GRADIENT_TOLERANCE", 1e-30)
    monkeypatch.setattr(eplab.fit, "STEP_TOLERANCE", 1e-30)
    with pytest.raises(NonConvergenceError) as err:
        fit_spectrum(spec, FitConfig(n_starts=1))
    assert err.value.best_rms is not None
    assert err.value.best_rms > 0.0
    message = str(err.value)
    assert "1 starts run" in message
    for reason in ("0 converged", "0 runaway", "1 max_iterations",
                   "0 damping_overflow"):
        assert reason in message


# --------------------------------------------------------- result invariants


def test_fit_result_serializes_with_stable_keys():
    fam, spec = family_spectrum("b38", *GENERIC)
    res = fit_spectrum(spec)
    d = res.to_json_dict()
    for key in ("e1", "e2", "h1", "h2", "W", "tau",
                "residual_rms", "converged", "starts_run", "terminations",
                "stop_rule", "residual_lag1", "clipped_dissipation"):
        assert key in d
    assert d["stop_rule"] == "exact"
    assert d["clipped_dissipation"] == 0.0
    assert list(d["terminations"]) == [t.value for t in Termination]
    assert sum(d["terminations"].values()) == d["starts_run"] >= 1
    assert d["terminations"]["converged"] >= 1
    assert d["e1"] == [res.ham.e1.real, res.ham.e1.imag]
    assert len(d["W"]) == 4 and len(d["W"][0]) == 2
    json.dumps(d)                        # must be plain JSON types


@pytest.mark.skipif(not eplab.cli._openblas_thread_functions()
                    or (os.cpu_count() or 1) < 2,
                    reason="needs numpy's own OpenBLAS and two cores")
def test_library_fits_ignore_the_blas_thread_count():
    # OpenBLAS's dot products sum in an order set by its thread count; a
    # fit gives the same bits at any count only if none of its steps use one
    fam = load_family("b38")
    spectra = [synth_spectrum(fam.internal_at(1.62 + 0.05 * a, 41.68 + 0.05 * b),
                              fam.coupling, *GRID,
                              NoiseSpec(0.005, seed=1000 + 5 * a + b))
               for a in range(5) for b in range(5)]
    functions = eplab.cli._openblas_thread_functions()
    before = [get() for get, _ in functions]
    runs = []
    try:
        for threads in (1, 2, 4):
            for _, put in functions:
                put(threads)
            runs.append([json.dumps(fit_spectrum(spec).to_json_dict())
                         for spec in spectra])
    finally:
        for (_, put), n in zip(functions, before):
            put(n)
    assert runs[1] == runs[0]
    assert runs[2] == runs[0]


def test_fit_result_gauge_is_canonical():
    for name, point in (("b38", GENERIC), ("b0", (1.63, 41.25))):
        fam, spec = family_spectrum(name, *point)
        res = fit_spectrum(spec)
        w = res.coupling.antenna
        assert abs(w[0, 0]) >= abs(w[0, 1])
        assert w[0, 0] >= 0.0
        assert w[1, 1] >= 0.0
        # the returned coupling reproduces the fitted widths
        t00, t01, t11 = res.coupling.t_entries()
        assert abs(res.ham.e1.imag + math.pi * t00) < 1e-9
        assert abs(res.ham.e2.imag + math.pi * t11) < 1e-9
        assert abs(res.ham.h1.imag + math.pi * t01) < 1e-9


def test_reconstruct_coupling_reports_the_clipped_dissipation():
    # T_total = diag(0.1, 0.1) against W^T W = diag(0.25, 0.01): the first
    # level would need a dissipative width of -0.15, which is clipped
    ham = EffHamiltonian(2720.0 - 0.1j * math.pi, 2730.0 - 0.1j * math.pi,
                         0.0, 0.0)
    coupling, clipped = _reconstruct_coupling(ham, np.diag([0.5, 0.1]))
    assert clipped == pytest.approx(0.15, abs=1e-12)
    assert np.allclose(coupling.w[2:], np.diag([0.0, 0.3]), atol=1e-12)
    _, clipped = _reconstruct_coupling(ham, np.diag([0.2, 0.1]))
    assert clipped == 0.0


def test_noisy_lossless_fit_reports_clipped_dissipation():
    # no dissipative channel: with noise the fitted widths fall short of
    # the antenna part as often as not, and the shortfall is reported
    ham = EffHamiltonian(2720.0, 2730.0, 0.0, 0.0)
    w = CouplingSet(np.array([[0.2, 0.0], [0.0, 0.2], [0.0, 0.0], [0.0, 0.0]]))
    spec = synth_spectrum(ham, w, *GRID, NoiseSpec(0.005, seed=0))
    res = fit_spectrum(spec)
    t00, t01, t11 = (-z.imag / math.pi
                     for z in (res.ham.e1, res.ham.h1, res.ham.e2))
    antenna = res.coupling.antenna
    t_diss = np.array([[t00, t01], [t01, t11]]) - antenna.T @ antenna
    assert 0.0 < res.clipped_dissipation < 1e-3
    assert res.clipped_dissipation == pytest.approx(
        -np.linalg.eigvalsh(t_diss)[0], rel=1e-9)
    assert res.to_json_dict()["clipped_dissipation"] == res.clipped_dissipation


def test_covariance_proxy_well_formed():
    fam, spec = family_spectrum("b38", *GENERIC)
    res = fit_spectrum(spec)
    proxy = np.asarray(res.covariance_proxy)
    assert proxy.shape == (N_PARAMS,)
    assert np.all(np.isfinite(proxy))
    assert np.all(proxy >= 0.0)
    assert res.iterations >= 1


# ------------------------------------------------------------- configuration


def test_pack_unpack_roundtrip():
    p = np.arange(12, dtype=float) - 3.5
    ham, w = unpack_params(p)
    assert np.array_equal(pack_params(ham, w), p)
    with pytest.raises(InvalidArgumentError):
        unpack_params(np.zeros(7))


def test_fit_config_validates():
    with pytest.raises(InvalidArgumentError):
        FitConfig(n_starts=0)
