"""Core algebra: construction, eigenvalues, gauge fixing, symmetry normal form.

Expected values in the frozen tests were computed independently (hand
arithmetic or the characteristic polynomial) before the implementation and
must not be regenerated from the code under test.
"""

import cmath
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import eplab.core
from eplab import (
    EPS_CROSS,
    CurveTrace,
    DegenerateGaugeError,
    EffHamiltonian,
    EplabError,
    InvalidArgumentError,
    NotGaugeFixedError,
    NotOnPTCurveError,
    PTNormalForm,
    PTReport,
    SingularRatioError,
    eigenvalues,
    extract_tau,
    from_matrix,
    gauge_fix,
    is_ep,
    observables,
    pt_commutator_norm,
    pt_report,
    radicand,
    width_offset,
)
from eplab.cli import main
from eplab.core import eigenvalues_sorted

# ---------------------------------------------------------------- construction


def test_pauli_construction_diagonal():
    m = EffHamiltonian(2, 1, 0, 0).matrix
    assert np.array_equal(m, np.diag([2.0 + 0j, 1.0 + 0j]))


def test_pauli_construction_jordan_block():
    # h2 = i makes the lower coupling vanish: h*h = 1 + i^2 = 0
    m = EffHamiltonian(0, 0, 1, 1j).matrix
    assert np.array_equal(m, np.array([[0, 2], [0, 0]], dtype=complex))


def test_pauli_roundtrip_exact():
    ham = EffHamiltonian(1 + 0.5j, -1 - 0.5j, 0.3j, 0.1)
    pauli = (ham.e1, ham.e2, ham.h1, ham.h2)
    assert pauli == (1 + 0.5j, -1 - 0.5j, 0.3j, 0.1)
    back = from_matrix(ham.matrix)
    for got, want in zip((back.e1, back.e2, back.h1, back.h2), pauli):
        assert abs(got - want) < 1e-15


def test_h3_is_derived():
    ham = EffHamiltonian(3 - 1j, 1 + 2j, 0, 0)
    assert ham.h3 == 0.5 * ((3 - 1j) - (1 + 2j))
    assert not hasattr(ham, "__dict__") or "h3" not in vars(ham)


def test_from_matrix_rejects_wrong_shape():
    with pytest.raises(InvalidArgumentError):
        from_matrix(np.zeros((3, 3)))


def test_nonfinite_input_rejected():
    with pytest.raises(InvalidArgumentError):
        EffHamiltonian(float("nan"), 0, 0, 0)
    with pytest.raises(InvalidArgumentError):
        EffHamiltonian(0, 0, complex(0, float("inf")), 0)


# ---------------------------------------------------------------- eigenvalues


def test_eigenvalues_diagonal():
    pair = eigenvalues(EffHamiltonian(2, 1, 0, 0))
    assert pair[0] == 2 + 0j
    assert pair[1] == 1 + 0j


def test_eigenvalues_exact_ep():
    pair = eigenvalues(EffHamiltonian(0, 0, 1, 1j))
    assert pair[0] == 0 and pair[1] == 0


def test_eigenvalues_frozen_complex_sqrt():
    # h = (1+2i, 0, 3-i), tr = 0: radicand 5-2i, eigenvalues +-sqrt(5-2i).
    # Frozen root verified by squaring: E1^2 must reproduce 5-2i.
    ham = EffHamiltonian(3 - 1j, -3 + 1j, 1 + 2j, 0)
    pair = eigenvalues(ham)
    frozen = complex(2.27872385417085, -0.4388421169022545)
    assert abs(pair[0] - frozen) < 1e-13
    assert abs(pair[1] + frozen) < 1e-13
    assert abs(pair[0] * pair[0] - (5 - 2j)) < 1e-12


def test_eigenvalue_branch_tiebreak_positive_imag():
    # radicand -1: principal sqrt is +-i; the tie must resolve to +i on E1
    pair = eigenvalues(EffHamiltonian(1j, -1j, 0, 0))
    assert pair[0] == 1j
    assert pair[1] == -1j


def test_eigenpair_width_accessors():
    # E = f - i*Gamma/2: positions and widths read off the eigenvalues
    pair = eigenvalues(EffHamiltonian(10 - 0.5j, 12 - 1.5j, 0, 0))
    fs = sorted([pair[0].real, pair[1].real])
    gs = sorted([-2.0 * pair[0].imag, -2.0 * pair[1].imag])
    assert fs == [10.0, 12.0]
    assert gs == [1.0, 3.0]


def _match_pairs(got, want, rtol):
    # best assignment of two predicted eigenvalues onto two references
    direct = max(abs(got[0] - want[0]), abs(got[1] - want[1]))
    crossed = max(abs(got[0] - want[1]), abs(got[1] - want[0]))
    scale = max(1.0, *(abs(w) for w in want))
    return min(direct, crossed) <= rtol * scale


def test_eigenvalues_match_characteristic_polynomial():
    rng = np.random.default_rng(41)
    for _ in range(2000):
        vals = rng.normal(size=8) * rng.choice([0.1, 1.0, 50.0])
        ham = EffHamiltonian(
            complex(vals[0], vals[1]), complex(vals[2], vals[3]),
            complex(vals[4], vals[5]), complex(vals[6], vals[7]),
        )
        pair = eigenvalues(ham)
        ref = np.linalg.eigvals(ham.matrix)
        assert _match_pairs(pair, (ref[0], ref[1]), 1e-10)


# ------------------------------------------------------------------- radicand


def test_radicand_real_h():
    rad = radicand(EffHamiltonian(3, -3, 1, 2))
    assert (rad.reh2, rad.imh2, rad.cross) == (14.0, 0.0, 0.0)


def test_radicand_frozen_complex():
    rad = radicand(EffHamiltonian(3 - 1j, -3 + 1j, 1 + 2j, 0))
    assert (rad.reh2, rad.imh2, rad.cross) == (10.0, 5.0, -1.0)
    assert rad.d == 5 - 2j


def test_radicand_ep_signature():
    rad = radicand(EffHamiltonian(0, 0, 1, 1j))
    assert (rad.reh2, rad.imh2, rad.cross) == (1.0, 1.0, 0.0)
    assert rad.d == 0j


def test_radicand_equals_half_split_squared():
    rng = np.random.default_rng(42)
    for _ in range(1000):
        vals = rng.normal(size=8)
        ham = EffHamiltonian(
            complex(vals[0], vals[1]), complex(vals[2], vals[3]),
            complex(vals[4], vals[5]), complex(vals[6], vals[7]),
        )
        pair = eigenvalues(ham)
        half = 0.5 * (pair[0] - pair[1])
        d = radicand(ham).d
        assert abs(d - half * half) <= 1e-10 * max(1.0, abs(d))


# --------------------------------------------------------------- width offset


def test_width_offset_frozen_example():
    ham = EffHamiltonian(10 - 0.5j, 12 - 1.5j, 0, 0)
    shifted = width_offset(ham)
    pair = eigenvalues(shifted)
    got = sorted(pair, key=lambda z: z.real)
    assert abs(got[0] - (10 + 0.5j)) < 1e-12
    assert abs(got[1] - (12 - 0.5j)) < 1e-12
    tr = shifted.e1 + shifted.e2
    assert abs(tr.imag) <= 1e-10 * abs(tr)
    assert (shifted.h1, shifted.h2, shifted.h3) == (ham.h1, ham.h2, ham.h3)


def test_width_offset_real_symmetric_unchanged():
    ham = EffHamiltonian(2.0, 1.0, 0.5, 0.0)
    shifted = width_offset(ham)
    assert shifted == ham


def test_width_offset_at_ep_centers_on_real_axis():
    # degenerate eigenvalue 5-2i moves onto the real axis, EP is preserved
    ham = EffHamiltonian(5 - 2j, 5 - 2j, 1, 1j)
    shifted = width_offset(ham)
    pair = eigenvalues(shifted)
    assert abs(pair[0] - 5.0) < 1e-12 and abs(pair[1] - 5.0) < 1e-12
    assert is_ep(shifted)


def test_width_offset_warns_on_amplifying_input():
    ham = EffHamiltonian(1 + 0.5j, 2 - 0.1j, 0, 0)
    with pytest.warns(RuntimeWarning):
        width_offset(ham)


# ----------------------------------------------------------------- gauge fix


def _random_ham(rng, scale=1.0):
    vals = rng.normal(size=8) * scale
    return EffHamiltonian(
        complex(vals[0], vals[1]), complex(vals[2], vals[3]),
        complex(vals[4], vals[5]), complex(vals[6], vals[7]),
    )


def _offdiag_ratio(ham):
    return (ham.h1 + 1j * ham.h2) / (ham.h1 - 1j * ham.h2)


def test_gauge_fix_identity_when_h2_zero():
    ham = EffHamiltonian(1 + 1j, -2, 0.7 - 0.3j, 0)
    fixed, phi0 = gauge_fix(ham)
    assert fixed == ham
    assert phi0 == 0.0
    assert extract_tau(fixed) == 0.0


def test_gauge_fix_makes_ratio_unimodular():
    rng = np.random.default_rng(7)
    for _ in range(300):
        ham = _random_ham(rng)
        fixed, phi0 = gauge_fix(ham)
        assert -math.pi / 4 < phi0 <= math.pi / 4 + 1e-15
        assert abs(abs(_offdiag_ratio(fixed)) - 1.0) <= 1e-10


def test_gauge_fix_nearly_idempotent():
    rng = np.random.default_rng(8)
    for _ in range(100):
        fixed, _ = gauge_fix(_random_ham(rng))
        again, phi0 = gauge_fix(fixed)
        assert abs(phi0) < 1e-7
        assert abs(abs(_offdiag_ratio(again)) - 1.0) <= 1e-10


def test_gauge_fix_degenerate_direction_raises():
    # h is a complex multiple of a real vector: every angle works, none is
    # preferred, so the operation must refuse
    z = 1 + 1j
    ham = EffHamiltonian(3 * z, -3 * z, 1 * z, 2 * z)
    with pytest.raises(DegenerateGaugeError):
        gauge_fix(ham)


# --------------------------------------------------------------- tau extraction


def test_extract_tau_t_invariant():
    assert extract_tau(EffHamiltonian(0, 0, 1, 0)) == 0.0


def test_extract_tau_maximal_violation():
    tau = extract_tau(EffHamiltonian(0, 0, 1, 1))
    assert tau == pytest.approx(0.7853981633974483, abs=1e-15)


def test_extract_tau_direct_value():
    tau = extract_tau(EffHamiltonian(0, 0, math.cos(0.3), math.sin(0.3)))
    assert abs(tau - 0.3) < 1e-12


def test_extract_tau_requires_gauge_fixed():
    with pytest.raises(NotGaugeFixedError):
        extract_tau(EffHamiltonian(0, 0, 1, 0.5j))


def test_extract_tau_zero_denominator():
    with pytest.raises(SingularRatioError):
        extract_tau(EffHamiltonian(0, 0, 1j, 1))


def test_extract_tau_boundary_excluded():
    # ratio lands on the negative real axis: tau = +-pi/2 is out of range
    with pytest.raises(SingularRatioError):
        extract_tau(EffHamiltonian(0, 0, 0, 1))


# ------------------------------------------------------------- PT normal form
# pt_report takes a matrix to the PT form: the test_to_pt_form_* tests check
# that step through it.


def test_to_pt_form_fixed_point():
    # already of the symmetric pattern: A=1, B=0.5, C=2
    mat = np.array([[1 + 0.5j, 2], [2, 1 - 0.5j]], dtype=complex)
    rep = pt_report(from_matrix(mat))
    assert rep.tau == 0.0 and rep.phi == 0.0
    form = rep.form
    assert form.residual == 0.0
    assert (form.a, form.b, form.c, form.dpt) == (1.0, 0.5, 2.0, 0.0)
    assert all(e.imag == 0.0 for e in form.eigenvalues)
    want = math.sqrt(3.75)
    assert form.eigenvalues[0] == pytest.approx(1.0 + want, abs=1e-14)


def test_to_pt_form_broken_phase():
    # B=2 > C=0.5: conjugate pair A +- i sqrt(B^2 - C^2), once the width
    # shift of 3 has centred the dissipative matrix on the real axis
    mat = np.array([[1 - 1j, 0.5], [0.5, 1 - 5j]], dtype=complex)
    form = pt_report(from_matrix(mat)).form
    want = 1.9364916731037085  # sqrt(3.75)
    assert abs(form.eigenvalues[0] - (1 + 1j * want)) < 1e-13
    assert abs(form.eigenvalues[1] - (1 - 1j * want)) < 1e-13


def _random_curve_ham(rng, broken):
    # real mean, Im h orthogonal to Re h (exact curve membership to rounding);
    # |Im h| above or below |Re h| selects the phase
    re = rng.normal(size=3)
    im = rng.normal(size=3)
    im -= (im @ re) / (re @ re) * re
    im *= (1.8 if broken else 0.4) * np.linalg.norm(re) / np.linalg.norm(im)
    h = re + 1j * im
    # pull the centroid far enough down that both widths stay positive
    depth = 1.1 * math.hypot(np.linalg.norm(re), np.linalg.norm(im)) + 0.1
    mean = rng.normal() * 10.0 - 1j * depth
    return EffHamiltonian(mean + h[2], mean - h[2], h[0], h[1])


@pytest.mark.parametrize("broken", [False, True])
def test_to_pt_form_random_on_curve(broken):
    rng = np.random.default_rng(9 if broken else 10)
    for _ in range(100):
        rep = pt_report(_random_curve_ham(rng, broken))
        assert rep.form.residual < 1e-9
        assert rep.commutator_norm < 1e-9
        # reality of the spectrum follows the sign of reh2 - imh2, the
        # rule pt_report states as its phase
        real = all(e.imag == 0.0 for e in rep.form.eigenvalues)
        assert real == (rep.phase == "exact")
        assert real != broken


def test_to_pt_form_rejects_off_curve():
    # cross = 1, clearly off the curve; dissipative, so the shift is quiet
    ham = EffHamiltonian(1 - 3j, -1 - 3j, 1 + 1j, 0)
    with pytest.raises(NotOnPTCurveError):
        pt_report(ham)


def test_pt_report_full_chain():
    rng = np.random.default_rng(11)
    for _ in range(50):
        ham = _random_curve_ham(rng, broken=bool(rng.integers(2)))
        rep = pt_report(ham)
        assert rep.form.residual < 1e-9
        assert rep.commutator_norm < 1e-9
        assert -math.pi / 2 < rep.tau < math.pi / 2
        assert abs(rep.phi0) <= math.pi / 4 + 1e-12
        assert abs(rep.phi) <= math.pi / 4 + 1e-12
        rad = radicand(ham)
        assert rep.phase == ("exact" if rad.reh2 >= rad.imh2 else "broken")


def _reference_symmetrizing_angle(m):
    r1, i1 = m.h1.real, m.h1.imag
    r3, i3 = m.h3.real, m.h3.imag
    alpha = i1 * i1 + r3 * r3
    beta = i3 * i3 + r1 * r1
    gam = r1 * r3 - i1 * i3
    if alpha == beta and gam == 0.0:
        return 0.0
    return 0.5 * math.atan2(-2.0 * gam, -(alpha - beta))


def _rotation_matrix(angle):
    """O(angle) = [[cos, sin], [-sin, cos]], as a complex matrix."""
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[c, s], [-s, c]], dtype=complex)


def _twist_matrix(angle):
    """U(angle) = diag(e^{i angle}, e^{-i angle})."""
    return np.array([[cmath.exp(1j * angle), 0.0],
                     [0.0, cmath.exp(-1j * angle)]], dtype=complex)


def _conjugated(ham, u):
    """M -> U M U^dagger by 2x2 matmul."""
    return from_matrix(u @ ham.matrix @ u.conj().T)


def reference_pt_report(ham, eps_cross=EPS_CROSS):
    """The chain as two steps: an explicit width shift of the gauge-fixed
    matrix, then a separate normal-form step, with the transformed matrix
    built once for the form and again for the commutator."""
    fixed, phi0 = gauge_fix(ham)
    tau = extract_tau(fixed)
    offset = -0.5 * (fixed.e1.imag + fixed.e2.imag)
    shift = 1j * offset
    shifted = EffHamiltonian(fixed.e1 + shift, fixed.e2 + shift,
                             fixed.h1, fixed.h2)

    rad = radicand(shifted)
    if abs(rad.cross) > eps_cross * (rad.reh2 + rad.imh2):
        raise NotOnPTCurveError("off the curve")
    u = _twist_matrix(0.5 * tau)
    m1 = _conjugated(shifted, u)
    phi = 0.5 * _reference_symmetrizing_angle(m1)
    o = _rotation_matrix(phi)
    mat = _conjugated(m1, o).matrix
    apb = 0.5 * (mat[0, 0] + mat[1, 1].conjugate())
    cpd = 0.5 * (mat[0, 1] + mat[1, 0].conjugate())
    residual = 0.5 * max(abs(mat[0, 0] - mat[1, 1].conjugate()),
                         abs(mat[0, 1] - mat[1, 0].conjugate()))
    form = PTNormalForm(a=apb.real, b=apb.imag, c=cpd.real, dpt=cpd.imag,
                        residual=residual)

    transformed = _conjugated(_conjugated(shifted, u), o)
    rad = radicand(ham)
    return PTReport(offset=float(offset), phi0=phi0, tau=tau,
                    phi=phi, form=form,
                    commutator_norm=pt_commutator_norm(transformed.matrix),
                    phase="exact" if rad.reh2 >= rad.imh2 else "broken")


def _report_bits(rep):
    """Every field of a PTReport, floats in their exact hex form."""
    fields = (*rep[:4], *rep.form, *rep[5:])
    return tuple(x if isinstance(x, str) else float(x).hex() for x in fields)


@pytest.mark.parametrize("broken", [False, True])
def test_pt_report_matches_reference_bit_for_bit(broken):
    rng = np.random.default_rng(17 if broken else 18)
    for _ in range(200):
        ham = _random_curve_ham(rng, broken)
        assert (_report_bits(pt_report(ham))
                == _report_bits(reference_pt_report(ham)))


@pytest.mark.parametrize("family", ["b38", "b0"])
def test_pt_report_matches_reference_on_family_traces(tmp_path, family):
    assert main(["analyze", "curve", "--family", family,
                 "--out", str(tmp_path)]) == 0
    doc = json.loads((tmp_path / "trace.json").read_text())
    trace = CurveTrace.from_json_dict(doc)
    assert len(trace.hams) > 10
    for ham in trace.hams:
        assert (_report_bits(pt_report(ham, eps_cross=trace.epsilon))
                == _report_bits(reference_pt_report(
                    ham, eps_cross=trace.epsilon)))


# ------------------------------------------------------- antilinear commutator


def test_pt_commutator_zero_on_pattern():
    rng = np.random.default_rng(12)
    for _ in range(50):
        a, b, c, d = rng.normal(size=4)
        mat = np.array([[complex(a, b), complex(c, d)],
                        [complex(c, -d), complex(a, -b)]])
        assert pt_commutator_norm(mat) == 0.0


def test_pt_commutator_diag_ii():
    assert pt_commutator_norm(np.diag([1j, 1j])) == 2.0


def test_pt_commutator_zero_matrix():
    assert pt_commutator_norm(np.zeros((2, 2))) == 0.0


# ------------------------------------------------------------------ EP tests


def test_is_ep_exact():
    assert is_ep(EffHamiltonian(0, 0, 1, 1j))


def test_is_ep_excludes_scalar_matrix():
    assert not is_ep(EffHamiltonian(3 - 1j, 3 - 1j, 0, 0))


def test_is_ep_threshold_sweep(monkeypatch):
    # h = (1, 0.999i, 0.001): |D| sits between the two gates
    ham = EffHamiltonian(0.001, -0.001, 1, 0.999j)
    monkeypatch.setattr(eplab.core, "EP_EPS_D", 1e-2)
    assert is_ep(ham)
    monkeypatch.setattr(eplab.core, "EP_EPS_D", 1e-6)
    assert not is_ep(ham)


def test_is_ep_implies_defective():
    rng = np.random.default_rng(13)
    for _ in range(50):
        re = rng.normal(size=3)
        im = rng.normal(size=3)
        im -= (im @ re) / (re @ re) * re
        im *= np.linalg.norm(re) / np.linalg.norm(im)   # |Im h| = |Re h|
        h = re + 1j * im
        ham = EffHamiltonian(h[2], -h[2], h[0], h[1])
        if is_ep(ham):
            # the unit eigenvectors coalesce: their matrix is near singular
            _, vecs = np.linalg.eig(ham.matrix)
            vecs /= np.linalg.norm(vecs, axis=0)
            assert np.linalg.svd(vecs, compute_uv=False)[-1] < 1e-4


# ----------------------------------------------------------------- transforms


# the chain's three basis changes: the gauge rotation by Phi0, the twist by
# tau/2 and the rotation by Phi
CHAIN = {"phi0": _rotation_matrix, "tau": _twist_matrix,
         "phi": _rotation_matrix}


@pytest.mark.parametrize("angle", sorted(CHAIN))
def test_transform_preserves_radicand(angle):
    rng = np.random.default_rng(15)
    for _ in range(100):
        ham = _random_ham(rng, scale=3.0)
        rad = radicand(ham)
        u = CHAIN[angle](rng.uniform(-1.5, 1.5))
        rad2 = radicand(_conjugated(ham, u))
        scale = max(1.0, rad.reh2 + rad.imh2)
        assert abs(rad2.reh2 - rad.reh2) <= 1e-10 * scale
        assert abs(rad2.imh2 - rad.imh2) <= 1e-10 * scale
        assert abs(rad2.cross - rad.cross) <= 1e-10 * scale


def test_offset_reality_dichotomy():
    rng = np.random.default_rng(16)
    for _ in range(200):
        ham = _random_curve_ham(rng, broken=bool(rng.integers(2)))
        shifted = width_offset(ham)
        rad = radicand(shifted)
        pair = eigenvalues(shifted)
        scale = max(1.0, abs(pair[0]), abs(pair[1]))
        if rad.reh2 >= rad.imh2:
            assert abs(pair[0].imag) <= 1e-10 * scale
            assert abs(pair[1].imag) <= 1e-10 * scale
        else:
            assert abs(pair[0].imag + pair[1].imag) <= 1e-10 * scale
            assert abs(pair[0].imag) > 0


# -------------------------------------------------------------- serialization


def test_hamiltonian_json_roundtrip():
    ham = EffHamiltonian(1 + 2j, 3 - 4j, 0.5 - 0.25j, -0.125j)
    back = EffHamiltonian.from_json_dict(ham.to_json_dict())
    assert back == ham


# ------------------------------------------------------- observables kernel

OBSERVABLES = ("f1", "g1", "f2", "g2", "reh2", "imh2", "cross", "tau",
               "failure")

# dyadic components keep products exact, so degenerate inputs stay exactly
# degenerate; floats cover generic points
_dyadic = st.integers(-64, 64).map(lambda k: k / 8.0)
_real = st.one_of(_dyadic, st.floats(-50.0, 50.0, allow_subnormal=False))
_complex = st.builds(complex, _real, _real)
_hams = st.builds(EffHamiltonian, _complex, _complex, _complex, _complex)
_dyadic_complex = st.builds(complex, _dyadic, _dyadic)


def _bits(value):
    return np.asarray(value, dtype=float).tobytes()


def _chain_reason(ham):
    """Exception class the scalar chain gauge_fix -> extract_tau raises."""
    try:
        extract_tau(gauge_fix(ham)[0])
    except EplabError as exc:
        return type(exc).__name__
    return None


def _grid_call(hams):
    return observables(*(np.array([getattr(h, k) for h in hams])
                         for k in ("e1", "e2", "h1", "h2")))


@settings(max_examples=300, deadline=None)
@given(st.lists(_hams, min_size=1, max_size=12))
def test_kernel_point_equals_grid_and_scalar_api(hams):
    grid = _grid_call(hams)
    for k, ham in enumerate(hams):
        one = observables(ham.e1, ham.e2, ham.h1, ham.h2)
        for name in OBSERVABLES:
            assert _bits(getattr(one, name)) == _bits(getattr(grid, name)[k])
        lo, hi = eigenvalues_sorted(ham)
        assert (lo.real, -2.0 * lo.imag, hi.real, -2.0 * hi.imag) == (
            one.f1, one.g1, one.f2, one.g2)
        rad = radicand(ham)
        assert (rad.reh2, rad.imh2, rad.cross) == (one.reh2, one.imh2,
                                                   one.cross)
        assert grid.reason(k) == _chain_reason(ham)
        if one.failure == 0:
            assert extract_tau(gauge_fix(ham)[0]) == one.tau
        else:
            assert math.isnan(one.tau)


def _matmul_gauge_fix(ham):
    """The conjugation route: 2x2 matmul by O(Phi0) with math.atan2.

    Returns (rotated H, Phi0)."""
    if ham.h2 == 0:
        return ham, 0.0
    a = (ham.h1 * ham.h2.conjugate()).imag
    b = (ham.h3 * ham.h2.conjugate()).imag
    t = math.atan2(a, b)
    if t > math.pi / 2:
        t -= math.pi
    elif t <= -math.pi / 2:
        t += math.pi
    return _conjugated(ham, _rotation_matrix(0.5 * t)), 0.5 * t


def _division_tau(ham):
    ratio = (ham.h1 + 1j * ham.h2) / (ham.h1 - 1j * ham.h2)
    return 0.5 * cmath.phase(ratio)


@settings(max_examples=300, deadline=None)
@given(_hams)
def test_gauge_fix_and_tau_match_matmul_route(ham):
    scale = max(1.0, *(abs(z) for z in (ham.e1, ham.e2, ham.h1, ham.h2)))
    h2sq = abs(ham.h2) ** 2
    a = (ham.h1 * ham.h2.conjugate()).imag
    b = (ham.h3 * ham.h2.conjugate()).imag
    # a well-defined angle: the gauge condition is not near 0/0
    if ham.h2 != 0 and math.hypot(a, b) <= 1e-6 * scale * scale:
        return
    fixed, phi0 = gauge_fix(ham)
    ref, ref_phi0 = _matmul_gauge_fix(ham)
    # numpy's arctan2 and math.atan2 may differ in the last bit
    assert abs(phi0 - ref_phi0) <= 2 * math.ulp(math.pi)
    for name in ("e1", "e2", "h1", "h2"):
        assert abs(getattr(fixed, name) - getattr(ref, name)) <= 1e-12 * scale
    den = abs(ref.h1 - 1j * ref.h2)
    if den <= 1e-3 * scale:
        return
    tau = _division_tau(ref)
    if abs(abs(tau) - math.pi / 2) < 1e-6:
        return                          # the phase wraps at +-pi/2
    assert abs(extract_tau(fixed) - tau) <= 1e-12


def _complex_multiple_of_real(z, v):
    return EffHamiltonian(z * v[2], -z * v[2], z * v[0], z * v[1])


DEGENERATE = {
    "h2 = 0": st.builds(lambda e1, e2, h1: EffHamiltonian(e1, e2, h1, 0),
                        _dyadic_complex, _dyadic_complex, _dyadic_complex),
    "complex multiple of a real vector": st.builds(
        _complex_multiple_of_real, _dyadic_complex,
        st.tuples(_dyadic, _dyadic, _dyadic)),
    "h1 - i*h2 = 0": st.builds(
        lambda h3, h2: EffHamiltonian(h3, -h3, 1j * h2, h2),
        _dyadic_complex, _dyadic_complex),
    "ratio on the negative real axis": st.builds(
        lambda h3, h2: EffHamiltonian(h3, -h3, 0, h2),
        _dyadic_complex, _dyadic_complex),
}


@pytest.mark.parametrize("kind", sorted(DEGENERATE))
def test_degenerate_inputs_fail_alike_in_scalar_chain_and_kernel(kind):
    @settings(max_examples=60, deadline=None)
    @given(DEGENERATE[kind], _hams)
    def check(ham, other):
        reason = _chain_reason(ham)
        assert _grid_call([other, ham]).reason(1) == reason
        assert observables(ham.e1, ham.e2, ham.h1, ham.h2).reason() == reason

    check()


def test_degenerate_inputs_raise_the_documented_errors():
    z = 1 + 1j
    assert _chain_reason(EffHamiltonian(3 * z, -3 * z, z, 2 * z)) == \
        "DegenerateGaugeError"
    assert _chain_reason(EffHamiltonian(1, 2, 0, 0)) == "SingularRatioError"
    assert _chain_reason(EffHamiltonian(1j, -1j, 0, 1)) == "SingularRatioError"
    assert _chain_reason(EffHamiltonian(1, 2, 0.5, 0)) is None
