"""Gaussian-filtered inverse Liouvillian: kernels, identities, bounds."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad

import smearlab
from smearlab.algebra import (
    PAULI_X,
    PAULI_Y,
    is_hermitian,
    liouvillian,
    operator_norm,
    pauli_string,
    random_hermitian,
    schatten_norm,
)
from smearlab.errors import AssumptionError
from smearlab.filtering import (
    GaussianFilter,
    almost_inverse_liouvillian,
    apply_spectral_kernel,
    erf_step_kernel,
    erf_step_map,
    exact_inverse_liouvillian,
    gaussian_kernel,
    inverse_kernel,
    lemma36_check,
    locality_bound,
    prop34_check,
)
from smearlab.dynamics import _RK4_ANGLE_CAP, make_lr_params
from smearlab.interaction import tfim
from smearlab.lattice import build_chain
from smearlab.spectra import diagonalize, lowest_k, split_spectrum


def test_gaussian_filter_normalization_and_tail():
    for beta in (0.4, 1.0, 2.5):
        filt = GaussianFilter(beta)
        mass, _ = quad(filt, -np.inf, np.inf)
        assert mass == pytest.approx(1.0, abs=1e-12)
        assert filt.l1 == 1.0
        # tail bound matches direct integration of the two tails
        T = 1.5
        tail_direct = 2 * quad(filt, T, np.inf)[0]
        assert filt.tail(T) == pytest.approx(tail_direct, rel=1e-10)
        assert filt.tail(filt.t_max()) <= 1e-10
    with pytest.raises(ValueError):
        GaussianFilter(0.0)


def test_t_max_raises_when_tail_exceeds_tolerance():
    with pytest.raises(ValueError):
        GaussianFilter(1.0).t_max(rel_tol=1e-40)
    # the check must survive python -O, which strips assert statements
    src = str(Path(smearlab.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    code = (
        "from smearlab.filtering import GaussianFilter\n"
        "try:\n"
        "    GaussianFilter(1.0).t_max(rel_tol=1e-40)\n"
        "except ValueError:\n"
        "    raise SystemExit(0)\n"
        "raise SystemExit(1)\n"
    )
    proc = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_gaussian_filter_fourier_pair():
    # unitary-convention transform of the filter at a few frequencies
    beta = 0.8
    filt = GaussianFilter(beta)
    for w in (0.0, 0.7, 2.0):
        val = quad(
            lambda t: filt(t) * math.cos(w * t), -np.inf, np.inf, limit=200
        )[0] / math.sqrt(2 * math.pi)
        assert filt.fourier(w) == pytest.approx(val, abs=1e-12)


def test_gaussian_kernel_closed_form():
    beta = 1.0
    w = np.array([-2.0, -1.0, 0.0, 1.0, 2.0])
    k = gaussian_kernel(w, beta)
    assert k[2] == 0.0
    expect_1 = 1j * (1.0 - math.exp(-0.25))
    assert k[3] == pytest.approx(expect_1)
    # k(-w) = -k(w), purely imaginary
    assert np.allclose(k + k[::-1], 0.0)
    assert np.allclose(k.real, 0.0)


def test_kernel_time_domain_representation():
    # k_beta(w) is the Fourier-side of the odd weight
    # W(t) = sign(t) erfc(beta |t|)/2: k(w) = int W(t) e^{i w t} dt
    from scipy.special import erfc

    beta, w = 0.7, 1.3

    def integrand_im(t):
        return 0.5 * np.sign(t) * erfc(beta * abs(t)) * math.sin(w * t)

    val = quad(integrand_im, -20, 20, limit=400)[0]
    assert gaussian_kernel(np.array([w]), beta)[0].imag == pytest.approx(
        val, abs=1e-9
    )


def test_two_level_filtered_inverse_closed_form():
    # H = diag(0, 1): I_beta(sx) = (1 - e^{-1/(4 beta^2)}) sy, which pins
    # both the sign convention and the magnitude
    sd = diagonalize(np.diag([0.0, 1.0]))
    for beta in (0.5, 1.0, 2.0):
        out = almost_inverse_liouvillian(sd, beta, PAULI_X)
        c = 1.0 - math.exp(-1.0 / (4.0 * beta**2))
        assert np.allclose(out, c * PAULI_Y, atol=1e-12)


def test_defining_identity_of_the_filtered_inverse():
    # L_H(I_beta(A)) = A - G_beta(A) with G_beta the Gaussian coherence
    # smoothing e^{-w^2/(4 beta^2)} per matrix element
    rng = np.random.default_rng(6)
    H = random_hermitian(10, rng)
    sd = diagonalize(H)
    A = random_hermitian(10, rng)
    beta = 0.9
    I = almost_inverse_liouvillian(sd, beta, A)
    lhs = liouvillian(H, I)
    smooth = np.exp(-sd.frequency_table() ** 2 / (4.0 * beta**2))
    rhs = A - apply_spectral_kernel(sd, smooth, A)
    assert operator_norm(lhs - rhs) < 1e-10
    # the map preserves hermiticity
    assert is_hermitian(I, tol=1e-12)


def test_spectral_and_quadrature_routes_agree_random():
    rng = np.random.default_rng(12)
    for _ in range(2):
        H = random_hermitian(8, rng, norm=1.0)
        A = random_hermitian(8, rng, norm=1.0)
        sd = diagonalize(H)
        for beta in (0.5, 2.0):
            ref = almost_inverse_liouvillian(sd, beta, A, method="spectral")
            quadr = almost_inverse_liouvillian(sd, beta, A, method="quadrature")
            rel = operator_norm(quadr - ref) / max(operator_norm(ref), 1e-30)
            assert rel < 1e-6
    with pytest.raises(ValueError):
        almost_inverse_liouvillian(sd, 1.0, A, method="series")


def test_quadrature_route_on_wide_spectrum(monkeypatch):
    # the pinned node density loses accuracy like (h ||H||)^4 on wider
    # spectra; a 4-site field chain still lands inside a 2e-5 envelope
    g = build_chain(4)
    phi = tfim(g, 1.0, 2.0)
    sd = diagonalize(phi.hamiltonian())
    A = pauli_string("x", (1,)).embed(4)
    steps = []
    sampler = smearlab.filtering.heisenberg_samples
    monkeypatch.setattr(smearlab.filtering, "heisenberg_samples",
                        lambda *a: steps.append(a[3]) or sampler(*a))
    ref = almost_inverse_liouvillian(sd, 0.5, A)
    quadr = almost_inverse_liouvillian(sd, 0.5, A, method="quadrature")
    rel = operator_norm(quadr - ref) / operator_norm(ref)
    assert rel < 2e-5
    # RK4 steps are sized by the largest column sum, a bound on ||H|| that
    # is 1.6x tighter here than the Frobenius norm
    norm_1 = np.abs(sd.hamiltonian).sum(axis=0).max()
    assert steps == [pytest.approx(_RK4_ANGLE_CAP / norm_1, rel=1e-15)]


def test_exact_inverse_is_inverse_on_cross_patch():
    g = build_chain(3)
    sd = diagonalize(tfim(g, 1.0, 1.7).hamiltonian())
    split = split_spectrum(sd, lowest_k(2))
    P = split.projector
    rng = np.random.default_rng(21)
    A = random_hermitian(8, rng)
    Pp = np.eye(8) - P
    cross = P @ A @ Pp + Pp @ A @ P
    recon = exact_inverse_liouvillian(
        sd, split, liouvillian(sd.hamiltonian, cross)
    )
    assert operator_norm(recon - cross) < 1e-10
    # the map kills patch-diagonal operators
    diag_part = P @ A @ P + Pp @ A @ Pp
    assert operator_norm(exact_inverse_liouvillian(sd, split, diag_part)) < 1e-10


def test_exact_inverse_rejects_foreign_split():
    sd1 = diagonalize(np.diag([0.0, 1.0, 2.0]))
    sd2 = diagonalize(np.diag([0.0, 0.5, 2.0]))
    split2 = split_spectrum(sd2, lowest_k(1))
    with pytest.raises(AssumptionError):
        exact_inverse_liouvillian(sd1, split2, np.eye(3, dtype=complex))


def test_erf_step_map_sharp_limit():
    # beta -> 0 turns ghat into a hard step: strictly lower-frequency
    # (patch-raising) entries pass, the opposite ones die
    gamma = 1.0
    sd = diagonalize(np.diag([0.0, gamma]))
    split = split_spectrum(sd, lowest_k(1))
    A = np.array([[0.3, 0.8], [0.2, -0.1]], dtype=complex)
    out = erf_step_map(sd, split, 1e-3, A)
    # entry (0,1) sits at -omega = gamma -> multiplier 1; (1,0) -> 0;
    # diagonal at -omega = 0 -> ghat(0) with gamma/2 offset -> 0
    assert out[0, 1] == pytest.approx(0.8, abs=1e-12)
    assert abs(out[1, 0]) < 1e-12
    assert abs(out[0, 0]) < 1e-12


def test_erf_step_kernel_monotone_and_centered():
    w = np.linspace(-4, 4, 81)
    vals = erf_step_kernel(w, 0.5, 2.0)
    assert np.all(np.diff(vals) > 0)
    assert erf_step_kernel(np.array([1.0]), 0.5, 2.0)[0] == pytest.approx(0.5)
    assert vals[0] < 1e-6 and vals[-1] > 1 - 1e-4


def test_inverse_kernel_vanishes_inside_patches():
    w = np.array([[0.0, -1.0], [1.0, 0.0]])
    mask = np.array([True, False])
    K = inverse_kernel(w, mask, mask)
    assert K[0, 0] == 0.0 and K[1, 1] == 0.0
    assert K[0, 1] == pytest.approx(1j / -1.0)
    assert K[1, 0] == pytest.approx(1j / 1.0)


def test_prop34_two_level_saturation_exact():
    # patch {0} of H = diag(0, gamma), A = |0><1|: the reconstruction
    # error equals the bound identically
    gamma = 1.3
    sd = diagonalize(np.diag([0.0, gamma]))
    split = split_spectrum(sd, lowest_k(1))
    A = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    for beta in (0.5, 1.0):
        res = prop34_check(sd, split, beta, A)
        for p in (1, 2, np.inf):
            assert abs(res.lhs[p] - res.rhs) < 1e-12
        assert res.holds()
        res36 = lemma36_check(sd, split, beta, A)
        for p in (1, 2, np.inf):
            assert abs(res36.lhs[p] - res36.rhs) < 1e-12
        assert res36.holds()


def test_prop34_requires_one_sided_input():
    sd = diagonalize(np.diag([0.0, 1.0]))
    split = split_spectrum(sd, lowest_k(1))
    with pytest.raises(ValueError):
        prop34_check(sd, split, 1.0, PAULI_X)
    with pytest.raises(ValueError):
        lemma36_check(sd, split, 1.0, PAULI_X)


def test_prop34_sweep_on_field_chain():
    g = build_chain(5)
    sd = diagonalize(tfim(g, 1.0, 2.0).hamiltonian())
    split = split_spectrum(sd, lowest_k(1))
    P = split.projector
    Pp = np.eye(32) - P
    rng = np.random.default_rng(30)
    for _ in range(3):
        A = P @ random_hermitian(32, rng) @ Pp
        for beta in (0.5, 0.8):
            assert prop34_check(sd, split, beta, A).holds()
            assert lemma36_check(sd, split, beta, A).holds()


def test_locality_bound_grid_and_closed_form():
    g = build_chain(8)
    phi = tfim(g, 1.0, 2.0)
    params = make_lr_params(phi, 0.5, 1.0)
    for beta in (0.5, 0.7):
        vals = [locality_bound(params, beta, d, 1, 1.0, 1.0) for d in (2, 4, 6)]
        for grid_inf, closed in vals:
            # the infimum over the T-grid can only improve on the single
            # closed-form evaluation point
            assert grid_inf <= closed * (1 + 1e-12)
            assert grid_inf > 0
        # both bounds decrease with distance
        assert vals[0][0] >= vals[1][0] >= vals[2][0]
        assert vals[0][1] > vals[1][1] > vals[2][1]
    with pytest.raises(ValueError):
        locality_bound(params, 0.5, 0, 1, 1.0, 1.0)


def test_locality_bound_scales_with_norms_and_support():
    g = build_chain(6)
    params = make_lr_params(tfim(g, 1.0, 2.0), 0.5, 1.0)
    g1, c1 = locality_bound(params, 0.6, 3, 1, 1.0, 1.0)
    g2, c2 = locality_bound(params, 0.6, 3, 2, 1.5, 2.0)
    assert g2 == pytest.approx(g1 * 2 * 1.5 * 2.0)
    assert c2 == pytest.approx(c1 * 2 * 1.5 * 2.0)
