"""Charge transport on the torus: dressing, flux threading, quantization."""

import math

import numpy as np
import pytest

from smearlab.algebra import (
    commutator,
    commutator_norm,
    conditional_expectation,
    operator_norm,
    schatten_norm,
)
from smearlab.errors import AssumptionError, DegenerateFactorError
from smearlab.interaction import tfim, xy_charge
from smearlab.qhe import (
    ChargeGeometry,
    charge_conservation_defect,
    dressed_charge,
    flux_unitary,
    local_charge,
    qhe_experiment,
    qhe_point,
    quantization_check,
    region_charge,
    transport_operator,
    z_phase_operator,
)
from smearlab.spectra import diagonalize, lowest_k, split_spectrum


@pytest.fixture(scope="module")
def torus3():
    geo = ChargeGeometry(3)
    phi = xy_charge(geo.graph, 0.2, 1.0)
    sd = diagonalize(phi.hamiltonian(0.0))
    return geo, phi, sd


def test_local_and_region_charge_spectra():
    q = local_charge(0)
    assert np.allclose(np.linalg.eigvalsh(q.matrix), [0.0, 1.0])
    geo = ChargeGeometry(3)
    Q = region_charge(geo.graph, geo.upper_half)
    evals = np.linalg.eigvalsh(Q)
    assert np.allclose(np.round(evals), evals, atol=1e-12)
    assert evals.min() == pytest.approx(0.0)
    assert evals.max() == pytest.approx(len(geo.upper_half))


def test_hopping_model_conserves_charge(torus3):
    geo, phi, _ = torus3
    Q = region_charge(geo.graph, geo.graph.sites())
    assert charge_conservation_defect(phi, Q) < 1e-12
    # the transverse-field model does not conserve the charge
    bad = tfim(geo.graph, 1.0, 1.0)
    assert charge_conservation_defect(bad, Q) > 0.1


def test_commutator_norm_of_conserved_charge_is_exactly_zero(torus3):
    geo, phi, _ = torus3
    H = phi.hamiltonian(0.0)
    Q = region_charge(geo.graph, geo.graph.sites())
    assert commutator_norm(H, Q) == 0.0
    with pytest.raises(ValueError):
        commutator_norm(H + 0.5j * np.eye(H.shape[0]), Q)
    with pytest.raises(ValueError):
        commutator_norm(H, np.triu(Q + H))


def test_charge_defect_samples_a_constant_hamiltonian_once(torus3):
    geo, phi, _ = torus3
    Q = region_charge(geo.graph, geo.upper_half)
    expect = max(
        commutator_norm(phi.hamiltonian(t), Q) for t in np.linspace(0.0, 1.0, 5)
    )
    fresh = xy_charge(geo.graph, 0.2, 1.0)
    build, calls = fresh.hamiltonian, []
    fresh.hamiltonian = lambda t=0.0: calls.append(t) or build(t)
    assert charge_conservation_defect(fresh, Q) == expect
    assert calls == [0.0]


def test_geometry_halves_and_strips():
    geo = ChargeGeometry(4)
    n = geo.graph.n_sites
    # halves have floor(L/2) rows / columns
    assert len(geo.upper_half) == 4 * 2
    assert len(geo.right_half) == 4 * 2
    # width-1 strips on L=4 are disjoint, on L=3 they must share a row
    assert geo.strips_disjoint
    assert not ChargeGeometry(3).strips_disjoint
    # each strip has 2 w rows of Lx sites
    assert len(geo.lower_strip) == 2 * 1 * 4
    with pytest.raises(ValueError):
        ChargeGeometry(4, strip_width=0)


def test_boundary_terms_assign_to_unique_strips(torus3):
    geo, phi, _ = torus3
    in_low, in_up = geo.split_boundary_terms(
        phi, geo.upper_half, geo.lower_strip, geo.upper_strip
    )
    # the 3x3 torus has 3 vertical bonds per cut
    assert len(in_low) == 3 and len(in_up) == 3
    for sites, _ in in_low:
        assert set(sites) <= set(geo.lower_strip.sites)
    # identical strips make every assignment ambiguous
    with pytest.raises(AssumptionError):
        geo.split_boundary_terms(
            phi, geo.upper_half, geo.lower_strip, geo.lower_strip
        )


def test_dressed_charge_variants(torus3):
    geo, phi, sd = torus3
    Q = region_charge(geo.graph, geo.upper_half)
    with pytest.raises(ValueError):
        dressed_charge(sd, Q)
    split = split_spectrum(sd, lowest_k(1))
    with pytest.raises(ValueError):
        dressed_charge(sd, Q, beta=0.5, split=split)
    # exact dressing commutes with the patch projector identically
    Qex = dressed_charge(sd, Q, split=split)
    P = split.projector
    assert operator_norm(commutator(Qex, P)) < 1e-10
    assert np.allclose(Qex, Qex.conj().T)
    # filtered dressing strictly beats the bare charge on a patch with
    # nonzero cross terms (vacuum plus the four lowest excitations)
    split5 = split_spectrum(sd, lowest_k(5))
    P5 = split5.projector
    Qb = dressed_charge(sd, Q, beta=3**-0.5)
    dressed = schatten_norm(commutator(Qb, P5), np.inf)
    bare = schatten_norm(commutator(Q, P5), np.inf)
    assert 0 < dressed < bare


def test_single_particle_spectrum_and_gap(torus3):
    # charge blocks diagonalize independently; the one-particle block is
    # J * adjacency + h, whose torus eigenvalues are h + J {4, 1 x4, -2 x4}
    geo, phi, sd = torus3
    j, h = 0.2, 1.0
    H = phi.hamiltonian(0.0)
    one = [k for k in range(512) if bin(k).count("1") == 1]
    block = H[np.ix_(one, one)]
    got = np.linalg.eigvalsh(block)
    expect = np.sort(h + j * np.array([4.0, 1, 1, 1, 1, -2, -2, -2, -2]))
    assert np.allclose(got, expect, atol=1e-10)
    # the vacuum is an exact zero mode and the gap is the lowest band edge
    assert sd.energies[0] == pytest.approx(0.0, abs=1e-12)
    split = split_spectrum(sd, lowest_k(1))
    assert split.gap == pytest.approx(h - 2 * j)


def test_flux_unitary_factorization(torus3):
    geo, phi, sd = torus3
    Q = region_charge(geo.graph, geo.upper_half)
    fact = flux_unitary(dressed_charge(sd, Q, beta=3**-0.5), geo)
    for U in (fact.flux, fact.lower, fact.upper):
        assert operator_norm(U.conj().T @ U - np.eye(512)) < 1e-10
    assert fact.residual == pytest.approx(
        schatten_norm(fact.flux - fact.lower @ fact.upper, np.inf)
    )
    assert fact.min_singular_value > 1e-3


def test_strip_unitaries_are_decomposed_on_their_strips(torus3, monkeypatch):
    # on the 3x3 torus every boundary strip holds 6 sites, so each polar
    # SVD runs at 2^6 = 64 and never on the 512-dimensional product operator
    import smearlab.qhe as qhe

    geo, phi, sd = torus3
    split = split_spectrum(sd, lowest_k(1))
    shapes, svd = [], qhe.svd
    monkeypatch.setattr(qhe, "svd", lambda M: shapes.append(M.shape) or svd(M))
    beta = 3**-0.5
    fact = flux_unitary(
        dressed_charge(sd, region_charge(geo.graph, geo.upper_half), beta=beta), geo)
    z_phase_operator(fact.lower,
                     dressed_charge(sd, region_charge(geo.graph, geo.right_half), beta=beta),
                     geo, 2 * math.pi, det_split=split)
    assert shapes == [(64, 64)] * 3
    # oracle: the polar part of the re-embedded conditional expectation
    dense, sv = qhe._polar_unitary(
        conditional_expectation(fact.flux, geo.lower_strip.sites, geo.graph.n_sites))
    assert operator_norm(fact.lower - dense) < 1e-12
    assert fact.min_singular_value == pytest.approx(sv, rel=1e-12)


def test_polar_factor_rejects_singular_input():
    from smearlab.qhe import _polar_unitary

    M = np.diag([1.0, 1e-9])
    with pytest.raises(DegenerateFactorError):
        _polar_unitary(M)


def test_transport_operator_properties(torus3):
    geo, phi, sd = torus3
    Q_up = region_charge(geo.graph, geo.upper_half)
    Q_r = region_charge(geo.graph, geo.right_half)
    fact = flux_unitary(dressed_charge(sd, Q_up, beta=3**-0.5), geo)
    res = transport_operator(fact.lower, Q_r, geo)
    T = res.operator
    assert np.allclose(T, T.conj().T)
    # the full defect is traceless, so the strip split must be too
    delta = fact.lower.conj().T @ Q_r @ fact.lower - Q_r
    assert abs(np.trace(delta)) < 1e-9
    assert res.split_residual < 1.0


def test_quantization_check_matches_direct_trace(torus3):
    geo, phi, sd = torus3
    split = split_spectrum(sd, lowest_k(1))
    rng = np.random.default_rng(3)
    T = rng.standard_normal((512, 512))
    T = (T + T.T) / 2
    res = quantization_check(split, T)
    direct = np.trace(split.projector @ T).real
    assert res.trace == pytest.approx(direct)
    assert res.nearest_integer == round(direct)
    assert res.residual == pytest.approx(abs(direct - round(direct)))


def test_decoupled_point_is_exactly_trivial():
    # J = 0: H and Q are diagonal in the same product basis, the flux
    # unitary is the identity and the transported trace is exactly zero
    pt = qhe_experiment(3, [0.0])[0]
    assert pt.trace == 0.0
    assert pt.residual == 0.0
    assert pt.nearest_integer == 0
    assert pt.factorization_residual < 1e-12
    assert pt.dressing_defect < 1e-12
    assert pt.bare_defect < 1e-12


def test_transport_point_at_weak_coupling():
    pt = qhe_experiment(3, [0.2])[0]
    assert pt.gap == pytest.approx(0.6)
    assert pt.nearest_integer == 0
    assert pt.residual <= 0.05
    assert pt.conservation_defect < 1e-10
    assert not pt.strips_disjoint  # recorded, not fatal, on L = 3


def test_residual_decreases_with_coupling():
    pts = qhe_experiment(3, [0.2, 0.1])
    assert pts[0].residual > pts[1].residual > 0
    # the factorization residual also improves
    assert pts[0].factorization_residual > pts[1].factorization_residual


def test_qhe_point_rejects_non_conserving_model():
    geo = ChargeGeometry(3)
    phi = tfim(geo.graph, 1.0, 1.0)
    with pytest.raises(AssumptionError):
        qhe_point(geo, phi, 0.5, lowest_k(1))


def test_z_phase_operator_diagnostics(torus3):
    geo, phi, sd = torus3
    split = split_spectrum(sd, lowest_k(1))
    Q_up = region_charge(geo.graph, geo.upper_half)
    Q_r = region_charge(geo.graph, geo.right_half)
    beta = 3**-0.5
    fact = flux_unitary(dressed_charge(sd, Q_up, beta=beta), geo)
    Qbar_r = dressed_charge(sd, Q_r, beta=beta)
    # phi = 0 gives the identity exactly
    z0 = z_phase_operator(
        fact.lower, Qbar_r, geo, 0.0, det_split=split
    )
    assert z0.patch_commutator < 1e-12
    assert z0.det_residual < 1e-12
    # one flux quantum: Z almost commutes with P and the left-strip
    # determinant returns to one
    z1 = z_phase_operator(
        fact.lower, Qbar_r, geo, 2 * math.pi, det_split=split
    )
    assert z1.patch_commutator < 1e-8
    assert z1.det_residual < 0.05
    with pytest.raises(ValueError):
        z_phase_operator(fact.lower, Qbar_r, geo, 1.0)
