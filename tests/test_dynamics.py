"""Heisenberg evolution (spectral and ODE routes), smearing, LR bounds."""

import tracemalloc

import numpy as np
import pytest

import smearlab.algebra
from smearlab.algebra import (
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    operator_norm,
    pauli_string,
    random_hermitian,
)
from scipy.integrate import simpson

from smearlab.dynamics import (
    EvolutionSpec,
    evolve,
    heisenberg_samples,
    lr_bound,
    lr_decay_profile,
    lr_experiment,
    make_lr_params,
    measured_commutator_curve,
    propagator,
    smear,
)
from smearlab.filtering import GaussianFilter
from smearlab.interaction import custom_model, tfim
from smearlab.lattice import build_chain
from smearlab.spectra import SpectralData, diagonalize


def test_precession_closed_form_pins_the_sign():
    # H = (w/2) sz: tau_t(sx) = cos(wt) sx - sin(wt) sy.  This fixes the
    # convention tau_t(A) = e^{iHt} A e^{-iHt}.
    w = 0.9
    sd = diagonalize(0.5 * w * PAULI_Z)
    spec = EvolutionSpec.spectral(sd)
    for t in (0.0, 0.4, 1.7):
        got = evolve(spec, PAULI_X, 0.0, t)
        expect = np.cos(w * t) * PAULI_X - np.sin(w * t) * PAULI_Y
        assert np.allclose(got, expect, atol=1e-12)


def test_propagator_group_law_and_unitarity():
    rng = np.random.default_rng(1)
    H = random_hermitian(8, rng)
    sd = diagonalize(H)
    spec = EvolutionSpec.spectral(sd)
    W1 = propagator(spec, 0.0, 0.7)
    W2 = propagator(spec, 0.7, 1.3)
    W = propagator(spec, 0.0, 1.3)
    assert np.allclose(W2 @ W1, W, atol=1e-12)
    assert np.allclose(W.conj().T @ W, np.eye(8), atol=1e-12)


def test_ode_route_matches_spectral_route():
    g = build_chain(3)
    phi = tfim(g, 1.0, 1.3)
    sd = diagonalize(phi.hamiltonian(0.0))
    A = pauli_string("y", (1,)).embed(3)
    spectral = EvolutionSpec.spectral(sd)
    ode = EvolutionSpec.ode(phi, step=0.002)
    for t in (0.3, 1.0):
        ref = evolve(spectral, A, 0.0, t)
        got = evolve(ode, A, 0.0, t)
        assert operator_norm(got - ref) < 1e-8
    # unitarity drift of the stepped propagator stays small
    W = propagator(ode, 0.0, 1.0)
    assert operator_norm(W.conj().T @ W - np.eye(8)) < 1e-9


def test_ode_route_handles_time_dependence():
    # H(t) = f(t) sz with [H(t), H(t')] = 0: exact phase is the integral
    # of f, here f(t) = t so the phase is t^2/2
    g = build_chain(1)
    phi = custom_model(g, [("z", (0,), [0.0, 1.0])])
    ode = EvolutionSpec.ode(phi, step=0.001)
    t = 1.0
    got = evolve(ode, PAULI_X, 0.0, t)
    angle = t**2 / 2.0
    expect = np.cos(2 * angle) * PAULI_X - np.sin(2 * angle) * PAULI_Y
    assert np.allclose(got, expect, atol=1e-8)


def test_evolution_from_nonzero_start():
    rng = np.random.default_rng(3)
    H = random_hermitian(6, rng)
    spec = EvolutionSpec.spectral(diagonalize(H))
    A = random_hermitian(6, rng)
    # tau_{s,t} depends only on t - s for static H
    a = evolve(spec, A, 0.5, 1.4)
    b = evolve(spec, A, 0.0, 0.9)
    assert np.allclose(a, b, atol=1e-12)


def test_smear_two_level_gaussian_factor():
    # H = diag(0, 1): smearing with phi_beta multiplies the off-diagonal
    # element by exp(-1/(4 beta^2))
    sd = diagonalize(np.diag([0.0, 1.0]))
    spec = EvolutionSpec.spectral(sd)
    A = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    for beta in (0.5, 1.0, 2.0):
        filt = GaussianFilter(beta)
        out = smear(spec, filt, A)
        factor = np.exp(-1.0 / (4.0 * beta**2))
        assert np.allclose(out, factor * A, atol=1e-9)


def test_smear_routes_agree():
    g = build_chain(3)
    phi = tfim(g, 1.0, 1.2)
    sd = diagonalize(phi.hamiltonian(0.0))
    A = pauli_string("x", (0,)).embed(3)
    filt = GaussianFilter(1.0)
    ref = smear(EvolutionSpec.spectral(sd), filt, A)
    got = smear(EvolutionSpec.ode(phi, step=0.005), filt, A)
    assert operator_norm(got - ref) < 1e-6


def _count_hamiltonian_calls(phi):
    calls = []
    build = phi.hamiltonian

    def counted(t=0.0):
        calls.append(t)
        return build(t)

    phi.hamiltonian = counted
    return calls


def test_ode_routes_build_a_constant_hamiltonian_once():
    phi = tfim(build_chain(3), 1.0, 1.2)
    A = pauli_string("x", (0,)).embed(3)
    filt = GaussianFilter(1.0)
    ts = filt.grid()
    values = heisenberg_samples(phi.hamiltonian, A, ts, 0.005)
    expect = simpson(filt(ts)[:, None, None] * values, x=ts, axis=0)
    calls = _count_hamiltonian_calls(phi)
    got = smear(EvolutionSpec.ode(phi, step=0.005), filt, A)
    assert len(calls) == 1
    assert np.array_equal(got, expect)
    calls.clear()
    propagator(EvolutionSpec.ode(phi, step=0.005), 0.0, 0.7)
    assert len(calls) == 1


def test_ode_smear_takes_no_extra_substep_for_float_noise():
    # h / step = 0.025 / 0.005 is 5 up to rounding: 640 intervals of five
    # RK4 steps with three H evaluations each
    phi = custom_model(build_chain(1), [("z", (0,), [0.0, 1.0])])
    calls = _count_hamiltonian_calls(phi)
    out = smear(EvolutionSpec.ode(phi, step=0.005), GaussianFilter(1.0), PAULI_X)
    assert len(calls) == 640 * 5 * 3
    assert abs(out[0, 1] - 1.0 / np.sqrt(1.0 - 1j)) < 1e-8


def test_ode_smear_time_dependent_closed_form():
    # H(t) = t sz: the off-diagonal entry of tau_{0,t}(sx) is e^{i t^2}, and
    # int phi_beta(t) e^{i t^2} dt = beta / sqrt(beta^2 - i); the sampler
    # steps both time directions through a time-dependent H
    phi = custom_model(build_chain(1), [("z", (0,), [0.0, 1.0])])
    for beta in (0.7, 1.0, 2.0):
        out = smear(EvolutionSpec.ode(phi, step=0.001), GaussianFilter(beta), PAULI_X)
        assert abs(out[0, 1] - beta / np.sqrt(beta**2 - 1j)) < 1e-10


def test_spectral_smear_memory_stays_at_matrix_size():
    # the closed-form transform needs a few dim^2 arrays, not one per node
    phi = tfim(build_chain(8), 1.0, 1.2)
    sd = diagonalize(phi.hamiltonian(0.0))
    A = pauli_string("x", (3,)).embed(8)
    tracemalloc.start()
    try:
        smear(EvolutionSpec.spectral(sd), GaussianFilter(1.0), A)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 50e6


def test_lr_params_and_decay_profile():
    g = build_chain(8)
    phi = tfim(g, 1.0, 2.0)
    params = make_lr_params(phi, 0.5, 1.0)
    assert params.velocity == pytest.approx(
        2.0 * params.constant * params.phi_norm / params.b
    )
    with pytest.raises(ValueError):
        make_lr_params(phi, 1.0, 0.5)
    X = g.region([1])
    Y = g.region([5, 6])
    d = lr_decay_profile(X, Y, 0.5)
    # single-site X: profile = e^{-b d(X,Y)} from the X side
    assert d == pytest.approx(np.exp(-0.5 * 4))
    # bound grows from zero at dt = 0
    assert lr_bound(params, X, Y, 1.0, 1.0, 0.0) == 0.0
    assert lr_bound(params, X, Y, 1.0, 1.0, 0.3) > 0.0


def test_lr_experiment_bound_dominates_small_chain():
    g = build_chain(6)
    phi = tfim(g, 1.0, 2.0)
    sd = diagonalize(phi.hamiltonian(0.0))
    spec = EvolutionSpec.spectral(sd)
    params = make_lr_params(phi, 0.5, 1.0)
    A = pauli_string("x", (1,))
    B = pauli_string("x", (4,))
    X, Y = g.region([1]), g.region([4])
    times = np.linspace(0.0, 1.2, 10)
    res = lr_experiment(spec, params, A, B, X, Y, times)
    assert res.holds
    assert res.measured.shape == (10,)
    # commutator stays zero until the cone arrives: measured is tiny at
    # short times and grows
    assert res.measured[0] < 1e-12
    assert res.measured[-1] > res.measured[1]


def test_measured_commutator_curve_matches_direct():
    g = build_chain(4)
    phi = tfim(g, 1.0, 1.0)
    sd = diagonalize(phi.hamiltonian(0.0))
    spec = EvolutionSpec.spectral(sd)
    A = pauli_string("z", (0,))
    B = pauli_string("z", (3,))
    t = 0.8
    curve = measured_commutator_curve(spec, A, B, [t])
    At = evolve(spec, A.embed(4), 0.0, t)
    Bf = B.embed(4)
    assert curve[0] == pytest.approx(operator_norm(At @ Bf - Bf @ At))


def test_commutator_curve_stays_in_the_eigenbasis(monkeypatch):
    phi = tfim(build_chain(5), 1.0, 1.2)
    sd = diagonalize(phi.hamiltonian(0.0))
    spec = EvolutionSpec.spectral(sd)
    A = pauli_string("x", (0,))
    B = pauli_string("y", (3,))
    times = np.linspace(0.0, 2.0, 20)
    log = []
    for owner, name in ((SpectralData, "to_eigenbasis"),
                        (SpectralData, "from_eigenbasis"),
                        (smearlab.algebra, "svdvals")):
        wrapped = getattr(owner, name)

        def counted(*args, _wrapped=wrapped, _name=name):
            log.append(_name)
            return _wrapped(*args)

        monkeypatch.setattr(owner, name, counted)
    curve = measured_commutator_curve(spec, A, B, times)
    assert log == ["to_eigenbasis"] * 2
    monkeypatch.undo()
    Bf = B.embed(5)
    for t, value in zip(times, curve):
        At = evolve(spec, A.embed(5), 0.0, t)
        assert abs(value - operator_norm(At @ Bf - Bf @ At)) < 1e-12
    with pytest.raises(ValueError):
        measured_commutator_curve(EvolutionSpec.ode(phi), A, B, times)
