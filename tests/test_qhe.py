"""Charge transport on the torus: dressing, flux threading, quantization."""

import math

import numpy as np
import pytest
from scipy.linalg import svd, svdvals

from smearlab.algebra import (
    ChargeBlocks,
    LocalOperator,
    commutator,
    conditional_expectation,
    liouvillian,
    operator_norm,
    pauli_string,
    random_hermitian,
    schatten_norm,
    trace_sites,
)
from smearlab.errors import AssumptionError, DegenerateFactorError
from smearlab.filtering import almost_inverse_liouvillian, exact_inverse_liouvillian
from smearlab.interaction import Interaction, PolyPath, local_perturbation, tfim, xy_charge
from smearlab.lattice import build_chain
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
from smearlab.spectra import SpectralData, diagonalize, lowest_k, split_spectrum

# the charge sectors of the 3 x 3 torus (dim 512) and of a six-site strip
TORUS3_SECTORS = [(math.comb(9, k),) * 2 for k in range(10)]
STRIP_SECTORS = [(math.comb(6, k),) * 2 for k in range(7)]


@pytest.fixture(scope="module")
def torus3():
    geo = ChargeGeometry(3)
    phi = xy_charge(geo.graph, 0.2, 1.0)
    return geo, phi, diagonalize(phi.hamiltonian(0.0))


def charge_spectra(geo, phi):
    """The spectra of H's charge blocks, as `qhe_point` takes them."""
    charge = region_charge(geo.graph, geo.graph.sites())
    return ChargeBlocks.of(phi.hamiltonian(0.0), charge).map(diagonalize)


def test_local_and_region_charge_spectra():
    q = local_charge(0)
    assert np.allclose(np.linalg.eigvalsh(q.matrix), [0.0, 1.0])
    geo = ChargeGeometry(3)
    Q = np.diag(region_charge(geo.graph, geo.upper_half))
    evals = np.linalg.eigvalsh(Q)
    assert np.allclose(np.round(evals), evals, atol=1e-12)
    assert evals.min() == pytest.approx(0.0)
    assert evals.max() == pytest.approx(len(geo.upper_half))


def test_region_charge_is_the_diagonal_of_the_embedded_local_charges():
    geo = ChargeGeometry(3)
    n = geo.graph.n_sites
    for region in (geo.upper_half, geo.right_half, geo.graph.sites(), [0, 4, 8], []):
        q = region_charge(geo.graph, region)
        dense = sum((local_charge(x).embed(n) for x in region), np.zeros((2**n, 2**n)))
        assert q.shape == (2**n,) and q.dtype == np.float64
        assert np.array_equal(np.diag(q), dense)


def test_hopping_model_conserves_charge(torus3):
    geo, phi, _ = torus3
    Q = region_charge(geo.graph, geo.graph.sites())
    assert charge_conservation_defect(phi, Q) == 0.0
    # the transverse field g = 1 flips one charge: its |entry| 1 times sup |g|
    assert charge_conservation_defect(tfim(geo.graph, 1.0, 1.0), Q) == 1.0
    # the hopping moves the charge of the upper half across its cuts
    Q_up = region_charge(geo.graph, geo.upper_half)
    assert charge_conservation_defect(phi, Q_up) == 0.2


def test_charge_defect_builds_no_hamiltonian_and_no_eigensolver(torus3, monkeypatch):
    # the check reads each term's local matrix; it assembles no H, dense or
    # sparse, and diagonalizes nothing, on a model that keeps the charge and
    # on one that does not
    geo, _, _ = torus3
    Q = region_charge(geo.graph, geo.graph.sites())
    calls = []
    for name in ("hamiltonian", "sparse_hamiltonian"):
        monkeypatch.setattr(Interaction, name, lambda *a, name=name: calls.append(name))
    for name in ("eigvalsh", "eigh", "svd"):
        monkeypatch.setattr(np.linalg, name, lambda *a, name=name, **k: calls.append(name))
    assert charge_conservation_defect(xy_charge(geo.graph, 0.2, 1.0), Q) == 0.0
    assert charge_conservation_defect(tfim(geo.graph, 1.0, 1.0), Q) > 0.1
    assert calls == []


def _grid_miss(geo):
    """xy_charge plus sigma^x_0 with a coefficient that vanishes at t = 0,
    0.25, 0.5, 0.75 and 1, and nowhere else on [0, 1]."""
    roots = np.polynomial.polynomial.polyfromroots([0.0, 0.25, 0.5, 0.75, 1.0])
    return local_perturbation(xy_charge(geo.graph, 0.2, 1.0),
                              pauli_string("x", (0,)), PolyPath(roots))


def test_charge_defect_sees_a_violation_between_grid_points(torus3):
    # a five-point sample of ||[H(t), Q]|| reads 0.0 on this model; the
    # check takes the term's sup |c| on the interval instead
    geo, _, _ = torus3
    Q = region_charge(geo.graph, geo.graph.sites())
    phi = _grid_miss(geo)
    path = phi.terms[-1].path
    assert [path(t) for t in np.linspace(0.0, 1.0, 5)] == [0.0] * 5
    lo, hi = path.extent(*phi.interval)
    assert charge_conservation_defect(phi, Q) == max(-lo, hi) > 0.0


def test_qhe_point_never_builds_a_dense_hamiltonian(torus3, monkeypatch):
    # H's blocks are cut from the CSR H, once; no dense H(t) is assembled
    geo, _, _ = torus3
    calls, sparse_calls, sparse = [], [], Interaction.sparse_hamiltonian
    monkeypatch.setattr(Interaction, "hamiltonian", lambda self, t=0.0: calls.append(t))
    monkeypatch.setattr(Interaction, "sparse_hamiltonian",
                        lambda self, t=0.0: sparse_calls.append(t) or sparse(self, t))
    qhe_point(geo, xy_charge(geo.graph, 0.2, 1.0), 3**-0.5, lowest_k(1))
    assert calls == []
    assert sparse_calls == [0.0]


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


def _block_diagonal_part(split, Q):
    """The exact dressing: the eigenbasis blocks of Q within sigma_0 and
    within sigma_1, Hermitian part."""
    mask = split.patch_mask()
    Qbar = split.spectral_data.apply_kernel(mask[:, None] == mask[None, :], Q)
    return (Qbar + Qbar.conj().T) / 2.0


def test_dressed_charge_variants(torus3):
    geo, phi, sd = torus3
    Q = np.diag(region_charge(geo.graph, geo.upper_half))
    split = split_spectrum(sd, lowest_k(1))
    # exact dressing commutes with the patch projector identically
    Qex = _block_diagonal_part(split, Q)
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


def _dressed_by_the_liouvillian(sd, Q, beta=None, split=None):
    """The dressed charge Q - I(L_H(Q)) as the two kernels build it."""
    LQ = liouvillian(sd.hamiltonian, Q)
    if beta is not None:
        Qbar = Q - almost_inverse_liouvillian(sd, beta, LQ)
    else:
        Qbar = Q - exact_inverse_liouvillian(split, LQ)
    return (Qbar + Qbar.conj().T) / 2.0


def test_dressed_charge_matches_the_liouvillian_route(torus3):
    # Q - I_beta(L_H Q) is the smearing tau_{phi_beta}(Q), and
    # Q - I_H(L_H Q) the part of Q within sigma_0 and within sigma_1
    geo, phi, sd = torus3
    split = split_spectrum(sd, lowest_k(5))
    beta = 3**-0.5
    for region in (geo.upper_half, geo.right_half):
        q = region_charge(geo.graph, region)
        got = dressed_charge(sd, q, beta)
        assert got.dtype == np.float64
        oracle = _dressed_by_the_liouvillian(sd, np.diag(q), beta=beta)
        assert np.abs(got - oracle).max() < 1e-12
        oracle = _dressed_by_the_liouvillian(sd, np.diag(q), split=split)
        assert np.abs(_block_diagonal_part(split, q) - oracle).max() < 1e-12
    # a complex Hermitian H, for the filtered variant
    rng = np.random.default_rng(64)
    sd64 = diagonalize(random_hermitian(64, rng))
    q64 = rng.integers(0, 4, 64).astype(float)
    got = dressed_charge(sd64, q64, beta=beta)
    oracle = _dressed_by_the_liouvillian(sd64, np.diag(q64), beta=beta)
    assert np.abs(got - oracle).max() < 1e-12


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
    geo, phi, _ = torus3
    Q = region_charge(geo.graph, geo.upper_half)
    fact = flux_unitary(dressed_charge(charge_spectra(geo, phi), Q, beta=3**-0.5), geo)
    W = fact.flux.dense()
    assert operator_norm(W.conj().T @ W - np.eye(512)) < 1e-10
    # the two factors are unitaries on their six-site strips
    assert fact.lower.sites == geo.lower_strip.sites
    assert fact.upper.sites == geo.upper_strip.sites
    for U in (fact.lower.matrix, fact.upper.matrix):
        assert operator_norm(U.conj().T @ U - np.eye(64)) < 1e-10
    n = geo.graph.n_sites
    dense = schatten_norm(W - fact.lower.embed(n) @ fact.upper.embed(n), np.inf)
    assert fact.residual == pytest.approx(dense, rel=1e-12)
    assert fact.min_singular_value > 1e-3


def test_strip_unitaries_are_decomposed_on_their_strips(torus3, monkeypatch):
    # on the 3x3 torus every boundary strip holds 6 sites, so each polar
    # SVD runs on a charge sector of the 2^6 = 64 dimensional strip factor
    import smearlab.qhe as qhe

    geo, phi, sd = torus3
    n = geo.graph.n_sites
    split = split_spectrum(sd, lowest_k(1))
    shapes, polar_svd = [], qhe.svd
    monkeypatch.setattr(qhe, "svd", lambda M: shapes.append(M.shape) or polar_svd(M))
    beta, spectra = 3**-0.5, charge_spectra(geo, phi)
    fact = flux_unitary(
        dressed_charge(spectra, region_charge(geo.graph, geo.upper_half), beta=beta), geo)
    z_phase_operator(fact.lower,
                     dressed_charge(spectra, region_charge(geo.graph, geo.right_half), beta=beta),
                     geo, [2 * math.pi], split)
    assert shapes == STRIP_SECTORS * 3
    # oracle: the polar part of the re-embedded conditional expectation, by
    # one dense SVD at dimension 512
    u, s, vh = svd(conditional_expectation(fact.flux.dense(), geo.lower_strip.sites, n))
    assert operator_norm(fact.lower.embed(n) - u @ vh) < 1e-12
    assert fact.min_singular_value == pytest.approx(s.min(), rel=1e-12)


def test_polar_factor_rejects_singular_input():
    from smearlab.qhe import _strip_unitary

    M = ChargeBlocks.of(np.diag([1.0, 1e-9]), [0, 1])
    with pytest.raises(DegenerateFactorError):
        _strip_unitary(M, build_chain(1).region([0]))


def test_transport_operator_properties(torus3):
    geo, phi, _ = torus3
    Q_up = region_charge(geo.graph, geo.upper_half)
    q_r = region_charge(geo.graph, geo.right_half)
    Q_r = np.diag(q_r)
    fact = flux_unitary(dressed_charge(charge_spectra(geo, phi), Q_up, beta=3**-0.5), geo)
    res = transport_operator(fact.lower, q_r, geo)
    T = res.operator
    assert T.sites == fact.lower.sites
    assert np.allclose(T.matrix, T.matrix.conj().T)
    # the full defect is traceless, so the strip split must be too
    U = fact.lower.embed(geo.graph.n_sites)
    delta = U.conj().T @ Q_r @ U - Q_r
    assert abs(np.trace(delta)) < 1e-9
    assert res.split_residual < 1.0


def _dense_transport(U, q_right, geometry):
    """Oracle: T and the split residual from the embedded lower factor U,
    with the defect and both conditional expectations at full dimension."""
    n = geometry.graph.n_sites
    delta = (U.conj().T * q_right) @ U
    delta[np.diag_indices_from(delta)] -= q_right
    left = conditional_expectation(delta, geometry.left_strip.sites, n)
    right = conditional_expectation(delta, geometry.right_strip.sites, n)
    return (left + left.conj().T) / 2.0, schatten_norm(delta - left - right, np.inf)


def _close(got, want):
    return abs(got - want) <= max(1e-15, 1e-12 * abs(want))


@pytest.mark.parametrize("coupling", [0.0, 0.2, 0.1, 0.05])
def test_strip_transport_matches_the_dense_route(coupling):
    # the couplings of criterion 12: trace and split residual agree with
    # the route at dimension 512 to 1e-12 relative or 1e-15 absolute
    geo = ChargeGeometry(3)
    n = geo.graph.n_sites
    phi = xy_charge(geo.graph, coupling, 1.0)
    split = split_spectrum(diagonalize(phi.hamiltonian(0.0)), lowest_k(1))
    fact = flux_unitary(dressed_charge(charge_spectra(geo, phi),
                                       region_charge(geo.graph, geo.upper_half),
                                       beta=3**-0.5), geo)
    q_r = region_charge(geo.graph, geo.right_half)
    res = transport_operator(fact.lower, q_r, geo)
    T, residual = _dense_transport(fact.lower.embed(n), q_r, geo)
    assert np.abs(res.operator.embed(n) - T).max() < 1e-14
    assert _close(res.split_residual, residual)
    got, want = quantization_check(split, res.operator), quantization_check(split, T)
    assert _close(got.trace, want.trace)
    if coupling == 0.0:
        assert got.trace == want.trace == 0.0
        assert res.split_residual == residual == 0.0


def _dense_qhe_point(geo, coupling, beta, phis):
    """Oracle: qhe_point with one dense eigh of H and of each dressed
    charge, one SVD of each 64-dimensional strip factor and one svdvals of
    the 512-dimensional factorization defect."""
    n = geo.graph.n_sites
    H = xy_charge(geo.graph, coupling, 1.0).hamiltonian()
    sd = SpectralData(*np.linalg.eigh(H), H)
    split = split_spectrum(sd, lowest_k(1))

    def exp_i(Q, angle):
        vals, vecs = np.linalg.eigh(Q)
        return (vecs * np.exp(1j * angle * vals)) @ vecs.T

    def polar(M, strip):
        rest = [x for x in range(n) if x not in strip.sites]
        u, _, vh = svd(trace_sites(M, rest, n) / 2 ** len(rest))
        return LocalOperator(strip.sites, u @ vh)

    q_upper = region_charge(geo.graph, geo.upper_half)
    q_right = region_charge(geo.graph, geo.right_half)
    Qbar = dressed_charge(sd, q_upper, beta)
    W = exp_i(Qbar, 2 * math.pi)
    lower = polar(W, geo.lower_strip)
    lower_w = lower.dagger.apply(W)
    defect = polar(lower_w, geo.upper_strip).dagger.apply(lower_w) - np.eye(512)
    trans = transport_operator(lower, q_right, geo)
    quant = quantization_check(split, trans.operator)
    Qbar_right = dressed_charge(sd, q_right, beta)
    z_phase = []
    for phi in phis:
        E = exp_i(Qbar_right, phi)
        z_phase.append(split.commutator_norm(lower.dagger.apply(E @ lower.apply(E.conj().T))))
    return {"trace": quant.trace, "nearest_integer": quant.nearest_integer,
            "residual": quant.residual, "factorization_residual": svdvals(defect).max(),
            "split_residual": trans.split_residual,
            "dressing_defect": split.commutator_norm(Qbar),
            "bare_defect": split.commutator_norm(q_upper)}, z_phase


@pytest.mark.parametrize("coupling", [0.0, 0.2, 0.1, 0.05])
def test_qhe_point_matches_the_dense_route(coupling):
    # the couplings of criterion 12: the sector route agrees with dense
    # factorizations at dimension 512 to 1e-12 relative or 1e-14 absolute,
    # and every defect the dense route finds exactly zero stays zero
    geo = ChargeGeometry(3)
    beta, phis = 3**-0.5, [1.0, 2 * math.pi]
    got = qhe_point(geo, xy_charge(geo.graph, coupling, 1.0), beta, lowest_k(1),
                    phi_grid=phis)
    want, z_phase = _dense_qhe_point(geo, coupling, beta, phis)
    for key in ("trace", "factorization_residual", "split_residual"):
        assert abs(getattr(got, key) - want[key]) <= max(1e-14, 1e-12 * abs(want[key])), key
    assert got.nearest_integer == want["nearest_integer"]
    for key, value in want.items():
        if value == 0.0:
            assert getattr(got, key) == 0.0, key
    # the Z(phi) patch commutators, about 1e-16 by the dense route, are
    # exactly zero: Z and the vacuum keep to their charge sectors
    assert max(z_phase) < 1e-14
    assert [z.patch_commutator for z in got.z_phase] == [0.0, 0.0]


def test_qhe_point_stays_below_the_full_dimension(monkeypatch):
    # on the 3 x 3 torus no 512 x 512 operator meets embed,
    # conditional_expectation or schatten_norm: the factorization defect
    # is normed by its charge blocks, the transport on the lower strip;
    # and no product, eigh or SVD sees a 512 x 512 operand
    import smearlab.algebra as algebra
    import smearlab.qhe as qhe
    import smearlab.spectra as spectra

    shapes, solves = [], []
    for owner, name in ((algebra, "embed"), (qhe, "conditional_expectation"),
                        (qhe, "schatten_norm"), (algebra, "schatten_norm")):
        def recorded(A, *args, _name=name, _wrapped=getattr(owner, name), **kwargs):
            shapes.append((_name, np.shape(A)))
            return _wrapped(A, *args, **kwargs)

        monkeypatch.setattr(owner, name, recorded)
    for owner, name in ((algebra, "real_matmul"), (spectra, "real_matmul"),
                        (qhe, "real_matmul"), (np.linalg, "eigh"), (qhe, "svd"),
                        (algebra, "svdvals"), (spectra, "svdvals")):
        def solved(*args, _name=name, _wrapped=getattr(owner, name), **kwargs):
            solves.append((_name, [np.shape(a) for a in args]))
            return _wrapped(*args, **kwargs)

        monkeypatch.setattr(owner, name, solved)
    geo = ChargeGeometry(3)
    qhe_point(geo, xy_charge(geo.graph, 0.2, 1.0), 3**-0.5, lowest_k(1))
    assert shapes == ([("schatten_norm", shape) for shape in TORUS3_SECTORS]
                      + [("conditional_expectation", (64, 64)), ("embed", (16, 16))] * 2
                      + [("schatten_norm", (64, 64))])
    assert {name for name, _ in solves} == {"real_matmul", "eigh", "svd", "svdvals"}
    assert not [call for call in solves if (512, 512) in call[1]]


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
    # a strip operator is applied on its support, on a patch of five
    split5 = split_spectrum(sd, lowest_k(5))
    op = LocalOperator(geo.lower_strip.sites, random_hermitian(64, rng))
    res = quantization_check(split5, op)
    direct = np.trace(split5.projector @ op.embed(geo.graph.n_sites))
    assert res.trace == pytest.approx(direct.real, rel=1e-12)
    assert res.imag_defect < 1e-12


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


def test_decoupled_point_diagonalizes_by_its_charge_sectors(monkeypatch):
    # J = 0 leaves H diagonal, yet H and the dressed charge keep the C(9, k)
    # states of charge k in one eigh each: the sectors come from the charge,
    # not from a nonzero pattern, which would find 512 one-state blocks
    calls, eigh = [], np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh",
                        lambda a, *args, **kw: calls.append(a.shape) or eigh(a, *args, **kw))
    qhe_experiment(3, [0.0])
    assert calls == TORUS3_SECTORS * 2


def test_transport_point_at_weak_coupling():
    pt = qhe_experiment(3, [0.2])[0]
    assert pt.gap == pytest.approx(0.6)
    assert pt.nearest_integer == 0
    assert pt.residual <= 0.05
    assert not pt.strips_disjoint  # recorded, not fatal, on L = 3


def test_residual_decreases_with_coupling():
    pts = qhe_experiment(3, [0.2, 0.1])
    assert pts[0].residual > pts[1].residual > 0
    # the factorization residual also improves
    assert pts[0].factorization_residual > pts[1].factorization_residual


def test_qhe_point_rejects_non_conserving_model():
    # any defect is a model error, however small or wherever in t: a tiny
    # sigma^x term is not passed on to the charge blocks
    geo = ChargeGeometry(3)
    tiny = local_perturbation(xy_charge(geo.graph, 0.2, 1.0), pauli_string("x", (0,)),
                              PolyPath([1e-11]))
    for phi in (tfim(geo.graph, 1.0, 1.0), tiny, _grid_miss(geo)):
        with pytest.raises(AssumptionError, match="not charge conserving"):
            qhe_point(geo, phi, 0.5, lowest_k(1))


def test_z_phase_operator_diagnostics(torus3):
    geo, phi, sd = torus3
    split = split_spectrum(sd, lowest_k(1))
    Q_up = region_charge(geo.graph, geo.upper_half)
    Q_r = region_charge(geo.graph, geo.right_half)
    beta, spectra = 3**-0.5, charge_spectra(geo, phi)
    fact = flux_unitary(dressed_charge(spectra, Q_up, beta=beta), geo)
    Qbar_r = dressed_charge(spectra, Q_r, beta=beta)
    z0, z1 = z_phase_operator(fact.lower, Qbar_r, geo, [0.0, 2 * math.pi], split)
    # phi = 0 gives the identity exactly
    assert z0.phi == 0.0
    assert z0.patch_commutator < 1e-12
    assert z0.det_residual < 1e-12
    # one flux quantum: Z almost commutes with P and the left-strip
    # determinant returns to one
    assert z1.phi == 2 * math.pi
    assert z1.patch_commutator < 1e-8
    assert z1.det_residual < 0.05
