"""Diagonalization, split rules, patch states, degeneracy handling."""

import numpy as np
import pytest
from scipy.sparse import block_diag, identity

import smearlab.spectra
from smearlab.algebra import ChargeBlocks, LocalOperator, pauli_string, random_hermitian, schatten_norm
from smearlab.errors import AssumptionError, SchemaError
from smearlab.interaction import custom_model, tfim, xy_charge
from smearlab.lattice import build_chain, build_ring
from smearlab.qhe import ChargeGeometry, region_charge
from smearlab.spectra import (
    SpectralData,
    diagonalize,
    largest_gap_below,
    lowest_k,
    lowest_levels,
    patch_expectation,
    split_spectrum,
    window,
)


def power_iteration_extreme(H, n_iter=4000, seed=0):
    """Largest-|eigenvalue| estimate without calling an eigensolver."""
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(H.shape[0]) + 1j * rng.standard_normal(H.shape[0])
    v /= np.linalg.norm(v)
    for _ in range(n_iter):
        w = H @ v
        v = w / np.linalg.norm(w)
    return float(np.real(v.conj() @ H @ v))


def test_diagonalize_reconstructs_and_sorts():
    rng = np.random.default_rng(2)
    H = random_hermitian(12, rng)
    sd = diagonalize(H)
    assert np.all(np.diff(sd.energies) >= 0)
    V = sd.vectors
    assert np.allclose(V @ np.diag(sd.energies) @ V.conj().T, H, atol=1e-10)
    assert np.allclose(V.conj().T @ V, np.eye(12), atol=1e-12)
    # round trip through the eigenbasis
    A = random_hermitian(12, rng)
    assert np.allclose(sd.from_eigenbasis(sd.to_eigenbasis(A)), A, atol=1e-12)
    with pytest.raises(ValueError):
        diagonalize(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_diagonalize_by_sectors_matches_the_dense_eigh():
    # one eigh per charge block of the hopping torus: the energies and the
    # ground projectors of one dense eigh, V exactly zero off the blocks
    geo = ChargeGeometry(3)
    H = xy_charge(geo.graph, 0.2, 1.0).hamiltonian()
    A = ChargeBlocks.of(H, region_charge(geo.graph, geo.graph.sites()))
    spectra = A.map(diagonalize)
    V = spectra.map(lambda sd: sd.vectors)
    assert all(b.dtype == np.float64 for b in V.blocks)
    energies = np.concatenate([sd.energies for sd in spectra.blocks])
    order = np.argsort(energies, kind="stable")
    dense = diagonalize(H)
    assert np.abs(energies[order] - dense.energies).max() < 1e-12
    cols = np.concatenate(A.index)[order[:5]]
    V0 = V @ np.eye(512)[:, cols]
    P = split_spectrum(dense, lowest_k(5)).projector
    assert np.abs(V0 @ V0.T - P).max() < 1e-12
    Vd = V.dense()
    label = np.empty(512, dtype=int)
    for k, s in enumerate(A.index):
        label[s] = k
    assert not Vd[label[:, None] != label].any()
    assert np.allclose(Vd.T @ Vd, np.eye(512), atol=1e-12)


def test_extreme_eigenvalue_against_power_iteration():
    rng = np.random.default_rng(4)
    H = random_hermitian(10, rng)
    # shift so the largest-|.| eigenvalue is the top one
    H = H + 3.0 * np.eye(10)
    sd = diagonalize(H)
    est = power_iteration_extreme(H)
    assert sd.energies[-1] == pytest.approx(est, abs=1e-6)


def test_frequency_table_and_diagonal_input():
    sd = diagonalize(np.diag([0.0, 1.0, 3.0]))
    omega = sd.frequency_table()
    assert omega.shape == (3, 3)
    assert omega[2, 0] == pytest.approx(3.0)
    assert np.allclose(omega, -omega.T)
    # 1-D input to to_eigenbasis is the operator diag(a)
    a = np.array([1.0, 2.0, 5.0])
    assert np.allclose(sd.to_eigenbasis(a), np.diag(a))


def test_from_eigenbasis_matches_plain_matmul_for_each_dtype_pair():
    rng = np.random.default_rng(8)
    real = diagonalize(tfim(build_chain(4), 1.0, 2.0).hamiltonian())
    cplx = diagonalize(random_hermitian(16, rng))
    assert real.vectors.dtype == np.float64 and cplx.vectors.dtype == np.complex128
    A_c = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
    A_r = rng.standard_normal((16, 16))
    V = real.vectors
    assert np.abs(real.from_eigenbasis(A_c) - V @ A_c @ V.T).max() < 1e-13
    got = real.from_eigenbasis(A_r)
    assert got.dtype == np.float64
    assert np.abs(got - V @ A_r @ V.T).max() < 1e-13
    V = cplx.vectors
    for A in (A_c, A_r):
        assert np.abs(cplx.from_eigenbasis(A) - V @ A @ V.conj().T).max() < 1e-13


def test_to_eigenbasis_matches_plain_matmul_for_each_dtype_pair():
    rng = np.random.default_rng(9)
    real = diagonalize(tfim(build_chain(4), 1.0, 2.0).hamiltonian())
    cplx = diagonalize(random_hermitian(16, rng))
    A_c = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
    A_r = rng.standard_normal((16, 16))
    V = real.vectors
    got = real.to_eigenbasis(A_c)
    assert got.dtype == np.complex128
    assert np.abs(got - V.T @ A_c @ V).max() < 1e-13
    # a real A keeps the plain product, bit for bit
    got = real.to_eigenbasis(A_r)
    assert got.dtype == np.float64
    assert np.array_equal(got, V.T @ A_r @ V)
    V = cplx.vectors
    for A in (A_c, A_r):
        assert np.array_equal(cplx.to_eigenbasis(A), V.conj().T @ A @ V)
    # apply_kernel is V (K o V^dagger A V) V^dagger for each V, A and K
    K_c = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
    K_r = rng.standard_normal((16, 16))
    for sd in (real, cplx):
        V = sd.vectors
        for A in (A_c, A_r):
            for K in (K_c, K_r):
                got = sd.apply_kernel(K, A)
                assert np.abs(got - V @ (K * (V.conj().T @ A @ V)) @ V.conj().T).max() < 1e-13
    assert real.apply_kernel(K_r, A_r).dtype == np.float64


def test_lowest_k_split_tfim():
    g = build_chain(4)
    sd = diagonalize(tfim(g, 1.0, 2.0).hamiltonian())
    split = split_spectrum(sd, lowest_k(1))
    assert split.p == 1
    assert split.width == 0.0
    assert split.gap == pytest.approx(sd.energies[1] - sd.energies[0])
    assert split.idx0.tolist() == [0]
    P = split.projector
    assert np.allclose(P @ P, P, atol=1e-12)
    assert np.trace(P).real == pytest.approx(split.p)


def test_lowest_k_never_cuts_degenerate_cluster():
    # four exactly degenerate bottom levels: lowest_k(2) must take all four
    sd = diagonalize(np.diag([0.0, 0.0, 0.0, 0.0, 2.0, 3.0]))
    split = split_spectrum(sd, lowest_k(2))
    assert split.p == 4
    assert split.gap == pytest.approx(2.0)
    with pytest.raises(AssumptionError):
        split_spectrum(diagonalize(np.zeros((3, 3))), lowest_k(2))
    with pytest.raises(AssumptionError):
        split_spectrum(sd, lowest_k(6))


def test_window_split_rules():
    sd = diagonalize(np.diag([0.0, 0.1, 1.0, 1.1, 3.0]))
    split = split_spectrum(sd, window(0.9, 1.2))
    assert split.idx0.tolist() == [2, 3]
    assert split.gap == pytest.approx(min(1.0 - 0.1, 3.0 - 1.1))
    assert split.width == pytest.approx(0.1)
    with pytest.raises(AssumptionError):
        split_spectrum(sd, window(5.0, 6.0))
    with pytest.raises(SchemaError):
        window(2.0, 1.0)


def test_largest_gap_below_rule():
    sd = diagonalize(np.diag([0.0, 0.3, 2.0, 2.2, 5.0]))
    split = split_spectrum(sd, largest_gap_below(3.0))
    # gaps below 3.0: 0.3, 1.7, 0.2 -> cut after the second level
    assert split.idx0.tolist() == [0, 1]
    assert split.gap == pytest.approx(1.7)
    with pytest.raises(AssumptionError):
        split_spectrum(sd, largest_gap_below(0.1))


def test_lowest_k_widens_through_a_chain_of_near_levels():
    # each level within the tolerance (1e-9) of the next, the chain 2.4e-9 wide
    sd = diagonalize(np.diag([0.0, 0.8e-9, 1.6e-9, 2.4e-9, 1.0, 2.0]))
    split = split_spectrum(sd, lowest_k(1))
    assert split.idx0.tolist() == [0, 1, 2, 3]
    assert split.width == pytest.approx(2.4e-9, rel=1e-12)
    assert split.gap == pytest.approx(1.0 - 2.4e-9, rel=1e-12)


def test_window_widens_both_edges_to_whole_clusters():
    # [lo, hi] holds only the top of the first cluster and the bottom of the second
    sd = diagonalize(np.diag([0.0, 1.0, 1.0 + 5e-10, 2.0, 2.0 + 5e-10, 3.0]))
    split = split_spectrum(sd, window(1.0 + 2e-10, 2.0 + 2e-10))
    assert split.idx0.tolist() == [1, 2, 3, 4]
    assert split.gap == pytest.approx(1.0, rel=1e-8)
    assert split.width == pytest.approx(1.0 + 5e-10, rel=1e-12)


def test_largest_gap_below_is_not_widened():
    # the widest gap below 1.0 is the 5e-10 one inside a cluster
    sd = diagonalize(np.diag([0.0, 5e-10, 2.0]))
    split = split_spectrum(sd, largest_gap_below(1.0, min_gap=1e-10))
    assert split.idx0.tolist() == [0]
    assert split.gap == pytest.approx(5e-10, rel=1e-6)
    with pytest.raises(AssumptionError, match="below the configured minimum"):
        split_spectrum(sd, largest_gap_below(1.0))


def test_min_gap_enforced():
    sd = diagonalize(np.diag([0.0, 1e-4, 1.0]))
    with pytest.raises(AssumptionError):
        split_spectrum(sd, lowest_k(1, min_gap=1e-3))
    split = split_spectrum(sd, lowest_k(1, min_gap=1e-6))
    assert split.gap == pytest.approx(1e-4)


@pytest.mark.parametrize("make, args", [(lowest_k, (1,)), (window, (-0.5, 0.5)),
                                        (largest_gap_below, (0.5,))])
def test_every_rule_carries_its_gap_floor(make, args):
    sd = diagonalize(np.diag([0.0, 1e-4, 1.0]))
    assert make(*args).min_gap == 1e-8
    gap = split_spectrum(sd, make(*args)).gap
    assert split_spectrum(sd, make(*args, min_gap=gap)).gap == gap
    with pytest.raises(AssumptionError, match="below the configured minimum"):
        split_spectrum(sd, make(*args, min_gap=gap * (1 + 1e-12)))


def test_distinct_count_groups_degeneracies():
    sd = diagonalize(np.diag([0.0, 0.0, 0.5, 0.5, 0.5, 2.0]))
    split = split_spectrum(sd, lowest_k(5))
    assert split.p == 5
    assert split.distinct_count() == 2


@pytest.mark.parametrize("k", [1, 3])
def test_commutator_norm_with_the_patch_projector(k):
    # ||[X, P]||_p from the patch vectors against the dense commutator with
    # the assembled projector, for Hermitian and non-Hermitian X
    sd = diagonalize(tfim(build_chain(5), 1.0, 2.0).hamiltonian())
    split = split_spectrum(sd, lowest_k(k))
    assert (split.p == 1) == (k == 1)
    P = split.projector
    rng = np.random.default_rng(k)
    general = rng.standard_normal((32, 32)) + 1j * rng.standard_normal((32, 32))
    for X in (random_hermitian(32, rng), general):
        for p in (1, 2, np.inf):
            expect = schatten_norm(X @ P - P @ X, p)
            assert split.commutator_norm(X, p) == pytest.approx(expect, rel=1e-12, abs=0.0)


def test_commutator_norm_with_the_patch_projector_reads_1d_as_diagonal():
    # the charges of the 3 x 3 torus and a random real diagonal, against
    # the same operators passed as dense matrices
    geo = ChargeGeometry(3)
    sd = diagonalize(xy_charge(geo.graph, 0.2, 1.0).hamiltonian())
    rng = np.random.default_rng(9)
    xs = [region_charge(geo.graph, geo.upper_half),
          region_charge(geo.graph, geo.right_half), rng.standard_normal(512)]
    for k in (1, 5):
        split = split_spectrum(sd, lowest_k(k))
        for x in xs:
            for p in (1, 2, np.inf):
                expect = split.commutator_norm(np.diag(x), p)
                assert split.commutator_norm(x, p) == pytest.approx(expect, rel=1e-14,
                                                                    abs=1e-14)


def test_patch_expectation_matches_projector_trace():
    rng = np.random.default_rng(8)
    g = build_chain(3)
    sd = diagonalize(tfim(g, 1.0, 1.5).hamiltonian())
    split = split_spectrum(sd, lowest_k(3))
    A = random_hermitian(8, rng)
    expect = np.trace(split.projector @ A) / split.p
    got = patch_expectation(split, A)
    assert got == pytest.approx(expect)
    # a local operator, applied on its support only, agrees with the dense route
    op = LocalOperator((0, 2), random_hermitian(4, rng))
    assert patch_expectation(split, op) == pytest.approx(
        patch_expectation(split, op.embed(3))
    )


def test_lowest_levels_match_the_dense_spectrum_on_a_chain_of_12():
    n = 12
    phi = tfim(build_chain(n), 1.0, 2.0)
    dense = split_spectrum(diagonalize(phi.hamiltonian()), lowest_k(1))
    sd = lowest_levels(phi.sparse_hamiltonian(), 1)
    split = split_spectrum(sd, lowest_k(1))
    assert sd.energies.size == 2
    assert np.abs(sd.energies - dense.spectral_data.energies[:2]).max() <= 1e-10
    assert sd.residual() <= 1e-12
    assert (split.p, split.gap) == (1, pytest.approx(dense.gap, abs=1e-10))
    for op in (pauli_string("z", (0,)), pauli_string("z", (5,)), pauli_string("x", (5,))):
        assert patch_expectation(split, op) == pytest.approx(
            patch_expectation(dense, op), abs=1e-10)


_COMPLEX_SPECS = [("Y", (0,), 0.7), ("ZZ", (1, 2), 1.1), ("XY", (2, 3), 0.5),
                  ("ZZ", (3, 4), 1.0), ("X", (5,), 0.3)]
_FIELD6 = [("X", (i,), 0.1) for i in range(6)]


@pytest.mark.parametrize(
    "phi, near, k, p",
    [
        (tfim(build_chain(6), 1.0, 0.0), tfim(build_chain(6), 1.0, 0.1), 1, 2),
        (tfim(build_chain(6), 1.0, 0.0), tfim(build_chain(6), 1.0, 0.1), 3, 12),
        (tfim(build_chain(8), 1.0, 0.0), tfim(build_chain(8), 1.0, 0.1), 3, 16),
        (tfim(build_chain(8), 1.0, 0.0), tfim(build_chain(8), 1.0, 0.1), 11, 16),
        (custom_model(build_chain(6), _COMPLEX_SPECS),
         custom_model(build_chain(6), _COMPLEX_SPECS + _FIELD6), 2, 4),
    ],
    ids=["ising6-k1", "ising6-k3", "ising8-k3", "ising8-k11", "complex6-k2"],
)
def test_lowest_levels_close_exactly_degenerate_clusters(phi, near, k, p):
    # the classical Ising chain of n sites has a twofold ground level and a
    # 2(n-1)-fold first excited level; one Krylov space from one start
    # vector need not hold every copy of a level.  A small transverse field
    # splits the clusters, so a guess taken there holds too few columns.
    dense = split_spectrum(diagonalize(phi.hamiltonian()), lowest_k(k))
    H = phi.sparse_hamiltonian()
    guess = lowest_levels(near.sparse_hamiltonian(), k)
    assert guess.energies.size < p + 1
    for kw in ({}, {"guess": guess}):
        sd = lowest_levels(H, k, **kw)
        split = split_spectrum(sd, lowest_k(k))
        # eigsh restarts from random vectors when its Krylov space closes
        assert np.array_equal(sd.vectors, lowest_levels(H, k, **kw).vectors)
        assert split.p == dense.p == p
        assert sd.energies.size == p + 1
        assert split.gap == pytest.approx(dense.gap, abs=1e-10)
        assert split.width == pytest.approx(dense.width, abs=1e-10)
        # Davis-Kahan: the patch can be off by no more than residual / gap
        residual = sd.residual()
        assert residual <= 1e-9
        bound = np.sqrt(p) * residual / split.gap + 1e-13
        assert np.abs(split.projector - dense.projector).max() <= bound


def test_warm_started_sweep_follows_a_crossing_from_a_decoupled_block():
    # two decoupled TFIM chains whose ground levels cross between s = 0.50
    # and 0.55: a warm start from the point before lies in the wrong block,
    # and only the fixed start vector mixed into it reaches the new ground
    blocks = [tfim(build_chain(9), 1.0, g).sparse_hamiltonian() for g in (2.0, 1.5)]
    e0 = [np.linalg.eigvalsh(b.toarray())[0] for b in blocks]
    sd = None
    for s in np.linspace(0.0, 1.0, 21):
        offset = e0[0] - e0[1] + 0.8 * (s - 0.52)
        H = block_diag([blocks[0], blocks[1] + offset * identity(512)], format="csr")
        sd = lowest_levels(H, 1, guess=sd)
        exact = np.linalg.eigvalsh(H.toarray())[:sd.energies.size]
        assert np.abs(sd.energies - exact).max() <= 1e-10, s


def test_lowest_levels_refuse_a_level_below_the_one_before(monkeypatch):
    # the crossing above with a pure warm start: at s = 0.55 it stays in
    # the block of the old ground level, which comes back as level 0, and
    # the next deflated solve finds the new ground level below it
    monkeypatch.setattr(smearlab.spectra, "WARM_ADMIXTURE", 0.0)
    blocks = [tfim(build_chain(9), 1.0, g).sparse_hamiltonian() for g in (2.0, 1.5)]
    e0 = [np.linalg.eigvalsh(b.toarray())[0] for b in blocks]
    sd = None
    with pytest.raises(AssumptionError, match="below the one before"):
        for s in np.linspace(0.0, 1.0, 21):
            offset = e0[0] - e0[1] + 0.8 * (s - 0.52)
            H = block_diag([blocks[0], blocks[1] + offset * identity(512)], format="csr")
            sd = lowest_levels(H, 1, guess=sd)
            assert s < 0.52


def test_lowest_levels_refuse_a_cluster_that_reaches_the_top():
    # a single Ising bond: levels -1, -1, 1, 1, so level 2 has none above it
    H = tfim(build_chain(2), 1.0, 0.0).sparse_hamiltonian()
    sd = lowest_levels(H, 2)
    assert sd.energies.tolist() == pytest.approx([-1, -1, 1])
    assert sd.sectors is None
    with pytest.raises(AssumptionError):
        lowest_levels(H, 3)


def _counted_eigh(monkeypatch):
    """Record the dimension of every `np.linalg.eigh` call; return the
    list and the unpatched `eigh`, the oracle."""
    sizes, oracle = [], np.linalg.eigh

    def counted(a, *args, **kwargs):
        sizes.append(a.shape[0])
        return oracle(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    return sizes, oracle


def _check_against_the_dense_eigh(sd, oracle, k):
    """Energies and the lowest_k(k) patch projector against one dense
    `eigh` of the stored H, both to 1e-12, and V orthonormal to 1e-13.
    The flip sectors partition the columns, V[::-1] = +-V on them exactly,
    and their energies are those of A +- B to 1e-12."""
    H = sd.hamiltonian
    e, U = oracle(H)
    assert np.abs(sd.energies - e).max() <= 1e-12
    V = sd.vectors
    assert V.dtype == H.dtype
    assert np.abs(V.conj().T @ V - np.eye(sd.dim)).max() <= 1e-13
    even, odd = sd.sectors
    assert np.array_equal(np.sort(np.concatenate((even, odd))), np.arange(sd.dim))
    assert np.array_equal(V[:, even], V[::-1, even])
    assert np.array_equal(V[:, odd], -V[::-1, odd])
    h = sd.dim // 2
    A, B = H[:h, :h], H[:h, h:][:, ::-1]
    for cols, block in ((even, A + B), (odd, A - B)):
        assert np.abs(sd.energies[cols] - np.linalg.eigvalsh(block)).max() <= 1e-12
    split = split_spectrum(sd, lowest_k(k))
    U0 = U[:, :split.p]
    assert np.abs(split.projector - U0 @ U0.conj().T).max() <= 1e-12
    return split


@pytest.mark.parametrize("n", [8, 10])
@pytest.mark.parametrize("g, k", [(2.0, 1), (0.5, 2)], ids=["paramagnet", "ferromagnet"])
def test_flip_even_tfim_ring_is_diagonalized_by_its_two_sectors(monkeypatch, n, g, k):
    # the ferromagnet's two sector ground levels lie 1e-3 to 1e-4 apart
    # (the patch takes both); the paramagnet's ground level stands alone
    H = tfim(build_ring(n), 1.0, g).hamiltonian()
    sizes, oracle = _counted_eigh(monkeypatch)
    sd = diagonalize(H)
    assert sizes == [2**(n - 1)] * 2
    assert sd.hamiltonian is H
    assert _check_against_the_dense_eigh(sd, oracle, k).p == k


def test_flip_route_widens_and_refuses_as_the_dense_route(monkeypatch):
    # the two sector ground levels of a deep ferromagnet: 1.6e-11 apart at
    # g = 0.05, inside DEGENERACY_TOL, so lowest_k(1) widens to both; 4.2e-9
    # apart at g = 0.1, outside it and below the default gap floor (1e-8)
    sizes, oracle = _counted_eigh(monkeypatch)

    def both(g):
        H = tfim(build_ring(8), 1.0, g).hamiltonian()
        return diagonalize(H), SpectralData(*oracle(H), H)

    flip, dense = both(0.05)
    assert sizes == [128, 128]
    a, b = (split_spectrum(sd, lowest_k(1)) for sd in (flip, dense))
    assert a.idx0.tolist() == b.idx0.tolist() == [0, 1]
    assert a.gap == pytest.approx(b.gap, abs=1e-12)
    assert a.width == pytest.approx(b.width, abs=1e-12)
    assert 0.0 < a.width <= 1e-9
    assert np.abs(a.projector - b.projector).max() <= 1e-12
    flip, dense = both(0.1)
    for sd in (flip, dense):
        with pytest.raises(AssumptionError, match="below the configured minimum"):
            split_spectrum(sd, lowest_k(1))
    a, b = (split_spectrum(sd, lowest_k(1, min_gap=1e-9)) for sd in (flip, dense))
    assert a.idx0.tolist() == b.idx0.tolist() == [0]
    assert a.gap == pytest.approx(b.gap, abs=1e-12)


def test_flip_route_takes_a_complex_flip_even_model(monkeypatch):
    # sigma^y sigma^z bonds beside the TFIM terms: both letters change sign
    # under the flip, so their product is flip-even, and H is complex
    n = 8
    specs = ([("ZZ", (i, i + 1), 1.0) for i in range(n - 1)]
             + [("X", (i,), 1.5) for i in range(n)]
             + [("YZ", (i, i + 1), 0.4) for i in range(n - 1)])
    H = custom_model(build_chain(n), specs).hamiltonian()
    assert H.dtype == np.complex128
    sizes, oracle = _counted_eigh(monkeypatch)
    sd = diagonalize(H)
    assert sizes == [128, 128]
    _check_against_the_dense_eigh(sd, oracle, 1)


def _centrosymmetric(dim, rng):
    X = random_hermitian(dim, rng).real
    return X + X[::-1, ::-1]


@pytest.mark.parametrize("case", ["sigma-z-perturbed", "diagonal", "odd-dimension"])
def test_flip_route_is_taken_only_by_a_flip_even_h(monkeypatch, case):
    # a sigma^z term breaks the flip; the classical Ising chain is diagonal
    # and centrosymmetric; an odd dimension has no flip pairing
    chain = build_chain(6)
    H = {"sigma-z-perturbed": lambda: custom_model(
             chain, [("ZZ", (i, i + 1), 1.0) for i in range(5)]
             + [("X", (i,), 2.0) for i in range(6)] + [("Z", (0,), 0.3)]).hamiltonian(),
         "diagonal": lambda: tfim(chain, 1.0, 0.0).hamiltonian(),
         "odd-dimension": lambda: _centrosymmetric(63, np.random.default_rng(5))}[case]()
    if case != "sigma-z-perturbed":
        assert np.array_equal(H, H[::-1, ::-1])
    sizes, oracle = _counted_eigh(monkeypatch)
    sd = diagonalize(H)
    assert sizes == [H.shape[0]]
    assert sd.sectors is None
    e, U = oracle(H)
    assert np.array_equal(sd.energies, e) and np.array_equal(sd.vectors, U)
