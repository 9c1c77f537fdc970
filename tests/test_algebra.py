"""Operator algebra: embeddings, partial traces, norms, Pauli words."""

import math
import tracemalloc

import numpy as np
import pytest
from scipy.sparse import csr_array

from smearlab import algebra
from smearlab.algebra import (
    IDENTITY_2,
    ChargeBlocks,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    LocalOperator,
    commutator,
    commutator_norm,
    conditional_expectation,
    embed,
    involution_isometries,
    is_hermitian,
    liouvillian,
    operator_norm,
    pauli_string,
    random_hermitian,
    real_matmul,
    schatten_norm,
    svd,
    svdvals,
    trace_sites,
)
from smearlab.interaction import tfim, xy_charge
from smearlab.lattice import build_chain, build_torus
from smearlab.qhe import ChargeGeometry, charge_conservation_defect, region_charge


def kron_chain(mats):
    out = np.array([[1.0 + 0.0j]])
    for m in mats:
        out = np.kron(out, m)
    return out


def partial_trace_by_index_sums(A, sites, n):
    """Index-summation partial trace, written independently of the
    reshape/transpose route used by the library."""
    keep = [s for s in range(n) if s not in sites]
    dk = 2 ** len(keep)
    out = np.zeros((dk, dk), dtype=complex)
    for row in range(2**n):
        for col in range(2**n):
            rbits = [(row >> (n - 1 - s)) & 1 for s in range(n)]
            cbits = [(col >> (n - 1 - s)) & 1 for s in range(n)]
            if any(rbits[s] != cbits[s] for s in sites):
                continue
            r = sum(rbits[s] << (len(keep) - 1 - i) for i, s in enumerate(keep))
            c = sum(cbits[s] << (len(keep) - 1 - i) for i, s in enumerate(keep))
            out[r, c] += A[row, col]
    return out


def test_pauli_algebra_relations():
    assert np.allclose(PAULI_X @ PAULI_Y - PAULI_Y @ PAULI_X, 2j * PAULI_Z)
    assert np.allclose(PAULI_X @ PAULI_X, IDENTITY_2)
    assert np.allclose(PAULI_Y @ PAULI_Z, 1j * PAULI_X)


def test_pauli_string_orders_sites():
    # letters follow the given site order even when sites are unsorted
    op = pauli_string("xz", (3, 1))
    assert op.sites == (1, 3)
    assert np.allclose(op.matrix, np.kron(PAULI_Z, PAULI_X))
    with pytest.raises(ValueError):
        pauli_string("xy", (0,))
    with pytest.raises(ValueError):
        pauli_string("q", (0,))


def test_embed_single_site_positions():
    # explicit kron products at every position of a 3-site array
    for pos in range(3):
        mats = [IDENTITY_2] * 3
        mats[pos] = PAULI_Y
        expect = kron_chain(mats)
        got = embed(PAULI_Y, (pos,), 3)
        assert np.allclose(got, expect)


def test_embed_two_site_noncontiguous():
    # X on site 0, Z on site 2 of four sites
    expect = kron_chain([PAULI_X, IDENTITY_2, PAULI_Z, IDENTITY_2])
    got = embed(np.kron(PAULI_X, PAULI_Z), (0, 2), 4)
    assert np.allclose(got, expect)
    got2 = pauli_string("xz", (0, 2)).embed(4)
    assert np.allclose(got2, expect)


def test_embed_on_noncontiguous_support_matches_permuted_kron():
    # sites (0, 3) of 5: kron(M, 1) acts with leg order (0, 3, 1, 2, 4);
    # moving the legs into site order gives the oracle
    rng = np.random.default_rng(11)
    M = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    legs = np.kron(M, np.eye(8)).reshape((2,) * 10)
    inv = np.argsort([0, 3, 1, 2, 4])
    expect = legs.transpose(list(inv) + [5 + i for i in inv]).reshape(32, 32)
    assert np.array_equal(embed(M, (0, 3), 5), expect)


def test_embed_is_homomorphism():
    rng = np.random.default_rng(5)
    A = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    B = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    ea, eb = embed(A, (1, 3), 4), embed(B, (1, 3), 4)
    assert np.allclose(ea @ eb, embed(A @ B, (1, 3), 4))
    assert np.allclose(ea + eb, embed(A + B, (1, 3), 4))
    # embedding preserves every Schatten norm up to the identity factor
    assert operator_norm(ea) == pytest.approx(operator_norm(A))
    assert schatten_norm(ea, 1) == pytest.approx(4 * schatten_norm(A, 1))


def test_trace_sites_against_index_summation():
    rng = np.random.default_rng(7)
    n = 4
    A = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
    for sites in ([0], [2], [3], [0, 2], [1, 3], [0, 1, 2]):
        got = trace_sites(A, sites, n)
        expect = partial_trace_by_index_sums(A, sites, n)
        assert np.allclose(got, expect)
    assert trace_sites(A, [0, 1, 2, 3], n) == pytest.approx(np.trace(A))


def test_conditional_expectation_properties():
    rng = np.random.default_rng(9)
    n = 4
    A = random_hermitian(2**n, rng)
    keep = [1, 2]
    E = conditional_expectation(A, keep, n)
    # unital, trace preserving, hermiticity preserving
    assert np.allclose(
        conditional_expectation(np.eye(2**n), keep, n), np.eye(2**n)
    )
    assert np.trace(E) == pytest.approx(np.trace(A))
    assert is_hermitian(E)
    # identity on operators already supported in the kept sites
    local = pauli_string("xy", tuple(keep)).embed(n)
    assert np.allclose(conditional_expectation(local, keep, n), local)
    # idempotent and norm nonincreasing
    assert np.allclose(conditional_expectation(E, keep, n), E)
    assert operator_norm(E) <= operator_norm(A) + 1e-12
    # keeping everything is the identity map
    assert np.allclose(conditional_expectation(A, range(n), n), A)


def test_schatten_norms_against_svd():
    rng = np.random.default_rng(11)
    A = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    s = np.linalg.svd(A, compute_uv=False)
    assert schatten_norm(A, np.inf) == pytest.approx(s[0])
    assert schatten_norm(A, 1) == pytest.approx(s.sum())
    assert schatten_norm(A, 2) == pytest.approx(np.linalg.norm(A, "fro"))
    assert schatten_norm(A, 3) == pytest.approx((s**3).sum() ** (1 / 3))
    with pytest.raises(ValueError):
        schatten_norm(A, 0.5)


def test_svd_helpers_match_the_decomposition():
    rng = np.random.default_rng(12)
    A = rng.standard_normal((5, 3)) + 1j * rng.standard_normal((5, 3))
    u, s, vh = svd(A)
    assert u.shape == (5, 5) and vh.shape == (3, 3)
    assert np.allclose(u[:, :3] * s @ vh, A, rtol=0.0, atol=1e-13)
    assert np.allclose(svdvals(A), s, rtol=1e-14, atol=0.0)
    assert np.all(np.diff(s) <= 0.0)


@pytest.mark.parametrize("entry", [(0, 0, np.inf), (0, 0, np.nan), (0, 1, np.inf),
                                   (1, 0, -np.inf), (0, 1, np.nan)])
def test_svd_routes_refuse_non_finite_input(entry):
    # numpy's svd returns NaN singular values for [[inf, 0], [0, 1]], and an
    # inf above the diagonal passes the Hermitian test of schatten_norm,
    # whose eigvalsh reads the lower triangle: a norm of 1.0
    i, j, value = entry
    A = np.eye(2)
    A[i, j] = value
    for route in (schatten_norm, operator_norm, svd, svdvals):
        with pytest.raises(ValueError, match="infs or NaNs"):
            route(A)
    with pytest.raises(ValueError, match="infs or NaNs"):
        schatten_norm(A.astype(complex), 1)


def test_schatten_hoelder_and_ordering():
    rng = np.random.default_rng(13)
    A = random_hermitian(8, rng)
    B = rng.standard_normal((8, 8))
    # |tr(AB)| <= ||A||_p ||B||_q for conjugate exponents
    lhs = abs(np.trace(A @ B))
    assert lhs <= schatten_norm(A, 1) * schatten_norm(B, np.inf) + 1e-10
    assert lhs <= schatten_norm(A, 2) * schatten_norm(B, 2) + 1e-10
    # p-norms decrease in p
    assert schatten_norm(A, 1) >= schatten_norm(A, 2) >= schatten_norm(A, np.inf)


def test_liouvillian_two_level_closed_form():
    # H = diag(0, 1): -i[H, A] multiplies A_{01} by -i(E_0 - E_1) = +i
    H = np.diag([0.0, 1.0])
    A = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    out = liouvillian(H, A)
    assert np.allclose(out, 1j * A)
    assert np.allclose(commutator(H, A), H @ A - A @ H)


_INVOLUTIONS = {
    "y-complex": pauli_string("y", (2,)),
    "word-xz": pauli_string("xz", (1, 3)),
    "one-minus-two-00": LocalOperator((1, 2), np.diag([-1.0, 1.0, 1.0, 1.0])),
    "x-first-site": pauli_string("x", (0,)),
    "z-last-site": pauli_string("z", (4,)),
}


@pytest.mark.parametrize("name", sorted(_INVOLUTIONS))
def test_commutator_norm_with_an_involution_matches_the_explicit_commutator(
        name, monkeypatch):
    op, n = _INVOLUTIONS[name], 5
    rng = np.random.default_rng(sorted(_INVOLUTIONS).index(name))
    A = random_hermitian(2**n, rng)
    B = op.embed(n)
    explicit = schatten_norm(A @ B - B @ A, np.inf)
    pair = involution_isometries(op, n)
    assert sum(W.shape[1] for W in pair) == 2**n
    sizes, eigvalsh = [], np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh",
                        lambda G: sizes.append(G.shape[0]) or eigvalsh(G))
    assert commutator_norm(A, pair) == pytest.approx(explicit, rel=1e-12, abs=0.0)
    # one Gram matrix, the smaller one: 8 x 8 for the 24 + 8 split of 1 - 2|00><00|
    assert sizes == [min(W.shape[1] for W in pair)]
    monkeypatch.undo()
    # in an eigenbasis of a random H: frame^dagger B frame from the frame's rows
    V = np.linalg.eigh(random_hermitian(2**n, rng))[1]
    framed = involution_isometries(op, n, V)
    W_plus, W_minus = framed
    assert np.abs(W_plus @ W_plus.conj().T - W_minus @ W_minus.conj().T
                  - V.conj().T @ B @ V).max() < 1e-13
    value = commutator_norm(V.conj().T @ A @ V, framed)
    assert value == pytest.approx(explicit, rel=1e-12, abs=0.0)


def test_involution_isometries_refuse_other_operators():
    A = random_hermitian(8, np.random.default_rng(3))
    for matrix in (np.diag([1.0, 0.5]),  # Hermitian, not an involution
                   np.array([[1.0, 1.0], [0.0, -1.0]]),  # squares to 1, not Hermitian
                   np.diag([1.0, -1.0 + 2e-12])):
        with pytest.raises(ValueError):
            involution_isometries(LocalOperator((1,), matrix), 3)
    W_plus, W_minus = involution_isometries(pauli_string("x", (1,)), 3)
    with pytest.raises(ValueError):
        commutator_norm(A, (W_plus, W_minus[:, 1:]))
    with pytest.raises(ValueError):
        commutator_norm(A + 0.5j * np.eye(8), (W_plus, W_minus))
    # B comes only as its pair of isometries: a matrix or a diagonal is refused
    B = pauli_string("x", (1,)).embed(3)
    for other in (B, np.diagonal(B), [W_plus, W_minus]):
        with pytest.raises(ValueError, match="pair"):
            commutator_norm(A, other)


def test_schatten_norm_of_a_small_non_hermitian_matrix():
    # max |A - A^dagger| = 1e-13 is tiny in absolute terms, yet A is far
    # from Hermitian; one triangle of it would read as the zero matrix
    A = 1e-13 * np.array([[0.0, 1.0], [0.0, 0.0]])
    for p in (1, np.inf):
        assert schatten_norm(A, p) == pytest.approx(1e-13, rel=1e-12, abs=0.0)
    assert schatten_norm(np.zeros((3, 3)), np.inf) == 0.0


def test_is_hermitian_edge_cases():
    tol = 1e-12
    for defect, verdict in ((1.01 * tol, False), (0.99 * tol, True)):
        real = np.array([[1.0, defect], [0.0, -1.0]])
        cplx = np.array([[1.0, 2.0 + 1j * defect], [2.0, -1.0]])
        assert is_hermitian(real, tol=tol) is verdict
        assert is_hermitian(cplx, tol=tol) is verdict
    H = np.eye(3)
    H[1, 1] = np.nan
    assert is_hermitian(H) is False
    assert is_hermitian(np.zeros((0, 0))) is True
    # rows are compared in chunks: a defect in the last rows still counts
    for dtype in (float, complex):
        H = np.zeros((600, 600), dtype=dtype)
        H[599, 598] = 1.0
        assert is_hermitian(H) is False
        H[598, 599] = 1.0
        assert is_hermitian(H) is True


@pytest.mark.parametrize("dim", [300, 600])
@pytest.mark.parametrize("dtype", [float, complex])
def test_is_hermitian_reads_the_lower_left_tile(dim, dtype):
    # 256 x 256 tiles (i, j), j >= i, are compared with tile (j, i); at a
    # dim that is no multiple of 256 the lower-left tile is a ragged one
    rng = np.random.default_rng(dim)
    G = rng.standard_normal((dim, dim)).astype(dtype)
    if dtype is complex:
        G += 1j * rng.standard_normal((dim, dim))
    H = G + G.conj().T
    assert is_hermitian(H) is True
    H[dim - 1, 3] += 1e-11
    assert is_hermitian(H) is False
    assert is_hermitian(H, tol=2e-11) is True
    H[3, dim - 1] += 1e-11
    assert is_hermitian(H) is True
    if dtype is complex:
        H[dim - 1, 3] += 1j  # the conjugate entry needs -1j
        H[3, dim - 1] += 1j
        assert is_hermitian(H) is False


def test_conservation_check_forms_no_full_size_temporary():
    # the check reads the terms' local matrices, so its peak stays far
    # below one dense H (8 MiB on a chain of 10)
    phi = xy_charge(build_chain(10), 0.7, 1.0)
    charge = np.array([bin(i).count("1") for i in range(2**10)], dtype=float)
    tracemalloc.start()
    try:
        assert charge_conservation_defect(phi, charge) == 0.0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20 // 2
    # the hopping J on bond (0, 1) moves the charge of site 0: J exactly
    site0 = charge - np.array([bin(i).count("1") for i in range(2**9)] * 2, dtype=float)
    assert charge_conservation_defect(phi, site0) == 0.7


def test_sectors_are_the_charge_blocks_of_the_hopping_torus():
    # xy_charge conserves the charge, so its blocks are the C(9, k) states
    # of charge k, smallest index first; the transverse field of tfim moves
    # charge, so its blocks are refused; the CSR H gives the same blocks as
    # the dense one, bit for bit
    torus = build_torus(3, 3)
    phi = xy_charge(torus, 0.2, 1.0)
    charge = region_charge(torus, torus.sites())
    dense = ChargeBlocks.of(phi.hamiltonian(), charge)
    sparse = ChargeBlocks.of(phi.sparse_hamiltonian(), charge)
    weight = np.array([bin(i).count("1") for i in range(512)])
    assert [s.size for s in dense.index] == [math.comb(9, k) for k in range(10)]
    for k, (s, t) in enumerate(zip(dense.index, sparse.index)):
        assert np.array_equal(s, np.nonzero(weight == k)[0]) and np.array_equal(s, t)
    for a, b in zip(dense.blocks, sparse.blocks):
        assert np.array_equal(a, b.toarray()) and a.dtype == b.dtype
    chain = build_chain(6)
    model, chain_charge = tfim(chain, 1.0, 2.0), region_charge(chain, chain.sites())
    for H in (model.hamiltonian(), model.sparse_hamiltonian()):
        with pytest.raises(ValueError, match="connects two charges"):
            ChargeBlocks.of(H, chain_charge)


def test_charge_blocks_agree_with_dense_arithmetic():
    # on the 3 x 3 hopping torus, H and a complex operator B that keep the
    # charge, in their C(9, k) blocks, against the same steps at dim 512
    geo = ChargeGeometry(3)
    n, strip = geo.graph.n_sites, geo.lower_strip.sites
    charge = region_charge(geo.graph, geo.graph.sites())
    H = xy_charge(geo.graph, 0.2, 1.0).hamiltonian()
    rng = np.random.default_rng(22)
    B = (H + 1j * np.diag(rng.standard_normal(512))) @ H
    A, Bb = ChargeBlocks.of(H, charge), ChargeBlocks.of(B, charge)
    assert [s.size for s in A.index] == [math.comb(9, k) for k in range(10)]
    assert np.array_equal(A.dense(), H) and np.array_equal(Bb.dagger.dense(), B.conj().T)
    assert np.abs((A @ Bb).dense() - H @ B).max() < 1e-12
    X = rng.standard_normal((512, 3)) + 1j * rng.standard_normal((512, 3))
    assert np.abs(Bb @ X - B @ X).max() < 1e-12
    assert np.abs(X.T @ Bb - X.T @ B).max() < 1e-12
    # a strip operator that keeps the strip's charge, and one that does not
    local = np.array([bin(a).count("1") for a in range(64)])
    u = random_hermitian(64, rng) * (local[:, None] == local)
    op = LocalOperator(strip, u)
    assert np.abs(op.apply(Bb).dense() - op.embed(n) @ B).max() < 1e-12
    with pytest.raises(ValueError):
        pauli_string("x", (strip[0],)).apply(Bb)
    rest = [x for x in range(n) if x not in strip]
    reduced = Bb.reduced(strip)
    assert [s.size for s in reduced.index] == [math.comb(6, k) for k in range(7)]
    assert np.abs(reduced.dense() - trace_sites(B, rest, n) / 8).max() < 1e-12


@pytest.mark.parametrize("entry", [1e-300, np.nan])
def test_charge_blocks_refuse_an_entry_between_charges(entry):
    # states 0 and 1 of the 3 x 3 torus carry charge 0 and 1
    geo = ChargeGeometry(3)
    charge = region_charge(geo.graph, geo.graph.sites())
    for i, j in ((0, 1), (1, 0)):
        H = xy_charge(geo.graph, 0.2, 1.0).hamiltonian()
        H[i, j] = entry
        for A in (H, csr_array(H)):
            with pytest.raises(ValueError, match="connects two charges"):
                ChargeBlocks.of(A, charge)


def test_local_operator_diagonal_fast_path():
    # the diagonal of a diagonal operator is its action on the all-ones
    # vector, exact and in the dtype of the matrix
    ones = np.ones(16)
    op = pauli_string("zz", (0, 2))
    diag = op.apply(ones)
    assert diag.dtype == np.float64
    assert np.array_equal(np.diag(diag), op.embed(4))
    # complex entries stay complex; site 1 is the high bit of the pair
    phase = LocalOperator((1, 3), np.diag([1.0, 1j, -1.0, -1j]))
    cdiag = phase.apply(ones)
    assert cdiag.dtype == np.complex128
    assert np.array_equal(cdiag, np.diagonal(phase.embed(4)))
    # integer entries become float
    counts = LocalOperator((2,), np.diag([0, 2]))
    assert counts.matrix.dtype == np.float64
    idiag = counts.apply(ones)
    assert idiag.dtype == np.float64
    assert np.array_equal(idiag, np.diagonal(counts.embed(4)))


def test_complex_local_operator_applies_to_a_real_block_without_a_complex_copy():
    # sigma^y on a real 1024 x 1024 block: the real and imaginary parts of
    # the matrix act as two real contractions into the complex result
    X = np.random.default_rng(3).standard_normal((1024, 1024))
    op = pauli_string("y", (4,))
    tracemalloc.start()
    try:
        got = op.apply(X)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 40 * X.size
    assert np.abs(got - op.apply(X.astype(complex))).max() <= 1e-15


@pytest.mark.parametrize("sites", [(0,), (1, 3), (0, 2, 4), (0, 1, 2, 3, 4)])
def test_local_operator_apply_matches_the_embedded_product(sites):
    # (op (x) 1) X on the support, against embed(n) @ X, for real and
    # complex operators and blocks of 1 and dim columns
    rng = np.random.default_rng(len(sites))
    n, k = 5, len(sites)
    real = rng.standard_normal((2**k, 2**k))
    for matrix in (real, real + 1j * rng.standard_normal((2**k, 2**k))):
        op = LocalOperator(sites, matrix)
        dense = op.embed(n)
        for cols in (1, 2**n):
            X = rng.standard_normal((2**n, cols))
            for block in (X, X + 1j * rng.standard_normal(X.shape)):
                got = op.apply(block)
                assert got.shape == block.shape
                assert got.dtype == np.result_type(matrix, block)
                assert np.abs(got - dense @ block).max() <= 1e-14
        vec = rng.standard_normal(2**n)
        assert np.abs(op.apply(vec) - dense @ vec).max() <= 1e-14
        assert np.array_equal(op.dagger.matrix, matrix.conj().T)
    # the rows must hold the support
    with pytest.raises(ValueError):
        op.apply(np.ones((2**n + 1, 2)))
    with pytest.raises(ValueError):
        op.apply(np.ones((2 ** sites[-1], 2)))


def test_local_operator_builds_its_site_index_once_per_size(monkeypatch):
    # apply reads one index table per operator and site count, kept read-only
    op = pauli_string("xz", (0, 2))
    dense = {n: op.embed(n) for n in (4, 5)}
    calls, build = [], algebra.site_index
    monkeypatch.setattr(algebra, "site_index",
                        lambda sites, n: calls.append(n) or build(sites, n))
    for n in (4, 4, 5, 4, 5):
        assert np.array_equal(op.apply(np.eye(2**n)), dense[n])
    assert calls == [4, 5]
    assert not op._site_index(4).flags.writeable
    assert pauli_string("xz", (0, 2))._site_index(4) is not op._site_index(4)


def test_local_operator_validation_and_shift():
    with pytest.raises(ValueError):
        LocalOperator((1, 1), np.eye(4))
    with pytest.raises(ValueError):
        LocalOperator((0, 1), np.eye(3))
    op = pauli_string("xy", (2, 3))
    assert op.sites == (2, 3)


def test_random_hermitian_normalization():
    rng = np.random.default_rng(17)
    H = random_hermitian(12, rng, norm=2.5)
    assert is_hermitian(H)
    assert operator_norm(H) == pytest.approx(2.5)


def test_real_matmul_matches_numpy_product():
    rng = np.random.default_rng(11)
    M = rng.standard_normal((7, 9))
    Z = rng.standard_normal((9, 10)) + 1j * rng.standard_normal((9, 10))
    blocks = {
        "c-ordered": Z[:, :4].copy(),
        "f-ordered": np.asfortranarray(Z[:, :4]),
        "sliced": Z[:, 1:8:2],
        "complex64": Z[:, :3].astype(np.complex64),
    }
    for name, X in blocks.items():
        got = real_matmul(M, X)
        assert got.shape == (7, X.shape[1]), name
        assert np.abs(got - M @ X).max() < 1e-13, name
    # a left product W^dagger M is the transpose of M^T times conj(W)
    W = Z[:7, :3]
    assert np.abs(real_matmul(M.T, W.conj()).T - W.conj().T @ M).max() < 1e-13
    # every other dtype pair is plain M @ X
    R = rng.standard_normal((9, 4))
    for A, X in ((M, R), (M + 0j, Z), (M + 1j, R), (M.astype(np.float32), Z)):
        got = real_matmul(A, X)
        assert got.dtype == (A @ X).dtype
        assert np.abs(got - A @ X).max() < 1e-13
