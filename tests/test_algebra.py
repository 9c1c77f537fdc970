"""Operator algebra: embeddings, partial traces, norms, Pauli words."""

import numpy as np
import pytest

from smearlab.algebra import (
    IDENTITY_2,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    LocalOperator,
    commutator,
    commutator_norm,
    conditional_expectation,
    embed,
    is_hermitian,
    liouvillian,
    operator_norm,
    pauli_string,
    random_hermitian,
    schatten_norm,
    trace_sites,
)


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


def test_embed_qutrits_on_noncontiguous_support_matches_permuted_kron():
    # q = 3 on sites (0, 3) of 5: kron(M, 1) acts with leg order
    # (0, 3, 1, 2, 4); moving the legs into site order gives the oracle
    rng = np.random.default_rng(11)
    M = rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9))
    legs = np.kron(M, np.eye(27)).reshape((3,) * 10)
    inv = np.argsort([0, 3, 1, 2, 4])
    expect = legs.transpose(list(inv) + [5 + i for i in inv]).reshape(243, 243)
    assert np.array_equal(embed(M, (0, 3), 5, q=3), expect)


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


@pytest.mark.parametrize("dim", [2, 8, 64])
def test_commutator_norm_matches_svd_of_the_commutator(dim):
    rng = np.random.default_rng(dim)
    A = random_hermitian(dim, rng)
    B = random_hermitian(dim, rng)
    # the explicit commutator is anti-Hermitian, so its norm is taken by SVD
    explicit = schatten_norm(A @ B - B @ A, np.inf)
    assert commutator_norm(A, B) == pytest.approx(explicit, rel=1e-12, abs=0.0)


def test_local_operator_diagonal_fast_path():
    op = pauli_string("zz", (0, 2))
    assert op.is_diagonal
    diag = op.embed_diagonal(4)
    assert diag.dtype == np.float64
    assert np.allclose(np.diag(diag), op.embed(4))
    # complex entries stay complex; site 1 is the high bit of the pair
    phase = LocalOperator((1, 3), np.diag([1.0, 1j, -1.0, -1j]))
    cdiag = phase.embed_diagonal(4)
    assert cdiag.dtype == np.complex128
    assert np.array_equal(cdiag, np.diagonal(phase.embed(4)))
    # integer entries become float
    counts = LocalOperator((2,), np.diag([0, 2]))
    assert counts.matrix.dtype == np.float64
    idiag = counts.embed_diagonal(4)
    assert idiag.dtype == np.float64
    assert np.array_equal(idiag, np.diagonal(counts.embed(4)))
    xop = pauli_string("x", (1,))
    assert not xop.is_diagonal
    with pytest.raises(ValueError):
        xop.embed_diagonal(3)


def test_local_operator_validation_and_shift():
    with pytest.raises(ValueError):
        LocalOperator((1, 1), np.eye(4))
    with pytest.raises(ValueError):
        LocalOperator((0, 1), np.eye(3))
    op = pauli_string("xy", (0, 1)).shifted(2)
    assert op.sites == (2, 3)
    assert np.allclose(op.embed(4), pauli_string("xy", (2, 3)).embed(4))


def test_random_hermitian_normalization():
    rng = np.random.default_rng(17)
    H = random_hermitian(12, rng, norm=2.5)
    assert is_hermitian(H)
    assert operator_norm(H) == pytest.approx(2.5)
