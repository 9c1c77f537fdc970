"""Operators on arrays of two-level sites.

Global operators are dense ndarrays on the 2^n dimensional Hilbert space
with site 0 as the leftmost tensor factor, or `ChargeBlocks` when they keep
a charge.  Local operators carry their support and are promoted with
identity on the rest.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = [
    "PAULI_X",
    "PAULI_Y",
    "PAULI_Z",
    "IDENTITY_2",
    "LocalOperator",
    "pauli_string",
    "site_index",
    "embed",
    "trace_sites",
    "conditional_expectation",
    "svd",
    "svdvals",
    "schatten_norm",
    "singular_value_norm",
    "operator_norm",
    "liouvillian",
    "commutator",
    "commutator_norm",
    "involution_isometries",
    "real_matmul",
    "random_hermitian",
    "is_hermitian",
    "ChargeBlocks",
]

PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]])
PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]])
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]])
IDENTITY_2 = np.eye(2)

_PAULI_BY_LABEL = {"X": PAULI_X, "Y": PAULI_Y, "Z": PAULI_Z, "I": IDENTITY_2}


def _as_operator(matrix):
    """`matrix` as a float or complex array, complex only when its data is."""
    return np.asarray(matrix, dtype=np.result_type(np.asarray(matrix), float))


@dataclass(frozen=True)
class LocalOperator:
    """Operator acting on a fixed tuple of sites (ascending order).

    `matrix` lives on the tensor product of the listed sites, leftmost
    factor first.
    """

    sites: tuple
    matrix: np.ndarray

    def __post_init__(self):
        sites = tuple(int(s) for s in self.sites)
        if sites != tuple(sorted(set(sites))):
            raise ValueError("sites must be strictly increasing")
        object.__setattr__(self, "sites", sites)
        dim = 2 ** len(sites)
        mat = _as_operator(self.matrix)
        if mat.shape != (dim, dim):
            raise ValueError(
                f"matrix shape {mat.shape} does not match {len(sites)} sites"
            )
        object.__setattr__(self, "matrix", mat)

    def embed(self, n_sites):
        """Dense global operator acting as `matrix` on `sites`."""
        return embed(self.matrix, self.sites, n_sites)

    @cached_property
    def dagger(self):
        """The local adjoint, built once: an observable met at every step of
        a flow would otherwise be rebuilt, and re-validated, at each."""
        return LocalOperator(self.sites, self.matrix.conj().T)

    def apply(self, X):
        """(matrix (x) 1) X for a vector or block X with 2^n rows, computed
        on the support: the rows X[idx[a, r]] (`site_index`) are contracted
        with the matrix over the local index a.  A ChargeBlocks X stays in
        its blocks (`ChargeBlocks.apply_local`)."""
        if isinstance(X, ChargeBlocks):
            return X.apply_local(self)
        X = np.asarray(X)
        n = round(math.log2(X.shape[0]))
        if 2**n != X.shape[0] or (self.sites and self.sites[-1] >= n):
            raise ValueError(f"{X.shape[0]} rows do not hold the sites {self.sites}")
        idx = self._site_index(n)
        out, rows = np.empty(X.shape, dtype=np.result_type(self.matrix, X)), X[idx]
        if np.iscomplexobj(out) and not np.iscomplexobj(rows):  # no complex copy of the rows
            out.real[idx] = np.tensordot(self.matrix.real, rows, axes=1)
            out.imag[idx] = np.tensordot(self.matrix.imag, rows, axes=1)
        else:
            out[idx] = np.tensordot(self.matrix, rows, axes=1)
        return out

    def _site_index(self, n):
        """`site_index(self.sites, n)`, built once per n and kept read-only,
        as `dagger` is: a flow applies one observable at every step."""
        indices = self.__dict__.setdefault("_site_indices", {})
        if n not in indices:
            indices[n] = site_index(self.sites, n)
            indices[n].flags.writeable = False
        return indices[n]

    def norm(self, p=np.inf):
        return schatten_norm(self.matrix, p)


def pauli_string(label, sites):
    """LocalOperator for a Pauli word, e.g. pauli_string("XZ", (0, 3))."""
    label = label.upper()
    sites = tuple(int(s) for s in sites)
    if len(label) != len(sites):
        raise ValueError("one Pauli letter per site required")
    order = np.argsort(sites)
    mat = np.ones((1, 1))
    for i in order:
        if label[i] not in _PAULI_BY_LABEL:
            raise ValueError(f"unknown Pauli letter {label[i]!r}")
        mat = np.kron(mat, _PAULI_BY_LABEL[label[i]])
    return LocalOperator(tuple(sites[i] for i in order), mat)


def site_index(sites, n_sites):
    """Global basis index idx[a, r] of local state a on `sites` joined with
    state r on the remaining sites, both read leftmost site first."""
    def digits(group):
        out = np.zeros(1, dtype=np.intp)
        for s in group:
            out = (out[:, None] + np.arange(2) * 2 ** (n_sites - 1 - s)).ravel()
        return out

    rest = [s for s in range(n_sites) if s not in sites]
    return digits(sites)[:, None] + digits(rest)[None, :]


def embed(matrix, sites, n_sites):
    """Tensor `matrix` (acting on `sites`) with identity on all other sites.

    The returned array acts on the full 2^n space with site order 0..n-1.
    """
    sites = tuple(int(s) for s in sites)
    k = len(sites)
    if sorted(set(sites)) != list(sites):
        raise ValueError("sites must be strictly increasing")
    if k and (sites[0] < 0 or sites[-1] >= n_sites):
        raise ValueError("support site out of range")
    matrix = _as_operator(matrix)
    if matrix.shape != (2**k, 2**k):
        raise ValueError("matrix does not match the support size")
    idx = site_index(sites, n_sites)
    full = np.zeros((2**n_sites, 2**n_sites), dtype=matrix.dtype)
    full[idx[:, None, :], idx[None, :, :]] = matrix[:, :, None]
    return full


def trace_sites(A, sites, n_sites):
    """Unnormalized partial trace of A over `sites`."""
    sites = sorted({int(s) for s in sites})
    if sites and (sites[0] < 0 or sites[-1] >= n_sites):
        raise ValueError("trace site out of range")
    T = np.asarray(A).reshape((2,) * (2 * n_sites))
    m = n_sites
    remaining = list(range(n_sites))
    for s in reversed(sites):
        i = remaining.index(s)
        T = np.trace(T, axis1=i, axis2=m + i)
        remaining.pop(i)
        m -= 1
    return T.reshape(2**m, 2**m)


def conditional_expectation(A, keep_sites, n_sites):
    """Normalized partial trace over the complement of `keep_sites`,
    re-embedded with identity: E_X(A) = (tr_{X^c} A / 2^{|X^c|}) (x) 1.

    Unital, positive, and the identity on operators supported in X.
    """
    keep = sorted({int(s) for s in keep_sites})
    rest = [s for s in range(n_sites) if s not in keep]
    if not rest:
        return np.array(A)
    reduced = trace_sites(A, rest, n_sites) / 2 ** len(rest)
    return embed(reduced, keep, n_sites)


def is_hermitian(A, tol=1e-12):
    """Every entry of A - A^dagger is at most tol in modulus (NaN fails),
    each 256 x 256 tile (i, j), j >= i, against the conjugate transpose of
    tile (j, i): both read by rows, and no dim x dim temporary is formed."""
    tiles = range(0, len(A), 256)
    return all(np.abs(A[i:i + 256, j:j + 256] - A[j:j + 256, i:i + 256].conj().T)
               .max(initial=0.0) <= tol for i in tiles for j in tiles if j >= i)


@dataclass(frozen=True)
class ChargeBlocks:
    """An operator that keeps a charge diagonal, one dense block per charge:
    `blocks[k]` acts on the basis states `index[k]`, charges ascending.  The
    charge adds over sites, so strip operators and partial traces keep to
    the blocks too."""

    index: list
    blocks: list
    __array_ufunc__ = None  # ndarray @ ChargeBlocks defers to __rmatmul__

    @classmethod
    def of(cls, A, charge):
        """The blocks of A, an ndarray or a CSR matrix, by the values of the
        diagonal `charge`; an entry between two charges (NaN counts) raises."""
        label = np.unique(charge, return_inverse=True)[1]
        rows, cols = A.nonzero()
        if (label[rows] != label[cols]).any():
            raise ValueError("the matrix connects two charges")
        index = [np.flatnonzero(label == k) for k in range(label.max() + 1)]
        return cls(index, [A[np.ix_(s, s)] for s in index])

    @property
    def dim(self):
        return sum(s.size for s in self.index)

    def map(self, f):
        return ChargeBlocks(self.index, [f(b) for b in self.blocks])

    @property
    def dagger(self):
        return self.map(lambda b: b.conj().T)

    def norm(self):
        """Operator norm: the largest `schatten_norm` of a block."""
        return max(schatten_norm(b, np.inf) for b in self.blocks)

    def dense(self):
        return self @ np.eye(self.dim)

    def __matmul__(self, X):
        """Product with a ChargeBlocks of the same charges, or with a dense
        block of dim rows (of dim columns, from the left)."""
        if isinstance(X, ChargeBlocks):
            return ChargeBlocks(self.index, [real_matmul(a, b) for a, b in zip(self.blocks, X.blocks)])
        out = np.zeros(X.shape, dtype=np.result_type(X, *self.blocks))
        for s, b in zip(self.index, self.blocks):
            out[s] = real_matmul(b, X[s])
        return out

    def __rmatmul__(self, X):
        return (self.dagger @ X.conj().T).conj().T

    def _on_sites(self, sites):
        """The block of each local state on `sites` (with the rest empty),
        and per block E[i, a] = 1 where basis state i holds local state a and
        S[i, j] = (i and j agree off the sites), from `site_index`."""
        label = np.empty(self.dim, dtype=np.intp)
        a, r = np.empty((2, self.dim), dtype=np.intp)
        for k, s in enumerate(self.index):
            label[s] = k
        idx = site_index(sites, round(math.log2(self.dim)))
        a[idx], r[idx] = np.indices(idx.shape)
        return label[idx[:, 0]], [(1.0 * (a[s][:, None] == np.arange(idx.shape[0])),
                                   r[s][:, None] == r[s]) for s in self.index]

    def apply_local(self, op):
        """(op (x) 1) self for a LocalOperator that keeps the charge on its
        sites (else ValueError); on a block, op (x) 1 is (E op E^T) o S."""
        label, parts = self._on_sites(op.sites)
        ChargeBlocks.of(op.matrix, label)  # refuses an op that moves charge
        return ChargeBlocks(self.index, [real_matmul(E @ op.matrix @ E.T * S, b)
                                         for (E, S), b in zip(parts, self.blocks)])

    def reduced(self, sites):
        """tr_{rest}(self) / 2^{|rest|} = sum over blocks B of E^T (B o S) E
        / 2^{|rest|}, in the charge blocks of `sites`."""
        label, parts = self._on_sites(sites)
        m = sum(E.T @ (b * S) @ E for (E, S), b in zip(parts, self.blocks))
        return ChargeBlocks.of(m / (self.dim // label.size), label)


def svd(A):
    """U, s, Vh of A by numpy's LAPACK; inf or NaN in A raises ValueError."""
    return np.linalg.svd(np.asarray_chkfinite(A))


def svdvals(A):
    """Singular values of A, descending; inf or NaN raises ValueError."""
    return np.linalg.svd(np.asarray_chkfinite(A), compute_uv=False)


def schatten_norm(A, p=np.inf):
    """Schatten p-norm from singular values; p may be any real >= 1 or inf.

    Hermitian inputs, judged relative to max |A| (`eigvalsh` reads one
    triangle only), take the eigenvalue fast path.  inf or NaN in A raises
    ValueError: an inf off the diagonal would pass that test and be unread.
    """
    A = np.asarray_chkfinite(A)
    if A.shape[0] == A.shape[1] and is_hermitian(A, 1e-12 * np.abs(A).max(initial=0.0)):
        return singular_value_norm(np.abs(np.linalg.eigvalsh(A)), p)
    return singular_value_norm(svdvals(A), p)


def singular_value_norm(s, p=np.inf):
    """Schatten p-norm of an operator with singular values s."""
    if p != np.inf and p < 1:
        raise ValueError("Schatten norms need p >= 1")
    if p == np.inf:
        return float(s.max()) if s.size else 0.0
    if p == 1:
        return float(s.sum())
    if p == 2:
        return float(np.sqrt((s**2).sum()))
    return float((s**p).sum() ** (1.0 / p))


def operator_norm(A):
    return schatten_norm(A, np.inf)


def commutator(A, B):
    return A @ B - B @ A


def commutator_norm(A, B, *, check_a=True):
    """||[A, B]||_inf for a Hermitian A and an involution B = W+ W+^dagger -
    W- W-^dagger given as the pair (W+, W-) (`involution_isometries`): [A, B]
    has the blocks -2 M and 2 M^dagger, M = W+^dagger A W-, so its norm is 2
    sqrt of the top eigenvalue of the smaller Gram matrix of M.  Any other A
    or B raises ValueError.  `check_a=False` skips the check of A, for a
    caller that has checked it once for many B."""
    if not isinstance(B, tuple):
        raise ValueError("commutator_norm takes B as a pair (W+, W-)")
    if check_a and not is_hermitian(A):
        raise ValueError("commutator_norm needs a Hermitian A")
    W_plus, W_minus = B
    if W_plus.shape[1] + W_minus.shape[1] != A.shape[0]:
        raise ValueError("the isometries of B must have dim columns together")
    M = W_plus.conj().T @ real_matmul(A, W_minus)
    G = M @ M.conj().T if M.shape[0] <= M.shape[1] else M.conj().T @ M
    return 2.0 * float(np.sqrt(max(np.linalg.eigvalsh(G).max(initial=0.0), 0.0)))


def real_matmul(M, X):
    """M @ X for a 2-D X; a real float64 M with a complex X is not promoted.

    numpy would copy M to complex and run a complex GEMM.  Here the real
    and imaginary parts of X go through one real GEMM, as the interleaved
    columns of the float64 view of a C-contiguous complex128 copy of X.
    Any other dtype pair is plain M @ X.  A left product W^dagger M is
    real_matmul(M.T, W.conj()).T.
    """
    if M.dtype != np.float64 or not np.iscomplexobj(X):
        return M @ X
    X = np.ascontiguousarray(X, dtype=np.complex128)
    return (M @ X.view(np.float64)).view(np.complex128)


def involution_isometries(op, n_sites, frame=None):
    """(W+, W-) with frame^dagger B frame = W+ W+^dagger - W- W-^dagger, for
    B the embedded LocalOperator `op` and `frame` None for the product basis.

    B^2 = 1 is certified by `eigh` of the local matrix, whose eigenvalues
    must be +1 or -1 within 1e-12, else ValueError.  Column (j, r) of W is
    sum_a u_j[a] frame[idx[a, r]]^* over the local eigenvectors u_j and
    idx from `site_index`, so no dense B is built.
    """
    values, vectors = np.linalg.eigh(op.matrix)
    if not is_hermitian(op.matrix) or np.abs(np.abs(values) - 1.0).max() > 1e-12:
        raise ValueError(f"the matrix on sites {op.sites} is not a Hermitian involution")
    dim = 2**n_sites
    rows = (np.eye(dim) if frame is None else frame)[site_index(op.sites, n_sites)]
    return tuple(np.einsum("arm,aj->mjr", rows.conj(), vectors[:, sel], optimize=True)
                 .reshape(dim, -1) for sel in (values > 0, values < 0))


def liouvillian(H, A):
    """Heisenberg generator L_H(A) = -i [H, A]."""
    return -1j * (H @ A - A @ H)


def random_hermitian(dim, rng, norm=None):
    """Random Hermitian matrix; if `norm` is given, rescaled to that
    operator norm."""
    G = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    H = (G + G.conj().T) / 2.0
    if norm is not None:
        H *= norm / schatten_norm(H, np.inf)
    return H
