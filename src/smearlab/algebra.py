"""Operators on arrays of q-level sites.

Global operators are plain dense ndarrays on the q^n dimensional Hilbert
space with site 0 as the leftmost tensor factor.  Local operators carry
their support and are promoted with identity on the rest.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import svdvals

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
    "schatten_norm",
    "operator_norm",
    "liouvillian",
    "commutator",
    "commutator_norm",
    "random_hermitian",
    "is_hermitian",
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
    q: int = 2

    def __post_init__(self):
        sites = tuple(int(s) for s in self.sites)
        if sites != tuple(sorted(set(sites))):
            raise ValueError("sites must be strictly increasing")
        object.__setattr__(self, "sites", sites)
        dim = self.q ** len(sites)
        mat = _as_operator(self.matrix)
        if mat.shape != (dim, dim):
            raise ValueError(
                f"matrix shape {mat.shape} does not match {len(sites)} sites"
            )
        object.__setattr__(self, "matrix", mat)

    @property
    def support_size(self):
        return len(self.sites)

    @property
    def is_diagonal(self):
        return not np.any(self.matrix - np.diag(np.diagonal(self.matrix)))

    def embed(self, n_sites):
        """Dense global operator acting as `matrix` on `sites`."""
        return embed(self.matrix, self.sites, n_sites, self.q)

    def embed_diagonal(self, n_sites):
        """Diagonal of the embedded operator, for diagonal local matrices.

        Returned as a 1-D array of length q^n in the matrix's dtype, which
        the spectral transforms accept in place of a full matrix.
        """
        if not self.is_diagonal:
            raise ValueError("operator is not diagonal in the product basis")
        full = np.empty(self.q**n_sites, dtype=self.matrix.dtype)
        full[site_index(self.sites, n_sites, self.q)] = self.matrix.diagonal()[:, None]
        return full

    def norm(self, p=np.inf):
        return schatten_norm(self.matrix, p)

    def shifted(self, offset):
        return LocalOperator(tuple(s + offset for s in self.sites), self.matrix, self.q)


def pauli_string(label, sites, q=2):
    """LocalOperator for a Pauli word, e.g. pauli_string("XZ", (0, 3))."""
    label = label.upper()
    sites = tuple(int(s) for s in sites)
    if len(label) != len(sites):
        raise ValueError("one Pauli letter per site required")
    if q != 2:
        raise ValueError("Pauli strings are defined for two-level sites")
    order = np.argsort(sites)
    mat = np.ones((1, 1))
    for i in order:
        if label[i] not in _PAULI_BY_LABEL:
            raise ValueError(f"unknown Pauli letter {label[i]!r}")
        mat = np.kron(mat, _PAULI_BY_LABEL[label[i]])
    return LocalOperator(tuple(sites[i] for i in order), mat, q)


def site_index(sites, n_sites, q=2):
    """Global basis index idx[a, r] of local state a on `sites` joined with
    state r on the remaining sites, both read leftmost site first."""
    def digits(group):
        out = np.zeros(1, dtype=np.intp)
        for s in group:
            out = (out[:, None] + np.arange(q) * q ** (n_sites - 1 - s)).ravel()
        return out

    rest = [s for s in range(n_sites) if s not in sites]
    return digits(sites)[:, None] + digits(rest)[None, :]


def embed(matrix, sites, n_sites, q=2):
    """Tensor `matrix` (acting on `sites`) with identity on all other sites.

    The returned array acts on the full q^n space with site order 0..n-1.
    """
    sites = tuple(int(s) for s in sites)
    k = len(sites)
    if sorted(set(sites)) != list(sites):
        raise ValueError("sites must be strictly increasing")
    if k and (sites[0] < 0 or sites[-1] >= n_sites):
        raise ValueError("support site out of range")
    matrix = _as_operator(matrix)
    if matrix.shape != (q**k, q**k):
        raise ValueError("matrix does not match the support size")
    idx = site_index(sites, n_sites, q)
    full = np.zeros((q**n_sites, q**n_sites), dtype=matrix.dtype)
    full[idx[:, None, :], idx[None, :, :]] = matrix[:, :, None]
    return full


def trace_sites(A, sites, n_sites, q=2):
    """Unnormalized partial trace of A over `sites`."""
    sites = sorted({int(s) for s in sites})
    if sites and (sites[0] < 0 or sites[-1] >= n_sites):
        raise ValueError("trace site out of range")
    T = np.asarray(A).reshape((q,) * (2 * n_sites))
    m = n_sites
    remaining = list(range(n_sites))
    for s in reversed(sites):
        i = remaining.index(s)
        T = np.trace(T, axis1=i, axis2=m + i)
        remaining.pop(i)
        m -= 1
    return T.reshape(q**m, q**m)


def conditional_expectation(A, keep_sites, n_sites, q=2):
    """Normalized partial trace over the complement of `keep_sites`,
    re-embedded with identity: E_X(A) = (tr_{X^c} A / q^{|X^c|}) (x) 1.

    Unital, positive, and the identity on operators supported in X.
    """
    keep = sorted({int(s) for s in keep_sites})
    rest = [s for s in range(n_sites) if s not in keep]
    if not rest:
        return np.array(A)
    reduced = trace_sites(A, rest, n_sites, q) / q ** len(rest)
    return embed(reduced, keep, n_sites, q)


def is_hermitian(A, tol=1e-12):
    return bool(np.allclose(A, A.conj().T, atol=tol, rtol=0.0))


def schatten_norm(A, p=np.inf):
    """Schatten p-norm from singular values; p may be any real >= 1 or inf.

    Hermitian inputs take the eigenvalue fast path.
    """
    A = np.asarray(A)
    if p != np.inf and p < 1:
        raise ValueError("Schatten norms need p >= 1")
    if A.shape[0] == A.shape[1] and is_hermitian(A):
        s = np.abs(np.linalg.eigvalsh(A))
    else:
        s = svdvals(A)
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


def commutator_norm(A, B):
    """||[A, B]||_inf for Hermitian A and B, from one product C = A B:
    [A, B] = C - C^dagger, and i (C - C^dagger) is exactly Hermitian, so
    the norm takes the eigenvalue path.  Other input raises ValueError,
    since C - C^dagger is then not the commutator and could read too low.
    """
    if not (is_hermitian(A) and is_hermitian(B)):
        raise ValueError("commutator_norm needs Hermitian A and B")
    C = A @ B
    return schatten_norm(1j * (C - C.conj().T), np.inf)


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
