"""Exact diagonalization and spectral patch bookkeeping.

A spectral split partitions the spectrum into a distinguished patch
sigma_0 and its complement sigma_1, keeping the gap
gamma = dist(sigma_0, sigma_1) and the patch width Delta.  Eigenvalues
closer than the degeneracy tolerance are clustered so a split never cuts
through a degenerate level.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.sparse.linalg import LinearOperator, eigsh

from .algebra import LocalOperator, is_hermitian, site_index
from .errors import AssumptionError, SchemaError

__all__ = [
    "SpectralData",
    "SpectralSplit",
    "SplitRule",
    "lowest_k",
    "window",
    "largest_gap_below",
    "diagonalize",
    "lowest_levels",
    "split_spectrum",
    "patch_expectation",
]

DEGENERACY_TOL = 1e-9


@dataclass
class SpectralData:
    """Eigenvalues (ascending), eigenvector columns, and the Hamiltonian."""

    energies: np.ndarray
    vectors: np.ndarray
    hamiltonian: np.ndarray

    @property
    def dim(self):
        return self.energies.size

    def to_eigenbasis(self, A):
        """V^dagger A V; a 1-D input is read as a diagonal operator."""
        V = self.vectors
        if np.ndim(A) == 1:
            return (V.conj().T * np.asarray(A)) @ V
        return V.conj().T @ A @ V

    def from_eigenbasis(self, A_tilde):
        return self.vectors @ A_tilde @ self.vectors.conj().T

    def frequency_table(self):
        """omega[i, j] = E_i - E_j."""
        return self.energies[:, None] - self.energies[None, :]

    def residual(self):
        """Largest ||H v - E v|| over the eigenpairs held."""
        V = self.vectors
        return float(np.linalg.norm(self.hamiltonian @ V - V * self.energies, axis=0).max())

    def clusters(self, tol=DEGENERACY_TOL):
        """Index ranges of eigenvalues within `tol` of their neighbour."""
        e = self.energies
        breaks = np.nonzero(np.diff(e) > tol)[0]
        starts = np.concatenate(([0], breaks + 1))
        stops = np.concatenate((breaks + 1, [e.size]))
        return list(zip(starts.tolist(), stops.tolist()))


def diagonalize(H):
    """Full eigendecomposition of a Hermitian matrix; the eigenvectors come
    in the dtype of H, real for a real-symmetric H."""
    H = np.asarray(H)
    if not is_hermitian(H, tol=1e-10):
        raise ValueError("Hamiltonian is not Hermitian")
    energies, vectors = np.linalg.eigh(H)
    return SpectralData(energies, vectors, H)


def lowest_levels(H, k):
    """The lowest levels of a sparse Hermitian H, enough for
    `split_spectrum(., lowest_k(k))`: the whole degenerate cluster holding
    level k-1 and the one level above it.

    A Krylov space can miss copies of a degenerate level, so each level is
    the lowest eigenpair, by `eigsh` with fixed seeds, of H shifted above
    its spectrum on the span of the levels found before it.  Returns a
    partial SpectralData holding H.
    """
    dim = H.shape[0]
    shift = 2.0 * abs(H).sum(axis=1).max() + 1.0  # above 2 ||H||
    v0 = np.random.default_rng(12345).standard_normal(dim)
    energies, rows = np.empty(0), np.empty((0, dim), dtype=H.dtype)
    while energies.size < dim:
        # einsum, not numpy's BLAS, whose threads would contend with eigsh's
        conj, shifted = rows.conj(), shift * rows
        deflated = LinearOperator((dim, dim), dtype=H.dtype, matvec=lambda x: (
            H @ x + np.einsum("i,ik->k", np.einsum("ij,j->i", conj, x), shifted)))
        val, vec = eigsh(deflated, k=1, which="SA", v0=v0, tol=0.0,
                         rng=np.random.default_rng(12345))
        closed = energies.size >= k and val[0] - energies[-1] > DEGENERACY_TOL
        energies = np.append(energies, val)
        rows = np.vstack((rows, vec.T))
        if closed:
            return SpectralData(energies, rows.T, H)
    raise AssumptionError(f"lowest_k({k}) selects the entire spectrum")


@dataclass(frozen=True)
class SplitRule:
    """Named rule selecting the patch sigma_0 from a sorted spectrum."""

    kind: str
    params: tuple = ()

    def __repr__(self):
        args = ", ".join(repr(p) for p in self.params)
        return f"{self.kind}({args})"


def lowest_k(k):
    if k < 1:
        raise SchemaError("lowest_k: k must be a positive integer")
    return SplitRule("lowest_k", (int(k),))


def window(lo, hi):
    if not lo < hi:
        raise SchemaError("window: need lo < hi")
    return SplitRule("window", (float(lo), float(hi)))


def largest_gap_below(energy):
    return SplitRule("largest_gap_below", (float(energy),))


@dataclass
class SpectralSplit:
    """Patch sigma_0 inside a spectrum, with gap and width."""

    spectral_data: SpectralData
    idx0: np.ndarray
    gap: float
    width: float
    _projector: np.ndarray = field(default=None, repr=False)

    @property
    def p(self):
        """Rank of the patch projector; equals its trace norm."""
        return int(self.idx0.size)

    @property
    def idx1(self):
        mask = np.ones(self.spectral_data.dim, dtype=bool)
        mask[self.idx0] = False
        return np.nonzero(mask)[0]

    @property
    def patch_energies(self):
        return self.spectral_data.energies[self.idx0]

    @property
    def projector(self):
        """Assembled P = sum over sigma_0 of |v><v| (cached)."""
        if self._projector is None:
            V0 = self.spectral_data.vectors[:, self.idx0]
            self._projector = V0 @ V0.conj().T
        return self._projector

    def patch_mask(self):
        mask = np.zeros(self.spectral_data.dim, dtype=bool)
        mask[self.idx0] = True
        return mask

    def distinct_count(self, tol=DEGENERACY_TOL):
        """Number of distinct eigenvalues inside sigma_0."""
        e = np.sort(self.patch_energies)
        if e.size == 0:
            return 0
        return 1 + int((np.diff(e) > tol).sum())

    def patch_vectors(self):
        return self.spectral_data.vectors[:, self.idx0]


def split_spectrum(sd, rule, min_gap=1e-8, tol=DEGENERACY_TOL):
    """Apply a split rule; raises AssumptionError when the resulting gap is
    below `min_gap` or the rule selects everything or nothing."""
    e = sd.energies
    clusters = sd.clusters(tol)

    if rule.kind == "lowest_k":
        (k,) = rule.params
        if k >= e.size:
            raise AssumptionError("lowest_k selects the entire spectrum")
        stop = k
        for start, end in clusters:
            if start <= k - 1 < end:
                # never cut the degenerate cluster containing level k-1
                stop = max(k, end)
                break
        if stop >= e.size:
            raise AssumptionError(
                "degenerate cluster extension swallowed the whole spectrum"
            )
        idx0 = np.arange(stop)
    elif rule.kind == "window":
        lo, hi = rule.params
        inside = np.nonzero((e >= lo) & (e <= hi))[0]
        if inside.size == 0:
            raise AssumptionError(f"window [{lo}, {hi}] selects no eigenvalue")
        chosen = set(inside.tolist())
        for start, end in clusters:
            if chosen & set(range(start, end)):
                chosen |= set(range(start, end))
        idx0 = np.array(sorted(chosen))
        if idx0.size == e.size:
            raise AssumptionError("window selects the entire spectrum")
        if not np.array_equal(idx0, np.arange(idx0[0], idx0[-1] + 1)):
            raise AssumptionError("window patch is not contiguous")
    elif rule.kind == "largest_gap_below":
        (cut,) = rule.params
        below = np.nonzero(e <= cut)[0]
        if below.size < 2:
            raise AssumptionError("no spectral gap below the given energy")
        diffs = np.diff(e[below])
        j = int(np.argmax(diffs))
        idx0 = below[: j + 1]
    else:
        raise SchemaError(f"unknown split rule {rule.kind!r}")

    lo_i, hi_i = int(idx0[0]), int(idx0[-1])
    gaps = []
    if lo_i > 0:
        gaps.append(e[lo_i] - e[lo_i - 1])
    if hi_i < e.size - 1:
        gaps.append(e[hi_i + 1] - e[hi_i])
    gap = float(min(gaps))
    width = float(e[hi_i] - e[lo_i])
    if gap < min_gap:
        raise AssumptionError(
            f"spectral gap {gap:.3e} below the configured minimum {min_gap:.3e}"
        )
    return SpectralSplit(sd, idx0, gap, width)


def patch_expectation(split, A):
    """Normalized patch state omega(A) = tr(P A) / p.

    A LocalOperator is applied to the patch vectors on its support only:
    W[a, r] = V0[idx[a, r]], contracted with its matrix.
    """
    V0 = split.patch_vectors()
    if isinstance(A, LocalOperator):
        W = V0[site_index(A.sites, round(math.log(V0.shape[0], A.q)), A.q)]
        vals = np.einsum("ari,ab,bri->i", W.conj(), A.matrix, W, optimize=True)
    else:
        vals = np.einsum("ij,jk,ki->i", V0.conj().T, A, V0, optimize=True)
    return complex(vals.sum() / split.p)
