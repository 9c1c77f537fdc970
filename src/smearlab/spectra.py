"""Exact diagonalization and spectral patch bookkeeping.

A spectral split partitions the spectrum into a distinguished patch
sigma_0 and its complement sigma_1, keeping the gap
gamma = dist(sigma_0, sigma_1) and the patch width Delta.  A split widens
its patch across neighbouring levels closer than the degeneracy tolerance,
so it never cuts through a degenerate level.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .algebra import LocalOperator, is_hermitian, real_matmul, singular_value_norm, svdvals
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
    "block_expectation",
]

DEGENERACY_TOL = 1e-9
MIN_GAP = 1e-8
# A warm start holds no weight on a level that crosses in from a sector the
# guess does not touch, and the Lanczos would then converge to a higher
# level: this fraction of the fixed cold start restores that weight.
WARM_ADMIXTURE = 1e-8
KRYLOV_MIN, KRYLOV_STRIDE, KRYLOV_CAP, CERTIFIED = 20, 20, 100, 64


@dataclass
class SpectralData:
    """Eigenvalues (ascending), eigenvector columns, the Hamiltonian and, from
    the spin-flip route of `diagonalize` only, the even and odd columns."""

    energies: np.ndarray
    vectors: np.ndarray
    hamiltonian: np.ndarray
    sectors: tuple = None

    @property
    def dim(self):
        return self.energies.size

    def to_eigenbasis(self, A):
        """V^dagger A V; a 1-D input is read as a diagonal operator.  A real
        V meets a complex A as (V^T (V^T A)^T)^T through `real_matmul`."""
        V = self.vectors
        if np.ndim(A) == 1:
            return (V.conj().T * np.asarray(A)) @ V
        if V.dtype == np.float64 and np.iscomplexobj(A):
            return real_matmul(V.T, real_matmul(V.T, A).T).T
        return V.conj().T @ A @ V

    def from_eigenbasis(self, A_tilde):
        """V A_tilde V^dagger, as (conj(V) (V A_tilde)^T)^T so that a real V
        meets a complex A_tilde through `real_matmul`, unpromoted."""
        V = self.vectors
        return real_matmul(V.conj(), real_matmul(V, A_tilde).T).T

    def apply_kernel(self, K, A):
        """V (K o V^dagger A V) V^dagger: entry (mu, nu) of A in the
        eigenbasis multiplied by K[mu, nu], the one route of every map
        diagonal there (tau_t, tau_f, I_beta, I_H, J_beta)."""
        return self.from_eigenbasis(K * self.to_eigenbasis(A))

    def frequency_table(self):
        """omega[i, j] = E_i - E_j."""
        return self.energies[:, None] - self.energies[None, :]

    def residual(self, idx=slice(None)):
        """Largest ||H v - E v|| over the eigenpairs held, or over those in
        `idx` (a patch: one dim x p product)."""
        V, e = self.vectors[:, idx], self.energies[idx]
        return float(np.linalg.norm(self.hamiltonian @ V - V * e, axis=0).max())


def diagonalize(H):
    """Full eigendecomposition of a Hermitian matrix, eigenvectors dense
    and in the dtype of H.

    Flipping every spin maps basis index i to dim - 1 - i, so the global
    spin flip is the exchange matrix J.  An H of even dimension with
    H = JHJ exactly, and an entry off its diagonal, splits into the flip
    sectors H+- = A +- B, A = H[:h, :h] and B = H[:h, h:] J, h = dim/2
    (Cantoni and Butler, Linear Algebra Appl. 13 (1976) 275): two `eigh`s
    at dim/2, whose vectors [U+; JU+]/sqrt 2 and [U-; -JU-]/sqrt 2 are
    merged with the energies by one stable sort, their columns kept as
    `sectors`.  Any other H takes one `eigh`.  A diagonal H stays on that
    route, where `eigh` returns the product basis itself.
    """
    H = np.asarray(H)
    if not is_hermitian(H, tol=1e-10):
        raise ValueError("Hamiltonian is not Hermitian")
    h, odd = divmod(H.shape[0], 2)
    if odd or not np.array_equal(H, H[::-1, ::-1]) or (
            np.count_nonzero(H) == np.count_nonzero(np.diagonal(H))):
        return SpectralData(*np.linalg.eigh(H), H)
    A, B = H[:h, :h], H[:h, h:][:, ::-1]
    e, U = (np.concatenate(parts, axis=-1)
            for parts in zip(np.linalg.eigh(A + B), np.linalg.eigh(A - B)))
    order = np.argsort(e, kind="stable")
    U = U[:, order] / np.sqrt(2.0)
    V = np.concatenate((U, U[::-1] * np.where(order < h, 1.0, -1.0)))
    return SpectralData(e[order], V, H, (np.flatnonzero(order < h), np.flatnonzero(order >= h)))


def lowest_levels(H, k, guess=None):
    """The lowest levels of a sparse Hermitian H, enough for
    `split_spectrum(., lowest_k(k))`: the whole degenerate cluster holding
    level k-1 and the one level above it.

    A Krylov space can miss copies of a degenerate level, so each level is
    the lowest eigenpair of H on the complement of the levels found before
    it (`_lowest_pair`).  Level j starts from a fixed random vector or,
    given `guess` (the SpectralData of a nearby H, say the point before on
    a path), from its column j plus WARM_ADMIXTURE of that vector.  A level
    below the one before (a start vector missed one) and a returned pair
    with ||H v - E v|| above CERTIFIED eps ||H||_1 are an AssumptionError.
    Returns a partial SpectralData holding H."""
    rng, dim = np.random.default_rng(12345), H.shape[0]
    tol = np.finfo(float).eps * abs(H).sum(axis=0).max()
    v0 = rng.standard_normal(dim)
    warm = () if guess is None else guess.vectors.T + WARM_ADMIXTURE / np.linalg.norm(v0) * v0
    energies, rows = np.empty(0), np.empty((0, dim), dtype=H.dtype)
    while energies.size < dim:
        start = warm[energies.size] if energies.size < len(warm) else v0
        val, vec = _lowest_pair(H, rows, start, rng, tol)
        if energies.size and val < energies[-1] - DEGENERACY_TOL:
            raise AssumptionError(f"level {energies.size} lies below the one before: one was missed")
        closed = energies.size >= k and val - energies[-1] > DEGENERACY_TOL
        energies = np.append(energies, val)
        rows = np.vstack((rows, vec))
        if closed:
            sd = SpectralData(energies, rows.T, H)
            if sd.residual() > CERTIFIED * tol:
                raise AssumptionError(f"residual {sd.residual():.3e} above {CERTIFIED * tol:.3e}")
            return sd
    raise AssumptionError(f"lowest_k({k}) selects the entire spectrum")


def _lowest_pair(H, locked, w, rng, tol):
    """The lowest eigenpair of H on the complement of the rows of `locked`:
    a Lanczos from w with full reorthogonalization (Parlett, The Symmetric
    Eigenvalue Problem, ch. 13) to a Ritz residual estimate of `tol`.  As
    ARPACK's ncv = 20, it tests no basis under KRYLOV_MIN vectors and goes
    on from a fresh vector of `rng`, uncoupled, past an invariant subspace.
    A test (an `eigh` of the tridiagonal) plans the next where the estimate
    would reach `tol` at its rate since the last, at most KRYLOV_STRIDE
    vectors on; at KRYLOV_CAP vectors the basis restarts from its Ritz vector."""
    L, dim = locked.shape
    Q = np.empty((min(dim, L + KRYLOV_CAP), dim), dtype=H.dtype)
    Q[:L] = locked
    alpha, beta = np.empty(len(Q) - L), np.empty(len(Q) - L)
    m, test, last = 0, KRYLOV_MIN, None
    while True:
        i = L + m
        w, b = _orthogonalize(Q[:i], w)
        if m and (i == len(Q) or m >= test or b == 0.0 and m >= KRYLOV_MIN):
            theta, S = np.linalg.eigh(np.diag(alpha[:m]) + np.diag(beta[:m - 1], 1), UPLO="U")
            estimate = b * abs(S[-1, 0])
            if i == dim or estimate <= tol:
                y = S[:, 0] @ Q[L:i]
                return theta[0], y / np.linalg.norm(y)
            if i == len(Q):
                w, m, test, last = S[:, 0] @ Q[L:i], 0, KRYLOV_MIN, None
                continue
            rate = np.log(estimate / last[1]) / (m - last[0]) if last else 0.0
            steps = np.log(tol / estimate) / rate if rate < 0.0 else KRYLOV_STRIDE
            test, last = m + int(np.ceil(min(steps, KRYLOV_STRIDE))), (m, estimate)
        if m:
            beta[m - 1] = b
        if b == 0.0:
            w, b = _orthogonalize(Q[:i], rng.standard_normal(dim))
        q = np.multiply(w, 1.0 / b, out=Q[i])
        w = H @ q
        alpha[m] = np.vdot(q, w).real
        w -= alpha[m] * q if m == 0 else np.array((beta[m - 1], alpha[m])) @ Q[i - 1:i + 1]
        m += 1


def _orthogonalize(Q, w):
    """w less its part in the span of Q's orthonormal rows, and its norm: 0
    when each of three Gram-Schmidt passes removes most of w (ARPACK)."""
    norm = np.linalg.norm(w)
    for _ in range(3):
        w = w - (np.conj(Q @ w.conj()) if np.iscomplexobj(Q) else Q @ w) @ Q
        norm, last = np.linalg.norm(w), norm
        if norm > 0.717 * last:
            return w, norm
    return w, 0.0


@dataclass(frozen=True)
class SplitRule:
    """Named rule selecting the patch sigma_0 from a sorted spectrum, with
    the floor `min_gap` that the realized gap must reach: a split is one
    value, and `split_spectrum` reads both."""

    kind: str
    params: tuple = ()
    min_gap: float = MIN_GAP

    def __repr__(self):
        args = ", ".join(repr(p) for p in self.params)
        return f"{self.kind}({args})"


def lowest_k(k, min_gap=MIN_GAP):
    """The k lowest levels, widened to the whole degenerate cluster that
    holds level k-1; the gap must reach `min_gap`."""
    if k < 1:
        raise SchemaError("lowest_k: k must be a positive integer")
    return SplitRule("lowest_k", (int(k),), min_gap)


def window(lo, hi, min_gap=MIN_GAP):
    """Every level in [lo, hi], widened to whole degenerate clusters; the
    gap must reach `min_gap`."""
    if not lo < hi:
        raise SchemaError("window: need lo < hi")
    return SplitRule("window", (float(lo), float(hi)), min_gap)


def largest_gap_below(energy, min_gap=MIN_GAP):
    """The levels under the widest gap between neighbouring levels at or
    below `energy`; the gap must reach `min_gap`."""
    return SplitRule("largest_gap_below", (float(energy),), min_gap)


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

    def distinct_count(self):
        """Number of distinct eigenvalues inside sigma_0."""
        e = np.sort(self.spectral_data.energies[self.idx0])
        if e.size == 0:
            return 0
        return 1 + int((np.diff(e) > DEGENERACY_TOL).sum())

    def patch_vectors(self):
        return self.spectral_data.vectors[:, self.idx0]

    def commutator_norm(self, X, p=np.inf):
        """Schatten p-norm of [X, P], for any X (1-D: a diagonal), from V0.

        [X, P] = Pperp X P - P X Pperp maps the patch into its complement
        and back, so its singular values are those of Pperp X V0 (dim x p)
        and V0^dagger X Pperp (p x dim) together.
        """
        V0 = self.patch_vectors()
        XV, VX = ((X[:, None] * V0, V0.conj().T * X) if np.ndim(X) == 1
                  else (X @ V0, V0.conj().T @ X))
        into = XV - V0 @ (V0.conj().T @ XV)
        back = VX - (VX @ V0) @ V0.conj().T
        return singular_value_norm(np.concatenate((svdvals(into), svdvals(back))), p)


def split_spectrum(sd, rule):
    """Apply a split rule; raises AssumptionError when the resulting gap is
    below the rule's `min_gap` or the rule selects everything or nothing.

    A rule names the first and last level of its patch, and `lowest_k` and
    `window` widen that range level by level while the neighbour lies
    within DEGENERACY_TOL, so that they never cut a degenerate cluster.  A
    split reads only `sd.energies`.
    """
    e = sd.energies
    if rule.kind == "lowest_k":
        lo, hi = 0, rule.params[0] - 1
    elif rule.kind == "window":
        inside = np.flatnonzero((e >= rule.params[0]) & (e <= rule.params[1]))
        if inside.size == 0:
            raise AssumptionError(f"{rule!r} selects no eigenvalue")
        lo, hi = int(inside[0]), int(inside[-1])
    elif rule.kind == "largest_gap_below":
        below = e[e <= rule.params[0]]
        if below.size < 2:
            raise AssumptionError("no spectral gap below the given energy")
        lo, hi = 0, int(np.argmax(np.diff(below)))
    else:
        raise SchemaError(f"unknown split rule {rule.kind!r}")
    if rule.kind != "largest_gap_below":
        while lo > 0 and e[lo] - e[lo - 1] <= DEGENERACY_TOL:
            lo -= 1
        while hi < e.size - 1 and e[hi + 1] - e[hi] <= DEGENERACY_TOL:
            hi += 1
    if lo == 0 and hi >= e.size - 1:
        raise AssumptionError(f"{rule!r} selects the entire spectrum")

    gap = float(min(e[lo] - e[lo - 1] if lo > 0 else np.inf,
                    e[hi + 1] - e[hi] if hi < e.size - 1 else np.inf))
    if gap < rule.min_gap:
        raise AssumptionError(
            f"spectral gap {gap:.3e} below the configured minimum {rule.min_gap:.3e}"
        )
    return SpectralSplit(sd, np.arange(lo, hi + 1), gap, float(e[hi] - e[lo]))


def patch_expectation(split, A):
    """Normalized patch state omega(A) = tr(P A) / p."""
    return block_expectation(split.patch_vectors(), A)


def block_expectation(W, A):
    """tr(W^dagger A W) / p for a dim x p block W, as p batched dot
    products of the rows of W^dagger A with the columns of W.  A
    LocalOperator meets W on its support only, as W^dagger A =
    (A^dagger W)^dagger."""
    WA = A.dagger.apply(W).conj().T if isinstance(A, LocalOperator) else W.conj().T @ A
    return complex(np.matmul(WA[:, None, :], W.T[:, :, None]).sum() / W.shape[1])
