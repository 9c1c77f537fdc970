"""Ground-patch clustering of correlations in gapped systems.

For a spectrum split into a bottom patch sigma_0 (width Delta) and the
rest (gap gamma, Delta < gamma/4), the off-patch part of a correlation
<Omega, A Pperp B Omega> decomposes as I + II + III with

    I   = <Omega, [J_beta(A), B] Omega>
    II  = <Omega, B J_beta(A) Omega>
    III = <Omega, (P A Pperp - P J_beta(A)) B P Omega>

where J_beta is the erf-step filter.  Terms II and III are exponentially
small in (gamma/beta)^2, so at beta = gamma/(2 sqrt(d)) the measured
correlation inherits the Lieb-Robinson decay of the commutator term I.
All contractions run in the eigenbasis with chunked kernel matvecs, so
the filtered operator is never materialized.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import AssumptionError
from .filtering import erf_step_kernel
from .spectra import diagonalize, split_spectrum

__all__ = [
    "ClusterDecomposition",
    "decompose_correlation",
    "ClusterPlacement",
    "cluster_experiment",
]

_CHUNK = 256


def _kernel_matvec(energies, beta, gamma, A_tilde, vecs):
    """(K o A_tilde) @ vecs with K[m, n] = ghat_beta(E_n - E_m), computed
    in row chunks so the kernel matrix is never stored."""
    dim = energies.size
    out = np.empty(vecs.shape, dtype=np.result_type(A_tilde, vecs))
    for start in range(0, dim, _CHUNK):
        stop = min(start + _CHUNK, dim)
        block = erf_step_kernel(
            energies[None, :] - energies[start:stop, None], beta, gamma
        )
        out[start:stop] = (block * A_tilde[start:stop]) @ vecs
    return out


@dataclass
class ClusterDecomposition:
    """Decomposition of one correlation measurement."""

    term_i: complex
    term_ii: complex
    term_iii: complex
    correlation: complex
    bound_ii: float
    bound_iii: float
    identity_defect: float

    @property
    def terms_sum(self):
        return self.term_i + self.term_ii + self.term_iii

    def bounds_hold(self, slack=1e-12):
        return bool(
            abs(self.term_ii) <= self.bound_ii + slack
            and abs(self.term_iii) <= self.bound_iii + slack
        )


def _require_bottom_patch(split):
    if int(split.idx0[0]) != 0:
        raise AssumptionError("clustering needs the patch at the bottom")
    if not split.width < split.gap / 4.0:
        raise AssumptionError(
            f"patch width {split.width:.3e} is not below gamma/4 = "
            f"{split.gap / 4.0:.3e}"
        )


def decompose_correlation(sd, split, beta, A, B, omega_vec, norm_a=None, norm_b=None):
    """Three-term decomposition of <Omega, A Pperp B Omega>.

    Omega must lie in the range of the patch projector (checked to 1e-10).
    A 2-D `omega_vec` holds one state per column and gives a list of
    decompositions, one per column, from a single transform of A and B.
    `norm_a`/`norm_b` default to 1 (Pauli observables); they only scale
    the diagnostic bounds.
    """
    _require_bottom_patch(split)
    gamma = split.gap
    e = sd.energies
    mask = split.patch_mask()

    states = np.asarray(omega_vec)
    W = sd.vectors.conj().T @ states.reshape(e.size, -1)
    if np.any(np.abs(np.linalg.norm(W, axis=0) - 1.0) > 1e-10):
        raise AssumptionError("state vector is not normalized")
    if np.any(np.linalg.norm(W[~mask], axis=0) > 1e-10):
        raise AssumptionError("state vector is not in the patch range")

    A_t = sd.to_eigenbasis(A)
    B_t = sd.to_eigenbasis(B)

    BW = B_t @ W
    JW, JBW = np.hsplit(_kernel_matvec(e, beta, gamma, A_t, np.hstack([W, BW])), 2)
    # A Pperp B w, shared by term III and the correlation
    ABW = A_t @ (BW * (~mask)[:, None])

    def dots(X):
        return np.einsum("ij,ij->j", W.conj(), X)

    term_ii = dots(B_t @ JW)
    term_i = dots(JBW) - term_ii
    # III = <w, (P A Pperp - P J(A)) B w>   (P w = w)
    term_iii = dots((ABW - JBW) * mask[:, None])
    correlation = dots(ABW)
    defect = np.abs(correlation - (term_i + term_ii + term_iii))

    na = 1.0 if norm_a is None else float(norm_a)
    nb = 1.0 if norm_b is None else float(norm_b)
    n0 = split.distinct_count()
    envelope = (n0 / math.sqrt(math.pi) * (beta / gamma)
                * math.exp(-((gamma / beta) ** 2) / 64.0) * na * nb)
    bound_ii = 4.0 * envelope
    bound_iii = 6.0 * envelope

    decs = [
        ClusterDecomposition(*map(complex, terms), bound_ii, bound_iii, float(f))
        for *terms, f in zip(term_i, term_ii, term_iii, correlation, defect)
    ]
    return decs[0] if states.ndim == 1 else decs


@dataclass
class ClusterPlacement:
    """All measurements for one observable separation."""

    distance: int
    beta: float
    site_a: int
    site_b: int
    ground: ClusterDecomposition
    sampled: list

    @property
    def measured(self):
        """|<Omega, A Pperp B Omega>| for the ground patch vector."""
        return abs(self.ground.correlation)

    @property
    def max_measured(self):
        vals = [abs(d.correlation) for d in self.sampled]
        return max([self.measured] + vals)


def _random_patch_states(split, count, rng):
    V0 = split.patch_vectors()
    states = []
    for _ in range(count):
        c = rng.standard_normal(split.p) + 1j * rng.standard_normal(split.p)
        c /= np.linalg.norm(c)
        states.append(V0 @ c)
    return states


def cluster_experiment(
    phi,
    split_rule,
    site_a,
    observable_builder,
    placements,
    min_gap=1e-8,
    n_state_samples=5,
    rng=None,
):
    """Correlation decay against separation in a static gapped model.

    `placements` maps each probed distance to the site carrying B;
    `observable_builder(site)` returns the LocalOperator used for both A
    (at `site_a`) and B.  Per placement the filter width is
    beta = gamma/(2 sqrt(d)).  Returns the list of ClusterPlacement
    records, ordered by distance.
    """
    H = phi.hamiltonian(0.0)
    sd = diagonalize(H)
    split = split_spectrum(sd, split_rule, min_gap)
    _require_bottom_patch(split)
    gamma = split.gap
    n = phi.n_sites

    rng = rng or np.random.default_rng(0)
    ground = sd.vectors[:, split.idx0[0]]
    samples = _random_patch_states(split, n_state_samples, rng)
    states = np.column_stack([ground] + samples)

    A_op = observable_builder(site_a)
    A = A_op.embed_diagonal(n) if A_op.is_diagonal else A_op.embed(n)
    na = A_op.norm(np.inf)

    records = []
    for d, site_b in sorted(placements.items()):
        beta = gamma / (2.0 * math.sqrt(d))
        B_op = observable_builder(site_b)
        B = B_op.embed_diagonal(n) if B_op.is_diagonal else B_op.embed(n)
        nb = B_op.norm(np.inf)
        decs = decompose_correlation(sd, split, beta, A, B, states, na, nb)
        records.append(
            ClusterPlacement(int(d), beta, site_a, site_b, decs[0], decs[1:])
        )
    return records, split
