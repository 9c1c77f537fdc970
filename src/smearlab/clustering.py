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
The states lie in the patch P, so the contractions need only thin blocks:
the patch columns and rows of K o A-tilde, K[m, n] = ghat_beta(E_n - E_m).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .algebra import real_matmul
from .errors import AssumptionError
from .filtering import erf_step_kernel
from .spectra import diagonalize, split_spectrum

__all__ = [
    "ClusterDecomposition",
    "decompose_correlation",
    "ClusterPlacement",
    "cluster_experiment",
]


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

    def bounds_hold(self):
        return bool(
            abs(self.term_ii) <= self.bound_ii + 1e-12
            and abs(self.term_iii) <= self.bound_iii + 1e-12
        )


def _require_bottom_patch(split):
    if int(split.idx0[0]) != 0:
        raise AssumptionError("clustering needs the patch at the bottom")
    if not split.width < split.gap / 4.0:
        raise AssumptionError(
            f"patch width {split.width:.3e} is not below gamma/4 = "
            f"{split.gap / 4.0:.3e}"
        )


def decompose_correlation(sd, split, beta, A, B, omega_vec):
    """Three-term decomposition of <Omega, A Pperp B Omega>.

    Omega must lie in the range of the patch projector (checked to 1e-10).
    A 2-D `omega_vec` holds one state per column and gives a list of
    decompositions, one per column, from one set of thin blocks.  A and B
    are Hermitian LocalOperators, applied on their supports; their norms
    scale the diagnostic bounds.
    """
    _require_bottom_patch(split)
    gamma = split.gap
    e = sd.energies
    P = split.idx0
    mask = split.patch_mask()
    V = sd.vectors

    def adjoint(Y):  # V^dagger Y, with no full-size copy of V
        if np.iscomplexobj(V):
            return (Y.conj().T @ V).conj().T
        return real_matmul(V.T, Y)

    states = np.asarray(omega_vec)
    W = adjoint(states.reshape(e.size, -1))
    if np.any(np.abs(np.linalg.norm(W, axis=0) - 1.0) > 1e-10):
        raise AssumptionError("state vector is not normalized")
    if np.any(np.linalg.norm(W[~mask], axis=0) > 1e-10):
        raise AssumptionError("state vector is not in the patch range")
    W_P = W[P]

    # A-tilde[:, P] and its patch rows A-tilde[P, :] = A-tilde[:, P]^dagger
    A_cols = adjoint(A.apply(V[:, P]))
    A_rows = A_cols.conj().T
    BW = adjoint(B.apply(real_matmul(V[:, P], W_P)))
    freq = e[P][None, :] - e[:, None]  # E_n - E_m for n in P
    JW = real_matmul(erf_step_kernel(freq, beta, gamma) * A_cols, W_P)
    # patch rows of J(A) B w, and of A Pperp B w (shared by III and the correlation)
    JBW = real_matmul(erf_step_kernel(-freq.T, beta, gamma) * A_rows, BW)
    ABW = real_matmul(A_rows, BW * (~mask)[:, None])

    def dots(X, Y):
        return np.einsum("ij,ij->j", X.conj(), Y)

    term_ii = dots(BW, JW)
    term_i = dots(W_P, JBW) - term_ii
    # III = <w, (P A Pperp - P J(A)) B w>   (P w = w)
    term_iii = dots(W_P, ABW - JBW)
    correlation = dots(W_P, ABW)
    defect = np.abs(correlation - (term_i + term_ii + term_iii))

    n0 = split.distinct_count()
    envelope = (n0 / math.sqrt(math.pi) * (beta / gamma)
                * math.exp(-((gamma / beta) ** 2) / 64.0) * A.norm() * B.norm())
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
    split = split_spectrum(sd, split_rule)
    _require_bottom_patch(split)
    gamma = split.gap

    rng = rng or np.random.default_rng(0)
    ground = sd.vectors[:, split.idx0[0]]
    samples = _random_patch_states(split, n_state_samples, rng)
    states = np.column_stack([ground] + samples)

    A = observable_builder(site_a)
    records = []
    for d, site_b in sorted(placements.items()):
        beta = gamma / (2.0 * math.sqrt(d))
        decs = decompose_correlation(sd, split, beta, A, observable_builder(site_b), states)
        records.append(
            ClusterPlacement(int(d), beta, site_a, site_b, decs[0], decs[1:])
        )
    return records, split
