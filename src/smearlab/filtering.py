"""Gaussian-filtered Liouvillian calculus.

The Gaussian filter phi_beta(t) = (beta/sqrt(pi)) e^{-beta^2 t^2} defines
the almost inverse of the Heisenberg generator,

    I_beta(A) = int dt phi_beta(t) int_0^t ds tau_s(A),

which acts in an eigenbasis of H as multiplication of the (mu, nu) entry
by k_beta(w) = i (1 - e^{-w^2 / 4 beta^2}) / w at w = E_mu - E_nu, with
k_beta(0) = 0.  As beta -> 0 the kernel approaches i/w pointwise, the
multiplier of the exact inverse on cross-patch matrix elements.

A second, eigenbasis-free evaluation route integrates the defining double
integral with RK4-propagated unitaries and composite Simpson rules; it
serves as an independent cross-check of the spectral route.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import cumulative_simpson, simpson
from scipy.special import erf, erfc

from .algebra import liouvillian, schatten_norm
from .dynamics import _RK4_ANGLE_CAP, heisenberg_samples
from .errors import AssumptionError

__all__ = [
    "GaussianFilter",
    "gaussian_kernel",
    "inverse_kernel",
    "erf_step_kernel",
    "apply_spectral_kernel",
    "almost_inverse_liouvillian",
    "exact_inverse_liouvillian",
    "erf_step_map",
    "Prop34Result",
    "prop34_check",
    "lemma36_check",
    "locality_bound",
]

# Simpson nodes on [-t_max, t_max]: 40 per unit of beta t, which puts the
# quadrature error well below the 1e-6 cross-check tolerance
_GRID_NODES = 641


class GaussianFilter:
    """Normalized Gaussian weight phi_beta(t) = (beta/sqrt(pi)) e^{-(beta t)^2}.

    Fourier transform (unitary convention): (1/sqrt(2 pi)) e^{-w^2/(4 beta^2)}.
    """

    def __init__(self, beta):
        if beta <= 0:
            raise ValueError("beta must be positive")
        self.beta = float(beta)
        self.l1 = 1.0

    def __call__(self, t):
        b = self.beta
        return b / math.sqrt(math.pi) * np.exp(-((b * np.asarray(t, float)) ** 2))

    def fourier(self, w):
        return np.exp(-np.asarray(w, float) ** 2 / (4.0 * self.beta**2)) / math.sqrt(
            2.0 * math.pi
        )

    def tail(self, T):
        """Mass of |phi_beta| outside [-T, T]."""
        return float(erfc(self.beta * T))

    def t_max(self, rel_tol=1e-10):
        """Truncation horizon: T = 8/beta leaves tail mass ~1e-29; raises
        ValueError if that exceeds rel_tol times the mass."""
        T = 8.0 / self.beta
        if self.tail(T) > rel_tol * self.l1:
            raise ValueError(f"tail mass {self.tail(T):.1e} exceeds {rel_tol:.1e}")
        return T

    def grid(self):
        """The Simpson grid on [-t_max, t_max], symmetric about 0."""
        T = self.t_max()
        return np.linspace(-T, T, _GRID_NODES)


def gaussian_kernel(w, beta):
    """k_beta(w) = i (1 - e^{-w^2/4 beta^2})/w, continuously 0 at w = 0."""
    w = np.asarray(w, dtype=float)
    out = np.zeros(w.shape, dtype=complex)
    nz = w != 0.0
    out[nz] = -1j * np.expm1(-(w[nz] ** 2) / (4.0 * beta**2)) / w[nz]
    return out


def inverse_kernel(w, patch_mask_row, patch_mask_col):
    """Multiplier i/w on cross-patch entries, 0 within either patch."""
    cross = patch_mask_row[:, None] ^ patch_mask_col[None, :]
    out = np.zeros(w.shape, dtype=complex)
    out[cross] = 1j / w[cross]
    return out


def erf_step_kernel(w, beta, gamma):
    """ghat_beta(w) = (1 + erf((w - gamma/2)/(2 beta)))/2."""
    w = np.asarray(w, dtype=float)
    return 0.5 * (1.0 + erf((w - gamma / 2.0) / (2.0 * beta)))


def apply_spectral_kernel(sd, kernel_values, A):
    """Conjugate A into the eigenbasis, multiply entrywise, rotate back."""
    return sd.from_eigenbasis(kernel_values * sd.to_eigenbasis(A))


def almost_inverse_liouvillian(sd, beta, A, method="spectral"):
    """I_beta(A) by spectral multiplication or by direct double quadrature.

    The quadrature route never touches the eigendecomposition: unitaries
    are RK4-propagated from the stored Hamiltonian, the inner integral is
    a cumulative Simpson rule and the outer one a composite Simpson rule
    on the filter's grid.
    """
    if method == "spectral":
        K = gaussian_kernel(sd.frequency_table(), beta)
        return apply_spectral_kernel(sd, K, A)
    if method != "quadrature":
        raise ValueError(f"unknown method {method!r}")

    filt = GaussianFilter(beta)
    H = np.asarray(sd.hamiltonian, dtype=complex)
    ts = filt.grid()
    mid = ts.size // 2
    # the largest column sum bounds the spectral norm of a Hermitian H,
    # ||H||_2 <= sqrt(||H||_1 ||H||_inf) = ||H||_1, without an eigenvalue call
    h_norm = float(np.abs(H).sum(axis=0).max())
    max_step = _RK4_ANGLE_CAP / h_norm if h_norm > 0 else np.inf
    values = heisenberg_samples(lambda _t: H, A, ts, max_step)

    # inner integral G(t) = int_0^t tau_s(A) ds, cumulative from t = 0;
    # cumulative_simpson allocates real output, so integrate parts
    def _cumulative(y, x):
        re = cumulative_simpson(y.real, x=x, axis=0, initial=0.0)
        im = cumulative_simpson(y.imag, x=x, axis=0, initial=0.0)
        return re + 1j * im

    flat = values.reshape(ts.size, -1)
    G = np.empty_like(flat)
    G[mid:] = _cumulative(flat[mid:], ts[mid:])
    G[: mid + 1] = -_cumulative(flat[mid::-1], -ts[mid::-1])[::-1]
    weights = filt(ts)
    result = simpson(weights[:, None] * G, x=ts, axis=0)
    return result.reshape(A.shape)


def _check_split_consistency(sd, split):
    if split.spectral_data is not sd:
        e1 = np.asarray(split.spectral_data.energies)
        e2 = np.asarray(sd.energies)
        if e1.shape != e2.shape or not np.allclose(e1, e2, atol=1e-10):
            raise AssumptionError("spectral split belongs to a different spectrum")


def exact_inverse_liouvillian(sd, split, A):
    """I_H(A): multiplier i/w on cross-patch entries, zero inside patches.

    Satisfies I_H(L_H(A)) = A exactly for cross-patch A.  Raises when the
    smallest cross-patch frequency falls below gamma/2, which signals an
    inconsistent split.
    """
    _check_split_consistency(sd, split)
    mask = split.patch_mask()
    omega = sd.frequency_table()
    cross = mask[:, None] ^ mask[None, :]
    min_cross = float(np.abs(omega[cross]).min()) if cross.any() else np.inf
    if min_cross < split.gap / 2.0:
        raise AssumptionError(
            f"cross-patch frequency {min_cross:.3e} below gamma/2 = "
            f"{split.gap / 2.0:.3e}"
        )
    K = inverse_kernel(omega, mask, mask)
    return apply_spectral_kernel(sd, K, A)


def erf_step_map(sd, split, beta, A):
    """J_beta(A): entry (mu, nu) multiplied by ghat_beta(E_nu - E_mu).

    The index order follows the action J_beta(A) P = sum ghat(nu - mu)
    P_mu A P_nu on the patch.
    """
    _check_split_consistency(sd, split)
    omega = sd.frequency_table()
    K = erf_step_kernel(-omega, beta, split.gap)
    return apply_spectral_kernel(sd, K, A)


def _is_one_sided(split, A, tol=1e-10):
    """True for A = P A Pperp or A = Pperp A P."""
    P = split.projector
    Pp = np.eye(P.shape[0]) - P
    scale = max(schatten_norm(A, np.inf), 1e-300)
    return any(
        schatten_norm(A - X, np.inf) <= tol * scale for X in (P @ A @ Pp, Pp @ A @ P)
    )


@dataclass
class Prop34Result:
    """lhs/rhs for the almost-inverse reconstruction error.

    `lhs` maps each requested Schatten index to the measured norm of
    I_beta(L_H(A)) - A; `rhs` is p ||A|| e^{-gamma^2/4 beta^2}.  The
    commutator variant compares [I_beta(L_H(A)) - A, P] against twice the
    same right-hand side with general A.
    """

    lhs: dict
    rhs: float
    comm_lhs: dict
    comm_rhs: float

    def holds(self, slack=1e-9):
        ok = all(v <= self.rhs + slack for v in self.lhs.values())
        ok = ok and all(v <= self.comm_rhs + slack for v in self.comm_lhs.values())
        return bool(ok)


def _residual_check(name, sd, split, beta, A, residual, divisor, p_list):
    """Schatten norms of residual(A) and of [residual(A), P] against
    p ||A|| e^{-gamma^2/4 beta^2} / divisor and twice that."""
    _check_split_consistency(sd, split)
    if not _is_one_sided(split, A):
        raise ValueError(
            f"{name} needs one-sided cross-patch A (= P A Pperp or Pperp A P)"
        )
    norm_a = schatten_norm(A, np.inf)
    damping = math.exp(-split.gap**2 / (4.0 * beta**2))
    R = residual(A)
    P = split.projector
    comm = R @ P - P @ R
    rhs = split.p * norm_a * damping / divisor
    return Prop34Result(
        {p: schatten_norm(R, p) for p in p_list},
        rhs,
        {p: schatten_norm(comm, p) for p in p_list},
        2.0 * rhs,
    )


def prop34_check(sd, split, beta, A, p_list=(1, 2, np.inf)):
    """Reconstruction error of I_beta after L_H on one-sided cross-patch A,
    against p ||A|| e^{-gamma^2/4 beta^2} (commutator variant doubled)."""
    return _residual_check(
        "prop34_check", sd, split, beta, A,
        lambda X: almost_inverse_liouvillian(
            sd, beta, liouvillian(sd.hamiltonian, X)) - X,
        1.0, p_list,
    )


def lemma36_check(sd, split, beta, A, p_list=(1, 2, np.inf)):
    """Distance between the almost and exact inverses on cross-patch A,
    against p ||A|| gamma^{-1} e^{-gamma^2/4 beta^2} (commutator variant
    doubled)."""
    return _residual_check(
        "lemma36_check", sd, split, beta, A,
        lambda X: almost_inverse_liouvillian(sd, beta, X)
        - exact_inverse_liouvillian(sd, split, X),
        split.gap, p_list,
    )


def locality_bound(params, beta, d, min_support, norm_a, norm_b, t_grid=None):
    """Quasi-locality bound for ||[I_beta(A), B]|| at region distance d.

    Returns (grid_infimum, closed_form): the infimum over a geometric
    T-grid of

        (2 beta/(sqrt(pi) b^2 v^2)) e^{b (v T - d)} + e^{-beta^2 T^2}/(sqrt(pi) beta)

    times 2 min(|X|, |Y|) ||A|| ||B||, and the closed form obtained at
    T = d/(2v) with rate b(beta) = min(b/2, beta^2/(4 v^2)).
    """
    if d <= 0:
        raise ValueError("regions must be disjoint (d >= 1)")
    b = params.b
    v = params.velocity
    pref = 2.0 * min_support * norm_a * norm_b
    amp_lr = 2.0 * beta / (math.sqrt(math.pi) * b**2 * v**2)
    amp_tail = 1.0 / (math.sqrt(math.pi) * beta)

    if t_grid is None:
        t_grid = np.geomspace(1e-4, 1e4, 400)
    t_grid = np.unique(np.concatenate([np.asarray(t_grid, float), [d / (2.0 * v)]]))
    # Large-T grid entries overflow to inf; they never attain the infimum.
    with np.errstate(over="ignore"):
        bracket = amp_lr * np.exp(b * (v * t_grid - d)) + amp_tail * np.exp(
            -(beta**2) * t_grid**2
        )
    grid_inf = pref * float(bracket.min())

    rate = min(b / 2.0, beta**2 / (4.0 * v**2))
    closed = pref * (amp_lr + amp_tail) * math.exp(-rate * d)
    return grid_inf, closed
