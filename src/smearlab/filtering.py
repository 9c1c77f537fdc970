"""Gaussian-filtered Liouvillian calculus.

The Gaussian filter phi_beta(t) = (beta/sqrt(pi)) e^{-beta^2 t^2} defines
the almost inverse of the Heisenberg generator,

    I_beta(A) = int dt phi_beta(t) int_0^t ds tau_s(A),

which acts in an eigenbasis of H as multiplication of the (mu, nu) entry
by k_beta(w) = i (1 - e^{-w^2 / 4 beta^2}) / w at w = E_mu - E_nu, with
k_beta(0) = 0.  As beta -> 0 the kernel approaches i/w pointwise, the
multiplier of the exact inverse on cross-patch matrix elements.  Both
kernels are i times a real odd profile (`gaussian_profile`,
`inverse_profile`), which the flow applies in a real eigenbasis.

Every map here multiplies entries in the eigenbasis of H
(`SpectralData.apply_kernel`).  The oracle `almost_inverse_quadrature`
integrates the defining double integral from H alone, with RK4-propagated
unitaries and composite Simpson rules, as an independent cross-check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .algebra import liouvillian, schatten_norm
from .dynamics import _RK4_ANGLE_CAP, heisenberg_samples
from .errors import AssumptionError

__all__ = [
    "GaussianFilter",
    "gaussian_profile",
    "gaussian_kernel",
    "inverse_profile",
    "erf_step_kernel",
    "almost_inverse_liouvillian",
    "almost_inverse_quadrature",
    "exact_inverse_liouvillian",
    "erf_step_map",
    "Prop34Result",
    "prop34_check",
    "lemma36_check",
    "locality_bound",
]

# Simpson nodes on [-8/beta, 8/beta]: 40 per unit of beta t, which puts the
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

    def __call__(self, t):
        b = self.beta
        return b / math.sqrt(math.pi) * np.exp(-((b * np.asarray(t, float)) ** 2))

    def fourier(self, w):
        return np.exp(-np.asarray(w, float) ** 2 / (4.0 * self.beta**2)) / math.sqrt(
            2.0 * math.pi
        )

    def grid(self):
        """The Simpson grid on [-T, T], symmetric about 0, with T = 8/beta:
        the mass of phi_beta outside it is erfc(8) ~ 1.1e-29 for every beta."""
        T = 8.0 / self.beta
        return np.linspace(-T, T, _GRID_NODES)


def gaussian_profile(w, beta):
    """kappa_beta(w) = (1 - e^{-w^2/4 beta^2})/w, continuously 0 at w = 0:
    the real odd profile of k_beta = i kappa_beta."""
    w = np.asarray(w, dtype=float)
    return np.divide(-np.expm1(-(w**2) / (4.0 * beta**2)), w, out=np.zeros(w.shape),
                     where=w != 0.0)


def gaussian_kernel(w, beta):
    """k_beta(w) = i (1 - e^{-w^2/4 beta^2})/w, continuously 0 at w = 0."""
    return 1j * gaussian_profile(w, beta)


def inverse_profile(split, cols=slice(None)):
    """The real profile 1/w of the exact inverse on the split's cross-patch
    frequencies among the levels `cols` (all), 0 within either patch.

    Raises AssumptionError when the smallest cross-patch frequency of the
    whole spectrum, a step between neighbouring levels, falls below gamma/2,
    which signals an inconsistent split.
    """
    e, mask = split.spectral_data.energies, split.patch_mask()
    steps = np.abs(np.diff(e))[mask[1:] != mask[:-1]]
    min_cross = float(steps.min()) if steps.size else np.inf
    if min_cross < split.gap / 2.0:
        raise AssumptionError(
            f"cross-patch frequency {min_cross:.3e} below gamma/2 = "
            f"{split.gap / 2.0:.3e}"
        )
    e, mask = e[cols], mask[cols]
    cross = mask[:, None] ^ mask[None, :]
    return np.divide(1.0, e[:, None] - e[None, :], out=np.zeros(cross.shape), where=cross)


def erf_step_kernel(w, beta, gamma):
    """ghat_beta(w) = (1 + erf((w - gamma/2)/(2 beta)))/2, `math.erf` per entry."""
    x = (np.asarray(w, dtype=float) - gamma / 2.0) / (2.0 * beta)
    return 0.5 * (1.0 + np.vectorize(math.erf, otypes=[float])(x))


def almost_inverse_liouvillian(sd, beta, A):
    """I_beta(A): entry (mu, nu) in the eigenbasis multiplied by
    k_beta(E_mu - E_nu)."""
    return sd.apply_kernel(gaussian_kernel(sd.frequency_table(), beta), A)


def almost_inverse_quadrature(H, beta, A):
    """I_beta(A) by direct double quadrature, the oracle of
    `almost_inverse_liouvillian`, from H alone.

    Unitaries are RK4-propagated from H, the inner integral is a
    cumulative Simpson rule and the outer one a composite Simpson rule on
    the filter's grid.  It imports scipy.integrate on first use.
    """
    # imported here: scipy.integrate loads scipy.optimize, which no other route needs
    from scipy.integrate import cumulative_simpson, simpson

    filt = GaussianFilter(beta)
    H = np.asarray(H, dtype=complex)
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


def exact_inverse_liouvillian(split, A):
    """I_H(A): multiplier i/w on cross-patch entries, zero inside patches,
    in the eigenbasis the split belongs to.

    Satisfies I_H(L_H(A)) = A exactly for cross-patch A.  Raises
    AssumptionError, through `inverse_profile`, for an inconsistent split.
    """
    return split.spectral_data.apply_kernel(1j * inverse_profile(split), A)


def erf_step_map(split, beta, A):
    """J_beta(A): entry (mu, nu) multiplied by ghat_beta(E_nu - E_mu).

    The index order follows the action J_beta(A) P = sum ghat(nu - mu)
    P_mu A P_nu on the patch.
    """
    sd = split.spectral_data
    return sd.apply_kernel(erf_step_kernel(-sd.frequency_table(), beta, split.gap), A)


def _is_one_sided(split, A):
    """True for A = P A Pperp or A = Pperp A P."""
    P = split.projector
    Pp = np.eye(P.shape[0]) - P
    scale = max(schatten_norm(A, np.inf), 1e-300)
    return any(
        schatten_norm(A - X, np.inf) <= 1e-10 * scale for X in (P @ A @ Pp, Pp @ A @ P)
    )


@dataclass
class Prop34Result:
    """lhs/rhs for the almost-inverse reconstruction error.

    `lhs` maps each Schatten index 1, 2 and inf to the measured norm of
    I_beta(L_H(A)) - A; `rhs` is p ||A|| e^{-gamma^2/4 beta^2}.  The
    commutator variant compares [I_beta(L_H(A)) - A, P] against twice the
    same right-hand side with general A.
    """

    lhs: dict
    rhs: float
    comm_lhs: dict
    comm_rhs: float

    def holds(self):
        ok = all(v <= self.rhs + 1e-9 for v in self.lhs.values())
        ok = ok and all(v <= self.comm_rhs + 1e-9 for v in self.comm_lhs.values())
        return bool(ok)


def _residual_check(name, split, beta, A, residual, divisor):
    """Schatten norms of residual(A) and of [residual(A), P] against
    p ||A|| e^{-gamma^2/4 beta^2} / divisor and twice that."""
    if not _is_one_sided(split, A):
        raise ValueError(
            f"{name} needs one-sided cross-patch A (= P A Pperp or Pperp A P)"
        )
    norm_a = schatten_norm(A, np.inf)
    damping = math.exp(-split.gap**2 / (4.0 * beta**2))
    R = residual(A)
    rhs = split.p * norm_a * damping / divisor
    p_list = (1, 2, np.inf)
    return Prop34Result(
        {p: schatten_norm(R, p) for p in p_list},
        rhs,
        {p: split.commutator_norm(R, p) for p in p_list},
        2.0 * rhs,
    )


def prop34_check(split, beta, A):
    """Reconstruction error of I_beta after L_H on one-sided cross-patch A,
    against p ||A|| e^{-gamma^2/4 beta^2} (commutator variant doubled)."""
    sd = split.spectral_data
    return _residual_check(
        "prop34_check", split, beta, A,
        lambda X: almost_inverse_liouvillian(
            sd, beta, liouvillian(sd.hamiltonian, X)) - X,
        1.0,
    )


def lemma36_check(split, beta, A):
    """Distance between the almost and exact inverses on cross-patch A,
    against p ||A|| gamma^{-1} e^{-gamma^2/4 beta^2} (commutator variant
    doubled)."""
    return _residual_check(
        "lemma36_check", split, beta, A,
        lambda X: almost_inverse_liouvillian(split.spectral_data, beta, X)
        - exact_inverse_liouvillian(split, X),
        split.gap,
    )


def locality_bound(params, beta, d, min_support, norm_a, norm_b):
    """Quasi-locality bound for ||[I_beta(A), B]|| at region distance d.

    Returns (grid_infimum, closed_form): the infimum over a geometric
    grid of 400 T in [1e-4, 1e4] plus T = d/(2v) of

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

    t_grid = np.unique(np.concatenate([np.geomspace(1e-4, 1e4, 400), [d / (2.0 * v)]]))
    # Large-T grid entries overflow to inf; they never attain the infimum.
    with np.errstate(over="ignore"):
        bracket = amp_lr * np.exp(b * (v * t_grid - d)) + amp_tail * np.exp(
            -(beta**2) * t_grid**2
        )
    grid_inf = pref * float(bracket.min())

    rate = min(b / 2.0, beta**2 / (4.0 * v**2))
    closed = pref * (amp_lr + amp_tail) * math.exp(-rate * d)
    return grid_inf, closed
