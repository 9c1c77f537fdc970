"""Heisenberg evolution, smeared evolution, and Lieb-Robinson bounds.

The convention is fixed once: tau_{s,t}(A) evolves A from time s to time t,
and for time-independent H

    tau_{s,t}(A) = e^{i H (t-s)} A e^{-i H (t-s)},

so tau_t(sigma_x) = cos(w t) sigma_x - sin(w t) sigma_y under
H = (w/2) sigma_z.  Time-dependent evolutions integrate the propagator
W' = i W H(t), W(s) = 1, with classical fixed-step RK4; then
tau_{s,t}(A) = W A W^dagger.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .algebra import commutator_norm, involution_isometries, is_hermitian, real_matmul

__all__ = [
    "evolve",
    "propagator",
    "heisenberg_samples",
    "smear",
    "smear_quadrature",
    "LRParams",
    "make_lr_params",
    "lr_decay_profile",
    "lr_bound",
    "measured_commutator_curve",
    "lr_experiment",
    "LRExperimentResult",
]

# fixed-step RK4 keeps the local phase error below ~1e-11 per step when
# h * ||H|| stays under this cap
_RK4_ANGLE_CAP = 0.02


def _ham_at(phi):
    """t -> H(t), with H built once when no coupling varies."""
    if not phi.is_constant:
        return phi.hamiltonian
    H = phi.hamiltonian()
    return lambda _t: H


def _rk4(W, ham_at, t, h, n_steps):
    """Advance W' = i W H(t) from time t by n_steps classical RK4 steps of h."""
    for _ in range(n_steps):
        H_mid = ham_at(t + 0.5 * h)
        k1 = 1j * W @ ham_at(t)
        k2 = 1j * (W + 0.5 * h * k1) @ H_mid
        k3 = 1j * (W + 0.5 * h * k2) @ H_mid
        k4 = 1j * (W + h * k3) @ ham_at(t + h)
        W = W + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        t += h
    return W


def heisenberg_samples(ham_at, A, ts, max_step):
    """tau_{0,t}(A) for every t of ts, stacked along axis 0.

    `ts` is a uniform grid symmetric about 0 with an odd number of nodes.
    The propagator is stepped outward from t = 0 in both directions, each
    grid interval split into equal RK4 steps no longer than `max_step`.
    No eigendecomposition is used.
    """
    mid = ts.size // 2
    h = ts[1] - ts[0]
    # a ratio within 1e-9 of an integer is that integer, not one step more
    n_sub = max(1, math.ceil(h / max_step * (1.0 - 1e-9)))
    values = np.empty((ts.size,) + A.shape, dtype=complex)
    values[mid] = A
    for d in (1, -1):
        W = np.eye(A.shape[0], dtype=complex)
        for j in range(mid + d, mid + d * (mid + 1), d):
            W = _rk4(W, ham_at, ts[j - d], d * h / n_sub, n_sub)
            values[j] = W @ A @ W.conj().T
    return values


def propagator(phi, s, t, step=0.005):
    """W with tau_{s,t}(A) = W A W^dagger along the path phi, by RK4 steps
    no longer than `step`."""
    if step <= 0:
        raise ValueError("step must be positive")
    W = np.eye(phi.dim, dtype=complex)
    if t == s:
        return W
    n_steps = max(1, math.ceil(abs(t - s) / step))
    return _rk4(W, _ham_at(phi), s, (t - s) / n_steps, n_steps)


def evolve(sd, A, s, t):
    """Heisenberg evolution tau_{s,t}(A) of the Hamiltonian held by sd."""
    return sd.apply_kernel(np.exp(1j * sd.frequency_table() * (t - s)), A)


def smear(sd, filt, A):
    """Filtered evolution tau_f(A) = int f(t) tau_{0,t}(A) dt: entry
    (mu, nu) of A in the eigenbasis is multiplied by int f(t) e^{i w t} dt
    = sqrt(2 pi) f^(w) at w = E_mu - E_nu, in closed form."""
    kernel = math.sqrt(2.0 * math.pi) * filt.fourier(sd.frequency_table())
    return sd.apply_kernel(kernel, A)


def smear_quadrature(phi, filt, A, step=0.005):
    """The oracle of `smear`, free of eigendecompositions: composite Simpson
    quadrature of RK4-propagated tau_{0,t}(A) along the path phi on the
    filter's time grid, RK4 steps no longer than `step`."""
    if step <= 0:
        raise ValueError("step must be positive")
    # imported here: scipy.integrate loads scipy.optimize, which no other route needs
    from scipy.integrate import simpson

    ts = filt.grid()
    values = heisenberg_samples(_ham_at(phi), A, ts, step)
    return simpson(filt(ts)[:, None, None] * values, x=ts, axis=0)


@dataclass(frozen=True)
class LRParams:
    """Constants entering the Lieb-Robinson bound.

    velocity = 2 C_{1, b'-b} ||Phi||_{b'} / b with C from the calling
    graph's volume data, and the prefactor uses the same constant inverted.
    """

    b: float
    b_prime: float
    phi_norm: float
    constant: float

    def __post_init__(self):
        if not 0 < self.b < self.b_prime:
            raise ValueError("need 0 < b < b_prime")

    @property
    def velocity(self):
        return 2.0 * self.constant * self.phi_norm / self.b


def make_lr_params(phi, b=0.5, b_prime=1.0):
    """LR constants for an interaction at decay pair (b, b')."""
    if not 0 < b < b_prime:
        raise ValueError("need 0 < b < b_prime")
    norm = phi.norm(b_prime)
    const = phi.graph.c_bk(1.0, b_prime - b)
    return LRParams(b, b_prime, norm, const)


def lr_decay_profile(X, Y, b):
    """D(X, Y) = min of the two one-sided exponential overlap sums."""
    dx = np.array([Y.site_distance(x) for x in X.sites])
    dy = np.array([X.site_distance(y) for y in Y.sites])
    return float(min(np.exp(-b * dx).sum(), np.exp(-b * dy).sum()))


def lr_bound(params, X, Y, norm_a, norm_b, dt):
    """Commutator bound 2 C^{-1} ||A|| ||B|| (e^{b v |dt|} - 1) D(X, Y)."""
    prof = lr_decay_profile(X, Y, params.b)
    growth = math.expm1(params.b * params.velocity * abs(dt))
    return 2.0 / params.constant * norm_a * norm_b * growth * prof


@dataclass
class LRExperimentResult:
    times: np.ndarray
    measured: np.ndarray
    bounds: np.ndarray
    slack = 1e-12  # the rounding noise of a norm where the bound is 0 (t = 0)

    @property
    def holds(self):
        return bool((self.measured <= self.bounds + self.slack).all())

    @property
    def min_margin(self):
        return float((self.bounds - self.measured).min())


def measured_commutator_curve(sd, A, B, times):
    """||[tau_{0,t}(A), B]||_inf on a time grid for a local A and a local
    involution B (a Pauli word, say).

    Taken as ||[A, tau_{0,-t}(B)]|| in the eigenbasis, where the norm is
    the same: A's block V^dagger A V comes from A applied on its support
    and is checked Hermitian once, B is held as its eigen-isometries in
    that basis, and tau_{0,-t} multiplies their row mu by e^{-i E_mu t}.
    A non-Hermitian A or a B that is not an involution raises ValueError.

    When `sd.sectors` is set, A's and B's local matrices equal their index
    reversal and B leaves a site free, each norm is the larger of the two
    spin-flip sectors': the flip keeps B's local eigenspaces and joins rest
    states r and rest - 1 - r, so the columns r < rest/2, times sqrt 2,
    span B's eigenspaces in a sector orthonormally, at Gram size dim/4.
    Else one sector is used.
    """
    n = round(math.log2(sd.dim))
    W_pm, rest = involution_isometries(B, n, sd.vectors), 2 ** (n - len(B.sites))
    sectors, kept, scale = (slice(None),), rest, 1.0
    if sd.sectors is not None and rest > 1 and all(
            np.array_equal(M, M[::-1, ::-1]) for M in (A.matrix, B.matrix)):
        sectors, kept, scale = sd.sectors, rest // 2, math.sqrt(2.0)
    parts = []
    for s in sectors:
        V = sd.vectors[:, s]
        A_s = real_matmul(V.conj().T, A.apply(V))
        if not is_hermitian(A_s):
            raise ValueError("measured_commutator_curve needs a Hermitian A")
        parts.append((sd.energies[s], A_s) + tuple(
            W[s].reshape(-1, rest)[:, :kept].reshape(V.shape[1], -1) for W in W_pm))
    return np.array([max(commutator_norm(A_s, (ph * Wp, ph * Wm), check_a=False)
                         for e, A_s, Wp, Wm in parts
                         for ph in (scale * np.exp(-1j * e * t)[:, None],))
                     for t in times])


def lr_experiment(sd, params, A, B, X, Y, times):
    """Measured commutator norms against the LR bound on a time grid.

    A and B are LocalOperators supported in the regions X and Y.
    """
    measured = measured_commutator_curve(sd, A, B, times)
    na = A.norm(np.inf)
    nb = B.norm(np.inf)
    times = np.asarray(times, dtype=float)
    bounds = np.array([lr_bound(params, X, Y, na, nb, t) for t in times])
    return LRExperimentResult(times, measured, bounds)
