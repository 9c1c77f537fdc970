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
from scipy.integrate import simpson

from .algebra import commutator_norm

__all__ = [
    "EvolutionSpec",
    "evolve",
    "propagator",
    "heisenberg_samples",
    "smear",
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


class EvolutionSpec:
    """How to evolve: exactly in an eigenbasis, or by ODE stepping.

    Use `EvolutionSpec.spectral(sd)` for time-independent Hamiltonians with
    a precomputed eigendecomposition, and `EvolutionSpec.ode(phi, step)`
    for interaction paths, where `step` is the RK4 step size in time.
    """

    def __init__(self, kind, spectral_data=None, interaction=None, step=None):
        self.kind = kind
        self.spectral_data = spectral_data
        self.interaction = interaction
        self.step = step

    @classmethod
    def spectral(cls, sd):
        return cls("spectral", spectral_data=sd)

    @classmethod
    def ode(cls, phi, step=0.005):
        if step <= 0:
            raise ValueError("step must be positive")
        return cls("ode", interaction=phi, step=float(step))


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


def propagator(spec, s, t):
    """W with tau_{s,t}(A) = W A W^dagger."""
    if spec.kind == "spectral":
        sd = spec.spectral_data
        phases = np.exp(1j * sd.energies * (t - s))
        V = sd.vectors
        return (V * phases) @ V.conj().T
    W = np.eye(spec.interaction.dim, dtype=complex)
    if t == s:
        return W
    n_steps = max(1, math.ceil(abs(t - s) / spec.step))
    return _rk4(W, _ham_at(spec.interaction), s, (t - s) / n_steps, n_steps)


def evolve(spec, A, s, t):
    """Heisenberg evolution tau_{s,t}(A)."""
    if spec.kind == "spectral":
        sd = spec.spectral_data
        A_tilde = sd.to_eigenbasis(A)
        phase = np.exp(1j * sd.frequency_table() * (t - s))
        return sd.from_eigenbasis(phase * A_tilde)
    W = propagator(spec, s, t)
    return W @ A @ W.conj().T


def smear(spec, filt, A):
    """Filtered evolution tau_f(A) = int f(t) tau_{0,t}(A) dt.

    Spectral route: entry (mu, nu) of A in the eigenbasis is multiplied by
    int f(t) e^{i w t} dt = sqrt(2 pi) f^(w) at w = E_mu - E_nu, in closed
    form.  ODE route: composite Simpson quadrature of RK4-propagated
    tau_{0,t}(A) on the filter's time grid.
    """
    if spec.kind == "spectral":
        sd = spec.spectral_data
        kernel = math.sqrt(2.0 * math.pi) * filt.fourier(sd.frequency_table())
        return sd.from_eigenbasis(kernel * sd.to_eigenbasis(A))
    ts = filt.grid()
    values = heisenberg_samples(_ham_at(spec.interaction), A, ts, spec.step)
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

    @property
    def holds(self):
        return bool((self.measured <= self.bounds + 1e-12).all())

    @property
    def min_ratio(self):
        with np.errstate(divide="ignore"):
            ratios = np.where(self.measured > 0, self.bounds / self.measured, np.inf)
        return float(ratios.min())

    @property
    def min_margin(self):
        return float((self.bounds - self.measured).min())


def measured_commutator_curve(spec, A, B, times):
    """||[tau_{0,t}(A), B]||_inf on a time grid for local A and B.

    Taken in the eigenbasis, where the norm is the same: A and B are
    transformed once, and tau_{0,t} multiplies entry (mu, nu) of A by
    e^{i w t}.  An ODE spec raises ValueError.
    """
    if spec.kind != "spectral":
        raise ValueError("measured_commutator_curve needs a spectral spec")
    sd = spec.spectral_data
    n = round(math.log(sd.dim, A.q))
    A_t, B_t = (sd.to_eigenbasis(X.embed(n)) for X in (A, B))
    omega = sd.frequency_table()
    return np.array([commutator_norm(np.exp(1j * omega * t) * A_t, B_t) for t in times])


def lr_experiment(spec, params, A, B, X, Y, times):
    """Measured commutator norms against the LR bound on a time grid.

    A and B are LocalOperators supported in the regions X and Y.
    """
    measured = measured_commutator_curve(spec, A, B, times)
    na = A.norm(np.inf)
    nb = B.norm(np.inf)
    times = np.asarray(times, dtype=float)
    bounds = np.array([lr_bound(params, X, Y, na, nb, t) for t in times])
    return LRExperimentResult(times, measured, bounds)
