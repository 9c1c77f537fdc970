"""Spectral flow along interaction paths.

For a smooth gapped path H(s), the transport unitaries V(s) solve

    V'(s) = i K(s) V(s),        V(0) = 1,

and the transported observable is alpha_{0,s}(A) = V(s)^dagger A V(s).
With the exact generator K(s) = I_{H(s)}(dH/ds) the flow intertwines the
patch states exactly: omega_s(A) = omega_0(alpha_{0,s}(A)); the sign of
the propagator equation is pinned by that identity.  The almost generator
replaces the exact inverse by the Gaussian-filtered one, and the modulated
generator widens the filter per interaction term with

    1/beta_{X,Z}^2 = 1/beta^2 + d(X, Z) * [d(X, Z) >= ell].
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .algebra import conditional_expectation, schatten_norm
from .errors import AssumptionError
from .filtering import (
    almost_inverse_liouvillian,
    apply_spectral_kernel,
    exact_inverse_liouvillian,
    gaussian_kernel,
)
from .interaction import local_perturbation
from .lattice import Region
from .spectra import diagonalize, lowest_levels, patch_expectation, split_spectrum

__all__ = [
    "FlowGenerator",
    "FlowResult",
    "integrate_flow",
    "LocalizedGenerator",
    "localize_generator",
    "sup_poly_exp",
    "tail_geom",
    "exact_flow_intertwining",
    "automorphic_equivalence_experiment",
    "lppl_experiment",
]


class EigenCache:
    """Eigendecompositions of H(s) keyed by the path parameter.

    Shared between generators evaluated on the same path so beta sweeps
    do not re-diagonalize.
    """

    def __init__(self, phi):
        self.phi = phi
        self._store = {}

    def at(self, s):
        key = round(float(s), 12)
        if key not in self._store:
            self._store[key] = diagonalize(self.phi.hamiltonian(key))
        return self._store[key]


class FlowGenerator:
    """Generator K(s) of a spectral flow along an interaction path.

    kind: 'exact' (needs a split rule), 'almost' (needs beta), or
    'modulated' (needs beta, a reference region X and a threshold ell).
    """

    def __init__(
        self,
        phi,
        kind,
        beta=None,
        split_rule=None,
        min_gap=1e-8,
        region=None,
        ell=None,
        cache=None,
    ):
        if kind not in ("exact", "almost", "modulated"):
            raise ValueError(f"unknown flow kind {kind!r}")
        if kind == "exact" and split_rule is None:
            raise ValueError("exact flow needs a split rule")
        if kind in ("almost", "modulated") and beta is None:
            raise ValueError(f"{kind} flow needs beta")
        if kind == "modulated" and (region is None or ell is None):
            raise ValueError("modulated flow needs a region X and ell")
        self.phi = phi
        self.kind = kind
        self.beta = beta
        self.split_rule = split_rule
        self.min_gap = min_gap
        self.region = region
        self.ell = ell
        self.cache = cache if cache is not None else EigenCache(phi)

    def spectral_data(self, s):
        return self.cache.at(s)

    def split(self, s):
        return split_spectrum(self.spectral_data(s), self.split_rule, self.min_gap)

    def __call__(self, s):
        sd = self.spectral_data(s)
        if self.kind == "exact":
            return exact_inverse_liouvillian(
                sd, self.split(s), self.phi.hamiltonian_derivative(s)
            )
        if self.kind == "almost":
            return almost_inverse_liouvillian(
                sd, self.beta, self.phi.hamiltonian_derivative(s)
            )
        # modulated: per-term filter widths, accumulated in the eigenbasis
        omega = sd.frequency_table()
        snapshot = self.phi.derivative_snapshot(s)
        acc = np.zeros((self.phi.dim, self.phi.dim), dtype=complex)
        for sites, op in snapshot.grouped_terms(0.0):
            dist = self.region.distance_to(sites)
            if dist >= self.ell:
                beta_eff = 1.0 / math.sqrt(1.0 / self.beta**2 + dist)
            else:
                beta_eff = self.beta
            term_tilde = sd.to_eigenbasis(op.embed(self.phi.n_sites))
            acc += gaussian_kernel(omega, beta_eff) * term_tilde
        return sd.from_eigenbasis(acc)


@dataclass
class FlowResult:
    """Transport unitaries on the parameter grid."""

    s_grid: np.ndarray
    unitaries: list

    def transported(self, A, index=-1):
        """alpha_{0,s}(A) at the grid point with the given index."""
        V = self.unitaries[index]
        return V.conj().T @ A @ V

    @property
    def final_unitarity_defect(self):
        V = self.unitaries[-1]
        return schatten_norm(V.conj().T @ V - np.eye(V.shape[0]), np.inf)


def integrate_flow(generator, s_grid, substeps=1):
    """RK4 integration of V' = i K(s) V over the given grid.

    Returns the transport unitary at every grid point.  `substeps` splits
    each grid interval into that many RK4 steps.
    """
    s_grid = np.asarray(s_grid, dtype=float)
    dim = generator.phi.dim
    V = np.eye(dim, dtype=complex)
    unitaries = [V]
    for a, b in zip(s_grid[:-1], s_grid[1:]):
        h = (b - a) / substeps
        s = a
        for _ in range(substeps):
            k1 = 1j * generator(s) @ V
            K_mid = generator(s + 0.5 * h)
            k2 = 1j * K_mid @ (V + 0.5 * h * k1)
            k3 = 1j * K_mid @ (V + 0.5 * h * k2)
            k4 = 1j * generator(s + h) @ (V + h * k3)
            V = V + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            s += h
        unitaries.append(V)
    return FlowResult(s_grid, unitaries)


@dataclass
class LocalizedGenerator:
    """Strictly local decomposition Psi(Z) of a filtered generator.

    Built term by term: Delta_0 = E_{Z_0}(I_beta(term)) and
    Delta_k = E_{Z_k}(I_beta(term)) - E_{Z_{k-1}}(I_beta(term)) on the
    k-fattenings Z_k of the term support, summed into Psi keyed by Z_k.
    The shells telescope, so summing all Psi(Z) recovers the filtered
    generator exactly.
    """

    terms: dict
    shell_norms: list
    reference: np.ndarray = field(repr=False)

    def assemble(self):
        total = np.zeros_like(self.reference)
        for mat in self.terms.values():
            total = total + mat
        return total

    @property
    def resummation_residual(self):
        return schatten_norm(self.assemble() - self.reference, np.inf)

    @property
    def max_shell_norms(self):
        """Per-shell max over terms of ||Delta_k||."""
        depth = max(len(row) for row in self.shell_norms)
        out = np.zeros(depth)
        for row in self.shell_norms:
            for k, v in enumerate(row):
                out[k] = max(out[k], v)
        return out


def localize_generator(sd, beta, phi_dot, graph=None):
    """Localize I_beta applied to each term of a (derivative) interaction.

    `phi_dot` is an interaction with constant coefficients, typically a
    derivative snapshot.  Returns the shell decomposition together with
    the exact resummation target sum_terms I_beta(term).
    """
    graph = graph or phi_dot.graph
    n = graph.n_sites
    kernel = gaussian_kernel(sd.frequency_table(), beta)
    psi = {}
    shell_norms = []
    reference = np.zeros((2**n, 2**n), dtype=complex)

    for sites, op in phi_dot.grouped_terms(0.0):
        filtered = apply_spectral_kernel(sd, kernel, op.embed(n))
        reference += filtered
        region = Region(graph, sites)
        previous = conditional_expectation(filtered, region.sites, n)
        shells = [(region, previous)]
        k = 0
        while len(region) < n:
            k += 1
            region = graph.fatten(Region(graph, sites), k)
            current = (
                filtered
                if len(region) == n
                else conditional_expectation(filtered, region.sites, n)
            )
            shells.append((region, current - previous))
            previous = current
        norms = []
        for reg, delta in shells:
            key = reg.sites
            if key in psi:
                psi[key] = psi[key] + delta
            else:
                psi[key] = delta.copy()
            norms.append(schatten_norm(delta, np.inf))
        shell_norms.append(norms)
    return LocalizedGenerator(psi, shell_norms, reference)


def sup_poly_exp(p, c):
    """(p/e)^p c^{-p}, an upper bound for sup_{r>=0} r^p e^{-c r}."""
    if p <= 0 or c <= 0:
        raise ValueError("p and c must be positive")
    return (p / math.e) ** p * c ** (-p)


def tail_geom(c, L):
    """(e^c / c) e^{-c ceil(L)}, an upper bound for sum_{n >= L} e^{-c n}
    over integers n."""
    if c <= 0:
        raise ValueError("c must be positive")
    return math.exp(c) / c * math.exp(-c * math.ceil(L))


def exact_flow_intertwining(phi, split_rule, observables, s_steps=200, min_gap=1e-8):
    """Max over the grid of |omega_s(A) - omega_0(alpha_{0,s}(A))| per A.

    The exact flow should intertwine the patch states up to integrator
    error; this is the operational check pinning the flow direction.
    """
    gen = FlowGenerator(phi, "exact", split_rule=split_rule, min_gap=min_gap)
    s_grid = np.linspace(0.0, 1.0, s_steps + 1)
    result = integrate_flow(gen, s_grid)
    split0 = gen.split(0.0)
    errors = np.zeros(len(observables))
    for i, s in enumerate(s_grid):
        split_s = gen.split(s)
        for j, A in enumerate(observables):
            lhs = patch_expectation(split_s, A)
            rhs = patch_expectation(split0, result.transported(A, i))
            errors[j] = max(errors[j], abs(lhs - rhs))
    return errors, result


def automorphic_equivalence_experiment(
    phi,
    split_rule,
    A,
    beta_grid,
    s_steps=200,
    min_gap=1e-8,
):
    """Endpoint transport error of the almost flow over a beta grid.

    Returns (x, errors, min_gap_along_path) with x = beta^{-2} ascending.
    The gap is checked at every point the flow visited, via the shared
    eigenvalue cache, and its minimum over those points is returned.
    """
    cache = EigenCache(phi)
    s_grid = np.linspace(0.0, 1.0, s_steps + 1)
    split0 = split_spectrum(cache.at(0.0), split_rule, min_gap)
    split1 = split_spectrum(cache.at(1.0), split_rule, min_gap)
    target = patch_expectation(split1, A)

    betas = sorted(float(b) for b in beta_grid)
    errors = {}
    for beta in betas:
        gen = FlowGenerator(phi, "almost", beta=beta, cache=cache)
        # no FlowResult outlives its beta, so one set of unitaries is held at a time
        transported = integrate_flow(gen, s_grid).transported(A)
        errors[beta] = abs(target - patch_expectation(split0, transported))
    path_gap = min(
        split_spectrum(sd, split_rule, min_gap).gap for sd in cache._store.values()
    )
    xs = np.array([1.0 / b**2 for b in reversed(betas)])
    values = np.array([errors[b] for b in reversed(betas)])
    return xs, values, path_gap


def lppl_experiment(
    base,
    perturbation_op,
    strength_path,
    distances,
    observable_builder,
    split_rule,
    min_gap=1e-8,
):
    """Endpoint patch-state response |omega_1(A) - omega_0(A)| versus the
    distance of A from the perturbed region.

    `observable_builder(site)` supplies the local observable at a chosen
    site; sites are picked as the lowest index realizing each requested
    graph distance from the perturbation support.  Also returns the
    minimum gap over 21 evenly spaced s and the largest ||H v - E v||.
    """
    phi = local_perturbation(base, perturbation_op, strength_path)
    graph = phi.graph
    pert_region = Region(graph, perturbation_op.sites)

    sites = []
    for d in distances:
        candidates = [x for x in graph.sites() if pert_region.site_distance(x) == d]
        if not candidates:
            raise AssumptionError(f"no site at distance {d} from the perturbation")
        sites.append(min(candidates))

    # keep only the endpoint splits: a dense one holds a full eigendecomposition
    gaps, residuals, ends = [], [], []
    for s in np.linspace(0.0, 1.0, 21):
        if split_rule.kind == "lowest_k":
            sd = lowest_levels(phi.sparse_hamiltonian(s), *split_rule.params)
        else:
            sd = diagonalize(phi.hamiltonian(s))
        split = split_spectrum(sd, split_rule, min_gap)
        gaps.append(split.gap)
        residuals.append(sd.residual())
        if s in (0.0, 1.0):
            ends.append(split)

    values = []
    for x in sites:
        w0, w1 = (patch_expectation(split, observable_builder(x)) for split in ends)
        values.append(abs(w1 - w0))
    return np.asarray(distances, float), np.asarray(values), sites, min(gaps), max(residuals)
