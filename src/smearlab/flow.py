"""Spectral flow along interaction paths.

For a smooth gapped path H(s), the transport V'(s) = i K(s) V(s),
V(0) = 1, acts on the patch state through alpha_{0,s}(A) = V^dagger A V
only via the transported patch vectors W(s) = V(s) W_0, a dim x p block:

    W'(s) = G(s) W(s),  G = i K,    omega_0(alpha_{0,s}(A)) = tr(W^dagger A W) / p.

A generator is held in the eigenbasis of H(s): G = V M V^dagger with
M = -kappa o (V^dagger (dH/ds) V), kappa the real odd profile of its kernel
(`filtering.gaussian_profile`, `filtering.inverse_profile`).  So G W is
V (M (V^dagger W)), three dim x p products, and no dim x dim K is formed.
On a real path V and M are real and G is real antisymmetric: a real W_0
stays real.

Generators on one path step through s together (`integrate_flow` with a
list), so a window of the three s of one RK4 step (`EigenCache`) serves
them all and diagonalizes each s once.

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
from itertools import zip_longest

import numpy as np

from .algebra import conditional_expectation, schatten_norm
from .filtering import gaussian_kernel, gaussian_profile, inverse_profile
from .interaction import local_perturbation
from .lattice import Region
from .spectra import (block_expectation, diagonalize, lowest_levels, patch_expectation,
                      split_spectrum)

__all__ = [
    "EigenbasisGenerator", "FlowGenerator", "integrate_flow",
    "LocalizedGenerator", "localize_generator", "exact_flow_intertwining",
    "automorphic_equivalence_experiment", "lppl_experiment",
]


class EigenCache:
    """Eigendecompositions of H(s) at the last three distinct s asked for
    (s_i, s_i + h/2 and s_{i+1} of an RK4 step), keyed by s rounded to 12
    decimals; the oldest leaves as a new one enters, and `visit(key, sd)`,
    if given, sees each new one."""

    size = 3

    def __init__(self, phi, visit=None):
        self.phi = phi
        self.visit = visit
        self._store = {}

    @staticmethod
    def key(s):
        return round(float(s), 12)

    def at(self, s):
        key = self.key(s)
        if key not in self._store:
            if len(self._store) == self.size:
                del self._store[next(iter(self._store))]
            self._store[key] = diagonalize(self.phi.hamiltonian(key))
            if self.visit is not None:
                self.visit(key, self._store[key])
        return self._store[key]


@dataclass(frozen=True)
class EigenbasisGenerator:
    """G = i K = V M V^dagger; `G @ W` is V (M (V^dagger W))."""

    vectors: np.ndarray
    matrix: np.ndarray

    def __matmul__(self, W):
        V = self.vectors
        return V @ (self.matrix @ (V.conj().T @ W))


class FlowGenerator:
    """Generator of a spectral flow along an interaction path: `gen(s)` is
    i K(s) as an `EigenbasisGenerator`, so `gen(s) @ np.eye(dim)` is i K(s).

    kind: 'exact' (needs a split rule), 'almost' (needs beta), or
    'modulated' (needs beta, a reference region X and a threshold ell).
    """

    def __init__(self, phi, kind, beta=None, split_rule=None, region=None, ell=None,
                 cache=None):
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
        self.region = region
        self.ell = ell
        self.cache = cache if cache is not None else EigenCache(phi)

    def split(self, s):
        return split_spectrum(self.cache.at(s), self.split_rule)

    def __call__(self, s):
        sd = self.cache.at(s)
        if self.kind != "modulated":
            kappa = (inverse_profile(self.split(s)) if self.kind == "exact"
                     else gaussian_profile(sd.frequency_table(), self.beta))
            tilde = sd.to_eigenbasis(self.phi.hamiltonian_derivative(s))
            return EigenbasisGenerator(sd.vectors, -kappa * tilde)
        # modulated: per-term filter widths, accumulated in the eigenbasis
        omega = sd.frequency_table()
        M = np.zeros((self.phi.dim, self.phi.dim), sd.vectors.dtype)
        for sites, op in self.phi.derivative_snapshot(s).grouped_terms(0.0):
            dist = self.region.distance_to(sites)
            beta_eff = (self.beta if dist < self.ell
                        else 1.0 / math.sqrt(1.0 / self.beta**2 + dist))
            M = M - gaussian_profile(omega, beta_eff) * sd.to_eigenbasis(
                op.embed(self.phi.n_sites))
        return EigenbasisGenerator(sd.vectors, M)


def integrate_flow(generator, s_grid, block, observe=None):
    """RK4 integration of W' = G(s) W from W(0) = `block` (dim x p) over
    the given grid, one step per grid interval.

    G(s) = `generator(s)` is i K(s), anything that multiplies the block by
    `@`: the `EigenbasisGenerator` of a `FlowGenerator`, or a dense matrix.
    On a real path G is real antisymmetric, so a real block stays real.
    Returns the block at the last grid point; the identity block gives the
    transport unitary.  `observe(i, W)`, if given, sees the block at grid
    point i as it lands, once for each i from 0 to len(s_grid) - 1; no
    other block is kept.  A list of generators is stepped in lockstep from
    the same block, each taking its step i before any takes step i + 1;
    it gives a list of blocks, and `observe` sees that list.
    """
    s_grid = np.asarray(s_grid, dtype=float)
    many = isinstance(generator, list)
    generators = generator if many else [generator]
    blocks = [np.asarray(block)] * len(generators)
    for i in range(len(s_grid)):
        if i:
            s, h = s_grid[i - 1], s_grid[i] - s_grid[i - 1]
            for j, (gen, W) in enumerate(zip(generators, blocks)):
                k1 = gen(s) @ W
                G_mid = gen(s + 0.5 * h)
                k2 = G_mid @ (W + 0.5 * h * k1)
                k3 = G_mid @ (W + 0.5 * h * k2)
                k4 = gen(s + h) @ (W + h * k3)
                blocks[j] = W + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if observe is not None:
            observe(i, list(blocks) if many else blocks[0])
    return blocks if many else blocks[0]


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
        return sum(self.terms.values(), np.zeros_like(self.reference))

    @property
    def resummation_residual(self):
        return schatten_norm(self.assemble() - self.reference, np.inf)

    @property
    def max_shell_norms(self):
        """Per-shell max over terms of ||Delta_k||."""
        return np.array([max(col) for col in zip_longest(*self.shell_norms, fillvalue=0.0)])


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
        filtered = sd.apply_kernel(kernel, op.embed(n))
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
            psi[reg.sites] = psi[reg.sites] + delta if reg.sites in psi else delta.copy()
            norms.append(schatten_norm(delta, np.inf))
        shell_norms.append(norms)
    return LocalizedGenerator(psi, shell_norms, reference)


def exact_flow_intertwining(phi, split_rule, observables, s_steps=200):
    """Max over the grid of |omega_s(A) - omega_0(alpha_{0,s}(A))| per A,
    and the transport defect ||W^dagger W - 1|| of the block at s = 1.

    The exact flow should intertwine the patch states up to integrator
    error; this is the operational check pinning the flow direction.
    Both sides are taken at each grid point as its step lands, while the
    point is still in the generator's window.
    """
    s_grid = np.linspace(0.0, 1.0, s_steps + 1)
    gen = FlowGenerator(phi, "exact", split_rule=split_rule)
    errors = np.zeros(len(observables))

    def compare(i, W):
        split = gen.split(s_grid[i])
        for j, A in enumerate(observables):
            errors[j] = max(errors[j], abs(patch_expectation(split, A) - block_expectation(W, A)))

    W = integrate_flow(gen, s_grid, gen.split(0.0).patch_vectors(), compare)
    return errors, _transport_defect(W)


def _transport_defect(W):
    return float(schatten_norm(W.conj().T @ W - np.eye(W.shape[1]), np.inf))


def automorphic_equivalence_experiment(phi, split_rule, A, beta_grid, s_steps=200):
    """Endpoint transport error of the almost flow over a beta grid.

    Returns (x, errors, path_gap, defects) with x = beta^{-2} ascending and
    defects[i] = ||W^dagger W - 1|| of the final block at x[i].  The betas
    step through s together, sharing one three-point eigenvalue window; the
    gap is checked against the rule's floor at every point as it enters,
    and path_gap is its minimum.
    """
    gaps = []
    cache = EigenCache(phi, lambda key, sd: gaps.append(split_spectrum(sd, split_rule).gap))
    s_grid = np.linspace(0.0, 1.0, s_steps + 1)
    W0 = split_spectrum(cache.at(0.0), split_rule).patch_vectors()

    betas = sorted(float(b) for b in beta_grid)
    # each beta transports the dim x p patch block, never the unitary
    blocks = integrate_flow([FlowGenerator(phi, "almost", beta=b, cache=cache) for b in betas],
                            s_grid, W0)
    target = patch_expectation(split_spectrum(cache.at(1.0), split_rule), A)
    xs = np.array([1.0 / b**2 for b in reversed(betas)])
    values = np.array([abs(target - block_expectation(W, A)) for W in reversed(blocks)])
    defects = [_transport_defect(W) for W in reversed(blocks)]
    return xs, values, min(gaps), defects


def lppl_experiment(base, perturbation_op, strength_path, distances, observable_builder,
                    split_rule):
    """Endpoint patch-state response |omega_1(A) - omega_0(A)| versus the
    distance of A from the perturbed region.

    `observable_builder(site)` supplies the local observable at a chosen
    site; sites are picked as the lowest index realizing each requested
    graph distance from the perturbation support (`Region.site_at`, a
    SchemaError if there is none).  Also returns the minimum gap over 21
    evenly spaced s and the largest ||H v - E v||.  Under `lowest_k` each
    point's `lowest_levels` starts from the levels of the point before it.
    """
    phi = local_perturbation(base, perturbation_op, strength_path)
    pert_region = Region(phi.graph, perturbation_op.sites)
    sites = [pert_region.site_at(d) for d in distances]

    # keep only the endpoint splits: a dense one holds a full eigendecomposition
    gaps, residuals, ends, sd = [], [], [], None
    for s in np.linspace(0.0, 1.0, 21):
        if split_rule.kind == "lowest_k":
            sd = lowest_levels(phi.sparse_hamiltonian(s), *split_rule.params, guess=sd)
        else:
            sd = diagonalize(phi.hamiltonian(s))
        split = split_spectrum(sd, split_rule)
        gaps.append(split.gap)
        residuals.append(sd.residual())
        if s in (0.0, 1.0):
            ends.append(split)

    values = []
    for x in sites:
        w0, w1 = (patch_expectation(split, observable_builder(x)) for split in ends)
        values.append(abs(w1 - w0))
    return np.asarray(distances, float), np.asarray(values), sites, min(gaps), max(residuals)
