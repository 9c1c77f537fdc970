"""Finite-range interactions Phi(t, Z) on site graphs.

An interaction is a list of terms, each a Hermitian local operator with a
smooth real coefficient path in the parameter t.  The weighted norm

    ||Phi||_b = sup_t max_z sum_{Z containing z} ||Phi(t, Z)|| e^{b diam Z}

is bounded from above: constant terms sharing a support are summed before
the norm is taken, and each varying term counts with the exact sup of
|c| on the parameter interval.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.sparse import coo_array

from .algebra import (
    LocalOperator,
    is_hermitian,
    pauli_string,
    schatten_norm,
    site_index,
)
from .lattice import Region, SiteGraph

__all__ = [
    "PolyPath",
    "TrigRampPath",
    "as_path",
    "InteractionTerm",
    "Interaction",
    "interaction_norm",
    "tfim",
    "xy_charge",
    "local_perturbation",
    "custom_model",
]


class PolyPath:
    """Polynomial coefficient c(s) = sum_k coeffs[k] s^k with exact
    derivative."""

    def __init__(self, coeffs):
        self.coeffs = tuple(float(c) for c in np.atleast_1d(coeffs))
        if not self.coeffs:
            raise ValueError("empty coefficient list")
        self._dcoeffs = np.polynomial.polynomial.polyder(self.coeffs)

    def __call__(self, s):
        return float(np.polynomial.polynomial.polyval(s, self.coeffs))

    def derivative(self, s):
        return float(np.polynomial.polynomial.polyval(s, self._dcoeffs))

    def extent(self, lo, hi):
        """(min, max) of c on [lo, hi], taken at the endpoints and the real
        parts of the critical points clipped into the interval."""
        poly = np.polynomial.polynomial
        crit = np.clip(poly.polyroots(self._dcoeffs).real, lo, hi)
        vals = poly.polyval(np.concatenate([[lo, hi], crit]), self.coeffs)
        return float(vals.min()), float(vals.max())

    def __repr__(self):
        return f"PolyPath({list(self.coeffs)})"


class TrigRampPath:
    """Smooth ramp a -> b: c(s) = a + (b-a)(1 - cos(pi s))/2 on [0, 1]."""

    def __init__(self, start, end):
        self.start = float(start)
        self.end = float(end)

    def __call__(self, s):
        return self.start + (self.end - self.start) * (1.0 - np.cos(np.pi * s)) / 2.0

    def derivative(self, s):
        return (self.end - self.start) * np.pi * np.sin(np.pi * s) / 2.0

    def extent(self, lo, hi):
        """(min, max) of c on [lo, hi]; c is monotone between integers."""
        ints = np.arange(math.ceil(lo), math.floor(hi) + 1)
        vals = self(np.concatenate([[lo, hi], ints]))
        return float(vals.min()), float(vals.max())

    def __repr__(self):
        return f"TrigRampPath({self.start}, {self.end})"


def as_path(value):
    """Coerce a scalar or (coeff list) into a path object."""
    if hasattr(value, "derivative") and callable(value):
        return value
    if np.isscalar(value):
        return PolyPath([value])
    return PolyPath(value)


@dataclass(frozen=True)
class InteractionTerm:
    """One interaction term: Hermitian local operator times a real path."""

    operator: LocalOperator
    path: object

    def __post_init__(self):
        if not is_hermitian(self.operator.matrix, tol=1e-10):
            raise ValueError("interaction terms must be Hermitian")
        object.__setattr__(self, "path", as_path(self.path))

    @property
    def sites(self):
        return self.operator.sites

    def coefficient(self, t):
        return self.path(t)

    def coefficient_derivative(self, t):
        return self.path.derivative(t)


class Interaction:
    """Collection of interaction terms over a fixed parameter interval."""

    def __init__(self, graph, terms, interval=(0.0, 1.0), label=""):
        if not isinstance(graph, SiteGraph):
            raise TypeError("graph must be a SiteGraph")
        self.graph = graph
        self.terms = tuple(terms)
        self.interval = (float(interval[0]), float(interval[1]))
        self.label = label
        for term in self.terms:
            if term.sites and term.sites[-1] >= graph.n_sites:
                raise ValueError("term support outside the graph")

    @property
    def n_sites(self):
        return self.graph.n_sites

    @property
    def dim(self):
        return 2**self.graph.n_sites

    @property
    def is_constant(self):
        """True when no coefficient varies on the parameter interval.  On an
        interval of positive length the polynomial and cosine-ramp paths
        are then constant for every t."""
        extents = (term.path.extent(*self.interval) for term in self.terms)
        return all(lo == hi for lo, hi in extents)

    def hamiltonian(self, t=0.0):
        """Dense H(t) = sum_Z Phi(t, Z)."""
        return self._assemble(term.coefficient(t) for term in self.terms)

    def hamiltonian_derivative(self, t):
        """Dense dH/dt, using the exact path derivatives."""
        return self._assemble(term.coefficient_derivative(t) for term in self.terms)

    def sparse_hamiltonian(self, t=0.0):
        """CSR H(t) from the entries `hamiltonian(t)` adds; entries that
        several terms share are summed."""
        parts = list(zip(*self._entries(term.coefficient(t) for term in self.terms)))
        rows, cols, vals = (np.concatenate(p) for p in parts) if parts else ([], [], [])
        return coo_array((vals, (rows, cols)), shape=(self.dim, self.dim)).tocsr()

    def _entries(self, coeffs):
        """Rows, columns and values of the nonzero entries of each c_Z Phi_Z
        in H, flat, with no (row, column) pair twice within one term."""
        for term, c in zip(self.terms, coeffs):
            if c != 0.0:
                idx = site_index(term.sites, self.n_sites)
                a, b = np.nonzero(term.operator.matrix)
                vals = np.repeat(c * term.operator.matrix[a, b], idx.shape[1])
                yield idx[a].ravel(), idx[b].ravel(), vals

    def _assemble(self, coeffs):
        """sum_Z c_Z Phi_Z, each term added in place on its own entries."""
        mats = [term.operator.matrix for term in self.terms]
        H = np.zeros((self.dim, self.dim), dtype=np.result_type(float, *mats))
        for rows, cols, vals in self._entries(coeffs):
            H[rows, cols] += vals
        return H

    def derivative_snapshot(self, t):
        """Interaction whose constant coefficients are dPhi/dt at t.

        Terms whose derivative vanishes at t are dropped.
        """
        frozen = []
        for term in self.terms:
            c = term.coefficient_derivative(t)
            if c != 0.0:
                frozen.append(InteractionTerm(term.operator, PolyPath([c])))
        return Interaction(self.graph, frozen, self.interval, self.label + "'")

    def snapshot(self, t):
        """Interaction with coefficients frozen at parameter t."""
        frozen = [
            InteractionTerm(term.operator, PolyPath([term.coefficient(t)]))
            for term in self.terms
            if term.coefficient(t) != 0.0
        ]
        return Interaction(self.graph, frozen, self.interval, self.label)

    def grouped_terms(self, t):
        """Pairs (support tuple, Phi(t, Z)) with same-support terms summed."""
        groups = {}
        for term in self.terms:
            c = term.coefficient(t)
            if c == 0.0:
                continue
            mat = c * term.operator.matrix
            key = term.sites
            if key in groups:
                groups[key] = groups[key] + mat
            else:
                groups[key] = mat
        return [
            (sites, LocalOperator(sites, mat)) for sites, mat in sorted(groups.items())
        ]

    def norm(self, b):
        return interaction_norm(self, b)

    def __repr__(self):
        return (
            f"Interaction({self.label or 'anonymous'}, "
            f"{len(self.terms)} terms on {self.graph.label})"
        )


def interaction_norm(phi, b):
    """Upper bound on the weighted norm ||Phi||_b over the parameter interval.

    Terms with a constant coefficient are summed per support before the
    operator norm is taken.  Each varying term adds sup|c| ||op|| (triangle
    inequality), with the sup of |c| exact on the interval.
    """
    if b < 0:
        raise ValueError("the weight exponent b must be nonnegative")
    fixed, varying = {}, []
    for term in phi.terms:
        cmin, cmax = term.path.extent(*phi.interval)
        if cmin != cmax:
            op_norm = schatten_norm(term.operator.matrix, np.inf)
            varying.append((term.sites, max(-cmin, cmax) * op_norm))
        elif cmin != 0.0:
            fixed[term.sites] = fixed.get(term.sites, 0.0) + cmin * term.operator.matrix
    norms = [(sites, schatten_norm(m, np.inf)) for sites, m in sorted(fixed.items())]
    per_site = np.zeros(phi.graph.n_sites)
    for sites, op_norm in norms + varying:
        w = op_norm * np.exp(b * Region(phi.graph, sites).diameter)
        for z in sites:
            per_site[z] += w
    return float(per_site.max()) if per_site.size else 0.0


def tfim(graph, j=1.0, g=1.0):
    """Transverse-field Ising model -J sum sz sz - g sum sx.

    Both couplings may be scalars or coefficient paths.
    """
    jp, gp = as_path(j), as_path(g)
    terms = []
    for a, bnd in graph.edges:
        zz = pauli_string("ZZ", (a, bnd))
        terms.append(InteractionTerm(zz, _scaled(jp, -1.0)))
    for x in graph.sites():
        terms.append(InteractionTerm(pauli_string("X", (x,)), _scaled(gp, -1.0)))
    return Interaction(graph, terms, label=f"tfim(J={j!r},g={g!r})")


def xy_charge(graph, j=1.0, h=1.0):
    """Charge-conserving XY model: hopping J (s+ s- + s- s+) plus onsite
    charge h n_x with n = (1 - sz)/2.  Commutes with the total charge.
    """
    jp, hp = as_path(j), as_path(h)
    hop = np.zeros((4, 4))
    hop[1, 2] = hop[2, 1] = 1.0  # |01><10| + |10><01|
    n1 = np.array([[0.0, 0.0], [0.0, 1.0]])
    terms = []
    for a, b in graph.edges:
        terms.append(InteractionTerm(LocalOperator((a, b), hop), jp))
    for x in graph.sites():
        terms.append(InteractionTerm(LocalOperator((x,), n1), hp))
    return Interaction(graph, terms, label=f"xy_charge(J={j!r},h={h!r})")


def local_perturbation(base, operator, strength=PolyPath([0.0, 1.0])):
    """Base interaction plus a locally supported perturbation term.

    `operator` is a Hermitian LocalOperator; `strength` a path (default:
    linear switch-on s).  The base keeps its own parameter dependence.
    """
    term = InteractionTerm(operator, strength)
    label = f"{base.label}+pert@{operator.sites}"
    return Interaction(base.graph, base.terms + (term,), base.interval, label)


def custom_model(graph, term_specs):
    """Interaction from (pauli label, sites, path) triples."""
    terms = []
    for label, sites, path in term_specs:
        terms.append(InteractionTerm(pauli_string(label, sites), as_path(path)))
    return Interaction(graph, terms, label="custom")


class _scaled:
    """Path scaled by a constant, keeping the exact derivative."""

    def __init__(self, path, factor):
        self.path = path
        self.factor = float(factor)

    def __call__(self, s):
        return self.factor * self.path(s)

    def derivative(self, s):
        return self.factor * self.path.derivative(s)

    def extent(self, lo, hi):
        a, b = self.path.extent(lo, hi)
        return tuple(sorted((self.factor * a, self.factor * b)))

    def __repr__(self):
        return f"{self.factor}*{self.path!r}"
