"""Charge transport diagnostics on small tori.

For a charge-conserving model on an L x L torus, the dressed half-torus
charge Qbar = Q - I_beta(L_H(Q)) = tau_{phi_beta}(Q), as 1 - (-i w)
k_beta(w) = e^{-w^2/4 beta^2}, almost commutes with the ground patch
(charges are held as diagonals).  The flux unitary W = e^{2 pi i Qbar_U}
nearly factorizes into unitaries near the two boundary circles of the
upper half; the lower factor U = u (x) 1, the conditional expectation of
W onto a boundary strip S re-unitarized by polar decomposition, pumps
charge across the cut.  The transported charge operator

    T = (U^dagger Q_R U - Q_R)_left = ((u^dagger q u - q)_left) (x) 1,

q the charge of R inside S, lives on the left strip inside S.  Its
ground-patch trace is near an integer.

Every operator here commutes with the total charge, so H, V, Qbar, W,
the strip factors and the defect are held as `algebra.ChargeBlocks`, one
dense block per value of the total charge's diagonal, and each eigh,
smearing, polar SVD and norm runs per block, H's cut from its CSR form:
no dense 2^n x 2^n matrix is formed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .algebra import (ChargeBlocks, LocalOperator, conditional_expectation, real_matmul,
                      schatten_norm, site_index, svd)
from .dynamics import smear
from .errors import AssumptionError, DegenerateFactorError
from .filtering import GaussianFilter
from .interaction import xy_charge
from .lattice import Region, build_torus
from .spectra import SpectralData, diagonalize, lowest_k, patch_expectation, split_spectrum

__all__ = [
    "local_charge", "region_charge", "charge_conservation_defect", "ChargeGeometry",
    "dressed_charge", "FluxFactorization", "flux_unitary", "TransportResult",
    "transport_operator", "QuantizationResult", "quantization_check", "ZPhaseResult",
    "z_phase_operator", "QHEPoint", "qhe_point", "qhe_experiment",
]


def local_charge(site):
    """q_x = (1 - sigma_z)/2, with spectrum {0, 1}."""
    return LocalOperator((int(site),), np.diag([0.0, 1.0]))


def region_charge(graph, region):
    """Diagonal of Q_X = sum over the region of the local charges, each
    applied to the all-ones vector."""
    ones = np.ones(2**graph.n_sites)
    return sum((local_charge(x).apply(ones) for x in region), np.zeros(ones.size))


def charge_conservation_defect(phi, Q):
    """Over the terms, the largest |entry| of a local matrix that joins two
    basis states of unequal Q (a diagonal, read through `site_index`) times
    the term's sup |c| on `phi.interval`: 0.0 when no term moves the charge
    at any t.  No H is built and no t sampled; terms that cancel still count."""
    defects = [0.0]
    for term in phi.terms:
        idx = site_index(term.sites, phi.n_sites)
        a, b = np.nonzero(term.operator.matrix)
        moves = (Q[idx[a]] != Q[idx[b]]).any(axis=1)
        lo, hi = term.path.extent(*phi.interval)
        defects.append(np.abs(term.operator.matrix[a[moves], b[moves]]).max(initial=0.0)
                       * max(-lo, hi))
    return float(np.max(defects))


class ChargeGeometry:
    """Halves and boundary strips of an Lx x Ly torus.

    The upper half collects the top floor(Ly/2) rows; its lower boundary
    cut sits between rows start-1 and start and the upper cut wraps from
    row Ly-1 to row 0.  A strip of width w covers the w rows on each side
    of its cut.  The right half and its column strips are built the same
    way.  On a 3 x 3 torus two-row strips necessarily share a row; the
    geometry records this in `strips_disjoint` instead of refusing, and
    term assignment still verifies strict support containment.
    """

    def __init__(self, lx, ly=None, strip_width=None):
        ly = lx if ly is None else ly
        self.lx, self.ly = int(lx), int(ly)
        self.graph = build_torus(self.lx, self.ly)
        w = max(1, self.lx // 4) if strip_width is None else int(strip_width)
        if w < 1:
            raise ValueError("strip width must be at least one")
        self.strip_width = w

        self.row_start = self.ly - self.ly // 2
        self.col_start = self.lx - self.lx // 2
        rows = range(self.row_start, self.ly)
        cols = range(self.col_start, self.lx)
        self.upper_half = Region(self.graph, [self._site(x, y) for y in rows for x in range(self.lx)])
        self.right_half = Region(self.graph, [self._site(x, y) for x in cols for y in range(self.ly)])

        self.lower_strip = self._strip(1, self.row_start, w)
        self.upper_strip = self._strip(1, 0, w)
        self.left_strip = self._strip(0, self.col_start, w)
        self.right_strip = self._strip(0, 0, w)

    def _site(self, x, y):
        return x % self.lx + self.lx * (y % self.ly)

    def _strip(self, axis, cut, w):
        """Rows (axis 1) or columns (axis 0) cut-w .. cut+w-1, wrapped
        around the torus, on both sides of the cut before line `cut`."""
        size = (self.lx, self.ly)[axis]
        lines = {(cut + k) % size for k in range(-w, w)}
        return Region(self.graph, [self._site(x, y) for y in range(self.ly)
                                   for x in range(self.lx) if (x, y)[axis] in lines])

    @property
    def strips_disjoint(self):
        rows_ok = not (set(self.lower_strip.sites) & set(self.upper_strip.sites))
        cols_ok = not (set(self.left_strip.sites) & set(self.right_strip.sites))
        return rows_ok and cols_ok

    def split_boundary_terms(self, phi, half, strip_a, strip_b):
        """Assign the terms of [H(0), Q_half] to the two boundary strips.

        Every interaction term whose support meets both the half and its
        complement must be contained in exactly one strip; anything else
        raises, because the assignment would be ambiguous.
        """
        half_set = set(half.sites)
        in_a, in_b = [], []
        for sites, op in phi.grouped_terms(0.0):
            s = set(sites)
            if not (s & half_set) or s <= half_set:
                continue
            fits_a = s <= set(strip_a.sites)
            fits_b = s <= set(strip_b.sites)
            if fits_a == fits_b:
                raise AssumptionError(
                    f"boundary term on {sites} fits {'both strips' if fits_a else 'no strip'}"
                )
            (in_a if fits_a else in_b).append((sites, op))
        return in_a, in_b


def dressed_charge(sd, Q, beta):
    """Qbar = Q - I_beta(L_H(Q)) = tau_{phi_beta}(Q), Q a matrix or a
    diagonal, Hermitian part.  Given the spectra of H's charge blocks (a
    ChargeBlocks of SpectralData) and a diagonal Q, Qbar comes in the same
    blocks, one `smear` each."""
    if isinstance(sd, ChargeBlocks):
        return ChargeBlocks(sd.index, [dressed_charge(b, Q[s], beta)
                                       for s, b in zip(sd.index, sd.blocks)])
    Qbar = smear(sd, GaussianFilter(beta), Q)
    return (Qbar + Qbar.conj().T) / 2.0


def _patch_split(spectra, rule):
    """The split of the merged energies of H's charge blocks, `spectra`; its
    SpectralData holds H's blocks and V's columns up to the last patch
    level, in ascending energy."""
    energies = np.concatenate([sd.energies for sd in spectra.blocks])
    order = np.argsort(energies, kind="stable")
    sd = SpectralData(energies[order], None, spectra.map(lambda sd: sd.hamiltonian))
    split = split_spectrum(sd, rule)
    cols = np.concatenate(spectra.index)[order[:split.idx0[-1] + 1]]
    sd.vectors = spectra.map(lambda sd: sd.vectors) @ (np.arange(sd.dim)[:, None] == cols)
    return split


def _unitary_exponentials(Hermitian, angles):
    """e^{i angle H} for each angle, one at a time, from one
    eigendecomposition of each charge block of H."""
    spectra = Hermitian.map(diagonalize)
    return (spectra.map(lambda sd: real_matmul(
        sd.vectors, np.exp(1j * angle * sd.energies)[:, None] * sd.vectors.conj().T))
            for angle in angles)


def _strip_unitary(M, strip):
    """Polar part of E_strip(M) = m (x) 1, taken on the strip: polar(m (x) 1)
    is polar(m) (x) 1 with the same singular values, so only m is
    decomposed, one SVD per charge block.  Returns the strip operator and
    the smallest singular value."""
    m = M.reduced(strip.sites)
    factors = [svd(b) for b in m.blocks]
    s_min = min(sv.min() for _, sv, _ in factors)
    if s_min < 1e-6:
        raise DegenerateFactorError("conditional expectation nearly singular "
                                    f"(min sv {s_min:.3e})")
    polar = ChargeBlocks(m.index, [u @ vh for u, _, vh in factors]).dense()
    return LocalOperator(strip.sites, polar), float(s_min)


@dataclass
class FluxFactorization:
    flux: np.ndarray
    lower: LocalOperator
    upper: LocalOperator
    residual: float
    min_singular_value: float


def flux_unitary(Qbar_upper, geometry):
    """W = e^{2 pi i Qbar_U} and its boundary factorization.

    The lower factor is the re-unitarized conditional expectation of W
    onto the lower boundary strip; the upper factor is then peeled off
    as the re-unitarized restriction of lower^dagger W to the upper
    strip, so the reported ||W - lower * upper||_inf residual measures
    only what no strip product can represent.  Both factors are unitary,
    so the residual is taken as ||upper^dagger lower^dagger W - 1||_inf,
    the largest norm of its charge blocks.
    On very small tori it is O(1); it shrinks with the coupling and with
    growing separation between the cuts.
    """
    (W,) = _unitary_exponentials(Qbar_upper, [2.0 * math.pi])
    lower, sv_low = _strip_unitary(W, geometry.lower_strip)
    lower_w = lower.dagger.apply(W)
    upper, _ = _strip_unitary(lower_w, geometry.upper_strip)
    defect = upper.dagger.apply(lower_w).map(lambda b: b - np.eye(len(b)))
    return FluxFactorization(W, lower, upper, defect.norm(), sv_low)


@dataclass
class TransportResult:
    operator: LocalOperator
    split_residual: float


def transport_operator(lower, q_right, geometry):
    """T = Hermitian part of E_left(U^dagger Q_R U - Q_R), Q_R = diag(q_right),
    for U = u (x) 1 on S = lower.sites, formed on S and returned there.

    The terms of Q_R off S commute with U, so the defect is d (x) 1 with
    d = u^dagger q u - q, q the entries of q_right with every site off S
    empty: the charge of R inside S.  d concentrates near the two vertical
    cuts; `split_residual` ||d - left - right||_inf, with the conditional
    expectations onto the column strips, measures what the strips miss.
    """
    S = lower.sites
    q = q_right[site_index(S, geometry.graph.n_sites)[:, 0]]
    d = (lower.matrix.conj().T * q) @ lower.matrix
    d[np.diag_indices_from(d)] -= q
    left, right = (conditional_expectation(d, [S.index(x) for x in cols.sites if x in S], len(S))
                   for cols in (geometry.left_strip, geometry.right_strip))
    residual = schatten_norm(d - left - right, np.inf)
    return TransportResult(LocalOperator(S, (left + left.conj().T) / 2.0), residual)


@dataclass
class QuantizationResult:
    trace: float
    imag_defect: float
    nearest_integer: int
    residual: float


def quantization_check(split, T):
    """tr(P T) = p omega(T), T dense or a LocalOperator, with its distance
    to the nearest integer."""
    raw = split.p * patch_expectation(split, T)
    trace = raw.real
    nearest = int(round(trace))
    return QuantizationResult(trace, abs(raw.imag), nearest, abs(trace - nearest))


@dataclass
class ZPhaseResult:
    phi: float
    patch_commutator: float
    det_residual: float


def z_phase_operator(lower, Qbar_right, geometry, phis, split):
    """Z(phi) = U^dagger e^{i phi Qbar_R} U e^{-i phi Qbar_R} at each angle,
    for the strip factor U = `lower`, from one eigendecomposition of Qbar_R.

    Reports ||[Z, P]||_inf and, using the left-strip factor of Z, the
    distance of its patch determinant from 1 (meaningful at phi = 2 pi).
    """
    V0 = split.patch_vectors()
    results = []
    for phi, E in zip(phis, _unitary_exponentials(Qbar_right, phis)):
        Z = lower.dagger.apply(E @ lower.apply(E.dagger))
        z_left, _ = _strip_unitary(Z, geometry.left_strip)
        det_res = abs(np.linalg.det(V0.conj().T @ z_left.apply(V0)) - 1.0)
        results.append(ZPhaseResult(phi, split.commutator_norm(Z), det_res))
    return results


@dataclass
class QHEPoint:
    """Summary of one hopping strength in the transport sweep."""

    coupling: float
    gap: float
    trace: float
    nearest_integer: int
    residual: float
    factorization_residual: float
    split_residual: float
    dressing_defect: float
    bare_defect: float
    strips_disjoint: bool
    z_phase: list


def qhe_point(geometry, phi, beta, rule, coupling=0.0, phi_grid=()):
    """Run the full transport pipeline for one model instance, with the
    Z(phi) diagnostics at each angle of `phi_grid`.  A model with any term
    that moves the charge raises AssumptionError."""
    graph = geometry.graph
    charge = region_charge(graph, graph.sites())
    defect = charge_conservation_defect(phi, charge)
    if defect != 0.0:
        raise AssumptionError(f"model is not charge conserving ({defect:.3e})")
    for half, a, b in ((geometry.upper_half, geometry.lower_strip, geometry.upper_strip),
                       (geometry.right_half, geometry.left_strip, geometry.right_strip)):
        geometry.split_boundary_terms(phi, half, a, b)

    spectra = ChargeBlocks.of(phi.sparse_hamiltonian(0.0), charge).map(
        lambda b: diagonalize(b.toarray()))
    split = _patch_split(spectra, rule)
    q_upper = region_charge(graph, geometry.upper_half)
    q_right = region_charge(graph, geometry.right_half)

    Qbar = dressed_charge(spectra, q_upper, beta=beta)
    fact = flux_unitary(Qbar, geometry)
    trans = transport_operator(fact.lower, q_right, geometry)
    quant = quantization_check(split, trans.operator)
    z_phase = []
    if phi_grid:
        Qbar_right = dressed_charge(spectra, q_right, beta=beta)
        z_phase = z_phase_operator(fact.lower, Qbar_right, geometry, phi_grid, split)
    return QHEPoint(
        coupling=float(coupling),
        gap=split.gap,
        trace=quant.trace,
        nearest_integer=quant.nearest_integer,
        residual=quant.residual,
        factorization_residual=fact.residual,
        split_residual=trans.split_residual,
        dressing_defect=split.commutator_norm(Qbar),
        bare_defect=split.commutator_norm(q_upper),
        strips_disjoint=geometry.strips_disjoint,
        z_phase=z_phase,
    )


def qhe_experiment(l, j_values, h=1.0, beta=None, strip_width=None, rule=None,
                   phi_grid=()):
    """Transport sweep over hopping strengths on an l x l torus.

    Each point builds the charge-conserving hopping model, dresses the
    half-torus charge at the given filter width (default l^{-1/2}),
    threads one flux quantum, and reports the ground-patch trace of the
    transported charge with its distance to the nearest integer.  The
    first point also takes the Z(phi) diagnostics on `phi_grid`.
    """
    geometry = ChargeGeometry(l, strip_width=strip_width)
    beta = float(l) ** -0.5 if beta is None else float(beta)
    rule = lowest_k(1) if rule is None else rule

    return [qhe_point(geometry, xy_charge(geometry.graph, j, h), beta, rule,
                      coupling=j, phi_grid=phi_grid if i == 0 else ())
            for i, j in enumerate(j_values)]
