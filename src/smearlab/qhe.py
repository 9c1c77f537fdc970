"""Charge transport diagnostics on small tori.

For a charge-conserving model on an L x L torus, the dressed half-torus
charge Qbar = Q - I_beta(L_H(Q)) almost commutes with the ground patch.
The flux unitary W = e^{2 pi i Qbar_U} approximately factorizes into
unitaries supported near the two boundary circles of the upper half; the
lower factor U, extracted by conditional expectation onto a boundary
strip and re-unitarized by polar decomposition, pumps charge across the
cut.  The transported charge operator

    T = (U^dagger Q_R U - Q_R)_left

has ground-patch trace near an integer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import svd

from .algebra import (
    LocalOperator,
    commutator_norm,
    conditional_expectation,
    embed,
    liouvillian,
    schatten_norm,
    trace_sites,
)
from .errors import AssumptionError, DegenerateFactorError
from .filtering import almost_inverse_liouvillian, exact_inverse_liouvillian
from .interaction import xy_charge
from .lattice import Region, build_torus
from .spectra import diagonalize, lowest_k, split_spectrum

__all__ = [
    "local_charge",
    "region_charge",
    "charge_conservation_defect",
    "ChargeGeometry",
    "dressed_charge",
    "FluxFactorization",
    "flux_unitary",
    "TransportResult",
    "transport_operator",
    "QuantizationResult",
    "quantization_check",
    "ZPhaseResult",
    "z_phase_operator",
    "QHEPoint",
    "qhe_point",
    "qhe_experiment",
]

_CHARGE_1 = np.array([[0.0, 0.0], [0.0, 1.0]])


def local_charge(site):
    """q_x = (1 - sigma_z)/2, with spectrum {0, 1}."""
    return LocalOperator((int(site),), _CHARGE_1)


def region_charge(graph, region):
    """Q_X = sum over the region of the local charges (dense)."""
    n = graph.n_sites
    Q = np.zeros((2**n, 2**n))
    for x in region:
        Q += local_charge(x).embed(n)
    return Q


def charge_conservation_defect(phi, Q, t_samples=5):
    """max over a parameter grid of ||[H(t), Q]||_inf (one point if H is constant)."""
    ts = np.linspace(*phi.interval, 1 if phi.is_constant else t_samples)
    return max(commutator_norm(phi.hamiltonian(t), Q) for t in ts)


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

    def split_boundary_terms(self, phi, half, strip_a, strip_b, t=0.0):
        """Assign the terms of [H, Q_half] to the two boundary strips.

        Every interaction term whose support meets both the half and its
        complement must be contained in exactly one strip; anything else
        raises, because the assignment would be ambiguous.
        """
        half_set = set(half.sites)
        in_a, in_b = [], []
        for sites, op in phi.grouped_terms(t):
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


def dressed_charge(sd, Q, beta=None, split=None):
    """Qbar = Q - I(L_H(Q)) with the filtered (beta) or exact (split)
    inverse.  The exact variant commutes with the patch projector
    identically."""
    LQ = liouvillian(sd.hamiltonian, Q)
    if (beta is None) == (split is None):
        raise ValueError("pass exactly one of beta or split")
    if beta is not None:
        correction = almost_inverse_liouvillian(sd, beta, LQ)
    else:
        correction = exact_inverse_liouvillian(sd, split, LQ)
    Qbar = Q - correction
    return (Qbar + Qbar.conj().T) / 2.0


def _unitary_exponential(Hermitian, angle):
    vals, vecs = np.linalg.eigh(Hermitian)
    return (vecs * np.exp(1j * angle * vals)) @ vecs.conj().T


def _polar_unitary(M, min_sv=1e-6):
    u, s, vh = svd(M)
    if s.min() < min_sv:
        raise DegenerateFactorError(
            f"conditional expectation nearly singular (min sv {s.min():.3e})"
        )
    return u @ vh, float(s.min())


def _strip_unitary(M, strip, n):
    """Polar part of E_strip(M) = m (x) 1, taken on the strip: polar(m (x) 1)
    is polar(m) (x) 1 with the same singular values, so only m is
    decomposed.  Returns the embedded unitary and the smallest singular
    value."""
    rest = [s for s in range(n) if s not in strip.sites]
    u, sv = _polar_unitary(trace_sites(M, rest, n) / 2 ** len(rest))
    return embed(u, strip.sites, n), sv


@dataclass
class FluxFactorization:
    flux: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    residual: float
    min_singular_value: float


def flux_unitary(Qbar_upper, geometry, angle=2.0 * math.pi):
    """W = e^{i angle Qbar_U} and its boundary factorization.

    The lower factor is the re-unitarized conditional expectation of W
    onto the lower boundary strip; the upper factor is then peeled off
    as the re-unitarized restriction of lower^dagger W to the upper
    strip, so the reported ||W - lower * upper||_inf residual measures
    only what no strip product can represent.  On very small tori the
    residual is O(1); it shrinks with the coupling and with growing
    separation between the cuts.
    """
    n = geometry.graph.n_sites
    W = _unitary_exponential(Qbar_upper, angle)
    lower, sv_low = _strip_unitary(W, geometry.lower_strip, n)
    upper, _ = _strip_unitary(lower.conj().T @ W, geometry.upper_strip, n)
    residual = schatten_norm(W - lower @ upper, np.inf)
    return FluxFactorization(W, lower, upper, residual, sv_low)


@dataclass
class TransportResult:
    operator: np.ndarray
    split_residual: float


def transport_operator(U, Q_right, geometry):
    """T = Hermitian part of E_left(U^dagger Q_R U - Q_R).

    The defect U^dagger Q_R U - Q_R concentrates near the two vertical
    cuts; `split_residual` measures what the two column strips miss.
    """
    n = geometry.graph.n_sites
    delta = U.conj().T @ Q_right @ U - Q_right
    left = conditional_expectation(delta, geometry.left_strip.sites, n)
    right = conditional_expectation(delta, geometry.right_strip.sites, n)
    residual = schatten_norm(delta - left - right, np.inf)
    T = (left + left.conj().T) / 2.0
    return TransportResult(T, residual)


@dataclass
class QuantizationResult:
    trace: float
    imag_defect: float
    nearest_integer: int
    residual: float


def quantization_check(split, T):
    """tr(P T) with its distance to the nearest integer."""
    V0 = split.patch_vectors()
    raw = complex(np.einsum("ij,jk,ki->", V0.conj().T, T, V0, optimize=True))
    trace = raw.real
    nearest = int(round(trace))
    return QuantizationResult(trace, abs(raw.imag), nearest, abs(trace - nearest))


@dataclass
class ZPhaseResult:
    operator: np.ndarray
    patch_commutator: float
    det_residual: float


def z_phase_operator(U, Qbar_right, geometry, phi, det_split=None):
    """Z(phi) = U^dagger e^{i phi Qbar_R} U e^{-i phi Qbar_R}.

    Reports ||[Z, P]||_inf and, using the left-strip factor of Z, the
    distance of its patch determinant from 1 (meaningful at phi = 2 pi).
    """
    n = geometry.graph.n_sites
    if det_split is None:
        raise ValueError("need a split for the patch diagnostics")
    E = _unitary_exponential(Qbar_right, phi)
    Z = U.conj().T @ E @ U @ E.conj().T
    P = det_split.projector
    comm = schatten_norm(Z @ P - P @ Z, np.inf)
    z_left, _ = _strip_unitary(Z, geometry.left_strip, n)
    V0 = det_split.patch_vectors()
    block = V0.conj().T @ z_left @ V0
    det_res = abs(np.linalg.det(block) - 1.0)
    return ZPhaseResult(Z, comm, det_res)


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
    conservation_defect: float
    strips_disjoint: bool


def qhe_point(geometry, phi, beta, rule, coupling=0.0, min_gap=1e-8):
    """Run the full transport pipeline for one model instance."""
    graph = geometry.graph
    Q_total = region_charge(graph, graph.sites())
    defect = charge_conservation_defect(phi, Q_total)
    if defect > 1e-10:
        raise AssumptionError(f"model is not charge conserving ({defect:.3e})")
    geometry.split_boundary_terms(
        phi, geometry.upper_half, geometry.lower_strip, geometry.upper_strip
    )
    geometry.split_boundary_terms(
        phi, geometry.right_half, geometry.left_strip, geometry.right_strip
    )

    sd = diagonalize(phi.hamiltonian(0.0))
    split = split_spectrum(sd, rule, min_gap=min_gap)
    Q_upper = region_charge(graph, geometry.upper_half)
    Q_right = region_charge(graph, geometry.right_half)

    Qbar = dressed_charge(sd, Q_upper, beta=beta)
    P = split.projector
    dressing_defect = commutator_norm(Qbar, P)
    bare_defect = commutator_norm(Q_upper, P)

    fact = flux_unitary(Qbar, geometry)
    trans = transport_operator(fact.lower, Q_right, geometry)
    quant = quantization_check(split, trans.operator)
    return QHEPoint(
        coupling=float(coupling),
        gap=split.gap,
        trace=quant.trace,
        nearest_integer=quant.nearest_integer,
        residual=quant.residual,
        factorization_residual=fact.residual,
        split_residual=trans.split_residual,
        dressing_defect=dressing_defect,
        bare_defect=bare_defect,
        conservation_defect=defect,
        strips_disjoint=geometry.strips_disjoint,
    )


def qhe_experiment(l, j_values, h=1.0, beta=None, strip_width=None, rule=None,
                   min_gap=1e-8, mapper=map):
    """Transport sweep over hopping strengths on an l x l torus.

    Each point builds the charge-conserving hopping model, dresses the
    half-torus charge at the given filter width (default l^{-1/2}),
    threads one flux quantum, and reports the ground-patch trace of the
    transported charge with its distance to the nearest integer.
    """
    geometry = ChargeGeometry(l, strip_width=strip_width)
    beta = float(l) ** -0.5 if beta is None else float(beta)
    rule = lowest_k(1) if rule is None else rule

    def one(j):
        phi = xy_charge(geometry.graph, j, h)
        return qhe_point(geometry, phi, beta, rule, coupling=j, min_gap=min_gap)

    return list(mapper(one, j_values))
