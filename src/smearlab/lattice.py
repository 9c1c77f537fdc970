"""Finite site graphs (chains, rings, square tori) and metric helpers.

All distances are graph distances.  Each graph carries a growth exponent D
and the smallest constant C_vol with |B_x(r)| <= C_vol * (r+1)**D for every
site x and radius r >= 0; together they feed the combinatorial constants
used by the decay bounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import SchemaError

__all__ = [
    "SiteGraph",
    "Region",
    "build_chain",
    "build_ring",
    "build_torus",
    "c_bk",
]


class SiteGraph:
    """Connected undirected graph with precomputed all-pairs distances.

    Parameters
    ----------
    n_sites : int
        Number of vertices, labelled 0..n_sites-1.
    edges : iterable of (int, int)
        Undirected edges.  Self loops and duplicates are rejected.
    growth_exponent : int
        Exponent D of the polynomial ball-volume bound (1 for chains and
        rings, 2 for square tori).
    label : str
        Human-readable tag used in logs and output files.
    """

    def __init__(self, n_sites, edges, growth_exponent, label=""):
        if n_sites < 1:
            raise ValueError("graph needs at least one site")
        if growth_exponent < 1:
            raise ValueError("growth exponent must be a positive integer")
        self.n_sites = int(n_sites)
        self.label = label or f"graph(n={n_sites})"
        self.D = int(growth_exponent)

        hop = np.eye(n_sites, dtype=bool)  # within one step
        for a, b in edges:
            a, b = int(a), int(b)
            if a == b:
                raise ValueError(f"self loop at site {a}")
            if not (0 <= a < n_sites and 0 <= b < n_sites):
                raise ValueError(f"edge ({a},{b}) out of range")
            hop[a, b] = hop[b, a] = True
        self.edges = [(int(a), int(b)) for a, b in np.argwhere(np.triu(hop, 1))]

        # breadth-first from all sites: d(x, y) counts radii r < n - 1 whose ball misses y
        self.dist, reached = np.zeros((n_sites, n_sites), dtype=np.int64), np.eye(n_sites, dtype=bool)
        for _ in range(n_sites - 1):
            self.dist += ~reached
            reached = reached @ hop
        if not reached.all():
            raise ValueError("graph is not connected")
        self.dist.setflags(write=False)
        self.diameter = int(self.dist.max())
        self.C_vol = self._minimal_volume_constant()

    def _minimal_volume_constant(self):
        # beyond the diameter the ball is the whole graph and the ratio
        # only shrinks, so radii 0..diameter are exhaustive
        best = 0.0
        for r in range(self.diameter + 1):
            counts = (self.dist <= r).sum(axis=1)
            best = max(best, counts.max() / (r + 1) ** self.D)
        return float(best)

    def sites(self):
        return range(self.n_sites)

    def distance(self, x, y):
        return int(self.dist[x, y])

    def ball(self, x, r):
        """Region of all sites within graph distance r of site x."""
        return Region(self, np.nonzero(self.dist[x] <= r)[0])

    def region(self, sites):
        return Region(self, sites)

    def fatten(self, X, k):
        """The k-fattening X_k: all sites within distance k of X."""
        sites = X.sites if isinstance(X, Region) else tuple(X)
        mask = (self.dist[list(sites)] <= k).any(axis=0)
        return Region(self, np.nonzero(mask)[0])

    def c_bk(self, b, k):
        """Graph-adapted constant dominating |Z|^k e^{-b diam Z}."""
        return c_bk(b, k, self.D, self.C_vol)

    def __repr__(self):
        return (
            f"SiteGraph({self.label}, n={self.n_sites}, D={self.D}, "
            f"C_vol={self.C_vol:g}, diam={self.diameter})"
        )


@dataclass(frozen=True)
class Region:
    """Subset of sites of a graph, with metric helpers."""

    graph: SiteGraph
    sites: tuple = ()

    def __init__(self, graph, sites):
        object.__setattr__(self, "graph", graph)
        uniq = sorted({int(s) for s in sites})
        if not uniq:
            raise ValueError("empty region")
        if uniq[0] < 0 or uniq[-1] >= graph.n_sites:
            raise ValueError("region site out of range")
        object.__setattr__(self, "sites", tuple(uniq))

    def __len__(self):
        return len(self.sites)

    def __contains__(self, x):
        return int(x) in self.sites

    def __iter__(self):
        return iter(self.sites)

    @property
    def diameter(self):
        idx = list(self.sites)
        return int(self.graph.dist[np.ix_(idx, idx)].max())

    def distance_to(self, other):
        """min over x in self, y in other of d(x, y); 0 if they intersect."""
        other_sites = other.sites if isinstance(other, Region) else tuple(other)
        block = self.graph.dist[np.ix_(list(self.sites), list(other_sites))]
        return int(block.min())

    def site_distance(self, x):
        return int(self.graph.dist[list(self.sites), x].min())

    def site_at(self, d):
        """The lowest-index site at graph distance d from the region; a
        SchemaError (a config asking for it is rejected) if there is none."""
        hits = np.nonzero(self.graph.dist[list(self.sites)].min(axis=0) == d)[0]
        if hits.size == 0:
            raise SchemaError(f"no site at distance {d} from sites {list(self.sites)}")
        return int(hits[0])


def build_chain(n):
    """Open chain of n sites, degree exponent D = 1."""
    return SiteGraph(n, [(i, i + 1) for i in range(n - 1)], 1, f"chain(n={n})")


def build_ring(n):
    """Periodic chain of n sites, degree exponent D = 1."""
    if n < 3:
        raise ValueError("ring needs at least three sites")
    edges = [(i, (i + 1) % n) for i in range(n)]
    return SiteGraph(n, edges, 1, f"ring(n={n})")


def build_torus(lx, ly=None):
    """lx-by-ly torus with site index x + lx*y, degree exponent D = 2."""
    ly = lx if ly is None else ly
    if lx < 3 or ly < 3:
        raise ValueError("torus needs side length at least three")
    edges = []
    for y in range(ly):
        for x in range(lx):
            i = x + lx * y
            edges.append((i, (x + 1) % lx + lx * y))
            edges.append((i, x + lx * ((y + 1) % ly)))
    return SiteGraph(lx * ly, edges, 2, f"torus({lx}x{ly})")


def c_bk(b, k, D, C_vol):
    """Upper bound for sup_Z |Z|^k e^{-b diam Z} on graphs with the given
    volume constant.

    For b <= D the bound C_vol^k (kD/e)^{kD} b^{-kD} e^b is used; for b > D
    the supremum sup_{n>=0} (n+1)^{kD} e^{-bn} (attained at
    n = max{0, kD/b - 1}) is evaluated on the integers 0..1000.
    """
    if b <= 0 or k <= 0:
        raise ValueError("b and k must be positive")
    kd = k * D
    if b <= D:
        return C_vol**k * (kd / math.e) ** kd * b ** (-kd) * math.exp(b)
    n = np.arange(1001)
    return C_vol**k * float(np.max((n + 1.0) ** kd * np.exp(-b * n)))
