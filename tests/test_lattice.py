"""Site graphs: metric oracle, ball volumes, regions, growth constants."""

import math

import numpy as np
import pytest

from smearlab import build_chain, build_ring, build_torus, c_bk
from smearlab.errors import SchemaError
from smearlab.lattice import Region, SiteGraph


def bfs_distances(n, edges, start):
    """Plain breadth-first search, independent of the scipy route."""
    adj = {i: [] for i in range(n)}
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)
    dist = {start: 0}
    frontier = [start]
    while frontier:
        nxt = []
        for x in frontier:
            for y in adj[x]:
                if y not in dist:
                    dist[y] = dist[x] + 1
                    nxt.append(y)
        frontier = nxt
    return dist


def test_chain_distances_match_bfs():
    g = build_chain(9)
    for start in range(9):
        dist = bfs_distances(9, g.edges, start)
        for y in range(9):
            assert g.distance(start, y) == dist[y] == abs(start - y)


def test_ring_distances_match_bfs():
    g = build_ring(10)
    for start in (0, 3, 7):
        dist = bfs_distances(10, g.edges, start)
        for y in range(10):
            assert g.distance(start, y) == dist[y]
    # periodic metric closed form
    assert g.distance(0, 7) == 3
    assert g.diameter == 5


def test_torus_distances_match_bfs():
    g = build_torus(4, 3)
    assert g.n_sites == 12
    for start in (0, 5, 11):
        dist = bfs_distances(12, g.edges, start)
        for y in range(12):
            assert g.distance(start, y) == dist[y]
    # wrap-around in both directions: site (x, y) = x + 4 y
    assert g.distance(0, 3) == 1
    assert g.distance(0, 8) == 1


def test_malformed_graphs_rejected():
    with pytest.raises(ValueError):
        SiteGraph(3, [(0, 0)], 1)
    with pytest.raises(ValueError):
        SiteGraph(3, [(0, 5)], 1)
    with pytest.raises(ValueError):
        SiteGraph(4, [(0, 1), (2, 3)], 1)  # disconnected
    with pytest.raises(ValueError):
        build_ring(2)
    with pytest.raises(ValueError):
        build_torus(2)


def test_volume_constant_is_minimal_and_dominates():
    # chain: |B_x(r)| <= 2r+1 <= 2(r+1), with equality for interior sites,
    # and C_vol = 1 cannot work beyond r = 0
    for g in (build_chain(8), build_ring(9), build_torus(3, 4)):
        for x in g.sites():
            for r in range(g.diameter + 1):
                ball = len(g.ball(x, r))
                assert ball <= g.C_vol * (r + 1) ** g.D + 1e-12
        # minimality: some (x, r) attains the constant
        attained = max(
            len(g.ball(x, r)) / (r + 1) ** g.D
            for x in g.sites()
            for r in range(g.diameter + 1)
        )
        assert attained == pytest.approx(g.C_vol)


def test_ball_region_membership():
    g = build_chain(7)
    ball = g.ball(3, 2)
    assert ball.sites == (1, 2, 3, 4, 5)
    assert 1 in ball and 0 not in ball
    assert ball.diameter == 4


def test_fatten_adds_metric_shell():
    g = build_ring(8)
    X = g.region([0])
    for k in range(4):
        Xk = g.fatten(X, k)
        expect = {s for s in g.sites() if g.distance(0, s) <= k}
        assert set(Xk.sites) == expect
    # fattening by the diameter covers everything
    assert set(g.fatten(X, g.diameter).sites) == set(g.sites())


def test_region_distance():
    g = build_chain(10)
    X = g.region([1, 2])
    Y = g.region([6, 7])
    assert X.distance_to(Y) == 4
    assert Y.distance_to(X) == 4
    assert X.distance_to(g.region([2, 9])) == 0
    assert X.site_distance(5) == 3
    with pytest.raises(ValueError):
        g.region([])


def test_site_at_picks_the_lowest_index_at_each_distance():
    g = build_ring(8)
    X = g.region([3, 4])
    for d in range(4):
        expect = min(x for x in g.sites() if X.site_distance(x) == d)
        assert X.site_at(d) == expect
    assert (X.site_at(0), X.site_at(1), X.site_at(3)) == (3, 2, 0)
    with pytest.raises(SchemaError, match=r"no site at distance 4 from sites \[3, 4\]"):
        X.site_at(4)


def test_c_bk_dominates_brute_force_regions():
    # the constant must dominate |Z|^k e^{-b diam Z} over every region Z;
    # sample random regions plus all balls
    rng = np.random.default_rng(3)
    for g in (build_chain(9), build_torus(3)):
        for b, k in ((0.5, 1.0), (1.0, 2.0), (2.5, 1.0)):
            bound = g.c_bk(b, k)
            regions = [g.ball(x, r) for x in g.sites() for r in range(g.diameter + 1)]
            for _ in range(40):
                size = rng.integers(1, g.n_sites + 1)
                sites = rng.choice(g.n_sites, size=size, replace=False)
                regions.append(g.region(sites))
            worst = max(len(Z) ** k * math.exp(-b * Z.diameter) for Z in regions)
            assert worst <= bound + 1e-9


def test_c_bk_large_b_regime_uses_integer_supremum():
    # for b > D the supremum over (n+1)^{kD} e^{-bn} sits at small n
    val = c_bk(3.0, 1.0, 1, 1.0)
    n = np.arange(200)
    brute = np.max((n + 1.0) ** 1 * np.exp(-3.0 * n))
    assert val == pytest.approx(brute)
    with pytest.raises(ValueError):
        c_bk(0.0, 1.0, 1, 1.0)
    with pytest.raises(ValueError):
        c_bk(1.0, -2.0, 1, 1.0)
