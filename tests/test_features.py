import hashlib
import math
import sys

import numpy as np
import pytest

from cfgsentinel.features import (
    FEATURE_COUNT,
    FEATURE_NAMES,
    betweenness_centrality,
    closeness_centrality,
    degree_centrality,
    density,
    extract_features,
    features_to_csv,
    shortest_path_lengths,
    summary_stats,
)
from cfgsentinel.graph import Cfg
from conftest import cycle_graph, path_graph, random_cfg, star_graph
import oracles


def feat(g):
    return dict(zip(FEATURE_NAMES, extract_features(g)))


class TestSummaryStats:
    def test_known_values(self):
        assert summary_stats([1, 2, 3, 4]) == (1, 4, 2.5, 2.5, math.sqrt(1.25))

    def test_single_value(self):
        assert summary_stats([7.0]) == (7.0, 7.0, 7.0, 7.0, 0.0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            summary_stats([])

    def test_against_naive(self, rng):
        for _ in range(200):
            vals = rng.normal(size=rng.integers(1, 30)).tolist()
            got = summary_stats(vals)
            want = oracles.naive_stats(vals)
            assert got == pytest.approx(want, abs=1e-12)


class TestDensity:
    def test_path(self):
        assert density(path_graph()) == pytest.approx(2 / 6)

    def test_single_node_zero(self):
        g = Cfg(nodes=((0, 0),), edges=frozenset(), entry=0, exits=frozenset({0}))
        assert density(g) == 0.0

    def test_complete_digraph_is_one(self):
        nodes = tuple((i, 0) for i in range(4))
        edges = frozenset((u, v) for u in range(4) for v in range(4) if u != v)
        g = Cfg(nodes=nodes, edges=edges, entry=0, exits=frozenset({3}))
        assert density(g) == 1.0


class TestDegree:
    def test_star(self):
        g = star_graph(3)
        deg = degree_centrality(g)
        assert deg[0] == pytest.approx(2.0)  # 3 out + 3 in over n-1=3
        for leaf in (1, 2, 3):
            assert deg[leaf] == pytest.approx(2 / 3)

    def test_self_loop_counts_once_per_direction(self):
        g = Cfg(nodes=((0, 0), (1, 0)), edges=frozenset({(0, 0), (0, 1)}),
                entry=0, exits=frozenset({1}))
        # node 0: out-degree 2 (loop + arc), in-degree 1 (loop) over n-1=1
        assert degree_centrality(g)[0] == pytest.approx(3.0)


class TestCloseness:
    def test_path_values(self):
        c = closeness_centrality(path_graph())
        assert c[0] == pytest.approx(2 / 3)
        assert c[1] == pytest.approx(1 / 2)
        assert c[2] == 0.0

    def test_against_naive(self, rng):
        for _ in range(120):
            g = random_cfg(rng, n_lo=1, n_hi=10)
            got = closeness_centrality(g)
            want = oracles.naive_closeness(g)
            for v in g.node_ids:
                assert got[v] == pytest.approx(want[v], abs=1e-12)


class TestBetweenness:
    def test_path_middle(self):
        b = betweenness_centrality(path_graph())
        assert b[1] == pytest.approx(0.5)
        assert b[0] == b[2] == 0.0

    def test_three_cycle(self):
        b = betweenness_centrality(cycle_graph(3))
        for v in range(3):
            assert b[v] == pytest.approx(0.5)

    def test_below_three_nodes_all_zero(self):
        g = Cfg(nodes=((0, 0), (1, 0)), edges=frozenset({(0, 1)}),
                entry=0, exits=frozenset({1}))
        assert betweenness_centrality(g) == {0: 0.0, 1: 0.0}


class TestShortestPaths:
    def test_path_multiset(self):
        assert sorted(shortest_path_lengths(path_graph())) == [1, 1, 2]

    def test_against_floyd_warshall(self, rng):
        for _ in range(120):
            g = random_cfg(rng, n_lo=1, n_hi=10)
            want = sorted(oracles.floyd_warshall(g).values())
            got = sorted(shortest_path_lengths(g))
            assert got == want


class TestExtractFeatures:
    def test_shape_and_names(self):
        v = extract_features(path_graph())
        assert v.shape == (FEATURE_COUNT,)
        assert v.dtype == np.float64
        assert len(FEATURE_NAMES) == FEATURE_COUNT == 23

    def test_path_graph_values(self):
        d = feat(path_graph())
        assert d["betweenness_max"] == pytest.approx(0.5)
        assert d["closeness_max"] == pytest.approx(2 / 3)
        assert d["degree_mean"] == pytest.approx((1 + 2 + 1) / 2 / 3)
        assert d["shortest_path_median"] == 1.0
        assert d["shortest_path_std"] == pytest.approx(math.sqrt(2) / 3)
        assert d["density"] == pytest.approx(1 / 3)
        assert d["edge_count"] == 2.0
        assert d["node_count"] == 3.0

    def test_isolated_single_node(self):
        g = Cfg(nodes=((5, 0),), edges=frozenset(), entry=5, exits=frozenset({5}))
        v = extract_features(g)
        assert np.all(np.isfinite(v))
        d = dict(zip(FEATURE_NAMES, v))
        assert d["node_count"] == 1.0
        assert d["edge_count"] == 0.0
        assert d["shortest_path_max"] == 0.0  # no finite pair distances

    def test_no_finite_paths_graph(self):
        # two isolated nodes joined by nothing but validity: use an edgeless
        # pair via self-loop-only node to keep exits legal
        g = Cfg(nodes=((0, 0), (1, 0)), edges=frozenset({(1, 1)}),
                entry=0, exits=frozenset({0}))
        v = extract_features(g)
        assert np.all(np.isfinite(v))

    def test_always_finite_on_random_graphs(self, rng):
        for _ in range(150):
            g = random_cfg(rng, n_lo=1, n_hi=12, self_loops=True)
            v = extract_features(g)
            assert v.shape == (23,)
            assert np.all(np.isfinite(v))

    def test_node_relabeling_invariance(self, rng):
        # structural features must not depend on node ids
        for _ in range(40):
            g = random_cfg(rng, n_lo=2, n_hi=9)
            perm = rng.permutation(g.node_count)
            ren = {old: int(perm[i]) for i, old in enumerate(sorted(g.node_ids))}
            g2 = Cfg(
                nodes=tuple((ren[i], lab) for i, lab in g.nodes),
                edges=frozenset((ren[u], ren[v]) for (u, v) in g.edges),
                entry=ren[g.entry],
                exits=frozenset(ren[x] for x in g.exits),
            )
            assert extract_features(g) == pytest.approx(extract_features(g2))


    @pytest.mark.skipif(sys.version_info < (3, 11),
                        reason="statistics.pstdev rounds differently before 3.11")
    def test_golden_digest(self):
        # sha256 of the feature bytes of 40 seeded graphs (with and without
        # self-loops), recorded before the single-pass rewrite: the vectors
        # must stay bit-identical
        rng = np.random.default_rng(20240817)
        h = hashlib.sha256()
        for k in range(40):
            g = random_cfg(rng, n_lo=1, n_hi=30, p=1.5, n_labels=4, self_loops=bool(k % 2))
            h.update(extract_features(g).tobytes())
        assert h.hexdigest() == (
            "564b667309127833aa8e973f7fb24434089371c561ccea30e065ad60a24ca9da")


class TestCsv:
    def test_header_and_rows(self):
        rows = [("a", extract_features(path_graph()))]
        text = features_to_csv(rows)
        lines = text.strip().split("\n")
        assert lines[0] == "id," + ",".join(FEATURE_NAMES)
        assert lines[1].startswith("a,")
        assert len(lines[1].split(",")) == 24

    def test_round_trip_precision(self):
        v = extract_features(cycle_graph(5))
        text = features_to_csv([("x", v)])
        cells = text.strip().split("\n")[1].split(",")[1:]
        back = np.array([float(c) for c in cells])
        assert np.array_equal(back, v)
