import hashlib
import math
import statistics
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cfgsentinel.features import (
    FEATURE_COUNT,
    FEATURE_NAMES,
    _count_stats,
    _shortest_paths,
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
from conftest import cycle_graph, diamond_ladder, path_graph, random_cfg, star_graph
import oracles


def bits(floats):
    """Each float as its exact hex form, so -0.0 and 0.0 differ."""
    return [float(x).hex() for x in floats]


# Lists of ints, floats of magnitude 1e-300 to 1e300, subnormals and zeros of
# either sign, each list redrawn from its own values so values repeat.
_MAGNITUDES = st.floats(1e-300, 1e300)
_NUMBERS = (st.integers(-10**6, 10**6) | _MAGNITUDES | _MAGNITUDES.map(float.__neg__)
            | st.floats(-2.2250738585072014e-308, 2.2250738585072014e-308)
            | st.sampled_from([0.0, -0.0, 5e-324, -5e-324]))
REPEATED_NUMBERS = st.lists(_NUMBERS, min_size=1, max_size=12).flatmap(
    lambda pool: st.lists(st.sampled_from(pool), min_size=1, max_size=24))


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

    @settings(deadline=None, max_examples=300, derandomize=True, database=None)
    @given(REPEATED_NUMBERS)
    def test_median_and_mean_match_statistics(self, values):
        vs = [float(v) for v in values]
        got = summary_stats(values)
        assert bits(got) == bits((min(vs), max(vs), statistics.median(vs),
                                  statistics.fmean(vs), got[4]))

    @pytest.mark.skipif(sys.version_info < (3, 11),
                        reason="statistics.pstdev is correctly rounded from 3.11 on")
    @settings(deadline=None, max_examples=300, derandomize=True, database=None)
    @given(REPEATED_NUMBERS)
    def test_std_matches_pstdev(self, values):
        want = statistics.pstdev([float(v) for v in values])
        assert summary_stats(values)[4].hex() == want.hex()


class TestCountStats:
    @settings(deadline=None, max_examples=200, derandomize=True, database=None)
    @given(st.lists(st.integers(0, 40) | st.integers(0, 2000), min_size=1, max_size=20)
           .filter(any))
    def test_matches_summary_stats_of_the_expanded_values(self, counts):
        expanded = [k for k, c in enumerate(counts) for _ in range(c)]
        assert bits(_count_stats(counts)) == bits(summary_stats(expanded))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            _count_stats([0, 0])


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


def layered_cfg(rng, self_loops):
    """Random layers with dense arcs between neighbouring layers, plus a few
    back arcs: many shortest paths of equal length between two nodes."""
    sizes = rng.integers(1, 5, size=int(rng.integers(2, 7)))
    layers, n = [], 0
    for size in sizes:
        layers.append(range(n, n + int(size)))
        n += int(size)
    edges = set()
    for a, b in zip(layers, layers[1:]):
        for u in a:
            edges.add((u, int(rng.choice(b))))
            edges.update((u, v) for v in b if rng.random() < 0.7)
    for _ in range(int(rng.integers(0, 3))):
        edges.add((int(rng.integers(0, n)), int(rng.integers(0, n))))
    if not self_loops:
        edges = {(u, v) for u, v in edges if u != v}
    nodes = tuple((i, int(rng.integers(0, 3))) for i in range(n))
    return Cfg(nodes=nodes, edges=frozenset(edges), entry=0, exits=frozenset({n - 1}))


class TestBrandesWithoutPredecessorLists:
    def test_matches_predecessor_list_pass_bit_for_bit(self, rng):
        for k in range(300):
            if k % 3:
                g = layered_cfg(rng, self_loops=bool(k % 2))
            else:
                g = random_cfg(rng, n_lo=1, n_hi=25, p=2.5, self_loops=bool(k % 2))
            got = _shortest_paths(g)
            betweenness, closeness, lengths = oracles.brandes_with_preds(g)
            assert bits(got.betweenness.values()) == bits(betweenness.values())
            assert bits(got.closeness.values()) == bits(closeness.values())
            assert shortest_path_lengths(g) == sorted(lengths)

    def test_layered_graphs_have_ties(self, rng):
        # the graphs above do exercise many shortest paths per pair
        g = layered_cfg(np.random.default_rng(3), self_loops=True)
        assert max(oracles.brute_betweenness(g).values()) > 0
        assert any(len(v) > 1 for v in g.view.pred)


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

    def test_exact_path_counts_past_float_range(self):
        # 2**1030 shortest paths overflow a float count.  Junction 3j cuts
        # every path from the 3j nodes before it to the 3(k - j) after it,
        # so the middle junction's betweenness is 9 (k/2)**2 over the
        # normalization (n - 1)(n - 2).
        k = 1030
        v = feat(diamond_ladder(k))
        assert all(math.isfinite(x) for x in v.values())
        assert v["betweenness_max"] == 9 * (k // 2) ** 2 / (3 * k * (3 * k - 1))
        assert (v["node_count"], v["edge_count"]) == (3 * k + 1, 4 * k)

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
