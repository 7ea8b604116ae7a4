import gc
import time
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cfgsentinel.graph import Cfg
from cfgsentinel.isomorphism import (SearchTimeout, _compile, _host_masks, deadline,
                                     is_subgraph, match_count)
from conftest import cycle_graph, path_graph, random_cfg, relabeled, tiny_cfg, transitive_dag
import oracles


def g(nodes, edges, entry=0, exits=None):
    ids = [i for i, _ in nodes]
    exits = exits if exits is not None else {ids[-1]}
    return Cfg(nodes=tuple(nodes), edges=frozenset(edges), entry=entry,
               exits=frozenset(exits))


class TestBasics:
    def test_single_node_label_match(self):
        p = g([(0, 2)], [])
        host = g([(0, 1), (1, 2), (2, 3)], [(0, 1), (1, 2)])
        assert is_subgraph(p, host)
        assert match_count(p, host) == 1

    def test_single_node_label_missing(self):
        p = g([(0, 9)], [])
        host = g([(0, 1), (1, 2)], [(0, 1)])
        assert not is_subgraph(p, host)
        assert match_count(p, host) == 0

    def test_direction_matters(self):
        p = g([(0, 0), (1, 0)], [(1, 0)], exits={0})
        host = g([(0, 0), (1, 0)], [(0, 1)])
        # arc 1->0 in pattern maps to some (a->b); host has only 0->1, and
        # the reversed assignment exists, so this IS a match by relabeling
        assert is_subgraph(p, host)
        # but a two-arc cycle is not contained in a one-arc host
        p2 = g([(0, 0), (1, 0)], [(0, 1), (1, 0)])
        assert not is_subgraph(p2, host)

    def test_self_loop_required(self):
        p = g([(0, 0)], [(0, 0)], exits={0})
        host_without = g([(0, 0), (1, 0)], [(0, 1)])
        host_with = g([(0, 0), (1, 0)], [(0, 1), (1, 1)])
        assert not is_subgraph(p, host_without)
        assert is_subgraph(p, host_with)

    def test_non_induced_semantics(self):
        # pattern path 0->1->2 embeds into a triangle even though the
        # triangle has an extra closing arc (monomorphism, not induced)
        p = path_graph((0, 0, 0))
        tri = g([(0, 0), (1, 0), (2, 0)], [(0, 1), (1, 2), (2, 0)])
        assert is_subgraph(p, tri)
        assert match_count(p, tri) == 3

    def test_injectivity(self):
        # 2-node pattern cannot map both nodes onto the single host node
        p = g([(0, 0), (1, 0)], [(0, 1)])
        host = g([(0, 0)], [(0, 0)], exits={0})
        assert not is_subgraph(p, host)

    def test_count_on_symmetric_host(self):
        # single arc pattern in a 4-cycle: 4 embeddings
        p = g([(0, 0), (1, 0)], [(0, 1)])
        cyc = g([(i, 0) for i in range(4)],
                [(i, (i + 1) % 4) for i in range(4)])
        assert match_count(p, cyc) == 4

    def test_limit_caps_count(self):
        p = g([(0, 0), (1, 0)], [(0, 1)])
        cyc = g([(i, 0) for i in range(4)],
                [(i, (i + 1) % 4) for i in range(4)])
        assert match_count(p, cyc, limit=2) == 2

    def test_limit_must_be_positive(self):
        p = g([(0, 0)], [])
        with pytest.raises(ValueError):
            match_count(p, p, limit=0)


class TestAgainstExhaustive:
    def test_random_pairs_agree(self, rng):
        agree = 0
        for _ in range(400):
            p = tiny_cfg(rng, max_nodes=4, n_labels=2)
            h = tiny_cfg(rng, max_nodes=7, n_labels=2)
            want = len(oracles.exhaustive_monomorphisms(p, h))
            got = match_count(p, h)
            assert got == want, (p, h)
            assert is_subgraph(p, h) == (want > 0)
            agree += 1
        assert agree == 400

    def test_pattern_always_found_in_itself(self, rng):
        for _ in range(60):
            p = tiny_cfg(rng, max_nodes=6, n_labels=3)
            assert is_subgraph(p, p)
            assert match_count(p, p) >= 1

    def test_monotone_under_host_extension(self, rng):
        # adding arcs to the host can only add embeddings
        for _ in range(60):
            p = tiny_cfg(rng, max_nodes=4, n_labels=2)
            h = random_cfg(rng, n_lo=4, n_hi=7, n_labels=2)
            base = match_count(p, h)
            ids = sorted(h.node_ids)
            extra = set(h.edges)
            for u in ids:
                for v in ids:
                    if u != v and (u, v) not in extra:
                        extra.add((u, v))
                        break
            h2 = Cfg(nodes=h.nodes, edges=frozenset(extra), entry=h.entry,
                     exits=h.exits)
            assert match_count(p, h2) >= base


def disjoint_union(*parts):
    """One graph made of the given graphs side by side (ids shifted)."""
    nodes, edges, exits, shift = [], set(), set(), 0
    for part in parts:
        nodes += [(i + shift, lab) for i, lab in part.nodes]
        edges |= {(u + shift, v + shift) for u, v in part.edges}
        exits |= {x + shift for x in part.exits}
        shift += max(part.node_ids) + 1
    return Cfg(nodes=tuple(nodes), edges=frozenset(edges), entry=0,
               exits=frozenset(exits))


class TestCompiledPlan:
    def test_disconnected_and_self_loop_patterns_agree(self, rng):
        unanchored = loops = 0
        for _ in range(300):
            p = disjoint_union(*(tiny_cfg(rng, max_nodes=3, n_labels=2)
                                 for _ in range(int(rng.integers(1, 4)))))
            h = tiny_cfg(rng, max_nodes=7, n_labels=2)
            plan = _compile(p.view)
            unanchored += any(not s.prior_out and not s.prior_in for s in plan[1:])
            loops += any(s.loop for s in plan)
            want = len(oracles.exhaustive_monomorphisms(p, h))
            assert match_count(p, h) == want, (p, h)
            assert is_subgraph(p, h) == (want > 0)
        # the sample exercises label-drawn candidates after position 0
        # and self-loop checks
        assert unanchored > 50 and loops > 50

    def test_pattern_reused_across_label_sets(self, rng):
        p = disjoint_union(tiny_cfg(rng, max_nodes=4, n_labels=3),
                           tiny_cfg(rng, max_nodes=2, n_labels=3))
        for _ in range(150):
            h = tiny_cfg(rng, max_nodes=7, n_labels=int(rng.integers(1, 5)))
            want = len(oracles.exhaustive_monomorphisms(p, h))
            assert is_subgraph(p, h) == (want > 0)
            assert match_count(p, h) == want
            assert match_count(p, h, limit=2) == min(want, 2)

    def test_plan_compiled_once_per_pattern(self):
        p = path_graph((0, 1))
        host = path_graph((0, 1, 0, 1))
        assert host.view.masks is None
        assert is_subgraph(p, host)
        plan = p.view.plan
        masks = host.view.masks
        assert plan is not None
        assert masks == _host_masks(host.view)
        assert match_count(p, host) == 2
        assert p.view.plan is plan
        assert host.view.masks is masks
        # a graph used only as a pattern never gets host bitsets
        assert p.view.masks is None

    def test_graphs_are_collected_once_dropped(self, rng):
        from cfgsentinel.features import extract_features

        p = path_graph((0, 0))
        h = random_cfg(rng, n_lo=5, n_hi=8, n_labels=1)
        assert is_subgraph(p, h)
        extract_features(h)
        refs = [weakref.ref(p), weakref.ref(h)]
        del p, h
        gc.collect()
        assert [r() for r in refs] == [None, None]


def _bits(positions) -> int:
    return sum(1 << k for k in positions)


class TestHostMasks:
    def test_fields(self):
        # positions 0, 1, 2 hold ids 3, 0, 5
        h = g([(3, 1), (0, 2), (5, 1)], [(3, 0), (0, 5), (5, 5)], entry=3, exits={5})
        assert _host_masks(h.view) == (
            (0b010, 0b100, 0b100), (0b000, 0b001, 0b110), 0b100,
            {(2, 1, 1): 0b101, (2, 2, 1): 0b010,
             (0, 2, 1): 0b001, (0, 1, 1): 0b110,
             (1, 1, 1): 0b110, (1, 2, 1): 0b100})

    def test_masks_count_neighbour_labels(self, rng):
        # every (direction, label, k) bit against a count per position;
        # hosts of 70 nodes or more have masks that span several int digits
        for n_lo, n_hi in ((1, 12), (70, 90)):
            for _ in range(20):
                h = relabeled(random_cfg(rng, n_lo=n_lo, n_hi=n_hi, p=3.0, n_labels=3,
                                         self_loops=True), rng, shuffle=True)
                v = h.view
                m = _host_masks(v)
                want = {}
                for k, lab in enumerate(v.labels):
                    want[2, lab, 1] = want.get((2, lab, 1), 0) | 1 << k
                    for d, nbrs in enumerate((v.succ[k], v.pred[k])):
                        for j in range(1, len(nbrs) + 1):
                            for other in set(v.labels):
                                if sum(v.labels[w] == other for w in nbrs) >= j:
                                    want[d, other, j] = want.get((d, other, j), 0) | 1 << k
                assert m.need == want
                assert m.succ == tuple(_bits(s) for s in v.succ)
                assert m.pred == tuple(_bits(s) for s in v.pred)
                assert m.loops == _bits(k for k in range(len(v.ids)) if k in v.succ[k])


def seeded_graph(rng, n_lo, n_hi, n_labels, p):
    """A random graph with 1 to n_labels labels and self-loops, not
    necessarily connected, with sparse ids in a shuffled document order."""
    n = int(rng.integers(n_lo, n_hi + 1))
    nodes = tuple((i, int(rng.integers(0, n_labels))) for i in range(n))
    edges = frozenset((u, v) for u in range(n) for v in range(n) if rng.random() < p / n)
    g = Cfg(nodes=nodes, edges=edges, entry=0, exits=frozenset({n - 1}))
    return relabeled(g, rng, shuffle=True)


def induced_piece(rng, host, size):
    """The subgraph of `host` on `size` random nodes, with some arcs dropped
    (so it is contained in the host), or with one label changed."""
    ids = [int(i) for i in rng.choice(host.node_ids, size=min(size, host.node_count), replace=False)]
    keep = set(ids)
    labels = host.labels
    nodes = tuple((i, labels[i]) for i in ids)
    if rng.random() < 0.3:
        nodes = ((ids[0], labels[ids[0]] + 1),) + nodes[1:]
    edges = frozenset(e for e in host.edges if e[0] in keep and e[1] in keep and rng.random() < 0.8)
    return Cfg(nodes=nodes, edges=edges, entry=ids[0], exits=frozenset({ids[-1]}))


SEEDS = st.integers(0, 2**32 - 1)


class TestBitsetSearchAgainstReferences:
    """The bitset search against the VF2 matcher it replaced and against
    exhaustive enumeration: limits 1, 2 and unbounded on small hosts, and
    1, 2 and 200 on hosts past 64 nodes, where an unbounded count of a
    sparse pattern runs into the millions."""

    @settings(derandomize=True, database=None, max_examples=600, deadline=None)
    @given(SEEDS)
    def test_small_random_graphs(self, seed):
        rng = np.random.default_rng(seed)
        n_labels = int(rng.integers(1, 4))
        p = seeded_graph(rng, 1, 5, n_labels, p=float(rng.choice([0.5, 1.5, 3.0])))
        h = seeded_graph(rng, 1, 9, n_labels, p=float(rng.choice([1.0, 2.5, 5.0])))
        want = len(oracles.exhaustive_monomorphisms(p, h))
        assert is_subgraph(p, h) == (want > 0)
        assert match_count(p, h) == want == oracles.vf2_match(p, h, 1_000_000)
        for limit in (1, 2):
            assert match_count(p, h, limit=limit) == min(want, limit) \
                == oracles.vf2_match(p, h, limit)

    @settings(derandomize=True, database=None, max_examples=60, deadline=None)
    @given(SEEDS)
    def test_hosts_past_64_nodes(self, seed):
        # masks of 65 to 100 positions span several int digits; the
        # patterns are pieces of the host, so most of them are found
        rng = np.random.default_rng(seed)
        n_labels = int(rng.integers(1, 4))
        h = seeded_graph(rng, 65, 100, n_labels, p=float(rng.choice([2.0, 4.0])))
        for size in (2, 4, 6):
            p = induced_piece(rng, h, size)
            for limit in (1, 2, 200):
                want = oracles.vf2_match(p, h, limit)
                assert match_count(p, h, limit=limit) == want
            assert is_subgraph(p, h) == (want > 0)
        p = induced_piece(rng, h, 3)
        want = len(oracles.exhaustive_monomorphisms(p, h, limit=50))
        assert match_count(p, h, limit=50) == want


class TestDeadline:
    def test_expired_deadline_stops_every_match(self):
        p, h = path_graph((0, 0)), path_graph((0, 0, 0))
        with deadline(-1.0):
            with pytest.raises(SearchTimeout):
                is_subgraph(p, h)
        assert is_subgraph(p, h)

    def test_deadline_holds_inside_one_search(self):
        # a cycle never embeds in a DAG, so the search is exhaustive: about
        # a second unbounded at 24 nodes
        t0 = time.monotonic()
        with deadline(0.05), pytest.raises(SearchTimeout):
            match_count(cycle_graph(10), transitive_dag(24))
        assert time.monotonic() - t0 < 0.55
        assert match_count(cycle_graph(4), transitive_dag(8)) == 0
