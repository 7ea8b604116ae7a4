import gc
import weakref

import pytest

from cfgsentinel.graph import Cfg
from cfgsentinel.isomorphism import _compile, is_subgraph, match_count
from conftest import path_graph, random_cfg, tiny_cfg
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
        assert is_subgraph(p, host)
        plan = p.view.plan
        assert plan is not None
        assert match_count(p, host) == 2
        assert p.view.plan is plan

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
