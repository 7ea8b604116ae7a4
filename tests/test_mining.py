import hashlib
import json
import tempfile
import time
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cfgsentinel import mining
from cfgsentinel.fhmc import RankingError
from cfgsentinel.graph import Cfg, GraphError, LabeledSample, SampleClass, graph_doc
from cfgsentinel.mining import (
    MiningError,
    Pattern,
    _is_min,
    _mine,
    canonical_dfs_code,
    code_to_graph,
    code_to_string,
    cork_quality,
    cork_upper_bound,
    gspan_mine,
    read_patterns,
    select_discriminative,
    string_to_code,
    write_patterns,
)
from conftest import as_samples, cycle_graph, path_graph, random_cfg, tiny_cfg
from fuzz import FUZZ, documents
import oracles


def g(nodes, edges, entry=0, exits=None):
    ids = [i for i, _ in nodes]
    exits = exits if exits is not None else {ids[-1]}
    return Cfg(nodes=tuple(nodes), edges=frozenset(edges), entry=entry,
               exits=frozenset(exits))


class TestCanonicalCode:
    def test_relabeling_invariance(self, rng):
        for _ in range(150):
            a = tiny_cfg(rng, max_nodes=5, n_labels=2)
            ids = sorted(a.node_ids)
            perm = rng.permutation(len(ids))
            ren = {ids[i]: int(perm[i]) for i in range(len(ids))}
            b = Cfg(
                nodes=tuple((ren[i], lab) for i, lab in a.nodes),
                edges=frozenset((ren[u], ren[v]) for (u, v) in a.edges),
                entry=ren[a.entry],
                exits=frozenset(ren[x] for x in a.exits),
            )
            assert canonical_dfs_code(a) == canonical_dfs_code(b)

    def test_distinguishes_iso_classes(self, rng):
        # graphs with different oracle iso-keys must get different codes
        seen = {}
        for _ in range(150):
            a = tiny_cfg(rng, max_nodes=4, n_labels=2)
            key = oracles.iso_key(dict(a.nodes), set(a.edges))
            code = canonical_dfs_code(a)
            if key in seen:
                assert seen[key] == code
            else:
                for k2, c2 in seen.items():
                    assert c2 != code or k2 == key
                seen[key] = code

    def test_disconnected_rejected(self):
        bad = g([(0, 0), (1, 0), (2, 0)], [(0, 1)], exits={1, 2})
        with pytest.raises(MiningError):
            canonical_dfs_code(bad)

    def test_code_graph_round_trip(self, rng):
        for _ in range(100):
            a = tiny_cfg(rng, max_nodes=5, n_labels=3)
            code = canonical_dfs_code(a)
            back = code_to_graph(code)
            assert canonical_dfs_code(back) == code

    def test_string_round_trip(self, rng):
        for _ in range(50):
            a = tiny_cfg(rng, max_nodes=5, n_labels=3)
            code = canonical_dfs_code(a)
            assert string_to_code(code_to_string(code)) == code

    def test_single_vertex_code(self):
        lone = g([(3, 7)], [], entry=3, exits={3})
        code = canonical_dfs_code(lone)
        assert code == ((0, 0, 7, -1, 7),)

    def test_self_loop_code(self):
        loop = g([(0, 1)], [(0, 0)], exits={0})
        code = canonical_dfs_code(loop)
        assert code == ((0, 0, 1, 0, 1),)


class TestGspanAgainstBruteForce:
    def corpus(self, rng, n_graphs, max_nodes):
        return [tiny_cfg(rng, max_nodes=max_nodes, n_labels=2)
                for _ in range(n_graphs)]

    @pytest.mark.parametrize("seed", range(6))
    def test_frequent_sets_match(self, seed):
        rng = np.random.default_rng(seed + 7000)
        graphs = self.corpus(rng, n_graphs=int(rng.integers(3, 7)), max_nodes=5)
        min_sup = int(rng.integers(2, len(graphs) + 1))
        mined = gspan_mine(as_samples(graphs), min_support=min_sup, min_nodes=1, max_nodes=4)
        want = oracles.brute_force_mine(graphs, min_sup, 1, 4)

        got = {}
        for p in mined:
            pg = p.graph
            key = oracles.iso_key(dict(pg.nodes), set(pg.edges))
            assert key not in got, "duplicate pattern emitted"
            got[key] = p.total_support
        assert got == want

    def test_support_counts_each_graph_once(self):
        # a graph with the pattern twice still contributes support 1
        host = g([(0, 1), (1, 2), (2, 1), (3, 2)],
                 [(0, 1), (0, 2), (2, 3)], exits={1, 3})
        mined = gspan_mine(as_samples([host, host]), min_support=2, min_nodes=2, max_nodes=2)
        for p in mined:
            assert p.total_support == 2

    def test_size_band_respected(self, rng):
        graphs = self.corpus(rng, 4, 6)
        for p in gspan_mine(as_samples(graphs), 2, min_nodes=2, max_nodes=3):
            assert 2 <= p.node_count <= 3

    def test_per_class_support(self):
        a = path_graph((1, 1))
        b = path_graph((1, 1))
        c = path_graph((2, 2))
        samples = as_samples([a, b, c], ["FamilyA", "FamilyA", "FamilyB"], ["a", "b", "c"])
        pats = gspan_mine(samples, min_support=1, min_nodes=2, max_nodes=2)
        by_code = {p.code: p for p in pats}
        edge11 = canonical_dfs_code(a)
        assert by_code[edge11].support == {"FamilyA": 2}
        assert by_code[edge11].supporting_ids == {"FamilyA": frozenset({"a", "b"})}

    def test_support_counts_graphs_not_ids(self):
        # two graphs under one sample id are two graphs of support
        pats = gspan_mine(as_samples([path_graph((1, 1)), path_graph((1, 1))], ids=["a", "a"]),
                          min_support=2, min_nodes=2, max_nodes=2)
        assert [(p.support, p.supporting_ids) for p in pats] == [
            ({"Benign": 2}, {"Benign": frozenset({"a"})})]

    def test_max_nodes_1_mines_no_arc(self):
        # an arc's two vertices are over the band, a self-loop's one is not
        rng = np.random.default_rng(7100)
        graphs = [random_cfg(rng, n_lo=2, n_hi=5, p=2.0, n_labels=2, self_loops=True)
                  for _ in range(5)]
        got = {oracles.iso_key(dict(p.graph.nodes), set(p.graph.edges)): p.total_support
               for p in gspan_mine(as_samples(graphs), min_support=2, min_nodes=1, max_nodes=1)}
        assert got == oracles.brute_force_mine(graphs, 2, 1, 1)
        assert any(p.graph.edges for p in gspan_mine(as_samples(graphs), 2, 1, 1))

    def test_bad_params_rejected(self):
        with pytest.raises(MiningError):
            gspan_mine(as_samples([path_graph()]), min_support=0, min_nodes=1, max_nodes=3)
        with pytest.raises(MiningError):
            gspan_mine(as_samples([path_graph()]), min_support=1, min_nodes=4, max_nodes=3)
        with pytest.raises(MiningError):
            gspan_mine([], min_support=1, min_nodes=1, max_nodes=3)


class TestCork:
    def test_documented_examples(self):
        assert cork_quality(3, 0, 3, 2) == 0
        assert cork_quality(0, 2, 3, 2) == 0
        assert cork_quality(2, 1, 3, 2) == -3

    def test_zero_iff_perfect_separation(self):
        for a in range(4):
            for b in range(3):
                q = cork_quality(a, b, 3, 2)
                perfect = (a == 3 and b == 0) or (a == 0 and b == 2)
                # q == 0 requires one side fully hit and the other untouched
                if perfect:
                    assert q == 0
                else:
                    assert q < 0

    def test_bounds_validated(self):
        with pytest.raises(ValueError):
            cork_quality(4, 0, 3, 2)
        with pytest.raises(ValueError):
            cork_quality(-1, 0, 3, 2)

    def test_upper_bound_dominates_refinements(self, rng):
        # ub(a, b) must be >= quality of every refinement (a' <= a, b' <= b):
        # refinements only lose embeddings
        for _ in range(300):
            A, B = int(rng.integers(1, 8)), int(rng.integers(1, 8))
            a, b = int(rng.integers(0, A + 1)), int(rng.integers(0, B + 1))
            ub = cork_upper_bound(a, b, A, B)
            for a2 in range(a + 1):
                for b2 in range(b + 1):
                    assert ub >= cork_quality(a2, b2, A, B)


class TestSelectDiscriminative:
    def build_samples(self):
        # target class shares a marker edge (1->1 with labels 1,1); the
        # other class lacks it
        tgt = [
            LabeledSample(id=f"t{i}", cfg=g([(0, 1), (1, 1), (2, 0)],
                                            [(0, 1), (1, 2)]),
                          cls=SampleClass.FAMILY_A)
            for i in range(3)
        ]
        other = [
            LabeledSample(id=f"o{i}", cfg=g([(0, 0), (1, 2)], [(0, 1)]),
                          cls=SampleClass.BENIGN)
            for i in range(2)
        ]
        return tgt + other

    def test_perfect_marker_scores_zero(self):
        samples = self.build_samples()
        pats = select_discriminative(samples, SampleClass.FAMILY_A,
                                     min_support=3, min_nodes=2, max_nodes=3)
        assert pats, "no patterns found"
        assert pats[0].quality == 0
        marker = canonical_dfs_code(g([(0, 1), (1, 1)], [(0, 1)]))
        assert any(p.code == marker and p.quality == 0 for p in pats)

    def test_pruned_equals_unpruned(self, rng):
        # top-k pruning must not change the selected set
        for seed in range(4):
            r = np.random.default_rng(seed + 9100)
            samples = []
            for i in range(4):
                samples.append(LabeledSample(
                    id=f"p{i}", cfg=tiny_cfg(r, max_nodes=5, n_labels=2),
                    cls=SampleClass.FAMILY_A))
            for i in range(4):
                samples.append(LabeledSample(
                    id=f"n{i}", cfg=tiny_cfg(r, max_nodes=5, n_labels=2),
                    cls=SampleClass.BENIGN))
            full = select_discriminative(samples, SampleClass.FAMILY_A,
                                         min_support=2, min_nodes=1,
                                         max_nodes=4, top_k=None)
            pruned = select_discriminative(samples, SampleClass.FAMILY_A,
                                           min_support=2, min_nodes=1,
                                           max_nodes=4, top_k=5)
            assert [(p.code, p.quality) for p in pruned] == \
                   [(p.code, p.quality) for p in full[:5]]

    def test_quality_order(self):
        samples = self.build_samples()
        pats = select_discriminative(samples, SampleClass.FAMILY_A,
                                     min_support=2, min_nodes=1, max_nodes=3)
        quals = [p.quality for p in pats]
        assert quals == sorted(quals, reverse=True)


def _cut(pool, k: int, per_size: bool):
    """The uncapped pool cut the way `top_k` cuts it: its first k, or the
    first k of each node count in ascending node count."""
    if not per_size:
        return pool[:k]
    by_size: dict[int, list] = {}
    for p in pool:
        by_size.setdefault(p.node_count, []).append(p)
    return [p for n in sorted(by_size) for p in by_size[n][:k]]


@settings(derandomize=True, database=None, max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_hooks_get_the_ascending_graphs_that_hold_a_frequent_code(seed):
    # support counts only the `counted` graphs, the hooks get all that hold the code
    rng = np.random.default_rng(seed)
    graphs = [random_cfg(rng, n_lo=2, n_hi=6, p=1.5, n_labels=2, self_loops=True)
              for _ in range(int(rng.integers(3, 7)))]
    counted = [True] + [bool(rng.integers(0, 2)) for _ in graphs[1:]]
    min_support = int(rng.integers(1, sum(counted) + 1))
    calls = []

    def hook(kind):
        def record(code, held):
            calls.append((kind, code, held))
            return False  # prune nothing
        return record

    _mine(graphs, counted, min_support, 1, 4, report=hook("report"), prune=hook("prune"))
    keys = [set(oracles.brute_force_mine([h], 1, 1, 4)) for h in graphs]
    reported = {}
    for kind, code, held in calls:
        pattern = code_to_graph(code)
        key = oracles.iso_key(dict(pattern.nodes), set(pattern.edges))
        assert held == [gi for gi, k in enumerate(keys) if key in k]
        assert sum(counted[gi] for gi in held) >= min_support
        if kind == "report":
            reported[key] = sum(counted[gi] for gi in held)
    assert [kind for kind, _, _ in calls].count("prune") == len(reported)
    assert reported == oracles.brute_force_mine(
        [h for h, c in zip(graphs, counted) if c], min_support, 1, 4)


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_top_k_matches_cut_pool_and_prunes_by_the_rule(seed):
    # one or few labels make qualities tie, so the prune must break ties by
    # node count and code; min_nodes 2 and 3 give codes below the band
    rng = np.random.default_rng(seed)
    n_labels = int(rng.integers(1, 4))
    graphs = [random_cfg(rng, n_lo=2, n_hi=6, p=float(rng.choice([1.0, 2.0])),
                         n_labels=n_labels, self_loops=True)
              for _ in range(int(rng.integers(4, 8)))]
    classes = ["Benign"] + [str(rng.choice(["Benign", "FamilyA"])) for _ in graphs[1:]]
    samples = [LabeledSample(id=f"s{i}", cfg=c, cls=SampleClass.from_string(cls))
               for i, (c, cls) in enumerate(zip(graphs, classes))]
    min_nodes, max_nodes = int(rng.integers(1, 4)), 4
    pos = classes.count("Benign")
    events = []

    def record(kind, score):
        def hook(code, held):
            a = sum(classes[gi] == "Benign" for gi in held)
            events.append((kind, code, score(a, len(held) - a, pos, len(classes) - pos)))
        return hook

    # the uncapped search, in order: its bound at each visit, its reports
    _mine(graphs, [c == "Benign" for c in classes], 2, min_nodes, max_nodes,
          report=record("report", cork_quality), prune=record("visit", cork_upper_bound))
    pool = select_discriminative(samples, "Benign", 2, min_nodes, max_nodes)
    visits = []

    def recording(*args, prune, **kwargs):  # logs each code the capped prune is asked about
        def logged(code, held):
            visits.append(code)
            return prune(code, held)
        _mine(*args, prune=logged, **kwargs)

    for k in (1, 2, 3, 5):
        for per_size in (False, True):
            visits.clear()
            with mock.patch.object(mining, "_mine", recording):
                got = select_discriminative(samples, "Benign", 2, min_nodes, max_nodes,
                                            top_k=k, per_size=per_size)
            want = _cut(pool, k, per_size)
            assert [(p.code, p.quality, p.support) for p in got] == \
                   [(p.code, p.quality, p.support) for p in want]
            assert visits == oracles.top_k_search_visits(
                events, k, per_size, min_nodes, max_nodes)


def test_per_size_prune_cost_does_not_grow_with_max_nodes():
    # no pattern outgrows the largest graph, so a max_nodes far above it
    # must give the same patterns at about the same cost
    rng = np.random.default_rng(7)
    graphs = [random_cfg(rng, n_lo=6, n_hi=20, p=0.3, n_labels=2) for _ in range(12)]
    samples = as_samples(graphs, ["Benign", "FamilyA"] * 6)
    largest = max(g.node_count for g in graphs)
    want = select_discriminative(samples, "FamilyA", 2, 3, largest, top_k=2, per_size=True)
    t0 = time.process_time()
    got = select_discriminative(samples, "FamilyA", 2, 3, 10**6, top_k=2, per_size=True)
    assert time.process_time() - t0 < 3.0
    assert [(p.code, p.quality, p.support) for p in got] == \
           [(p.code, p.quality, p.support) for p in want]
    assert len(want) > 2


class TestPatternIO:
    def test_round_trip(self, rng):
        graphs = [tiny_cfg(rng, max_nodes=5, n_labels=2) for _ in range(4)]
        pats = gspan_mine(as_samples(graphs), min_support=2, min_nodes=1, max_nodes=3)
        if not pats:
            pytest.skip("empty mine on this seed")
        path_ = None
        import tempfile, pathlib
        with tempfile.TemporaryDirectory() as d:
            path_ = pathlib.Path(d) / "p.json"
            write_patterns(pats, path_)
            back = read_patterns(path_)
            assert [p.code for p in back] == [p.code for p in pats]
            assert [dict(p.support) for p in back] == [dict(p.support) for p in pats]


    def test_pattern_derives_count_and_graph_from_code(self):
        p = Pattern(code=canonical_dfs_code(path_graph((2, 1, 0))), support={"all": 1})
        assert p.node_count == 3
        assert p.graph is p.graph  # built once, on first use
        assert canonical_dfs_code(p.graph) == p.code
        assert "graph" not in Pattern.__dataclass_fields__
        assert "node_count" not in Pattern.__dataclass_fields__

    def test_mining_builds_no_graph(self):
        pats = gspan_mine(as_samples([path_graph((0, 1, 0)), cycle_graph(3)]), 1, 1, 3)
        assert pats and not any("graph" in vars(p) for p in pats)


def _written(patterns) -> dict:
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "p.json"
        write_patterns(patterns, path)
        return json.loads(path.read_text())


# Entries: the single vertex, the arc 0,1,0,0,0, the 3-path and the 3-cycle.
GOOD_PATTERN_DOC = _written(
    gspan_mine(as_samples([path_graph((0, 0, 0)), cycle_graph(3)]), 1, 1, 3))


def _arc(**fields):
    """GOOD_PATTERN_DOC's text with fields of its arc entry replaced (None:
    removed)."""
    doc = json.loads(json.dumps(GOOD_PATTERN_DOC))
    entry = doc["patterns"][1]
    for k, v in fields.items():
        if v is None:
            del entry[k]
        else:
            entry[k] = v
    return json.dumps(doc)


_ONE_NODE_GRAPH = {"nodes": [{"id": 0, "label": 5}], "edges": [], "entry": 0, "exits": [0]}

# Text of pattern files that read_patterns must reject with MiningError.
MALFORMED_PATTERN_FILES = {
    "not_json": "{not json",
    "no_patterns_key": json.dumps({"x": 1}),
    "a_list": json.dumps([]),
    "patterns_object": json.dumps({"patterns": {}}),
    "entry_not_object": json.dumps({"patterns": [5]}),
    "no_dfs_code": _arc(dfs_code=None),
    "code_not_str": _arc(dfs_code=5),
    "code_letters": _arc(dfs_code="zz"),
    "code_empty": _arc(dfs_code=""),
    "code_four_fields": _arc(dfs_code="0,1,0,0"),
    "code_index_gap": _arc(dfs_code="0,5,0,0,0"),
    "code_not_canonical": _arc(dfs_code="0,1,0,1,0"),
    "code_disconnected": _arc(dfs_code="0,1,0,0,0;2,3,0,0,0", node_count=4),
    "code_negative_label": _arc(dfs_code="0,0,-1,-1,-1", node_count=1),
    "node_count_wrong": _arc(node_count=3),
    "node_count_str": _arc(node_count="2"),
    "node_count_missing": _arc(node_count=None),
    "support_list": _arc(support=[2]),
    "support_float": _arc(support={"all": 1.5}),
    "support_negative": _arc(support={"all": -1}),
    "support_bool": _arc(support={"all": True}),
    "quality_str": _arc(quality="0"),
    "quality_bool": _arc(quality=False),
    # a two-node code stored with a one-node graph and node count
    "graph_and_count_of_other_pattern": _arc(graph=_ONE_NODE_GRAPH, node_count=1),
    "graph_of_other_pattern": _arc(graph=_ONE_NODE_GRAPH),
    "graph_float_entry": _arc(graph=dict(GOOD_PATTERN_DOC["patterns"][1]["graph"], entry=0.0)),
    "graph_missing": _arc(graph=None),
}


class TestPatternFileChecks:
    def test_good_file_loads(self, tmp_path):
        path = tmp_path / "p.json"
        path.write_text(json.dumps(GOOD_PATTERN_DOC))
        pats = read_patterns(path)
        assert [code_to_string(p.code) for p in pats] == [
            e["dfs_code"] for e in GOOD_PATTERN_DOC["patterns"]]
        assert [graph_doc(p.graph) for p in pats] == [
            e["graph"] for e in GOOD_PATTERN_DOC["patterns"]]

    @pytest.mark.parametrize("defect", sorted(MALFORMED_PATTERN_FILES))
    def test_defect_rejected(self, tmp_path, defect):
        path = tmp_path / "p.json"
        path.write_text(MALFORMED_PATTERN_FILES[defect])
        with pytest.raises(MiningError):
            read_patterns(path)

    def test_code_graph_mismatch_rejected(self, tmp_path):
        # the stored graph and node count describe a one-node pattern, the
        # code a two-node arc: SGEA would inject one while ordering by the other
        path = tmp_path / "p.json"
        path.write_text(MALFORMED_PATTERN_FILES["graph_and_count_of_other_pattern"])
        with pytest.raises(MiningError, match="pattern 1"):
            read_patterns(path)

    def test_string_to_code_rejects_non_integers(self):
        for text in ("zz", "", "0,1,0,0,x", "0,1,0,0,0;"):
            with pytest.raises(MiningError):
                string_to_code(text)

    def test_code_to_graph_rejects_index_gaps(self):
        for text in ("0,5,0,0,0", "0,1,0,0,0;1,3,0,0,0", "1,1,0,-1,0"):
            with pytest.raises(MiningError):
                code_to_graph(string_to_code(text))


@FUZZ
@given(doc=documents(GOOD_PATTERN_DOC))
def test_read_patterns_loads_or_raises_typed_error(doc):
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "p.json"
        path.write_text(json.dumps(doc))
        try:
            pats = read_patterns(path)
        except (MiningError, RankingError, GraphError):
            return
    for p in pats:
        assert canonical_dfs_code(p.graph) == p.code


# ---------------------------------------------------------------------------
# Golden outputs: the pattern files and the miner's visiting order, pinned as
# sha256 digests.  A change that alters them on purpose re-pins them and says
# why.
# ---------------------------------------------------------------------------

GOLDEN_PATTERN_DIGESTS = {
    "7/patterns/candidates_FamilyA.json": "493da55a7f3907116d0aa212a00ae14384ecd717c406905c9cc221da9c6b1512",
    "7/patterns/candidates_FamilyB.json": "de21df9ed17877bfd6277be19c04390134c34da883e6e68bb3c6aeff9d272575",
    "7/patterns/candidates_FamilyC.json": "d91c1baa582b85c7a1469df376522b459cbf73f04489bef3610a3615cd6bf88d",
    "7/patterns/ranked.json": "dd01e61ff3adf73b12ca75d13e43b65e9c9df0ddb56da6c4d6104353f3e94866",
    "7/patterns/sgea_candidates.json": "d529c80d74177566458678e62f8cec0aafdce631925df573d9fb83b395d3a7fd",
    "5/patterns/candidates_FamilyA.json": "23a7bb83cf18cb008dca30b8893ca6379d154ac78a7d2c85acdf86a46fa3f8d9",
    "5/patterns/candidates_FamilyB.json": "7315e1634f8779c2879a8449ba0bd95a923330c50e9c2571b8e04e71e1563492",
    "5/patterns/candidates_FamilyC.json": "f6255d40e709ec6190436e23453f66fabf9a699150f1d6066c52527c044f3fda",
    "5/patterns/ranked.json": "becf794724a94a4128814bffb25001e0c48d0b9f3d65f7ebf46c808d9ebc1835",
    "5/patterns/sgea_candidates.json": "026a4f67ed43c27e17a4646f4623fc85a806fb3322c5ce6511b15f3d418d44ed",
}


def test_golden_pattern_digests(golden_tree_digests):
    # the pattern files hold only integers and strings, so their bytes are
    # pinned without a numpy-version condition
    patterns = {k: v for k, v in golden_tree_digests.items() if k.split("/")[1] == "patterns"}
    assert patterns == GOLDEN_PATTERN_DIGESTS


def _labelled_corpus(seed: int):
    rng = np.random.default_rng(seed)
    graphs = [random_cfg(rng, n_lo=2, n_hi=8, p=1.5, n_labels=3, self_loops=True)
              for _ in range(int(rng.integers(4, 8)))]
    classes = [("Benign", "FamilyA")[int(rng.integers(0, 2))] for _ in graphs]
    classes[0] = "FamilyA"
    return graphs, classes, [f"s{i}" for i in range(len(graphs))]


def _mining_trace(seed: int) -> str:
    """Digest of one corpus's mining run: the miner's visits and reports in
    the order they happen, then what gspan_mine and select_discriminative
    return."""
    graphs, classes, ids = _labelled_corpus(seed)

    def sets(gid_sets):
        return sorted((c, sorted(v)) for c, v in gid_sets.items())

    def held_sets(held):  # graph indices as the class -> ids sets above
        by_class = {}
        for gi in held:
            by_class.setdefault(classes[gi], set()).add(ids[gi])
        return sets(by_class)

    events = []

    def visit(code, held):
        events.append(("visit", code, held_sets(held)))
        return False  # prune nothing

    _mine(
        graphs, [True] * len(graphs), 2, 1, 5,
        report=lambda code, held: events.append(("report", code, held_sets(held))),
        prune=visit,
    )
    samples = as_samples(graphs, classes, ids)
    for p in gspan_mine(samples, 2, 1, 5):
        events.append(("gspan", p.code, sorted(p.support.items()),
                       sets(p.supporting_ids)))
    for p in select_discriminative(samples, "FamilyA", 2, 1, 5, top_k=None):
        events.append(("cork", p.code, p.quality, sorted(p.support.items())))
    return hashlib.sha256(repr(events).encode()).hexdigest()


GOLDEN_TRACE_DIGESTS = {
    0: "f9c58791624fd7ea93b85b2ae2f39c480d8d14b33005535836c5516da3cef5d1",
    1: "57d57d43d46ed5dc8628beb9a96a69416bce8356660fdb88d3bf0e116f615acc",
    2: "d14dc51048288cb93d44975cc52eed0326301dc6b12e8875efaf5a1158b1186d",
    3: "3666e549f3d8ce092ca9226b0c6f39b6ea4385f0bf2c537e43381cc929dac0fd",
    4: "60ee45837cb9a3d7650bda6ec5b4d21d93a7e5290d889eb35e8634d842857bfa",
    5: "3ab5c5b7c45359f2b7ce879af0f769920346cbdf1afaa0d7dd57feb7009bd98d",
    6: "09f00cdc19913e86e40872de03aa07f7ac2d6120b389661bff384b710ae1facc",
    7: "d4f6d0af5af869983a8c67177c48a7b820c6c4eb6a83b99eda2b0d99bb616d15",
    8: "58d23ac77dcc8cef5501dc2386c7f9bbd7d6f95367a5dc75ba8d4da693c120c2",
    9: "8232c9f0f5a168398d9ee7140c2c25bc866066d63aa11eaca98ae4d9d2aab8b4",
    10: "e850e8c5a6012a9d7a53bbc434e1fa00bedf2d0a146c3b9cc42f068d95bb3c5a",
    11: "e802060c0d1a6654194899c516ba57f4d700a9e3f1d35b36c397e5509ea9c535",
}


@pytest.mark.parametrize("seed", range(12))
def test_mining_order_matches_golden_run(seed):
    assert _mining_trace(seed + 4100) == GOLDEN_TRACE_DIGESTS[seed]


def _random_dfs_code(g: Cfg, rng) -> tuple:
    """A random DFS code of a connected subgraph of `g`, built by a random
    walk over the rightmost-path grammar described in the mining module
    (minimal or not)."""
    labels, arcs = dict(g.nodes), set(g.edges)
    u, v = sorted(arcs)[int(rng.integers(0, len(arcs)))]
    if u == v:
        code, phi, rmpath = [(0, 0, labels[u], 0, labels[u])], [u], [0]
    elif rng.random() < 0.5:
        code, phi, rmpath = [(0, 1, labels[u], 0, labels[v])], [u, v], [0, 1]
    else:
        code, phi, rmpath = [(0, 1, labels[v], 1, labels[u])], [v, u], [0, 1]
    used = {(u, v)}
    while rng.random() < 0.85:
        r = rmpath[-1]
        last = code[-1]
        bound = (last[1], last[3]) if last[3] != -1 and last[1] <= last[0] else None
        moves = []
        for j in rmpath[:-1] + [r]:
            for d, arc in ((0, (phi[r], phi[j])), (1, (phi[j], phi[r]))):
                if j == r and d == 1:
                    continue
                if arc in arcs and arc not in used and (bound is None or (j, d) > bound):
                    moves.append(((r, j, labels[phi[r]], d, labels[phi[j]]), arc, None))
        for i in rmpath:
            for w in sorted(labels):
                if w in phi:
                    continue
                for d, arc in ((0, (phi[i], w)), (1, (w, phi[i]))):
                    if arc in arcs:
                        moves.append(((i, len(phi), labels[phi[i]], d, labels[w]), arc, (i, w)))
        if not moves:
            break
        entry, arc, forward = moves[int(rng.integers(0, len(moves)))]
        code.append(entry)
        used.add(arc)
        if forward is not None:
            i, w = forward
            rmpath = rmpath[:rmpath.index(i) + 1] + [len(phi)]
            phi.append(w)
    return tuple(code)


def test_is_min_matches_canonical_code(rng):
    checked = minimal = 0
    for _ in range(300):
        host = random_cfg(rng, n_lo=1, n_hi=7, p=1.5, n_labels=2, self_loops=True)
        codes = [canonical_dfs_code(host)]
        if host.edges:
            codes += [_random_dfs_code(host, rng) for _ in range(4)]
        for code in codes:
            want = canonical_dfs_code(code_to_graph(code)) == code
            assert _is_min(code) == want, code
            checked += 1
            minimal += want
    assert 0 < minimal < checked
