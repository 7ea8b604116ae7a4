import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from cfgsentinel.graph import (
    Cfg,
    GraphError,
    LabeledSample,
    SampleClass,
    flow_graph,
    indented_json,
    parse_graph,
    read_corpus,
    save_graph,
    serialize_graph,
    write_corpus,
)
from conftest import random_cfg, relabeled
from fuzz import FUZZ, documents, json_values


def make(nodes, edges, entry=0, exits=None):
    ids = [i for i, _ in nodes]
    if exits is None:
        exits = {ids[-1]}
    return Cfg(nodes=tuple(nodes), edges=frozenset(edges), entry=entry,
               exits=frozenset(exits))


class TestValidation:
    def test_minimal_single_node(self):
        g = make([(0, 0)], [])
        assert g.node_count == 1
        assert g.edge_count == 0

    def test_self_loop_allowed(self):
        g = make([(0, 0)], [(0, 0)])
        assert g.edge_count == 1

    def test_rejects_empty_nodes(self):
        with pytest.raises(GraphError):
            Cfg(nodes=(), edges=frozenset(), entry=0, exits=frozenset({0}))

    def test_rejects_duplicate_node_id(self):
        with pytest.raises(GraphError):
            make([(0, 0), (0, 1)], [])

    def test_rejects_negative_id(self):
        with pytest.raises(GraphError):
            make([(-1, 0)], [], entry=-1, exits={-1})

    def test_rejects_negative_label(self):
        with pytest.raises(GraphError):
            make([(0, -2)], [])

    def test_rejects_dangling_edge(self):
        with pytest.raises(GraphError):
            make([(0, 0), (1, 0)], [(0, 5)])

    def test_rejects_entry_not_a_node(self):
        with pytest.raises(GraphError):
            make([(0, 0)], [], entry=3)

    def test_rejects_empty_exits(self):
        with pytest.raises(GraphError):
            Cfg(nodes=((0, 0),), edges=frozenset(), entry=0, exits=frozenset())

    def test_rejects_unknown_exit(self):
        with pytest.raises(GraphError):
            make([(0, 0)], [], exits={9})


class TestEquality:
    def test_node_order_is_irrelevant(self):
        a = make([(0, 1), (1, 2)], [(0, 1)], exits={1})
        b = make([(1, 2), (0, 1)], [(0, 1)], exits={1})
        assert a == b
        assert hash(a) == hash(b)

    def test_label_change_distinguishes(self):
        a = make([(0, 1), (1, 2)], [(0, 1)])
        b = make([(0, 1), (1, 3)], [(0, 1)])
        assert a != b

    def test_entry_distinguishes(self):
        a = make([(0, 0), (1, 0)], [(0, 1)], entry=0, exits={1})
        b = make([(0, 0), (1, 0)], [(0, 1)], entry=1, exits={1})
        assert a != b


class TestAdjacency:
    def test_out_and_in(self):
        g = make([(0, 0), (1, 0), (2, 0)], [(0, 1), (0, 2), (2, 1)])
        assert g.view.succ[0] == (1, 2)
        assert g.view.pred[1] == (0, 2)
        assert g.view.succ[1] == ()

    def test_matches_edge_list_construction(self, rng):
        # sparse ids in shuffled document order: positions follow the
        # document, neighbour tuples ascending node ids
        for _ in range(100):
            g = relabeled(random_cfg(rng, n_lo=1, n_hi=12, self_loops=True), rng, shuffle=True)
            succ = {i: [] for i in g.node_ids}
            pred = {i: [] for i in g.node_ids}
            for u, v in g.edges:
                succ[u].append(v)
                pred[v].append(u)
            view = g.view
            assert view.ids == g.node_ids
            for got, want in ((view.succ, succ), (view.pred, pred)):
                assert len(got) == len(view.ids)
                assert {view.ids[k]: tuple(view.ids[j] for j in js) for k, js in enumerate(got)} \
                    == {i: tuple(sorted(vs)) for i, vs in want.items()}
            assert {(view.ids[a], view.ids[b]) for a, b in view.edges} == g.edges


class TestView:
    def test_fields(self):
        g = make([(3, 1), (0, 2), (5, 1)], [(3, 0), (0, 5), (5, 5)], entry=3, exits={5})
        v = g.view
        # positions 0, 1, 2 hold ids 3, 0, 5
        assert v.ids == (3, 0, 5)
        assert v.labels == (1, 2, 1)
        assert v.succ == ((1,), (2,), (2,))
        assert v.pred == ((), (0,), (1, 2))
        assert v.edges == {(0, 1), (1, 2), (2, 2)}
        assert v.plan is None
        assert v.masks is None

    def test_neighbours_in_id_order(self):
        # position order (3, 0, 5) is not id order: pred of id 5 lists id 0
        # (position 1) before id 3 (position 0)
        g = make([(3, 1), (0, 2), (5, 1)], [(3, 0), (3, 5), (0, 5)], entry=3, exits={5})
        assert g.view.succ == ((1, 2), (2,), ())
        assert g.view.pred == ((), (0,), (1, 0))

    def test_built_once_and_outside_identity(self):
        a = make([(0, 0), (1, 0)], [(0, 1)], exits={1})
        b = make([(1, 0), (0, 0)], [(0, 1)], exits={1})
        assert a.view is a.view
        assert a == b and hash(a) == hash(b)
        assert serialize_graph(a) == serialize_graph(b)


# A valid two-node document, and edits of it that parse_graph must refuse
# with GraphError: every id, label, entry, exit and edge endpoint is a JSON
# integer (not a float, string or bool), every edge exactly a pair.
GOOD_GRAPH_DOC = {
    "nodes": [{"id": 0, "label": 0}, {"id": 1, "label": 1}],
    "edges": [[0, 1]],
    "entry": 0,
    "exits": [1],
}


def _node(i, **kw):
    return lambda d: dict(d, nodes=[dict(n, **kw) if n["id"] == i else n for n in d["nodes"]])


MALFORMED_GRAPH_DOCS = {
    "id_float": _node(0, id=0.9),
    "id_whole_float": _node(1, id=1.0),
    "id_str": _node(0, id="0"),
    "id_bool": _node(1, id=True),
    "label_float": _node(1, label=1.5),
    "label_str": _node(0, label="0"),
    "label_bool": _node(0, label=False),
    "label_null": _node(0, label=None),
    "entry_float": lambda d: dict(d, entry=0.0),
    "entry_str": lambda d: dict(d, entry="0"),
    "entry_bool": lambda d: dict(d, entry=False),
    "exit_float": lambda d: dict(d, exits=[1.0]),
    "exit_str": lambda d: dict(d, exits=["1"]),
    "exit_bool": lambda d: dict(d, exits=[True]),
    "exits_str": lambda d: dict(d, exits="1"),
    "edge_float": lambda d: dict(d, edges=[[0, 1.0]]),
    "edge_str": lambda d: dict(d, edges=[["0", 1]]),
    "edge_bool": lambda d: dict(d, edges=[[False, True]]),
    "edge_triple": lambda d: dict(d, edges=[[0, 1, 1]]),
    "edge_single": lambda d: dict(d, edges=[[0]]),
    "edge_as_str": lambda d: dict(d, edges=["01"]),
    "edges_object": lambda d: dict(d, edges={"0": 1}),
    "node_as_list": lambda d: dict(d, nodes=[[0, 0], {"id": 1, "label": 1}]),
}


class TestStrictDocument:
    def test_good_document_parses(self):
        g = parse_graph(json.dumps(GOOD_GRAPH_DOC))
        assert g.nodes == ((0, 0), (1, 1)) and g.edges == {(0, 1)}

    @pytest.mark.parametrize("defect", sorted(MALFORMED_GRAPH_DOCS))
    def test_defect_rejected(self, defect):
        with pytest.raises(GraphError):
            parse_graph(json.dumps(MALFORMED_GRAPH_DOCS[defect](GOOD_GRAPH_DOC)))

    @pytest.mark.parametrize("defect", sorted(MALFORMED_GRAPH_DOCS) + ["id_numpy", "node_single"])
    def test_constructor_follows_the_document_rule(self, defect):
        # the document's fields handed to Cfg as they are: node objects as
        # (id, label) pairs, edge lists as tuples, anything else untouched
        doc = MALFORMED_GRAPH_DOCS.get(defect, dict)(GOOD_GRAPH_DOC)
        nodes = [(n["id"], n["label"]) if isinstance(n, dict) else n for n in doc["nodes"]]
        nodes[0] = {"id_numpy": (np.int64(0), 0), "node_single": (0,)}.get(defect, nodes[0])
        edges = [tuple(e) if isinstance(e, list) else e for e in doc["edges"]]
        with pytest.raises(GraphError):
            Cfg(nodes=nodes, edges=edges, entry=doc["entry"], exits=doc["exits"])

    def test_constructor_casts_nothing(self):
        with pytest.raises(GraphError):
            Cfg(nodes=((0.9, 0), (1.7, 2.5)), edges={(0.2, 1.1)}, entry=0.5, exits={1.2})
        g = Cfg(nodes=[(0, 0), (1, 1)], edges=[(0, 1)], entry=0, exits=[1])
        assert g.nodes == ((0, 0), (1, 1)) and g.edges == {(0, 1)} and g.exits == {1}


class TestSerialization:
    def test_round_trip_identity(self, rng):
        for _ in range(50):
            g = random_cfg(rng)
            s = serialize_graph(g)
            g2 = parse_graph(s)
            assert g == g2
            assert serialize_graph(g2) == s

    def test_serialization_is_canonical(self):
        a = make([(1, 2), (0, 1)], [(0, 1)], exits={1})
        b = make([(0, 1), (1, 2)], [(0, 1)], exits={1})
        assert serialize_graph(a) == serialize_graph(b)

    def test_rejects_duplicate_edges_in_json(self):
        doc = {
            "nodes": [{"id": 0, "label": 0}, {"id": 1, "label": 0}],
            "edges": [[0, 1], [0, 1]],
            "entry": 0,
            "exits": [1],
        }
        with pytest.raises(GraphError):
            parse_graph(json.dumps(doc))

    def test_rejects_nesting_deeper_than_the_decoder_recurses(self):
        with pytest.raises(GraphError):
            parse_graph("[" * 100_000 + "]" * 100_000)

    def test_rejects_integer_longer_than_int_conversion_allows(self):
        # json.loads raises a plain ValueError here, not a JSONDecodeError
        with pytest.raises(GraphError):
            parse_graph('{"nodes": [], "edges": [], "entry": ' + "1" * 5000 + ', "exits": []}')

    def test_rejects_malformed_json(self):
        with pytest.raises(GraphError):
            parse_graph("{not json")

    def test_rejects_missing_keys(self):
        with pytest.raises(GraphError):
            parse_graph(json.dumps({"nodes": [{"id": 0, "label": 0}]}))

    def test_file_round_trip(self, tmp_path, rng):
        g = random_cfg(rng)
        p = tmp_path / "g.json"
        save_graph(g, p)
        assert parse_graph(p.read_text()) == g


# Scalars the writers can meet, and the edge cases of the encoder: big ints,
# +-0.0, NaN and +-inf, non-ASCII and control characters.
_JSON_SCALARS = (st.none() | st.booleans() | st.integers()
                 | st.sampled_from([10**100, -(2**64), 0.0, -0.0, float("nan"),
                                    float("inf"), float("-inf")])
                 | st.floats() | st.text())
_JSON_TREES = st.recursive(
    _JSON_SCALARS,
    lambda inner: (st.lists(inner, max_size=4) | st.lists(inner, max_size=3).map(tuple)
                   | st.dictionaries(st.text(), inner, max_size=4)),
    max_leaves=30,
)


@settings(FUZZ, max_examples=400)
@given(_JSON_TREES)
@example([[], {}, [[]], {"a": {}}, [{}, [[], {}]], {"": [[[]]], "\x00\u00e9\U0001f600": ()}])
@example({"z": float("nan"), "a": [-0.0, 0.0, float("-inf")], "\n": 10**400})
def test_indented_json_equals_json_dumps(obj):
    assert indented_json(obj) == json.dumps(obj, indent=2, sort_keys=True)


class TestFlowGraph:
    def test_entry_and_exits_follow_the_rule(self, rng):
        for _ in range(200):
            base = relabeled(random_cfg(rng, n_lo=1, n_hi=10, p=1.5, self_loops=True),
                             rng, shuffle=True)
            nodes = list(base.nodes)
            g = flow_graph(nodes, base.edges)
            sinks = {i for i, _ in nodes} - {u for u, _ in base.edges}
            assert g.nodes == tuple(nodes) and g.edges == base.edges
            assert g.entry == nodes[0][0]
            assert g.exits == (sinks or {nodes[-1][0]})


def corpus_dir(root: Path) -> Path:
    """A corpus directory under `root` holding graphs/g.json (valid) and
    graphs/bin.json (not UTF-8), plus a valid graph outside it at
    root/outside/g.json; returns the corpus directory."""
    corpus = root / "corpus"
    (corpus / "graphs").mkdir(parents=True)
    (corpus / "graphs" / "g.json").write_text(json.dumps(GOOD_GRAPH_DOC))
    (corpus / "graphs" / "bin.json").write_bytes(b'{"nodes": "\xff"}')
    (root / "outside").mkdir()
    (root / "outside" / "g.json").write_text(json.dumps(GOOD_GRAPH_DOC))
    return corpus


def _one_sample(**fields):
    """A manifest of the sample graphs/g.json with fields replaced (None:
    removed)."""
    entry = {"id": "g", "class": "Benign", "path": "graphs/g.json"}
    entry.update(fields)
    return {"samples": [{k: v for k, v in entry.items() if v is not None}]}


def malformed_manifests(corpus: Path) -> dict[str, str]:
    """Text of manifests in `corpus` (see corpus_dir) that read_corpus must
    reject with GraphError."""
    docs = {
        "a_list": [],
        "no_samples": {},
        "samples_int": {"samples": 5},
        "samples_object": {"samples": {}},
        "entry_not_object": {"samples": ["graphs/g.json"]},
        "id_list": _one_sample(id=["g"]),
        "id_int": _one_sample(id=1),
        "id_missing": _one_sample(id=None),
        "id_comma": _one_sample(id="evil,0,0"),
        "id_quote": _one_sample(id='g"'),
        "id_cr": _one_sample(id="g\r"),
        "id_lf": _one_sample(id="evil,0,0\nforged"),
        "class_int": _one_sample(**{"class": 0}),
        "class_unknown": _one_sample(**{"class": "Spam"}),
        "path_list": _one_sample(path=["graphs", "g.json"]),
        "path_parent": _one_sample(path="../outside/g.json"),
        "path_absolute_outside": _one_sample(path=str(corpus.parent / "outside" / "g.json")),
        "path_missing_file": _one_sample(path="graphs/nope.json"),
        "path_directory": _one_sample(path="graphs"),
        "path_empty": _one_sample(path=""),
        "path_nul": _one_sample(path="graphs/g\x00.json"),
        "path_not_utf8": _one_sample(path="graphs/bin.json"),
        "duplicate_id": {"samples": _one_sample()["samples"] * 2},
    }
    return dict({k: json.dumps(v) for k, v in docs.items()}, not_json="{")


class TestCorpusIO:
    def test_write_read_round_trip(self, tmp_path, rng):
        samples = [
            LabeledSample(id=f"s{i:02d}", cfg=random_cfg(rng),
                          cls=SampleClass.BENIGN if i % 2 else SampleClass.FAMILY_A)
            for i in range(6)
        ]
        manifest = write_corpus(samples, tmp_path / "corpus")
        back = read_corpus(manifest)
        assert [s.id for s in back] == [s.id for s in samples]
        assert all(a.cfg == b.cfg and a.cls is b.cls for a, b in zip(samples, back))

    def test_rejects_duplicate_ids(self, tmp_path, rng):
        g = random_cfg(rng)
        samples = [
            LabeledSample(id="dup", cfg=g, cls=SampleClass.BENIGN),
            LabeledSample(id="dup", cfg=g, cls=SampleClass.BENIGN),
        ]
        with pytest.raises(GraphError):
            write_corpus(samples, tmp_path / "corpus")

    def test_manifest_paths_are_relative(self, tmp_path, rng):
        samples = [LabeledSample(id="a", cfg=random_cfg(rng), cls=SampleClass.FAMILY_B)]
        manifest = write_corpus(samples, tmp_path / "corpus")
        doc = json.loads(manifest.read_text())
        assert not doc["samples"][0]["path"].startswith("/")

    def test_corpus_with_absolute_path_inside_loads(self, tmp_path):
        corpus = corpus_dir(tmp_path)
        manifest = corpus / "manifest.json"
        manifest.write_text(json.dumps(_one_sample(path=str(corpus / "graphs" / "g.json"))))
        assert [s.id for s in read_corpus(manifest)] == ["g"]

    @pytest.mark.parametrize("defect", sorted(malformed_manifests(Path("corpus"))))
    def test_malformed_manifest_rejected(self, tmp_path, defect):
        corpus = corpus_dir(tmp_path)
        manifest = corpus / "manifest.json"
        manifest.write_text(malformed_manifests(corpus)[defect])
        with pytest.raises(GraphError):
            read_corpus(manifest)


_manifest_values = st.sampled_from(
    ["g", "Benign", "FamilyC", "graphs/g.json", "graphs", "../outside/g.json", "/", ""]
) | json_values


@FUZZ
@given(doc=documents(_one_sample(), _manifest_values))
def test_read_corpus_loads_or_raises_graph_error(tmp_path_factory, doc):
    corpus = tmp_path_factory.getbasetemp() / "fuzz_corpus" / "corpus"
    if not corpus.exists():
        corpus_dir(corpus.parent)
    manifest = corpus / "manifest.json"
    manifest.write_text(json.dumps(doc))
    try:
        samples = read_corpus(manifest)
    except GraphError:
        return
    assert all(s.cfg == parse_graph(json.dumps(GOOD_GRAPH_DOC)) for s in samples)


class TestSampleClass:
    def test_from_string(self):
        assert SampleClass.from_string("Benign") is SampleClass.BENIGN
        assert SampleClass.from_string("FamilyC") is SampleClass.FAMILY_C

    def test_from_string_rejects_unknown(self):
        with pytest.raises(GraphError):
            SampleClass.from_string("FamilyZ")
