"""Control-flow graph data model, validation, and serialization.

A Cfg is a directed graph with integer-labeled nodes, a designated entry
node and a non-empty set of exit nodes.  Self-loops are allowed, parallel
edges are not.  Graphs are immutable after construction.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Iterable, Sequence


class GraphError(ValueError):
    """Raised for structurally invalid graphs or malformed graph documents."""


class SampleClass(Enum):
    BENIGN = "Benign"
    FAMILY_A = "FamilyA"
    FAMILY_B = "FamilyB"
    FAMILY_C = "FamilyC"

    @classmethod
    def from_string(cls, s: str) -> "SampleClass":
        for member in cls:
            if member.value == s:
                return member
        raise GraphError(f"unknown sample class: {s!r}")


FAMILIES = (SampleClass.FAMILY_A, SampleClass.FAMILY_B, SampleClass.FAMILY_C)


@dataclass(frozen=True, eq=False)
class Cfg:
    """Immutable labeled control-flow graph.

    nodes: tuple of (node_id, label) pairs in document order.
    edges: frozenset of (src, dst) pairs.
    entry: entry node id.  exits: non-empty frozenset of exit node ids.
    Ids and labels follow `is_count` and are never cast: anything else
    raises GraphError, as in a graph document.
    """

    nodes: tuple[tuple[int, int], ...]
    edges: frozenset[tuple[int, int]]
    entry: int
    exits: frozenset[int]

    def __post_init__(self):
        try:
            object.__setattr__(self, "nodes", tuple(self.nodes))
            object.__setattr__(self, "edges", frozenset(self.edges))
            object.__setattr__(self, "exits", frozenset(self.exits))
        except TypeError as e:
            raise GraphError(f"malformed graph: {e}") from None
        _validate(self)

    # Structural equality: node order in a document is preserved for
    # iteration but does not affect identity.
    def __eq__(self, other):
        if not isinstance(other, Cfg):
            return NotImplemented
        return (
            frozenset(self.nodes) == frozenset(other.nodes)
            and self.edges == other.edges
            and self.entry == other.entry
            and self.exits == other.exits
        )

    def __hash__(self):
        return hash((frozenset(self.nodes), self.edges, self.entry, self.exits))

    @property
    def node_ids(self) -> tuple[int, ...]:
        return tuple(i for i, _ in self.nodes)

    @property
    def labels(self) -> dict[int, int]:
        return dict(self.nodes)

    @property
    def node_count(self) -> int:
        return len(self.nodes)

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    @cached_property
    def view(self) -> "GraphView":
        """Adjacency view, built on first use and kept for the graph's
        lifetime (the graph is immutable, so it never goes stale)."""
        ids = [i for i, _ in self.nodes]
        index = {i: k for k, i in enumerate(ids)}
        return GraphView(ids, [lab for _, lab in self.nodes],
                         [(index[u], index[v]) for u, v in sorted(self.edges)])


class GraphView:
    """The one adjacency representation, of a Cfg or of a DFS code's graph.

    Nodes are indexed by position 0..n-1, in document order.  ids[k] is the
    node id at position k and labels[k] its label.  succ[k] / pred[k]: the
    positions of k's successors / predecessors, in ascending node-id order
    (their lengths are the degrees).  edges: the arcs as position pairs.
    The miner builds a view of every DFS code it checks.  plan / masks: a
    pattern's match plan / a host's bitsets, None until the isomorphism
    module fills them.
    """

    plan = None
    masks = None

    def __init__(self, ids: Iterable[int], labels: Iterable[int],
                 arcs: Sequence[tuple[int, int]]):
        """`arcs` are position pairs in ascending (source id, target id)
        order; succ and pred keep that order."""
        self.ids = tuple(ids)
        self.labels = tuple(labels)
        self.edges = frozenset(arcs)
        succ: list[list[int]] = [[] for _ in self.ids]
        pred: list[list[int]] = [[] for _ in self.ids]
        for u, v in arcs:
            succ[u].append(v)
            pred[v].append(u)
        self.succ = tuple(map(tuple, succ))
        self.pred = tuple(map(tuple, pred))


def flow_graph(nodes: Sequence[tuple[int, int]], arcs: Iterable[tuple[int, int]]) -> Cfg:
    """The Cfg of (id, label) `nodes` and `arcs` under the flow-graph rule:
    the entry is the first node; the exits are the nodes with no out-arc,
    or the last node when every node has one."""
    arcs = frozenset(arcs)
    sources = {u for u, _ in arcs}
    exits = frozenset(i for i, _ in nodes if i not in sources)
    return Cfg(nodes=tuple(nodes), edges=arcs, entry=nodes[0][0],
               exits=exits or frozenset({nodes[-1][0]}))


def is_count(v) -> bool:
    """The one integer rule for ids, labels and counts: a non-negative int,
    never a float, string, bool or numpy integer."""
    return type(v) is int and v >= 0


def _validate(g: Cfg) -> None:
    if not g.nodes:
        raise GraphError("graph has no nodes")
    pairs = (*g.nodes, *g.edges)
    if {type(p) for p in pairs} != {tuple} or {len(p) for p in pairs} != {2}:
        raise GraphError("nodes and edges must be pairs")
    ints = [g.entry, *g.exits, *(v for p in pairs for v in p)]
    if {type(v) for v in ints} != {int} or min(ints) < 0:  # `is_count`, all at once
        bad = next(v for v in ints if not is_count(v))
        raise GraphError(f"ids, labels, entry and exits are non-negative integers, not {bad!r}")
    seen = set()
    for i, _ in g.nodes:
        if i in seen:
            raise GraphError(f"duplicate node id: {i}")
        seen.add(i)
    for u, v in g.edges:
        if u not in seen or v not in seen:
            raise GraphError(f"edge ({u}, {v}) references unknown node")
    if g.entry not in seen:
        raise GraphError(f"entry node {g.entry} not in node set")
    if not g.exits:
        raise GraphError("exit set is empty")
    for x in g.exits:
        if x not in seen:
            raise GraphError(f"exit node {x} not in node set")


# ---------------------------------------------------------------------------
# Graph JSON document format
# ---------------------------------------------------------------------------

def parse_json(text: str | bytes, error: type[ValueError], what: str):
    """The JSON value in `text`; text that is not one JSON document (bad
    syntax or encoding, an over-long integer, nesting deeper than the
    decoder recurses) raises `error("<what>: <reason>")`."""
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as e:
        raise error(f"{what}: {e}") from None


def read_json(path: str | Path, error: type[ValueError] = GraphError):
    """The JSON value stored in `path`; a file that cannot be read or does
    not hold a JSON document raises `error`."""
    what = f"{path} is not a readable JSON document"
    try:
        text = Path(path).read_bytes()
    except OSError as e:
        raise error(f"{what}: {e}") from None
    return parse_json(text, error, what)


def indented_json(obj) -> str:
    """`json.dumps(obj, indent=2, sort_keys=True)`, byte for byte, without
    the pure-Python encoder that `indent` selects: the text is joined level
    by level, strings go through the C `encode_basestring_ascii`, and other
    scalars through `int.__repr__`, `float.__repr__` or the C encoder.
    Object keys must be strings."""
    return _indented(obj, "\n")


def _indented(o, nl: str) -> str:
    t = type(o)
    if t is int:
        return int.__repr__(o)
    if t is str:
        return encode_basestring_ascii(o)
    if isinstance(o, dict):
        if not o:
            return "{}"
        inner = nl + "  "
        return "{" + inner + ("," + inner).join(
            [encode_basestring_ascii(k) + ": " + _indented(v, inner)
             for k, v in sorted(o.items())]) + nl + "}"
    if isinstance(o, (list, tuple)):
        if not o:
            return "[]"
        inner = nl + "  "
        return "[" + inner + ("," + inner).join([_indented(v, inner) for v in o]) + nl + "]"
    if t is float and math.isfinite(o):
        return float.__repr__(o)
    return json.dumps(o)  # bool, None, NaN, ±inf, subclasses; TypeError for the rest


def parse_graph(text: str) -> Cfg:
    """Parse a graph JSON document into a validated Cfg."""
    doc = parse_json(text, GraphError, "malformed graph document")
    if not isinstance(doc, dict):
        raise GraphError("graph document must be a JSON object")
    for key in ("nodes", "edges", "entry", "exits"):
        if key not in doc:
            raise GraphError(f"graph document missing key: {key}")
    for key in ("nodes", "edges", "exits"):
        if type(doc[key]) is not list:
            raise GraphError(f"graph document key {key} must be a list")
    try:
        nodes = tuple((n["id"], n["label"]) for n in doc["nodes"])
    except (TypeError, KeyError) as e:
        raise GraphError(f"malformed graph document: {e}") from None
    edges = [tuple(e) if type(e) is list else e for e in doc["edges"]]
    g = Cfg(nodes=nodes, edges=edges, entry=doc["entry"], exits=doc["exits"])
    if len(g.edges) != len(edges):
        raise GraphError("duplicate edges in graph document")
    return g


def graph_doc(g: Cfg) -> dict:
    """The graph JSON document as a dict: nodes sorted by id, edges
    lexicographically, exits ascending."""
    return {
        "nodes": [{"id": i, "label": l} for i, l in sorted(g.nodes)],
        "edges": [[u, v] for u, v in sorted(g.edges)],
        "entry": g.entry,
        "exits": sorted(g.exits),
    }


def serialize_graph(g: Cfg) -> str:
    """Serialize to the graph JSON format, deterministically: equal graphs
    serialize to identical byte strings."""
    return json.dumps(graph_doc(g), separators=(",", ":"), sort_keys=True)


def save_graph(g: Cfg, path: str | Path) -> None:
    Path(path).write_text(serialize_graph(g))


# ---------------------------------------------------------------------------
# Labeled samples and corpus manifests
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LabeledSample:
    id: str
    cfg: Cfg = field(compare=False)
    cls: SampleClass


def write_corpus(samples: Sequence[LabeledSample], root: str | Path) -> Path:
    """Write graphs plus a manifest under `root`; returns the manifest path."""
    root = Path(root)
    ids = [s.id for s in samples]
    if len(set(ids)) != len(ids):
        dup = sorted({i for i in ids if ids.count(i) > 1})
        raise GraphError(f"duplicate sample ids: {dup[:3]}")
    graph_dir = root / "graphs"
    graph_dir.mkdir(parents=True, exist_ok=True)
    entries = []
    for s in sorted(samples, key=lambda s: s.id):
        rel = f"graphs/{s.id}.json"
        save_graph(s.cfg, root / rel)
        entries.append({"id": s.id, "class": s.cls.value, "path": rel})
    manifest = root / "manifest.json"
    manifest.write_text(indented_json({"samples": entries}))
    return manifest


def read_corpus(manifest_path: str | Path) -> list[LabeledSample]:
    """Load all samples referenced by a corpus manifest: an object whose
    "samples" list holds {"id", "class", "path"} objects with string values,
    each id free of commas, double quotes and line breaks (it is written to
    CSV files as it is), each path a graph document inside the manifest's
    directory."""
    manifest_path = Path(manifest_path)
    doc = read_json(manifest_path)
    if not isinstance(doc, dict) or not isinstance(doc.get("samples"), list):
        raise GraphError("manifest must be an object with a 'samples' list")
    root = manifest_path.parent.resolve()
    samples = []
    seen_ids = set()
    for entry in doc["samples"]:
        if not (isinstance(entry, dict)
                and all(isinstance(entry.get(k), str) for k in ("id", "class", "path"))):
            raise GraphError("malformed manifest entry: id, class and path must be strings")
        sid, rel = entry["id"], entry["path"]
        if any(c in sid for c in ',"\r\n'):
            raise GraphError(f"sample id {sid!r} holds a comma, quote or line break")
        if sid in seen_ids:
            raise GraphError(f"duplicate sample id in manifest: {sid}")
        seen_ids.add(sid)
        cls = SampleClass.from_string(entry["class"])
        try:
            path = (root / rel).resolve()
            text = path.read_text() if path.is_relative_to(root) else None
        except (OSError, ValueError) as e:
            raise GraphError(f"sample {sid}: cannot read {rel!r}: {e}") from None
        if text is None:
            raise GraphError(f"sample {sid}: path {rel!r} is outside the manifest's directory")
        samples.append(LabeledSample(id=sid, cfg=parse_graph(text), cls=cls))
    return samples
