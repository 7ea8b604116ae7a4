"""Frequent and discriminative subgraph mining over directed labeled graphs.

The miner is a gSpan-style enumerator generalized to directed graphs with
self-loops.  Every arc is traversable in both directions during DFS; a code
entry (i, j, l_i, d, l_j) records the DFS indices, the endpoint labels, and
an orientation flag d (0: the arc runs i -> j, 1: it runs j -> i).  Entries
with j <= i are backward edges (j == i is a self-loop); a lone labeled
vertex is encoded as the special entry (0, 0, l, -1, l).  Rightmost-path
extension plus a minimum-DFS-code check enumerates each isomorphism class
exactly once.

Discriminative selection scores patterns with the correspondence-based CORK
quality q = -(|pos_hit|*|neg_hit| + |pos_miss|*|neg_miss|).  A top-k cut
(overall or per node count) prunes a code, on ties in quality too, once each
cut it could feed holds k keys that sort before any key of its subtree.
"""

from __future__ import annotations

import json
import math
from bisect import insort
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Callable, Mapping, Sequence

from .graph import (Cfg, GraphError, GraphView, LabeledSample, SampleClass, flow_graph,
                    graph_doc, indented_json, is_count, read_json)

Entry = tuple[int, int, int, int, int]
Code = tuple[Entry, ...]


class MiningError(ValueError):
    """Raised for invalid mining parameters or inputs."""


# ---------------------------------------------------------------------------
# DFS-code machinery
# ---------------------------------------------------------------------------

def _entry_key(e: Entry):
    """Sort key implementing the DFS-code ordering for sibling extensions
    of a common prefix (backward/self-loop entries precede forward ones;
    deeper forward sources come first)."""
    i, j, li, d, lj = e
    if d == -1:
        return (-1, li, 0, 0, 0)
    if j <= i:  # backward or self-loop
        return (0, j, d, li, lj)
    return (1, -i, li, d, lj)


def _vertex_count(code: Code) -> int:
    if code[0][3] == -1:
        return 1
    return max(max(i, j) for i, j, _, _, _ in code) + 1


def _rmpath(code: Code) -> list[int]:
    """DFS indices on the rightmost path, root first."""
    path: list[int] = []
    old_frm = None
    for i, j, _, d, _ in reversed(code):
        if d == -1:
            return [0]
        if i < j and (old_frm is None or j == old_frm):
            if old_frm is None:
                path.append(j)
            path.append(i)
            old_frm = i
    path.reverse()
    return path if path else [0]


def _code_arcs(code: Code) -> set[tuple[int, int]]:
    """The code's arcs as (source, target) DFS-index pairs."""
    return {(i, j) if d == 0 else (j, i) for i, j, _, d, _ in code if d != -1}


def _code_labels(code: Code) -> dict[int, int]:
    """DFS index -> label (its first mention)."""
    labels: dict[int, int] = {}
    for i, j, li, _, lj in code:
        labels.setdefault(i, li)
        labels.setdefault(j, lj)
    return labels


# An embedding is phi, a tuple mapping DFS index -> host position; being
# injective, it uses a host arc exactly when the code holds its DFS-index arc.
# A child's embeddings are recorded as (gi, phi, w): host graph, parent's phi,
# new vertex or None; phi + (w,) is built only if the child passes its checks.
_Rec = tuple[int, tuple[int, ...], int | None]


def _seed_embeddings(g: GraphView, gi: int, out: dict[Entry, list[_Rec]]) -> None:
    """Add every single-arc starting code of `g` with its embeddings."""
    labels = g.labels
    for u, v in sorted(g.edges):
        if u == v:
            out[(0, 0, labels[u], 0, labels[u])].append((gi, (u,), None))
        else:
            out[(0, 1, labels[u], 0, labels[v])].append((gi, (u, v), None))
            out[(0, 1, labels[v], 1, labels[u])].append((gi, (v, u), None))


def _extensions(
    views: Sequence[GraphView], code: Code, recs: list[_Rec], allow_forward: bool
) -> dict[Entry, list[_Rec]]:
    """Grammar-valid rightmost-path extensions of every embedding of `code`,
    grouped by the entry they append."""
    rmpath = _rmpath(code)
    r = rmpath[-1]
    used = _code_arcs(code)
    lab = _code_labels(code)
    lr = lab[r]
    # consecutive backward entries from the same rightmost vertex must be
    # emitted in ascending (j, d) order
    last = code[-1]
    bound = (last[1], last[3]) if last[3] != -1 and last[1] <= last[0] else (-1, 0)
    # (a, b, entry): the host arc (phi[a], phi[b]) closes `entry`; whether a
    # backward entry is allowed depends on the code alone
    back = []
    for j in rmpath[:-1]:
        if (r, j) not in used and (j, 0) > bound:
            back.append((r, j, (r, j, lr, 0, lab[j])))
        if (j, r) not in used and (j, 1) > bound:
            back.append((j, r, (r, j, lr, 1, lab[j])))
    if (r, r) not in used and (r, 0) > bound:
        back.append((r, r, (r, r, lr, 0, lr)))
    fwd = [(i, lab[i]) for i in rmpath] if allow_forward else ()
    n = len(lab)

    out: dict[Entry, list[_Rec]] = defaultdict(list)
    for gi, phi, w in recs:
        if w is not None:
            phi = phi + (w,)
        g = views[gi]
        arcs = g.edges
        for a, b, e in back:
            if (phi[a], phi[b]) in arcs:
                out[e].append((gi, phi, None))
        if fwd:
            labels = g.labels
            for i, li in fwd:
                v = phi[i]
                for x in g.succ[v]:
                    if x not in phi:
                        out[(i, n, li, 0, labels[x])].append((gi, phi, x))
                for x in g.pred[v]:
                    if x not in phi:
                        out[(i, n, li, 1, labels[x])].append((gi, phi, x))
    return out


def _greedy_min(g: GraphView, limit: Code | None) -> Code | None:
    """Build the minimum DFS code of a connected graph step by step.

    With `limit` set, abort and return None as soon as the minimum deviates
    below `limit` (used for the is-minimal check, where limit is realizable
    and the greedy minimum can never exceed it).
    """
    n_arcs = len(g.edges)
    if n_arcs == 0:
        lab = g.labels[0]
        return ((0, 0, lab, -1, lab),)

    candidates: dict[Entry, list[_Rec]] = defaultdict(list)
    _seed_embeddings(g, 0, candidates)
    code: Code = ()
    while True:
        e = min(candidates, key=_entry_key)
        if limit is not None and _entry_key(e) != _entry_key(limit[len(code)]):
            return None
        code += (e,)
        if len(code) == n_arcs:
            return code
        candidates = _extensions((g,), code, candidates[e], True)


def _is_connected(g: Cfg) -> bool:
    view = g.view
    seen, stack = {0}, [0]
    while stack:
        u = stack.pop()
        for w in view.succ[u] + view.pred[u]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == len(view.ids)


def canonical_dfs_code(g: Cfg) -> Code:
    """Minimum DFS code of a weakly connected graph.  Two graphs have equal
    canonical codes exactly when they are isomorphic (labels respected)."""
    if not _is_connected(g):
        raise MiningError("canonical_dfs_code requires a weakly connected graph")
    code = _greedy_min(g.view, None)
    assert code is not None
    return code


def _is_min(code: Code) -> bool:
    """True when `code` is the minimum DFS code of its own graph, viewed
    with DFS indices as positions and ids."""
    lab = _code_labels(code)
    n = len(lab)
    view = GraphView(range(n), [lab[v] for v in range(n)], sorted(_code_arcs(code)))
    return _greedy_min(view, limit=code) is not None


def code_to_graph(code: Code) -> Cfg:
    """Materialize a DFS code as a flow graph (`flow_graph`) with canonical
    ids 0..k-1 in DFS order; the entry is the DFS root."""
    n = _vertex_count(code)
    labels = _code_labels(code)
    if len(labels) != n or not all(0 <= v < n for v in labels):
        raise MiningError(f"DFS indices of a {n}-vertex code must be 0..{n - 1}")
    return flow_graph([(v, labels[v]) for v in range(n)], _code_arcs(code))


def code_to_string(code: Code) -> str:
    return ";".join(",".join(str(x) for x in e) for e in code)


def string_to_code(s: str) -> Code:
    entries = []
    for part in s.split(";"):
        try:
            nums = tuple(int(x) for x in part.split(","))
        except ValueError:
            nums = ()
        if len(nums) != 5:
            raise MiningError(f"malformed DFS code entry: {part!r}")
        entries.append(nums)
    return tuple(entries)


# ---------------------------------------------------------------------------
# Patterns
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Pattern:
    """A mined subgraph: canonical DFS code, per-class support counts, and
    (for discriminative mining) a CORK quality.  The code is its only stored
    structure, and patterns compare by it; node count and graph (built on
    first use) derive from it."""

    code: Code
    support: Mapping[str, int] = field(compare=False)
    quality: int | None = field(default=None, compare=False)
    supporting_ids: Mapping[str, frozenset[str]] | None = field(
        default=None, repr=False, compare=False)

    @property
    def total_support(self) -> int:
        return sum(self.support.values())

    @property
    def node_count(self) -> int:
        return _vertex_count(self.code)

    @cached_property
    def graph(self) -> Cfg:
        return code_to_graph(self.code)


def pattern_entry(p: Pattern, **fields) -> dict:
    """A pattern-file entry: the pattern's code, node count and support,
    plus `fields`; `pattern_from_entry` reads it back."""
    return dict(fields, dfs_code=code_to_string(p.code), node_count=p.node_count,
                support=dict(sorted(p.support.items())))


def write_patterns(patterns: Sequence[Pattern], path: str | Path) -> None:
    doc = {"patterns": [pattern_entry(p, graph=graph_doc(p.graph), quality=p.quality)
                        for p in patterns]}
    Path(path).write_text(indented_json(doc))


def pattern_from_entry(entry, where: str, counts=(), numbers=(), graph=False) -> Pattern:
    """The Pattern a pattern-file entry names.  Raises MiningError, prefixed
    with `where`, unless `dfs_code` is the canonical code of its own graph,
    `node_count` (and with `graph` set, the stored `graph`) is the code's,
    `support` is an object of counts, `quality` an integer or null, and the
    keys in `counts` and `numbers` hold counts and finite numbers."""
    if not isinstance(entry, dict) or not isinstance(entry.get("dfs_code"), str):
        raise MiningError(f"{where}: an entry is an object with a dfs_code string")
    support, quality = entry.get("support"), entry.get("quality")
    if not isinstance(support, dict) or not all(map(is_count, support.values())):
        raise MiningError(f"{where}: support must map class names to counts")
    if quality is not None and type(quality) is not int:
        raise MiningError(f"{where}: quality must be an integer or null")
    if not all(is_count(entry.get(k)) for k in counts) or not all(
        type(entry.get(k)) in (int, float) and math.isfinite(entry[k]) for k in numbers
    ):
        raise MiningError(f"{where}: {', '.join(counts)} must be counts, "
                          f"{', '.join(numbers)} finite numbers")
    try:
        p = Pattern(code=string_to_code(entry["dfs_code"]), support=support, quality=quality)
        canonical = canonical_dfs_code(p.graph)
    except (MiningError, GraphError) as e:
        raise MiningError(f"{where}: {e}") from None
    if canonical != p.code:
        raise MiningError(f"{where}: dfs_code is not the canonical code of its graph")
    if not is_count(entry.get("node_count")) or entry["node_count"] != p.node_count:
        raise MiningError(f"{where}: node_count must be {p.node_count}, the code's")
    if graph and (json.dumps(entry.get("graph"), sort_keys=True)
                  != json.dumps(graph_doc(p.graph), sort_keys=True)):
        raise MiningError(f"{where}: graph is not the graph of its dfs_code")
    return p


def read_patterns(path: str | Path) -> list[Pattern]:
    """Patterns written by `write_patterns`, each entry (and its stored
    graph) checked by `pattern_from_entry`."""
    doc = read_json(path, MiningError)
    if not isinstance(doc, dict) or not isinstance(doc.get("patterns"), list):
        raise MiningError(f"{path}: a pattern file is an object with a 'patterns' list")
    return [pattern_from_entry(e, f"{path}: pattern {i}", graph=True)
            for i, e in enumerate(doc["patterns"])]


# ---------------------------------------------------------------------------
# Mining engine
# ---------------------------------------------------------------------------

def _mine(
    graphs: Sequence[Cfg],
    counted: Sequence[bool],
    min_support: int,
    min_nodes: int,
    max_nodes: int,
    report: Callable[[Code, list[int]], None],
    prune: Callable[[Code, list[int]], bool] | None = None,
) -> None:
    """Visit each frequent code once in DFS-code order, asking `prune` (if
    set) whether to cut it, then `report` it if its node count is in range.
    Both get the code and the ascending indices of the graphs holding it; a
    code is frequent when at least `min_support` of those are `counted`."""
    if min_support < 1:
        raise MiningError("min_support must be >= 1")
    if not (1 <= min_nodes <= max_nodes):
        raise MiningError("need 1 <= min_nodes <= max_nodes")
    if not graphs:
        raise MiningError("empty corpus")
    views = [g.view for g in graphs]
    counted_gis = {gi for gi, c in enumerate(counted) if c}

    def frequent(gis: set[int]) -> list[int] | None:
        """The graphs `gis` in ascending order, or None when they miss the
        support floor; so does every extension, held by a subset of them."""
        return sorted(gis) if len(gis & counted_gis) >= min_support else None

    if min_nodes <= 1:
        by_label: dict[int, set[int]] = defaultdict(set)
        for gi, view in enumerate(views):
            for lab in view.labels:
                by_label[lab].add(gi)
        for lab in sorted(by_label):
            held = frequent(by_label[lab])
            code: Code = ((0, 0, lab, -1, lab),)
            if held is None or prune is not None and prune(code, held):
                continue
            report(code, held)

    def children(prefix: Code, exts: dict[Entry, list[_Rec]]) -> list:
        """(code, embeddings, graphs) of each frequent extension in reverse
        DFS-code order."""
        out = []
        for e in reversed(sorted(exts, key=_entry_key)):
            held = frequent({gi for gi, _, _ in exts[e]})
            if held is not None:
                out.append((prefix + (e,), exts[e], held))
        return out

    seeds: dict[Entry, list[_Rec]] = defaultdict(list)
    for gi, view in enumerate(views):
        _seed_embeddings(view, gi, seeds)
    # depth first, children pushed in reverse so they pop in DFS-code order;
    # a stack, as a self-calling nested function is a reference cycle that
    # keeps the views and callbacks alive until a full garbage collection
    stack = children((), seeds)
    while stack:
        code, recs, held = stack.pop()
        if not _is_min(code) or prune is not None and prune(code, held):
            continue
        n = _vertex_count(code)
        if min_nodes <= n <= max_nodes:  # not a 2-node seed arc at max_nodes 1
            report(code, held)
        stack += children(code, _extensions(views, code, recs, n < max_nodes))


def _make_pattern(code: Code, held: Sequence[int], classes: Sequence[str],
                  sample_ids: Sequence[str], quality: int | None = None) -> Pattern:
    """The pattern `code` held by the graphs `held`: per class, how many of
    them hold it and their ids."""
    ids: dict[str, set[str]] = defaultdict(set)
    for gi in held:
        ids[classes[gi]].add(sample_ids[gi])
    support = Counter(classes[gi] for gi in held)
    return Pattern(code=code, support=dict(sorted(support.items())), quality=quality,
                   supporting_ids={c: frozenset(v) for c, v in ids.items()})


def gspan_mine(samples: Sequence[LabeledSample], min_support: int, min_nodes: int,
               max_nodes: int) -> list[Pattern]:
    """All frequent connected patterns of the samples' graphs with node
    counts in [min_nodes, max_nodes], each reported once per isomorphism
    class with per-class support counts.  Support is the number of distinct
    graphs containing the pattern; its supporting ids name their samples."""
    classes = [s.cls.value for s in samples]
    ids = [s.id for s in samples]
    patterns: list[Pattern] = []
    _mine([s.cfg for s in samples], [True] * len(samples), min_support, min_nodes, max_nodes,
          report=lambda code, held: patterns.append(_make_pattern(code, held, classes, ids)))
    patterns.sort(key=lambda p: (p.node_count, p.code))
    return patterns


# ---------------------------------------------------------------------------
# CORK discriminative selection
# ---------------------------------------------------------------------------

def cork_quality(pos_hit: int, neg_hit: int, pos_total: int, neg_total: int) -> int:
    """Correspondence-based quality: 0 is best (perfect discriminator) and
    values grow more negative as the pattern confuses the two classes."""
    if not (0 <= pos_hit <= pos_total and 0 <= neg_hit <= neg_total):
        raise MiningError("inconsistent support counts")
    return -(pos_hit * neg_hit + (pos_total - pos_hit) * (neg_total - neg_hit))


def cork_upper_bound(pos_hit: int, neg_hit: int, pos_total: int, neg_total: int) -> int:
    """Largest quality any refinement (subset supports) of a pattern with
    these supports can reach; refinements can only shrink each side."""
    a, b, A, B = pos_hit, neg_hit, pos_total, neg_total
    return -min((A - a) * B, A * (B - b), a * b + (A - a) * (B - b))


def select_discriminative(
    samples: Sequence[LabeledSample],
    target_class: SampleClass | str,
    min_support: int,
    min_nodes: int,
    max_nodes: int,
    top_k: int | None = None,
    per_size: bool = False,
) -> list[Pattern]:
    """Mine patterns frequent in the target class and rank them by CORK
    quality (descending), node count, then code; with `per_size`, by node
    count, then quality and code.  With top_k set, only the first top_k are
    returned (of each node count, with `per_size`), and a prune that never
    changes them cuts the search."""
    target = target_class.value if isinstance(target_class, SampleClass) else str(target_class)
    classes = [s.cls.value for s in samples]
    if target not in classes:
        raise MiningError(f"no samples of target class {target!r}")
    positive = [c == target for c in classes]
    pos_total = sum(positive)
    neg_total = len(classes) - pos_total
    if top_k is not None and top_k < 1:
        raise MiningError("top_k must be positive")
    cap = top_k or math.inf

    def supports(held: list[int]) -> tuple[int, int, int, int]:
        """CORK's arguments: target and other hits, target and other totals."""
        a = sum(positive[gi] for gi in held)
        return a, len(held) - a, pos_total, neg_total

    # bucket (node count with `per_size`, else 0) -> its best `cap` codes so
    # far as ((-quality, node count, code), graphs holding it), best first
    kept: dict[int, list] = defaultdict(list)

    def prune(code: Code, held: list[int]) -> bool:
        # `code` and its extensions score at most ub, have some s >= lo nodes
        # and sort from `code` on: none enters a full bucket whose last key
        # sorts before (-ub, s, code), s = lo for the one bucket of top_k; a
        # generator, so `all` stops at the first bucket not full whatever
        # max_nodes is (no pattern outgrows the largest graph)
        lo = max(_vertex_count(code), min_nodes)
        ub = cork_upper_bound(*supports(held))
        feeds = ((s, s) for s in range(lo, max_nodes + 1)) if per_size else [(0, lo)]
        return all(len(kept[b]) == cap and (-ub, s, code) > kept[b][-1][0] for b, s in feeds)

    def on_found(code: Code, held: list[int]):
        q, n = cork_quality(*supports(held)), _vertex_count(code)
        bucket = kept[n if per_size else 0]
        insort(bucket, ((-q, n, code), held))
        if len(bucket) > cap:
            bucket.pop()

    _mine([s.cfg for s in samples], positive, min_support, min_nodes, max_nodes,
          report=on_found, prune=None if top_k is None else prune)
    ids = [s.id for s in samples]
    return [_make_pattern(code, held, classes, ids, quality=-neg_q)
            for b in sorted(kept) for (neg_q, _, code), held in kept[b]]
