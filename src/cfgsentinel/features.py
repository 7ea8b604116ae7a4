"""Feature extraction: 23 graph-theoretic features per control-flow graph.

Layout: five summary statistics (min, max, median, mean, std) for each of
betweenness centrality, closeness centrality, degree centrality, and
shortest-path lengths, followed by density, edge count, and node count.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .graph import Cfg

_BLOCKS = ("betweenness", "closeness", "degree", "shortest_path")
_STATS = ("min", "max", "median", "mean", "std")

FEATURE_NAMES: tuple[str, ...] = tuple(
    f"{block}_{stat}" for block in _BLOCKS for stat in _STATS
) + ("density", "edge_count", "node_count")

FEATURE_COUNT = len(FEATURE_NAMES)  # 23


def summary_stats(values: Sequence[float]) -> tuple[float, float, float, float, float]:
    """(min, max, median, mean, population std) of a non-empty sequence.

    The median of an even-length sequence is the mean of the two middle
    elements.
    """
    if len(values) == 0:
        raise ValueError("summary_stats requires a non-empty sequence")
    vs = [float(v) for v in values]
    return (min(vs), max(vs), statistics.median(vs), statistics.fmean(vs), statistics.pstdev(vs))


def density(g: Cfg) -> float:
    """|E| / (|V| * (|V| - 1)); zero when the graph has at most one node."""
    n = g.node_count
    if n <= 1:
        return 0.0
    return g.edge_count / (n * (n - 1))


def degree_centrality(g: Cfg) -> dict[int, float]:
    """(in-degree + out-degree) / (|V| - 1) per node; a self-loop adds one
    to each of the two degrees.  Zero for a single-node graph."""
    n = g.node_count
    view = g.view
    if n <= 1:
        return {i: 0.0 for i in view.ids}
    return {i: (view.outdeg[i] + view.indeg[i]) / (n - 1) for i in view.ids}


@dataclass(frozen=True)
class _Paths:
    betweenness: dict[int, float]
    closeness: dict[int, float]
    lengths: list[int]


def _shortest_paths(g: Cfg) -> _Paths:
    """One Brandes pass (BFS with path counting, then dependency
    accumulation) per source, in document order.  Each BFS also gives the
    source's closeness and its finite path lengths, in visiting order."""
    view = g.view
    nodes = view.ids
    n = len(nodes)
    index = {v: k for k, v in enumerate(nodes)}
    adj = [[index[w] for w in view.succ[v]] for v in nodes]
    bc = [0.0] * n
    closeness: dict[int, float] = {}
    lengths: list[int] = []
    for s in range(n):
        # single-source shortest paths with path counting
        dist = [-1] * n
        sigma = [0.0] * n
        preds: list[list[int]] = [[] for _ in range(n)]
        dist[s] = 0
        sigma[s] = 1.0
        # `order` is both the visiting order and the BFS queue: iterating a
        # list reaches the entries appended during the loop
        order = [s]
        for u in order:
            d = dist[u] + 1
            for w in adj[u]:
                if dist[w] < 0:
                    dist[w] = d
                    order.append(w)
                if dist[w] == d:
                    sigma[w] += sigma[u]
                    preds[w].append(u)
        reached = [dist[w] for w in order[1:]]
        lengths.extend(reached)
        r = len(reached)
        closeness[nodes[s]] = 0.0 if r == 0 else (r / (n - 1)) * (r / sum(reached))
        # dependency accumulation
        delta = [0.0] * n
        for w in reversed(order):
            for u in preds[w]:
                delta[u] += (sigma[u] / sigma[w]) * (1.0 + delta[w])
            if w != s:
                bc[w] += delta[w]
    if n < 3:
        betweenness = {v: 0.0 for v in nodes}
    else:
        norm = (n - 1) * (n - 2)
        betweenness = {v: bc[k] / norm for k, v in enumerate(nodes)}
    return _Paths(betweenness, closeness, lengths)


def closeness_centrality(g: Cfg) -> dict[int, float]:
    """Outgoing-distance closeness with the reachable-fraction correction.

    For node v with r nodes reachable over outgoing edges (v excluded) at
    total distance T: closeness = (r / (|V| - 1)) * (r / T), and 0 when
    nothing is reachable.
    """
    return _shortest_paths(g).closeness


def betweenness_centrality(g: Cfg) -> dict[int, float]:
    """Directed shortest-path betweenness (Brandes), endpoints excluded,
    normalized by (|V|-1)(|V|-2).  All zeros when |V| < 3."""
    return _shortest_paths(g).betweenness


def shortest_path_lengths(g: Cfg) -> list[int]:
    """All finite directed shortest-path lengths d(u, v) with u != v."""
    return _shortest_paths(g).lengths


def extract_features(g: Cfg) -> np.ndarray:
    """23-entry feature vector in the documented layout (float64)."""
    paths = _shortest_paths(g)
    per_node = [
        list(paths.betweenness.values()),
        list(paths.closeness.values()),
        list(degree_centrality(g).values()),
    ]
    vec: list[float] = []
    for values in per_node:
        vec.extend(summary_stats(values))
    vec.extend(summary_stats(paths.lengths) if paths.lengths else (0.0,) * 5)
    vec.append(density(g))
    vec.append(float(g.edge_count))
    vec.append(float(g.node_count))
    arr = np.asarray(vec, dtype=np.float64)
    if arr.shape != (FEATURE_COUNT,) or not np.all(np.isfinite(arr)):
        raise ValueError("feature extraction produced an invalid vector")
    return arr


def features_to_csv(rows: Iterable[tuple[str, np.ndarray]]) -> str:
    """CSV text with an `id` column plus the 23 named feature columns."""
    lines = ["id," + ",".join(FEATURE_NAMES)]
    for sid, vec in rows:
        if vec.shape != (FEATURE_COUNT,):
            raise ValueError(f"feature vector for {sid} has shape {vec.shape}")
        lines.append(sid + "," + ",".join(repr(float(x)) for x in vec))
    return "\n".join(lines) + "\n"
