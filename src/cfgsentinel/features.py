"""Feature extraction: 23 graph-theoretic features per control-flow graph.

Layout: five summary statistics (min, max, median, mean, std) for each of
betweenness centrality, closeness centrality, degree centrality, and
shortest-path lengths, followed by density, edge count, and node count.
"""

from __future__ import annotations

import math
import statistics
import sys
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


# Bits of the integer square root taken before the one rounding to float:
# the float's 53 bits plus enough to make round-to-odd exact.
_SQRT_BITS = 2 * sys.float_info.mant_dig + 3


def _sqrt_of_fraction(n: int, m: int) -> float:
    """sqrt(n / m) for integers n >= 0 and m > 0, correctly rounded: the
    integer square root of n / m scaled to _SQRT_BITS bits, rounded to odd,
    then rounded once to a float (the method of CPython 3.11's
    `statistics._float_sqrt_of_frac`)."""
    q = (n.bit_length() - m.bit_length() - _SQRT_BITS) // 2
    if q >= 0:
        m <<= 2 * q
    else:
        n <<= -2 * q
    a = math.isqrt(n // m)
    a |= a * a * m != n
    return float(a << q) if q >= 0 else a / (1 << -q)


def _pstdev_of_sums(n: int, s: int, ss: int, shift: int = 0) -> float:
    """Population std of n values x_i / 2**shift with integer numerators of
    sum s and sum of squares ss: sqrt((n*ss - s*s) / (n*n * 4**shift))."""
    return _sqrt_of_fraction(n * ss - s * s, n * n << 2 * shift)


def summary_stats(values: Sequence[float]) -> tuple[float, float, float, float, float]:
    """(min, max, median, mean, population std) of a non-empty sequence of
    finite numbers.

    The median of an even-length sequence is the mean of the two middle
    elements.  The std is exact before its one rounding, so it equals
    `statistics.pstdev` of Python 3.11 on every Python: every float is an
    integer over a power of two, and brought to the largest of those
    powers the variance is a fraction of integers.
    """
    if len(values) == 0:
        raise ValueError("summary_stats requires a non-empty sequence")
    vs = [float(v) for v in values]
    ratios = [v.as_integer_ratio() for v in vs]
    shift = max(d for _, d in ratios).bit_length() - 1
    xs = [p << shift - d.bit_length() + 1 for p, d in ratios]
    std = _pstdev_of_sums(len(xs), sum(xs), sum(x * x for x in xs), shift)
    return (min(vs), max(vs), statistics.median(vs), statistics.fmean(vs), std)


def _count_stats(counts: Sequence[int]) -> tuple[float, float, float, float, float]:
    """`summary_stats` of the non-negative integers in which value k occurs
    counts[k] times, without expanding them; the same five floats."""
    present = [k for k, c in enumerate(counts) if c]
    if not present:
        raise ValueError("_count_stats requires a non-empty histogram")
    n = s = ss = 0
    for k in present:
        c = counts[k]
        n += c
        s += c * k
        ss += c * k * k

    def nth(i: int) -> float:
        """The i-th smallest value (0-based)."""
        for k in present:
            i -= counts[k]
            if i < 0:
                return float(k)

    half = n // 2
    median = nth(half) if n % 2 else (nth(half - 1) + nth(half)) / 2
    return (float(present[0]), float(present[-1]), median, float(s) / n,
            _pstdev_of_sums(n, s, ss))


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
    return {i: (len(s) + len(p)) / (n - 1) for i, s, p in zip(view.ids, view.succ, view.pred)}


@dataclass(frozen=True)
class _Paths:
    betweenness: dict[int, float]
    closeness: dict[int, float]
    length_counts: list[int]  # [k] = ordered pairs u != v at distance k


def _shortest_paths(g: Cfg) -> _Paths:
    """One Brandes pass (BFS with path counting, then dependency
    accumulation) per source, over the view's positions in document order.
    Each BFS also gives the source's closeness and adds its finite path
    lengths to one histogram.

    The dependency pass keeps no predecessor lists: a predecessor u of w lies
    on a shortest path from the source when dist[u] == dist[w] - 1.  Each
    delta[u] still takes its terms in reversed BFS order of w.

    Path counts are exact ints, as in Brandes, "A faster algorithm for
    betweenness centrality" (J. Math. Sociol. 2001): k chained diamonds
    hold 2**k shortest paths, past a float's range from k = 1024.  Below
    2**53 float counts are exact too, so the results are the same."""
    view = g.view
    nodes, succ, pred = view.ids, view.succ, view.pred
    n = len(nodes)
    bc = [0.0] * n
    closeness: dict[int, float] = {}
    length_counts = [0] * n
    for s in range(n):
        # single-source shortest paths with path counting
        dist = [-1] * n
        sigma = [0] * n
        dist[s] = 0
        sigma[s] = 1
        # `order` is both the visiting order and the BFS queue: iterating a
        # list reaches the entries appended during the loop
        order = [s]
        for u in order:
            d = dist[u] + 1
            su = sigma[u]
            for w in succ[u]:
                dw = dist[w]
                if dw < 0:
                    dist[w] = d
                    sigma[w] = su
                    order.append(w)
                elif dw == d:
                    sigma[w] += su
        r = len(order) - 1
        # every unreached node holds -1
        total = sum(dist) + n - 1 - r
        closeness[nodes[s]] = 0.0 if r == 0 else (r / (n - 1)) * (r / total)
        # dependency accumulation, the source excluded
        delta = [0.0] * n
        for w in order[:0:-1]:
            up = dist[w] - 1
            length_counts[up + 1] += 1
            sw, cw = sigma[w], 1.0 + delta[w]
            for u in pred[w]:
                if dist[u] == up:
                    delta[u] += (sigma[u] / sw) * cw
            bc[w] += delta[w]
    if n < 3:
        betweenness = {v: 0.0 for v in nodes}
    else:
        norm = (n - 1) * (n - 2)
        betweenness = {v: bc[k] / norm for k, v in enumerate(nodes)}
    return _Paths(betweenness, closeness, length_counts)


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
    """All finite directed shortest-path lengths d(u, v) with u != v, in
    ascending order."""
    counts = _shortest_paths(g).length_counts
    return [k for k, c in enumerate(counts) for _ in range(c)]


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
    vec.extend(_count_stats(paths.length_counts) if any(paths.length_counts) else (0.0,) * 5)
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
