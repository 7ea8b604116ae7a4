"""Independent reference implementations used to cross-check the package.

Everything here is written the slow, obvious way — repeated BFS, exhaustive
enumeration, brute-force permutation search — so that agreement with the
fast implementations is meaningful.
"""

from __future__ import annotations

import itertools
import math
from collections import deque

import numpy as np

from cfgsentinel.graph import Cfg
from cfgsentinel.isomorphism import _pattern_order


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------

def naive_stats(values):
    """(min, max, median, mean, population std) computed longhand."""
    vs = sorted(values)
    n = len(vs)
    if n == 0:
        raise ValueError("empty")
    mid = n // 2
    median = vs[mid] if n % 2 else (vs[mid - 1] + vs[mid]) / 2.0
    mean = sum(vs) / n
    var = sum((v - mean) ** 2 for v in vs) / n
    return (vs[0], vs[-1], median, mean, math.sqrt(var))


# ---------------------------------------------------------------------------
# Graph distances and centralities
# ---------------------------------------------------------------------------

def floyd_warshall(g: Cfg) -> dict[tuple[int, int], int]:
    """All-pairs shortest path lengths over directed edges (finite only)."""
    ids = list(g.node_ids)
    inf = float("inf")
    d = {(u, v): (0 if u == v else inf) for u in ids for v in ids}
    for (u, v) in g.edges:
        if u != v:
            d[(u, v)] = min(d[(u, v)], 1)
    for k in ids:
        for i in ids:
            dik = d[(i, k)]
            if dik == inf:
                continue
            for j in ids:
                alt = dik + d[(k, j)]
                if alt < d[(i, j)]:
                    d[(i, j)] = alt
    return {
        (u, v): int(dist)
        for (u, v), dist in d.items()
        if u != v and dist != inf
    }


def brute_betweenness(g: Cfg) -> dict[int, float]:
    """Betweenness by enumerating all shortest paths pair by pair."""
    ids = list(g.node_ids)
    n = len(ids)
    score = {v: 0.0 for v in ids}
    if n < 3:
        return score
    adj = {u: [] for u in ids}
    for (u, v) in g.edges:
        if u != v:
            adj[u].append(v)

    def all_shortest_paths(s, t):
        # BFS layers, then DFS back over parents
        dist = {s: 0}
        parents = {s: []}
        q = deque([s])
        while q:
            u = q.popleft()
            for w in adj[u]:
                if w not in dist:
                    dist[w] = dist[u] + 1
                    parents[w] = [u]
                    q.append(w)
                elif dist[w] == dist[u] + 1:
                    parents[w].append(u)
        if t not in dist:
            return []
        paths = []

        def back(node, acc):
            if node == s:
                paths.append([s] + acc[::-1])
                return
            for p in parents[node]:
                back(p, acc + [node])

        back(t, [])
        return paths

    for s in ids:
        for t in ids:
            if s == t:
                continue
            paths = all_shortest_paths(s, t)
            if not paths:
                continue
            sigma = len(paths)
            for path in paths:
                for v in path[1:-1]:
                    score[v] += 1.0 / sigma
    norm = (n - 1) * (n - 2)
    return {v: s / norm for v, s in score.items()}


def naive_closeness(g: Cfg) -> dict[int, float]:
    """Wasserman–Faust closeness from a fresh BFS per node."""
    ids = list(g.node_ids)
    n = len(ids)
    adj = {u: [] for u in ids}
    for (u, v) in g.edges:
        if u != v:
            adj[u].append(v)
    out = {}
    for s in ids:
        dist = {s: 0}
        q = deque([s])
        while q:
            u = q.popleft()
            for w in adj[u]:
                if w not in dist:
                    dist[w] = dist[u] + 1
                    q.append(w)
        reach = [d for v, d in dist.items() if v != s]
        r = len(reach)
        if r == 0 or n == 1:
            out[s] = 0.0
        else:
            out[s] = (r / (n - 1)) * (r / sum(reach))
    return out


# ---------------------------------------------------------------------------
# Subgraph isomorphism (exhaustive)
# ---------------------------------------------------------------------------

def exhaustive_monomorphisms(pattern: Cfg, host: Cfg, limit: int | None = None):
    """All injective label/arc-preserving maps, found by trying every
    assignment in fixed id order."""
    p_ids = sorted(pattern.node_ids)
    h_ids = sorted(host.node_ids)
    p_label = dict(pattern.nodes)
    h_label = dict(host.nodes)
    p_edges = pattern.edges
    h_edges = host.edges
    found = []

    def extend(k, mapping):
        if limit is not None and len(found) >= limit:
            return
        if k == len(p_ids):
            found.append(dict(mapping))
            return
        u = p_ids[k]
        for cand in h_ids:
            if cand in mapping.values():
                continue
            if h_label[cand] != p_label[u]:
                continue
            ok = True
            for (a, b) in p_edges:
                if a == u and b in mapping and (cand, mapping[b]) not in h_edges:
                    ok = False
                    break
                if b == u and a in mapping and (mapping[a], cand) not in h_edges:
                    ok = False
                    break
                if a == u and b == u and (cand, cand) not in h_edges:
                    ok = False
                    break
            if ok:
                mapping[u] = cand
                extend(k + 1, mapping)
                del mapping[u]

    extend(0, {})
    return found


def _vf2_compile(p):
    """Per plan position: label, degrees, self-loop flag and the earlier
    positions it has arcs to / from."""
    order = _pattern_order(p)
    pos = {n: k for k, n in enumerate(order)}
    return tuple(
        (
            p.labels[n],
            len(p.succ[n]),
            len(p.pred[n]),
            n in p.succ[n],
            tuple(pos[q] for q in p.succ[n] if pos[q] < k),
            tuple(pos[q] for q in p.pred[n] if pos[q] < k),
        )
        for k, n in enumerate(order)
    )


def vf2_match(pattern: Cfg, host: Cfg, limit: int) -> int:
    """The VF2-style matcher the bitset search replaced, kept as a
    reference: a recursive backtrack over sets and tuples that draws
    candidates from a mapped neighbour's host adjacency, or from the host
    nodes carrying the label, in node-id / document order.  Counts mappings
    up to `limit`.  It reads only the view's plain fields, and compiles its
    plan per call in the library's match order (any order gives the same
    count)."""
    p = pattern.view
    h = host.view
    if len(p.ids) > len(h.ids):
        return 0
    by_label: dict[int, list[int]] = {}
    for k, lab in enumerate(h.labels):
        by_label.setdefault(lab, []).append(k)
    # necessary condition: enough host nodes of every pattern label
    for lab in set(p.labels):
        if len(by_label.get(lab, ())) < p.labels.count(lab):
            return 0

    plan = _vf2_compile(p)
    size = len(plan)
    edges = h.edges
    labels = h.labels
    succ, pred = h.succ, h.pred
    mapping = [0] * size  # host position of each plan position
    used: set[int] = set()
    found = 0

    def backtrack(k: int) -> bool:
        nonlocal found
        if k == size:
            found += 1
            return found >= limit
        label, odeg, ideg, loop, prior_out, prior_in = plan[k]
        # derive candidates from a mapped neighbor's host adjacency when
        # available, otherwise from the host nodes carrying the label
        if prior_out:
            cands = pred[mapping[prior_out[0]]]
        elif prior_in:
            cands = succ[mapping[prior_in[0]]]
        else:
            cands = by_label.get(label, ())
        for cand in cands:
            if (cand in used or labels[cand] != label
                    or len(succ[cand]) < odeg or len(pred[cand]) < ideg
                    or (loop and (cand, cand) not in edges)):
                continue
            # every pattern edge to an earlier position needs its host edge;
            # the innermost else runs only when no check broke out
            for q in prior_out:
                if (cand, mapping[q]) not in edges:
                    break
            else:
                for q in prior_in:
                    if (mapping[q], cand) not in edges:
                        break
                else:
                    mapping[k] = cand
                    used.add(cand)
                    done = backtrack(k + 1)
                    used.discard(cand)
                    if done:
                        return True
        return False

    backtrack(0)
    return found


# ---------------------------------------------------------------------------
# Isomorphism classes and brute-force mining
# ---------------------------------------------------------------------------

def iso_key(nodes, edges):
    """Canonical key for a small labeled digraph by trying every relabeling
    permutation.  `nodes` is {id: label}, `edges` a set of (u, v)."""
    ids = sorted(nodes)
    best = None
    for perm in itertools.permutations(range(len(ids))):
        ren = {ids[i]: perm[i] for i in range(len(ids))}
        key = (
            tuple(sorted((ren[i], nodes[i]) for i in ids)),
            tuple(sorted((ren[u], ren[v]) for (u, v) in edges)),
        )
        if best is None or key < best:
            best = key
    return best


def _connected_arc_subsets(g: Cfg, max_nodes: int):
    """Every weakly-connected sub-multidigraph of g induced by a subset of
    arcs (plus single vertices), up to max_nodes vertices.  Yields
    (nodes_dict, edge_set) pairs; duplicates across different arc subsets
    with the same vertex/arc content are not emitted twice."""
    label = dict(g.nodes)
    arcs = sorted(g.edges)
    seen = set()
    # single vertices
    for v in sorted(g.node_ids):
        key = ((0, label[v]),)
        item = ({v: label[v]}, frozenset())
        marker = (frozenset([v]), frozenset())
        if marker not in seen:
            seen.add(marker)
            yield item
    # arc subsets, grown connectedly
    def vertices_of(edge_set):
        vs = set()
        for (u, v) in edge_set:
            vs.add(u)
            vs.add(v)
        return vs

    frontier = [frozenset([a]) for a in arcs]
    visited = set(frontier)
    while frontier:
        nxt = []
        for es in frontier:
            vs = vertices_of(es)
            if len(vs) <= max_nodes:
                marker = (frozenset(vs), es)
                if marker not in seen:
                    seen.add(marker)
                    yield ({v: label[v] for v in vs}, es)
            for a in arcs:
                if a in es:
                    continue
                u, v = a
                if u in vs or v in vs:
                    es2 = es | {a}
                    if len(vertices_of(es2)) <= max_nodes and es2 not in visited:
                        visited.add(es2)
                        nxt.append(es2)
        frontier = nxt


def brute_force_mine(graphs, min_support: int, min_nodes: int, max_nodes: int):
    """Frequent connected subgraph enumeration by exhaustive arc subsets.

    Returns {iso_key: support_count} for patterns within the size band.
    Support counts each graph at most once.
    """
    per_graph_keys = []
    for g in graphs:
        keys = set()
        for nodes, edges in _connected_arc_subsets(g, max_nodes):
            if min_nodes <= len(nodes) <= max_nodes:
                keys.add(iso_key(nodes, edges))
        per_graph_keys.append(keys)
    counts = {}
    for keys in per_graph_keys:
        for k in keys:
            counts[k] = counts.get(k, 0) + 1
    return {k: c for k, c in counts.items() if c >= min_support}


def top_k_search_visits(events, k: int, per_size: bool, min_nodes: int, max_nodes: int):
    """The codes a top-k discriminative search visits, replayed from the
    uncapped search's events in order: ("visit", code, upper bound) when the
    search reaches a code, ("report", code, quality) when it reports one.

    A code is pruned, with everything that extends it, when each list it
    could still enter (its node count up to max_nodes per size, else the
    one list) holds k reported keys (-quality, node count, code), and every
    one sorts before (-bound, that count or max(count, min_nodes), code)."""
    kept: dict = {}
    visited, pruned = [], []
    for kind, code, value in events:
        if any(code[:len(c)] == c for c in pruned):
            continue
        n = len({v for e in code for v in e[:2]})
        if kind == "report":
            key = n if per_size else None
            kept[key] = sorted(kept.get(key, []) + [(-value, n, code)])[:k]
            continue
        visited.append(code)
        lo = max(n, min_nodes)
        lists = [(s, s) for s in range(lo, max_nodes + 1)] if per_size else [(None, lo)]
        if all(len(kept.get(key, [])) == k and all(x < (-value, s, code) for x in kept[key])
               for key, s in lists):
            pruned.append(code)
    return visited


# ---------------------------------------------------------------------------
# Training
# ---------------------------------------------------------------------------

class TextbookAdam:
    """Adam written as whole-array expressions (Kingma & Ba, arXiv 1412.6980),
    one temporary per operation.  nn.Adam must produce the same bits."""

    def __init__(self, params, lr=1e-3, beta1=0.9, beta2=0.999, eps=1e-8):
        self.params = params
        self.lr, self.b1, self.b2, self.eps = lr, beta1, beta2, eps
        self.m = [np.zeros_like(p) for p in params]
        self.v = [np.zeros_like(p) for p in params]
        self.t = 0

    def step(self, grads):
        self.t += 1
        for p, g, m, v in zip(self.params, grads, self.m, self.v):
            m[...] = self.b1 * m + (1 - self.b1) * g
            v[...] = self.b2 * v + (1 - self.b2) * g * g
            mhat = m / (1 - self.b1 ** self.t)
            vhat = v / (1 - self.b2 ** self.t)
            p -= self.lr * mhat / (np.sqrt(vhat) + self.eps)


# ---------------------------------------------------------------------------
# Per-document path: the implementations the fast ones replaced
# ---------------------------------------------------------------------------

def brandes_with_preds(g: Cfg):
    """(betweenness, closeness, path lengths in visiting order): one Brandes
    pass per source that keeps a predecessor list per node.  Betweenness and
    closeness must match features._shortest_paths bit for bit."""
    nodes = g.node_ids
    n = len(nodes)
    index = {v: k for k, v in enumerate(nodes)}
    adj = [[] for _ in nodes]
    for u, w in sorted(g.edges):  # successors in ascending id order
        adj[index[u]].append(index[w])
    bc = [0.0] * n
    closeness = {}
    lengths = []
    for s in range(n):
        dist = [-1] * n
        sigma = [0.0] * n
        preds = [[] for _ in range(n)]
        dist[s] = 0
        sigma[s] = 1.0
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
    return betweenness, closeness, lengths


class PadConvForward:
    """Conv1D.forward through an np.pad copy, and the bias added in a new
    array.  Shares the weights of `conv`; the outputs must be bit-identical."""

    def __init__(self, conv):
        self.conv = conv

    def forward(self, x):
        conv = self.conv
        if conv.pad:
            x = np.pad(x, ((0, 0), (0, 0), (conv.pad, conv.pad)))
        b, c_in, w_pad = x.shape
        w_out = w_pad - conv.k + 1
        cols = np.empty((b, w_out, c_in * conv.k))
        for o in range(conv.k):
            cols[:, :, o::conv.k] = x[:, :, o : o + w_out].transpose(0, 2, 1)
        self.cols = cols
        y = cols @ conv.W.reshape(conv.W.shape[0], -1).T + conv.b
        return y.transpose(0, 2, 1)


class ArgmaxPool:
    """Width-2, stride-2 max pooling through argmax and a max reduction over
    a length-2 axis, with a two-buffer backward scatter."""

    def forward(self, x):
        b, c, w = x.shape
        w_out = w // 2
        self.in_shape = x.shape
        xt = x[:, :, : 2 * w_out].reshape(b, c, w_out, 2)
        self.arg = xt.argmax(axis=3)
        return xt.max(axis=3)

    def backward(self, dout):
        b, c, w = self.in_shape
        w_out = w // 2
        dx = np.zeros((b, c, w_out, 2))
        np.put_along_axis(dx, self.arg[..., None], dout[..., None], axis=3)
        full = np.zeros(self.in_shape)
        full[:, :, : 2 * w_out] = dx.reshape(b, c, 2 * w_out)
        return full


class CopyingReLU:
    def forward(self, x):
        self.mask = x > 0
        return x * self.mask

    def backward(self, dout):
        return dout * self.mask


class CopyingDropout:
    """Inverted dropout into new arrays; draws its mask like nn.Dropout."""

    def __init__(self, p):
        self.p = p

    def forward(self, x, train, rng):
        if not train:
            self.mask = None
            return x
        self.mask = (rng.random(x.shape) >= self.p) / (1.0 - self.p)
        return x * self.mask

    def backward(self, dout):
        return dout if self.mask is None else dout * self.mask


def masked_apply_scaler(X, mins, maxs):
    """The min-max scaler over the live columns only, picked out by boolean
    indexing; every other column is 0."""
    X = np.asarray(X, dtype=np.float64)
    span = maxs - mins
    out = np.zeros_like(X)
    live = span > 0
    clipped = np.clip(X[:, live], mins[live], maxs[live])
    out[:, live] = (clipped - mins[live]) / span[live]
    return out


# ---------------------------------------------------------------------------
# Pattern ranking: the pattern-by-pattern benign scan
# ---------------------------------------------------------------------------

def scan_rank_patterns(candidates, family_train, benign_train, k=100,
                       benign_ceiling=10, support_fraction=0.05):
    """fhmc.rank_patterns with every candidate tested against every benign
    sample in turn (up to the ceiling's early stop), nothing carried over
    from its code prefixes.  The result must equal rank_patterns' exactly."""
    from cfgsentinel import fhmc
    from cfgsentinel.isomorphism import is_subgraph

    per_family = {}
    for fam, cands in candidates.items():
        fam_samples = list(family_train[fam])
        floor = fhmc.support_floor(len(fam_samples), support_fraction)
        survivors, benign_occ = [], []
        for p in sorted(cands, key=lambda p: p.code):
            if p.support.get(fam, 0) < floor:
                continue
            occ = 0
            for s in benign_train:
                if is_subgraph(p.graph, s.cfg):
                    occ += 1
                    if occ > benign_ceiling:
                        break
            if occ <= benign_ceiling:
                survivors.append(p)
                benign_occ.append(occ)
        if not survivors:
            per_family[fam] = []
            continue
        cov = fhmc.coverage_scores(survivors, fam, [s.id for s in fam_samples])
        z = [fhmc._minmax([p.node_count for p in survivors]),
             fhmc._minmax([p.support.get(fam, 0) for p in survivors]),
             fhmc._minmax(cov), fhmc._minmax([-o for o in benign_occ])]
        scored = [
            fhmc.RankedPattern(p, fam, p.support.get(fam, 0), cov[i], benign_occ[i],
                               0.25 * (z[0][i] + z[1][i] + z[2][i] + z[3][i]))
            for i, p in enumerate(survivors)
        ]
        scored.sort(key=lambda rp: (-rp.rank_score, rp.pattern.code))
        per_family[fam] = scored[:k]
    return fhmc.RankedPatternSet(per_family=per_family)
