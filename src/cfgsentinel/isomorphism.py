"""Directed subgraph isomorphism (non-induced monomorphism) with node labels.

VF2-style backtracking: pattern nodes are matched in a connectivity-aware
order, candidates are drawn from the host neighborhoods of already-mapped
nodes, and look-ahead degree/label checks prune the search.  A mapping m
is a match when it is injective, label-preserving, and every pattern edge
(u, v) has (m(u), m(v)) in the host.  Host edges outside the image are not
constrained.

Each pattern is compiled once into a match plan, kept on its graph view
(`Cfg.view.plan`) and reused against every host.
"""

from __future__ import annotations

from typing import NamedTuple

from .graph import Cfg, GraphView


def _pattern_order(p: GraphView) -> list[int]:
    """Match order, as pattern positions: start at the highest-degree node,
    then prefer nodes connected to the already-ordered prefix; ties go to the
    larger label, then the smaller node id."""
    def key(i):
        return p.outdeg[i] + p.indeg[i], p.labels[i], -p.ids[i]

    remaining = set(range(len(p.ids)))
    first = max(remaining, key=key)
    order = [first]
    remaining.discard(first)
    while remaining:
        frontier = [
            i for i in remaining
            if (set(p.succ[i]) | set(p.pred[i])) & set(order)
        ]
        pool = frontier if frontier else list(remaining)
        nxt = max(pool, key=key)
        order.append(nxt)
        remaining.discard(nxt)
    return order


class _Step(NamedTuple):
    """One position of a match plan.  Neighbour references are positions
    in the plan, all earlier than this one."""

    label: int
    outdeg: int
    indeg: int
    loop: bool                 # the pattern node has a self-loop
    prior_out: tuple[int, ...]  # mapped q with edge n -> q
    prior_in: tuple[int, ...]   # mapped q with edge q -> n


def _compile(p: GraphView) -> tuple[_Step, ...]:
    order = _pattern_order(p)
    pos = {n: k for k, n in enumerate(order)}
    return tuple(
        _Step(
            label=p.labels[n],
            outdeg=p.outdeg[n],
            indeg=p.indeg[n],
            loop=n in p.succ[n],
            prior_out=tuple(pos[q] for q in p.succ[n] if pos[q] < k),
            prior_in=tuple(pos[q] for q in p.pred[n] if pos[q] < k),
        )
        for k, n in enumerate(order)
    )


def _match(pattern: Cfg, host: Cfg, limit: int) -> int:
    """Count label- and edge-preserving injective mappings, stopping early
    once `limit` is reached (limit=1 gives a containment test)."""
    p = pattern.view
    h = host.view
    if len(p.ids) > len(h.ids):
        return 0
    # necessary condition: enough host nodes of every pattern label
    for lab, cnt in p.label_counts.items():
        if h.label_counts.get(lab, 0) < cnt:
            return 0

    if p.plan is None:
        p.plan = _compile(p)
    plan = p.plan
    size = len(plan)
    edges = h.edges
    labels, outdeg, indeg = h.labels, h.outdeg, h.indeg
    succ, pred, by_label = h.succ, h.pred, h.by_label
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
            cands = by_label[label]
        for cand in cands:
            if (cand in used or labels[cand] != label
                    or outdeg[cand] < odeg or indeg[cand] < ideg
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


def is_subgraph(pattern: Cfg, host: Cfg) -> bool:
    """True when the pattern maps injectively into the host preserving
    labels and directed edges (host may have extra edges)."""
    return _match(pattern, host, limit=1) > 0


def match_count(pattern: Cfg, host: Cfg, limit: int = 1_000_000) -> int:
    """Number of distinct monomorphisms, capped at `limit`."""
    if limit < 1:
        raise ValueError("limit must be positive")
    return _match(pattern, host, limit=limit)
