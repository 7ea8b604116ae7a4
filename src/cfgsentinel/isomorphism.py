"""Directed subgraph isomorphism (non-induced monomorphism) with node labels.

A mapping m is a match when it is injective, label-preserving, and every
pattern edge (u, v) has (m(u), m(v)) in the host.  Host edges outside the
image are not constrained.

The search works on the host's int bitsets (`Masks`), in the manner of
Ullmann's candidate refinement.  Each pattern position first gets a static
candidate set: the host nodes with its label, its self-loop and, per
neighbour label, at least as many successors and predecessors with that
label as the pattern node has (the neighbour-label-frequency filter).  A
position's candidates during the search are its static set minus the used
host nodes, intersected with the successor or predecessor sets of its
already-mapped pattern neighbours.  Candidates are taken lowest position
first; the results do not depend on that order.

A pattern's match plan (`_compile`) and a host's bitsets (`_host_masks`)
are built by the first match that needs them and kept on the graph's view
(`Cfg.view.plan`, `Cfg.view.masks`).

A search can be bounded in time: inside `deadline(seconds)`, every match
checks the clock on entry and every 1,024 search steps, and raises
`SearchTimeout` once the time is up.
"""

from __future__ import annotations

import time
from collections import Counter
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Iterator, NamedTuple

from .graph import Cfg, GraphView


class SearchTimeout(RuntimeError):
    """Raised when a match runs past the deadline set by `deadline`."""


# The monotonic time at which matching stops, or None for no limit.
_DEADLINE: ContextVar[float | None] = ContextVar("isomorphism_deadline", default=None)

# Search steps between two clock checks.
_CHUNK = range(1024)


@contextmanager
def deadline(seconds: float) -> Iterator[None]:
    """Make every match inside the block raise SearchTimeout once
    `seconds` have passed from entry."""
    token = _DEADLINE.set(time.monotonic() + seconds)
    try:
        yield
    finally:
        _DEADLINE.reset(token)


class Masks(NamedTuple):
    """A host's adjacency as int bitsets, bit k standing for position k."""

    succ: tuple[int, ...]  # per position: its successors
    pred: tuple[int, ...]  # per position: its predecessors
    loops: int             # the positions with a self-loop
    # (direction, label, k) -> the positions with at least k successors
    # (direction 0) or predecessors (direction 1) carrying the label;
    # (2, label, 1) -> the positions carrying the label themselves
    need: dict[tuple[int, int, int], int]


def _host_masks(h: GraphView) -> Masks:
    n = len(h.ids)
    succ = [0] * n
    pred = [0] * n
    for u, v in h.edges:
        succ[u] |= 1 << v
        pred[v] |= 1 << u
    by_label: dict[int, list[int]] = {}
    for k, lab in enumerate(h.labels):
        by_label.setdefault(lab, []).append(k)
    need: dict[tuple[int, int, int], int] = {}
    for lab, members in by_label.items():
        need[2, lab, 1] = sum(1 << k for k in members)
        # bit-sliced counters: levels[j] holds the positions with more
        # than j neighbours of this label seen so far
        for d, adj in ((0, pred), (1, succ)):
            levels: list[int] = []
            for w in members:
                carry = adj[w]
                for j, level in enumerate(levels):
                    levels[j] = level | carry
                    carry &= level
                    if not carry:
                        break
                else:
                    if carry:
                        levels.append(carry)
            for j, level in enumerate(levels, 1):
                need[d, lab, j] = level
    loops = sum(1 << k for k in range(n) if succ[k] >> k & 1)
    return Masks(tuple(succ), tuple(pred), loops, need)


def _pattern_order(p: GraphView) -> list[int]:
    """Match order, as pattern positions: start at the highest-degree node,
    then prefer nodes connected to the already-ordered prefix; ties go to the
    larger label, then the smaller node id."""
    def key(i):
        return len(p.succ[i]) + len(p.pred[i]), p.labels[i], -p.ids[i]

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

    needs: tuple[tuple[int, int, int], ...]  # `Masks.need` keys, label first
    loop: bool                  # the pattern node has a self-loop
    prior_out: tuple[int, ...]  # mapped q with edge n -> q
    prior_in: tuple[int, ...]   # mapped q with edge q -> n


def _compile(p: GraphView) -> tuple[_Step, ...]:
    order = _pattern_order(p)
    pos = {n: k for k, n in enumerate(order)}
    labels = p.labels
    return tuple(
        _Step(
            needs=((2, labels[n], 1),) + tuple(
                (d, lab, count)
                for d, nbrs in enumerate((p.succ[n], p.pred[n]))
                for lab, count in Counter(labels[w] for w in nbrs).items()
            ),
            loop=n in p.succ[n],
            prior_out=tuple(pos[q] for q in p.succ[n] if pos[q] < k),
            prior_in=tuple(pos[q] for q in p.pred[n] if pos[q] < k),
        )
        for k, n in enumerate(order)
    )


def _match(pattern: Cfg, host: Cfg, limit: int) -> int:
    """Count label- and edge-preserving injective mappings, stopping early
    once `limit` is reached (limit=1 gives a containment test)."""
    stop = _DEADLINE.get()
    if stop is not None and time.monotonic() > stop:
        raise SearchTimeout("match deadline passed")
    p = pattern.view
    h = host.view
    if len(p.ids) > len(h.ids):
        return 0
    plan = p.plan
    if plan is None:
        plan = p.plan = _compile(p)
    masks = h.masks
    if masks is None:
        masks = h.masks = _host_masks(h)
    succ, pred, loops, need = masks

    static = []
    try:
        for needs, loop, _, _ in plan:
            cands = loops if loop else -1
            for key in needs:
                cands &= need[key]
            if not cands:
                return 0
            static.append(cands)
    except KeyError:  # no host node meets one of the needs
        return 0
    last = len(plan) - 1
    if not last:
        return min(static[0].bit_count(), limit)

    # Iterative depth-first search.  rest[k]: the candidates of position k
    # not tried yet; mapped[k]: the host position it holds.  The last
    # position's candidates are counted, not visited.
    rest = [0] * last
    mapped = [0] * last
    rest[0] = static[0]
    used = 0
    found = 0
    k = 0
    while True:
        for _ in _CHUNK:
            cands = rest[k]
            if not cands:
                if not k:
                    return found
                k -= 1
                used ^= 1 << mapped[k]
                continue
            low = cands & -cands
            rest[k] = cands ^ low
            mapped[k] = low.bit_length() - 1
            used |= low
            nxt = k + 1
            cands = static[nxt] & ~used
            _, _, prior_out, prior_in = plan[nxt]
            for q in prior_out:
                cands &= pred[mapped[q]]
            for q in prior_in:
                cands &= succ[mapped[q]]
            if cands:
                if nxt < last:
                    rest[nxt] = cands
                    k = nxt
                    continue
                found += cands.bit_count()
                if found >= limit:
                    return limit
            used ^= low
        if stop is not None and time.monotonic() > stop:
            raise SearchTimeout("match deadline passed")


def is_subgraph(pattern: Cfg, host: Cfg) -> bool:
    """True when the pattern maps injectively into the host preserving
    labels and directed edges (host may have extra edges)."""
    return _match(pattern, host, limit=1) > 0


def match_count(pattern: Cfg, host: Cfg, limit: int = 1_000_000) -> int:
    """Number of distinct monomorphisms, capped at `limit`."""
    if limit < 1:
        raise ValueError("limit must be positive")
    return _match(pattern, host, limit=limit)
