"""Shared fixtures and random-graph generators for the test suite."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from cfgsentinel.graph import Cfg, LabeledSample, SampleClass


def random_cfg(rng: np.random.Generator, n_lo=2, n_hi=8, p=0.35,
               n_labels=3, self_loops=False) -> Cfg:
    """A random weakly-connected-ish labeled digraph.  Node 0 is the entry;
    a chain backbone guarantees every node is attached to the graph."""
    n = int(rng.integers(n_lo, n_hi + 1))
    nodes = tuple((i, int(rng.integers(0, n_labels))) for i in range(n))
    edges = set()
    for i in range(1, n):
        parent = int(rng.integers(0, i))
        edges.add((parent, i))
    for u in range(n):
        for v in range(n):
            if u == v and not self_loops:
                continue
            if (u, v) in edges:
                continue
            if rng.random() < p / n:
                edges.add((u, v))
    sinks = frozenset(i for i in range(n) if not any(u == i and v != i for (u, v) in edges))
    exits = sinks if sinks else frozenset({n - 1})
    return Cfg(nodes=nodes, edges=frozenset(edges), entry=0, exits=exits)


def tiny_cfg(rng: np.random.Generator, max_nodes=6, n_labels=2) -> Cfg:
    """Very small graph for exhaustive oracles."""
    return random_cfg(rng, n_lo=1, n_hi=max_nodes, p=1.2, n_labels=n_labels,
                      self_loops=bool(rng.random() < 0.3))


def relabeled(g: Cfg, rng: np.random.Generator, shuffle: bool = False) -> Cfg:
    """`g` with sparse node ids in the same relative order (gaps of 1 to 5),
    its nodes listed in a shuffled document order when `shuffle` is set."""
    new, last = {}, 0
    for i in sorted(g.node_ids):
        last += int(rng.integers(1, 6))
        new[i] = last
    nodes = [(new[i], lab) for i, lab in g.nodes]
    if shuffle:
        nodes = [nodes[k] for k in rng.permutation(len(nodes))]
    return Cfg(nodes=tuple(nodes), edges=frozenset((new[u], new[v]) for u, v in g.edges),
               entry=new[g.entry], exits=frozenset(new[x] for x in g.exits))


def as_samples(graphs, classes=None, ids=None) -> list[LabeledSample]:
    """The graphs as samples of the named classes (default all "Benign"),
    with the given ids (default their positions)."""
    classes = classes or ["Benign"] * len(graphs)
    ids = ids or [str(i) for i in range(len(graphs))]
    return [LabeledSample(id=i, cfg=g, cls=SampleClass(c))
            for i, g, c in zip(ids, graphs, classes, strict=True)]


def subprocess_env(**extra: str) -> dict[str, str]:
    """Environment for a child Python that imports the package under test."""
    import cfgsentinel

    src = str(Path(cfgsentinel.__file__).resolve().parent.parent)
    env = dict(os.environ, **extra)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def path_graph(labels=(0, 0, 0)) -> Cfg:
    n = len(labels)
    return Cfg(
        nodes=tuple((i, labels[i]) for i in range(n)),
        edges=frozenset((i, i + 1) for i in range(n - 1)),
        entry=0,
        exits=frozenset({n - 1}),
    )


def cycle_graph(n=3, label=0) -> Cfg:
    return Cfg(
        nodes=tuple((i, label) for i in range(n)),
        edges=frozenset((i, (i + 1) % n) for i in range(n)),
        entry=0,
        exits=frozenset({n - 1}),
    )


def transitive_dag(n: int, label=0) -> Cfg:
    """Arcs i -> j for every i < j: no cycle embeds, and a search for one
    grows exponentially with n."""
    return Cfg(
        nodes=tuple((i, label) for i in range(n)),
        edges=frozenset((i, j) for i in range(n) for j in range(i + 1, n)),
        entry=0,
        exits=frozenset({n - 1}),
    )


def diamond_ladder(k: int) -> Cfg:
    """k diamonds in a chain, stage i being 3i -> 3i+1, 3i+2 -> 3i+3: 3k+1
    nodes, 4k arcs and 2**k shortest paths from 0 to 3k."""
    return Cfg(
        nodes=tuple((i, 0) for i in range(3 * k + 1)),
        edges=frozenset(arc for a in range(0, 3 * k, 3)
                        for arc in ((a, a + 1), (a, a + 2), (a + 1, a + 3), (a + 2, a + 3))),
        entry=0,
        exits=frozenset({3 * k}),
    )


def star_graph(k=3) -> Cfg:
    """Center 0 pointing at k leaves, and each leaf pointing back."""
    nodes = tuple((i, 0) for i in range(k + 1))
    edges = frozenset({(0, i) for i in range(1, k + 1)} | {(i, 0) for i in range(1, k + 1)})
    return Cfg(nodes=nodes, edges=edges, entry=0, exits=frozenset({k}))


# A reduced experiment configuration: small corpus, short training, narrow
# mining bands.  Used by the CLI tests and the reproducibility check, where
# runtime matters more than headline accuracy.
TINY_INI = """\
[corpus]
benign_count = 10
benign_node_lo = 8
benign_node_hi = 20
familyA_count = 6
familyA_node_lo = 7
familyA_node_hi = 12
familyB_count = 6
familyB_node_lo = 8
familyB_node_hi = 14
familyC_count = 6
familyC_node_lo = 7
familyC_node_hi = 12

[split]
train_fraction = 0.75

[train]
arch = dnn
epochs = 25
batch_size = 8

[mining]
support_fraction = 0.9
min_nodes = 2
max_nodes = 5

[rank]
k = 8
support_fraction = 0.2

[encode]
budget_seconds = 30

[attack]
sgea_min_nodes = 3
sgea_max_nodes = 5
sgea_per_size = 4
sgea_support_fraction = 0.34
"""


# The TINY experiment at seeds 7 and 5 in a fresh PYTHONHASHSEED=0 process
# with 2 BLAS threads (the thread count changes the float artifacts' bits);
# prints the sha256 of every file it wrote, keyed "<seed>/<path>".
_GOLDEN_PROGRAM = """
import configparser, hashlib, json, sys
from pathlib import Path
from cfgsentinel import experiment
parser = configparser.ConfigParser()
parser.optionxform = str
parser.read_string(sys.argv[2])
sections = {sec: dict(parser[sec]) for sec in parser.sections()}
digests = {}
for seed in (7, 5):
    root = Path(sys.argv[1]) / str(seed)
    experiment.run(root, seed=seed, sections=sections)
    for p in sorted(root.rglob("*")):
        if p.is_file():
            digests[f"{seed}/{p.relative_to(root).as_posix()}"] = hashlib.sha256(p.read_bytes()).hexdigest()
print(json.dumps(digests))
"""


@pytest.fixture(scope="session")
def golden_tree_digests(tmp_path_factory):
    """Per-file sha256 of the golden TINY runs; the golden-digest tests pin
    the files they hold fixed."""
    done = subprocess.run(
        [sys.executable, "-c", _GOLDEN_PROGRAM, str(tmp_path_factory.mktemp("golden")), TINY_INI],
        env=subprocess_env(PYTHONHASHSEED="0", OPENBLAS_NUM_THREADS="2",
                           OMP_NUM_THREADS="2", MKL_NUM_THREADS="2"),
        capture_output=True, text=True, check=True,
    )
    return json.loads(done.stdout)
