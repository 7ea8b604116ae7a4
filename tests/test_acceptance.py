"""Acceptance suite.

Twelve end-to-end checks, one test per criterion, named so the verbose
pytest listing yields one pass/fail line per criterion.  Each test also
prints a `[criterion NN] PASS|FAIL` line.  Tolerances and thresholds are
pinned as module constants; the checks compare the implementation against
independent oracles (tests/oracles.py) or against the seeded end-to-end
experiment, never against itself.
"""

import json
import time
from pathlib import Path

import numpy as np
import pytest

from cfgsentinel import experiment, nn
from cfgsentinel.cli import EXIT_OK, main
from cfgsentinel.features import betweenness_centrality
from cfgsentinel.graph import Cfg, LabeledSample, SampleClass
from cfgsentinel.isomorphism import is_subgraph, match_count
from cfgsentinel.mining import gspan_mine, select_discriminative

import oracles
from conftest import TINY_INI, as_samples, path_graph, random_cfg, tiny_cfg
from test_nn import finite_difference_check

# Pinned tolerances and thresholds -------------------------------------------
MINING_CORPORA = 20          # criterion 1: corpora compared against the oracle
MINING_TIME_LIMIT = 300.0    # criterion 1: seconds
ISO_PAIRS = 2000             # criterion 2: pattern/host pairs
BETWEENNESS_GRAPHS = 100     # criterion 3: random graphs
BETWEENNESS_TOL = 1e-9       # criterion 3: max absolute error
GRAD_H = 1e-4                # criterion 5: central-difference step
GRAD_TOL = 1e-3              # criterion 5: max relative error
GRAD_BATCH = 4               # criterion 5: batch size
CNN_WIDTH_CHAIN = [23, 23, 21, 10, 10, 8, 4]   # criterion 6
CNN_FLATTEN = 368                               # criterion 6
DETECTOR_MIN_ACC = 0.95      # criterion 7
FAMILY_MIN_ACC = 0.90        # criterion 7
EXPERIMENT_TIME_LIMIT = 600.0  # criterion 7: seconds
GEA_MAX_MIN_MR = 0.90        # criterion 8
SBD_FLAG_MIN = 0.80          # criterion 10
SBD_BENIGN_MAX = 0.10        # criterion 10


def _verdict(num: int, desc: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    line = f"[criterion {num:02d}] {status} - {desc}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def default_run(tmp_path_factory):
    """One seeded end-to-end run of the default experiment, shared by
    criteria 7-11."""
    out = tmp_path_factory.mktemp("acceptance_experiment")
    t0 = time.perf_counter()
    res = experiment.run(out, seed=0)
    res["_seconds"] = time.perf_counter() - t0
    return res


# ---------------------------------------------------------------------------
# 1. Frequent-subgraph mining matches an exhaustive baseline
# ---------------------------------------------------------------------------

def test_criterion_01_mining_matches_exhaustive_baseline():
    t0 = time.perf_counter()
    for seed in range(MINING_CORPORA):
        rng = np.random.default_rng(10_000 + seed)
        graphs = [tiny_cfg(rng, max_nodes=6, n_labels=2)
                  for _ in range(int(rng.integers(4, 11)))]
        min_sup = int(rng.integers(2, len(graphs) + 1))
        mined = gspan_mine(as_samples(graphs), min_support=min_sup, min_nodes=1, max_nodes=4)
        want = oracles.brute_force_mine(graphs, min_sup, 1, 4)
        got = {}
        for p in mined:
            key = oracles.iso_key(dict(p.graph.nodes), set(p.graph.edges))
            assert key not in got, "duplicate pattern emitted"
            got[key] = p.total_support
        assert got == want, f"frequent sets diverge on corpus seed {seed}"
    elapsed = time.perf_counter() - t0
    _verdict(
        1,
        f"gSpan equals brute-force enumeration on {MINING_CORPORA} corpora",
        elapsed < MINING_TIME_LIMIT,
        f"{elapsed:.1f}s < {MINING_TIME_LIMIT:.0f}s",
    )


# ---------------------------------------------------------------------------
# 2. Subgraph-isomorphism search matches exhaustive mapping enumeration
# ---------------------------------------------------------------------------

def test_criterion_02_isomorphism_matches_exhaustive_enumeration():
    rng = np.random.default_rng(20_000)
    disagreements = 0
    for i in range(ISO_PAIRS):
        pattern = tiny_cfg(rng, max_nodes=4, n_labels=2)
        if i % 10 == 0:
            host = pattern  # self-containment pairs
        else:
            host = random_cfg(rng, n_lo=3, n_hi=7, p=0.5, n_labels=2,
                              self_loops=(i % 3 == 0))
        want = len(oracles.exhaustive_monomorphisms(pattern, host))
        got = match_count(pattern, host, limit=1_000_000)
        if got != want or is_subgraph(pattern, host) != (want > 0):
            disagreements += 1
    _verdict(
        2,
        f"match counts agree with the exhaustive oracle on {ISO_PAIRS} pairs",
        disagreements == 0,
        f"{disagreements} disagreements",
    )


# ---------------------------------------------------------------------------
# 3. Betweenness centrality matches naive all-shortest-paths counting
# ---------------------------------------------------------------------------

def test_criterion_03_betweenness_matches_naive_counting():
    rng = np.random.default_rng(30_000)
    worst = 0.0
    for i in range(BETWEENNESS_GRAPHS):
        g = random_cfg(rng, n_lo=2, n_hi=12, p=0.5, n_labels=3,
                       self_loops=(i % 4 == 0))
        fast = betweenness_centrality(g)
        slow = oracles.brute_betweenness(g)
        assert set(fast) == set(slow)
        worst = max(worst, max(abs(fast[v] - slow[v]) for v in fast))
    _verdict(
        3,
        f"betweenness matches the path-counting oracle on "
        f"{BETWEENNESS_GRAPHS} graphs",
        worst <= BETWEENNESS_TOL,
        f"max abs error {worst:.2e} <= {BETWEENNESS_TOL:.0e}",
    )


# ---------------------------------------------------------------------------
# 4. Discriminative quality: zero iff perfect split; pruning is lossless
# ---------------------------------------------------------------------------

def _marked_corpus(rng, n_pos=4, n_neg=4):
    """Positive samples all contain a label-5 three-chain; negatives never
    use label 5."""
    samples = []
    for i in range(n_pos):
        base = random_cfg(rng, n_lo=3, n_hi=5, n_labels=3)
        marker = path_graph([5, 5, 5])
        offset = base.node_count
        nodes = tuple(base.nodes) + tuple(
            (i + offset, lab) for i, lab in marker.nodes
        )
        edges = set(base.edges) | {
            (u + offset, v + offset) for u, v in marker.edges
        }
        edges.add((base.entry, offset))
        g = Cfg(nodes=nodes, edges=frozenset(edges), entry=base.entry,
                exits=frozenset({offset + marker.node_count - 1}))
        samples.append(LabeledSample(id=f"x{i}", cls=SampleClass.FAMILY_A, cfg=g))
    for i in range(n_neg):
        g = random_cfg(rng, n_lo=4, n_hi=7, n_labels=3)
        samples.append(LabeledSample(id=f"y{i}", cls=SampleClass.BENIGN, cfg=g))
    return samples


def test_criterion_04_quality_zero_iff_perfect_and_pruning_lossless():
    for seed in range(4):
        rng = np.random.default_rng(40_000 + seed)
        samples = _marked_corpus(rng)
        pos_total = sum(1 for s in samples if s.cls is SampleClass.FAMILY_A)
        neg_total = len(samples) - pos_total

        unpruned = select_discriminative(
            samples, SampleClass.FAMILY_A, min_support=2,
            min_nodes=2, max_nodes=4, top_k=None,
        )
        # (a) the planted marker guarantees at least one perfect pattern
        assert unpruned and unpruned[0].quality == 0

        # (b) quality is zero exactly for the perfect discriminators
        for p in unpruned:
            pos_hit = p.support.get("FamilyA", 0)
            neg_hit = p.total_support - pos_hit
            perfect = (pos_hit == pos_total and neg_hit == 0) or (
                pos_hit == 0 and neg_hit == neg_total
            )
            assert (p.quality == 0) == perfect, p.code

        # (c) the top-k prune returns exactly the unpruned prefix
        for k in (1, 3, 10):
            pruned = select_discriminative(
                samples, SampleClass.FAMILY_A, min_support=2,
                min_nodes=2, max_nodes=4, top_k=k,
            )
            assert [p.code for p in pruned] == [p.code for p in unpruned[:k]]
            assert [p.quality for p in pruned] == [
                p.quality for p in unpruned[:k]
            ]
    _verdict(
        4,
        "quality is 0 iff the split is perfect; top-k pruning returns the "
        "unpruned prefix on 4 corpora",
        True,
    )


# ---------------------------------------------------------------------------
# 5. Analytic gradients match central finite differences
# ---------------------------------------------------------------------------

def test_criterion_05_gradients_match_finite_differences():
    results = {}
    for arch in ("cnn", "dnn"):
        results[arch] = finite_difference_check(
            arch, seed=42, per_tensor=6, h=GRAD_H, batch=GRAD_BATCH
        )
    ok = all(v <= GRAD_TOL for v in results.values())
    _verdict(
        5,
        f"per-tensor gradient check (h={GRAD_H:g}, batch={GRAD_BATCH}, "
        "dropout disabled) on both architectures",
        ok,
        ", ".join(f"{a}: rel {v:.2e} <= {GRAD_TOL:g}" for a, v in results.items()),
    )


# ---------------------------------------------------------------------------
# 6. Convolutional shape chain for 23 input features
# ---------------------------------------------------------------------------

def test_criterion_06_cnn_shape_chain():
    chain = nn.cnn_width_chain(23)
    flat = nn.cnn_flatten_width(23)

    # Live forward probe: widths after each conv/pool layer, then flatten.
    m = nn.build_model("cnn", 23, ("A", "B", "C"), seed=0)
    x = np.zeros((2, 1, 23))
    widths = [x.shape[2]]
    flat_width = None
    for layer in m.layers:
        x = layer.forward(x, None)[0]
        if isinstance(layer, (nn.Conv1D, nn.MaxPool1D)):
            widths.append(x.shape[2])
        elif isinstance(layer, nn.Flatten):
            flat_width = x.shape[1]
    ok = (
        chain == CNN_WIDTH_CHAIN
        and flat == CNN_FLATTEN
        and widths == CNN_WIDTH_CHAIN
        and flat_width == CNN_FLATTEN
        and x.shape == (2, 3)
    )
    _verdict(
        6,
        "conv stack width chain and flattened width for 23 features",
        ok,
        f"chain {widths}, flatten {flat_width}",
    )


# ---------------------------------------------------------------------------
# 7. Baseline accuracy of the seeded default experiment
# ---------------------------------------------------------------------------

def test_criterion_07_baseline_accuracy(default_run):
    det = default_run["detector_metrics"].accuracy
    fam = default_run["classifier_metrics"].accuracy
    secs = default_run["_seconds"]
    ok = (
        det >= DETECTOR_MIN_ACC
        and fam >= FAMILY_MIN_ACC
        and secs < EXPERIMENT_TIME_LIMIT
    )
    _verdict(
        7,
        "detector and family-classifier accuracy on the default corpus",
        ok,
        f"detector {det:.4f} >= {DETECTOR_MIN_ACC}, family {fam:.4f} >= "
        f"{FAMILY_MIN_ACC}, {secs:.0f}s < {EXPERIMENT_TIME_LIMIT:.0f}s",
    )


# ---------------------------------------------------------------------------
# 8. Injection-size attack trend is monotone
# ---------------------------------------------------------------------------

def test_criterion_08_gea_trend_monotone(default_run):
    reports = default_run["reports"]
    mr = {k: reports[f"gea_{k}"].misclassification_rate
          for k in ("minimum", "median", "maximum")}
    ok = (
        mr["minimum"] <= mr["median"] <= mr["maximum"]
        and mr["maximum"] >= GEA_MAX_MIN_MR
    )
    _verdict(
        8,
        "misclassification rate non-decreasing in injected size, maximum "
        f">= {GEA_MAX_MIN_MR}",
        ok,
        f"min {mr['minimum']:.4f} <= med {mr['median']:.4f} <= "
        f"max {mr['maximum']:.4f}",
    )


# ---------------------------------------------------------------------------
# 9. Search-based attack beats minimum-size injection with smaller payloads
# ---------------------------------------------------------------------------

def test_criterion_09_sgea_efficiency(default_run):
    reports = default_run["reports"]
    sgea = reports["sgea"]
    gea_min = reports["gea_minimum"]
    gea_med = reports["gea_median"]
    assert sgea.mean_injected_nodes is not None
    assert gea_med.mean_injected_nodes is not None
    ok = (
        sgea.misclassification_rate >= gea_min.misclassification_rate
        and sgea.mean_injected_nodes < gea_med.mean_injected_nodes
    )
    _verdict(
        9,
        "search-based attack reaches at least the minimum-size rate with a "
        "strictly smaller mean payload than the median-size attack",
        ok,
        f"MR {sgea.misclassification_rate:.4f} >= "
        f"{gea_min.misclassification_rate:.4f}; payload "
        f"{sgea.mean_injected_nodes:.2f} < {gea_med.mean_injected_nodes:.2f}",
    )


# ---------------------------------------------------------------------------
# 10. Pattern screen flags evading adversarial graphs, spares benign ones
# ---------------------------------------------------------------------------

def test_criterion_10_screen_flags_evaders(default_run):
    screen = default_run["screen"]
    assert screen["evading"] > 0 and screen["benign_total"] > 0
    ok = (
        screen["flag_rate"] >= SBD_FLAG_MIN
        and screen["benign_flag_rate"] <= SBD_BENIGN_MAX
    )
    _verdict(
        10,
        f"screen flags >= {SBD_FLAG_MIN:.0%} of evading adversarial graphs "
        f"with <= {SBD_BENIGN_MAX:.0%} benign false alarms",
        ok,
        f"flagged {screen['flagged']}/{screen['evading']} "
        f"({screen['flag_rate']:.2%}), benign false alarms "
        f"{screen['benign_flagged']}/{screen['benign_total']} "
        f"({screen['benign_flag_rate']:.2%})",
    )


# ---------------------------------------------------------------------------
# 11. Targeted success never exceeds non-targeted success
# ---------------------------------------------------------------------------

def test_criterion_11_targeted_within_nontargeted(default_run):
    pairs = {
        key: (r.targeted_rate, r.misclassification_rate)
        for key, r in default_run["reports"].items()
    }
    ok = all(t <= m for t, m in pairs.values())
    _verdict(
        11,
        "targeted rate <= misclassification rate in every attack report",
        ok,
        "; ".join(f"{k}: {t:.4f} <= {m:.4f}" for k, (t, m) in sorted(pairs.items())),
    )


# ---------------------------------------------------------------------------
# 12. Seeded reruns are byte-identical
# ---------------------------------------------------------------------------

def _tree_bytes(root: Path) -> dict[str, bytes]:
    return {
        str(p.relative_to(root)): p.read_bytes()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


def test_criterion_12_repro_byte_identical(tmp_path):
    ini = tmp_path / "config.ini"
    ini.write_text(TINY_INI)
    runs = []
    for name in ("run1", "run2"):
        out = tmp_path / name
        assert main(["repro", "--config", str(ini), "--seed", "7",
                     "--out", str(out)]) == EXIT_OK
        runs.append(_tree_bytes(out))
    same_files = set(runs[0]) == set(runs[1])
    diff = [k for k in runs[0] if runs[0][k] != runs[1].get(k)]
    ok = same_files and not diff
    _verdict(
        12,
        "two seeded runs produce byte-identical artifact trees",
        ok,
        f"{len(runs[0])} files compared" if ok else f"differs: {diff[:5]}",
    )
