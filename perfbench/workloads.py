"""The benchmark's three workloads.

Each is a closed loop with one client: the next operation starts only after
the previous one returned.  All inputs derive from the workload seed; the
library sees only the generated corpora and documents.

experiment  the seeded `experiment.run` (what `cfgsentinel repro` does), one
            run at a time, cycling over the seed's corpora; every repeat of a
            corpus must write the same artifact tree.
mine        `fhmc.mine_family_candidates` -> `fhmc.rank_patterns` ->
            `mining.select_discriminative` for the SGEA pool, called the way
            `experiment.py` calls them and writing the same pattern files.
triage      serialized CFG documents through `graph.parse_graph` ->
            `fhmc.classify_pipeline`, with the models and ranked patterns of
            a set-up `experiment.run`, reloaded from its checkpoints and
            `ranked.json`.

A workload's `setup` builds its state once; `add` folds a new set-up into the
state the loop uses (the last one, or for triage every deployment).

How long mining and matching take depends strongly on the corpus a seed
draws, so experiment and mine cycle over several corpora per run (4 and 12)
and report the mean of the per-corpus median times, and triage interleaves
the streams of three deployments.
"""

from __future__ import annotations

import hashlib
import math
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from cfgsentinel import (
    adversarial, corpus, experiment, fhmc, graph, isomorphism, mining, nn,
)
from cfgsentinel.graph import FAMILIES, SampleClass

# The benchmark's experiment configuration, in `experiment.run`'s INI form.
# The shipped defaults take 150 s per experiment on 2 CPUs.  This profile
# keeps every stage and the default class mix at a third of the sample
# count, with fewer epochs, a smaller k and a higher SGEA support floor, so
# that several experiments fit into one run while SBD training stays the
# largest stage.
SECTIONS = {
    "corpus": {
        "benign_count": "20",
        "familyA_count": "20",
        "familyB_count": "16",
        "familyC_count": "6",
    },
    "train": {"epochs": "10"},
    "mining": {"max_nodes": "5"},
    "rank": {"k": "60"},
    "attack": {"sgea_support_fraction": "0.3", "sgea_max_nodes": "10"},
}


def param(section: str, key: str, default, cast=None):
    """A SECTIONS value, with `experiment.run`'s default when unset."""
    raw = SECTIONS.get(section, {}).get(key)
    if raw is None:
        return default
    return cast(raw) if cast else raw


EPOCHS = param("train", "epochs", 100, int)
BATCH = param("train", "batch_size", 32, int)
SPLIT = param("split", "train_fraction", 0.8, float)
MIN_NODES = param("mining", "min_nodes", fhmc.DEFAULT_MIN_NODES, int)
MAX_NODES = param("mining", "max_nodes", fhmc.DEFAULT_MAX_NODES, int)
MINE_FRACTION = param("mining", "support_fraction", 0.9, float)
RANK_FRACTION = param("rank", "support_fraction", 0.05, float)
TOP_K = param("rank", "k", fhmc.DEFAULT_TOP_K, int)
CEILING = param("rank", "benign_ceiling", fhmc.DEFAULT_BENIGN_CEILING, int)
BUDGET = param("encode", "budget_seconds", fhmc.DEFAULT_ENCODE_BUDGET, float)
SGEA_LO = param("attack", "sgea_min_nodes", 5, int)
SGEA_HI = param("attack", "sgea_max_nodes", 12, int)
SGEA_PER_SIZE = param("attack", "sgea_per_size", 16, int)
SGEA_FRACTION = param("attack", "sgea_support_fraction", 0.05, float)


@dataclass
class OpResult:
    seconds: float
    key: int | None = None  # which of the run's corpora the operation used
    failures: list[str] = field(default_factory=list)
    digest: str | None = None
    detail: dict = field(default_factory=dict)


def tree_digest(root: Path) -> str:
    h = hashlib.sha256()
    for p in sorted(root.rglob("*")):
        if p.is_file():
            h.update(str(p.relative_to(root)).encode() + b"\0")
            h.update(hashlib.sha256(p.read_bytes()).digest())
    return h.hexdigest()


def corpus_seed(seed: int, j: int) -> int:
    return 1000 * seed + j


def make_corpus(seed: int):
    """The train and test splits of a generated corpus, as `experiment.run`
    makes them for this seed."""
    items = dict(SECTIONS["corpus"], seed=str(seed))
    return corpus.split(corpus.generate(corpus.config_from_mapping(items)), SPLIT, seed)


def is_malware(s) -> bool:
    return s.cls is not SampleClass.BENIGN


def count_mismatches(checks: dict[str, tuple[int, int]]) -> list[str]:
    """checks: what -> (expected, traced)."""
    return [f"{what}: traced {got}, expected {want}"
            for what, (want, got) in checks.items() if want != got]


def adam_steps(T) -> int:
    return sum(v for k, v in T.calls.items() if k.endswith(".adam_step"))


# ---------------------------------------------------------------------------
# experiment
# ---------------------------------------------------------------------------

class Experiment:
    name = "experiment"
    primary = "experiment_s"
    corpora = 4
    setups = 3

    def setup(self, seed: int, work: Path, r: int) -> dict:
        seeds = [corpus_seed(seed, j) for j in range(self.corpora)]
        return {"seeds": seeds, "train": [make_corpus(s)[0] for s in seeds]}

    def add(self, state: dict | None, new: dict) -> dict:
        return new  # every set-up builds the same state; keep only the last

    def first_pass(self, state: dict) -> int:
        return self.corpora

    def op(self, state: dict, work: Path, i: int) -> OpResult:
        j = i % self.corpora
        out = work / f"experiment-{i}"
        t0 = time.perf_counter()
        res = experiment.run(out, state["seeds"][j], SECTIONS)
        secs = time.perf_counter() - t0
        digest = tree_digest(out)
        shutil.rmtree(out)
        failures = []
        if [s.id for s in res["train"]] != [s.id for s in state["train"][j]]:
            failures.append("experiment split differs from the set-up corpus split")
        if len(res["verdicts"]) != len(res["test"]):
            failures.append("pipeline verdict count differs from the test split")
        detail = {
            "detector_accuracy": res["detector_metrics"].accuracy,
            "sbd_accuracy": res["sbd_metrics"].accuracy,
            "screen_flag_rate": res["screen"]["flag_rate"],
            "res": res,
        }
        return OpResult(secs, j, failures, digest, detail)

    def check_counts(self, T, op: OpResult) -> list[str]:
        """Traced counts against numbers derived from the run's own results."""
        res = op.detail["res"]
        T.counters["mining.sgea_kept"] = len(res["sgea_candidates"])
        n_train, n_mal = len(res["train"]), sum(map(is_malware, res["train"]))
        steps = EPOCHS * (2 * math.ceil(n_train / BATCH) + math.ceil(n_mal / BATCH))
        screened = sum(v.stage == "sbd" for v in res["verdicts"])
        hosts = n_train + len(res["test"]) + len(res["evading"]) + screened
        return count_mismatches({
            "adam steps": (steps, adam_steps(T)),
            "is_subgraph calls under encode": (
                hosts * len(res["ranked"]), T.calls.get("isomorphism.is_subgraph.encode", 0)),
            "training epochs": (3 * EPOCHS, T.counters.get("nn.epochs", 0)),
        })


# ---------------------------------------------------------------------------
# mine
# ---------------------------------------------------------------------------

class Mine:
    name = "mine"
    primary = "mine_s"
    corpora = 12
    setups = 3

    def setup(self, seed: int, work: Path, r: int) -> dict:
        return {"train": [make_corpus(corpus_seed(seed, j))[0] for j in range(self.corpora)]}

    def add(self, state: dict | None, new: dict) -> dict:
        return new  # every set-up builds the same state; keep only the last

    def first_pass(self, state: dict) -> int:
        return self.corpora

    def op(self, state: dict, work: Path, i: int) -> OpResult:
        j = i % self.corpora
        train = state["train"][j]
        out = work / f"patterns-{i}"
        out.mkdir(parents=True)
        t0 = time.perf_counter()
        candidates = fhmc.mine_family_candidates(
            train, min_nodes=MIN_NODES, max_nodes=MAX_NODES, support_fraction=MINE_FRACTION
        )
        for fam, cands in sorted(candidates.items()):
            mining.write_patterns(cands, out / f"candidates_{fam}.json")
        benign = [s for s in train if s.cls is SampleClass.BENIGN]
        family_train = {f.value: [s for s in train if s.cls is f] for f in FAMILIES}
        ranked = fhmc.rank_patterns(
            candidates, family_train, benign,
            k=TOP_K, benign_ceiling=CEILING, support_fraction=RANK_FRACTION,
        )
        fhmc.write_ranked(ranked, out / "ranked.json")
        pool = mining.select_discriminative(
            train, SampleClass.BENIGN,
            min_support=fhmc.support_floor(len(benign), SGEA_FRACTION),
            min_nodes=SGEA_LO, max_nodes=SGEA_HI, top_k=None,
        )
        by_size: dict[int, list] = {}
        for p in pool:
            by_size.setdefault(p.graph.node_count, []).append(p)
        kept = [p for size in sorted(by_size) for p in by_size[size][:SGEA_PER_SIZE]]
        mining.write_patterns(kept, out / "sgea_candidates.json")
        secs = time.perf_counter() - t0
        digest = tree_digest(out)
        shutil.rmtree(out)
        failures = check_patterns(candidates, ranked, kept, family_train)
        return OpResult(secs, j, failures, digest, {"kept": len(kept)})

    def check_counts(self, T, op: OpResult) -> list[str]:
        T.counters["mining.sgea_kept"] = op.detail["kept"]
        return count_mismatches({
            "gspan_mine calls": (len(FAMILIES), T.calls.get("mining.gspan_mine", 0)),
            "select_discriminative calls": (1, T.calls.get("mining.select_discriminative", 0)),
            "adam steps": (0, adam_steps(T)),
        })


def check_patterns(candidates, ranked, kept, family_train) -> list[str]:
    """Spot checks on the mined artefacts, made with untraced library calls."""
    failures = []
    for fam, rps in ranked.per_family.items():
        floor = fhmc.support_floor(len(family_train[fam]), RANK_FRACTION)
        if any(rp.family_frequency < floor or rp.benign_occurrences > CEILING for rp in rps):
            failures.append(f"a ranked {fam} pattern breaks a hard filter")
        if rps:
            top = rps[0].pattern
            holders = [s for s in family_train[fam] if s.id in top.supporting_ids.get(fam, ())]
            if not holders or not isomorphism.is_subgraph(top.graph, holders[0].cfg):
                failures.append(f"top {fam} pattern is not in a supporting sample")
    sizes: dict[int, int] = {}
    for p in kept:
        sizes[p.node_count] = sizes.get(p.node_count, 0) + 1
    if any(not SGEA_LO <= n <= SGEA_HI for n in sizes):
        failures.append("SGEA candidate outside the node-count band")
    if any(n > SGEA_PER_SIZE for n in sizes.values()):
        failures.append("more SGEA candidates than allowed per size")
    if not kept or not any(candidates.values()):
        failures.append("mining produced no patterns")
    return failures


# ---------------------------------------------------------------------------
# triage
# ---------------------------------------------------------------------------

class Triage:
    """Each set-up builds one deployment from its own sub-seed: the seeded
    `experiment.run`, whose models and ranked patterns are reloaded from the
    checkpoints and `ranked.json` it wrote, and a stream of documents.  The
    loop interleaves the deployments' streams, so that no single seed's
    pattern set decides the cost."""

    name = "triage"
    primary = "triage_graphs_per_s"
    corpora = 1
    setups = 3

    def setup(self, seed: int, work: Path, r: int) -> dict:
        seed = corpus_seed(seed, 10 * r)
        res = experiment.run(work, seed, SECTIONS)

        # The stream: a corpus from a seed the models never saw, plus each of
        # its malware graphs merged with the smallest, median and largest
        # benign training graph, in a seeded order.
        benign = [s for s in res["train"] if s.cls is SampleClass.BENIGN]
        fresh_train, fresh_test = make_corpus(seed + 1)
        fresh = fresh_train + fresh_test
        graphs = [s.cfg for s in fresh]
        for strategy in adversarial.STRATEGIES:
            donor = adversarial.select_by_size(benign, strategy).cfg
            graphs += [adversarial.gea_merge(s.cfg, donor) for s in fresh if is_malware(s)]
        graphs = [graphs[i] for i in np.random.default_rng([seed, 17]).permutation(len(graphs))]

        return {
            "models": tuple(nn.load_checkpoint(work / "models" / f"{n}.ckpt")
                            for n in ("detector", "classifier", "sbd")),
            "ranked": fhmc.read_ranked(work / "patterns" / "ranked.json"),
            "docs": [graph.serialize_graph(g) for g in graphs],
            "in_memory": (res["detector"], res["classifier"], res["sbd"], res["ranked"], graphs),
        }

    def add(self, state: dict | None, dep: dict) -> dict:
        """Add a deployment, with the verdicts of its in-memory models and
        patterns, before the checkpoint round trip; every timed verdict
        must equal them.  The in-memory objects are dropped."""
        detector, classifier, sbd, ranked, graphs = dep.pop("in_memory")
        dep["expected"] = [
            fhmc.classify_pipeline(g, detector, classifier, sbd, ranked, BUDGET).to_dict()
            for g in graphs
        ]
        state = state or {"deployments": []}
        state["deployments"].append(dep)
        return state

    def first_pass(self, state: dict) -> int:
        return sum(len(dep["docs"]) for dep in state["deployments"])

    def locate(self, state: dict, j: int) -> tuple[dict, int]:
        """Document j of the interleaved stream: its deployment and index."""
        deps = state["deployments"]
        dep = deps[j % len(deps)]
        return dep, (j // len(deps)) % len(dep["docs"])

    def process(self, state: dict, j: int) -> tuple[float, str, str | None]:
        """Triage document j of the interleaved stream: seconds, branch
        taken and a failure description or None."""
        dep, k = self.locate(state, j)
        t0 = time.perf_counter()
        try:
            g = graph.parse_graph(dep["docs"][k])
            verdict = fhmc.classify_pipeline(g, *dep["models"], dep["ranked"], BUDGET)
        except fhmc.EncodingTimeout as e:
            return time.perf_counter() - t0, "sbd", f"document {k}: EncodingTimeout: {e}"
        secs = time.perf_counter() - t0
        if verdict.to_dict() != dep["expected"][k]:
            return secs, verdict.stage, f"document {k}: verdict differs from the set-up verdict"
        return secs, verdict.stage, None

    def check_counts(self, T, state: dict, first: int, branches: list[str]) -> list[str]:
        """Counts of a traced pass over documents first, first + 1, ..."""
        n_docs = len(branches)
        matched = sum(len(self.locate(state, first + i)[0]["ranked"])
                      for i, b in enumerate(branches) if b == "sbd")
        return count_mismatches({
            "is_subgraph calls under encode": (
                matched, T.calls.get("isomorphism.is_subgraph.encode", 0)),
            "parse_graph calls": (n_docs, T.calls.get("graph.parse_graph", 0)),
            "extract_features calls": (n_docs, T.calls.get("features.extract_features", 0)),
            "predict_proba calls": (2 * n_docs, T.calls.get("nn.predict_proba", 0)),
            "adam steps": (0, adam_steps(T)),
        })


WORKLOADS = {w.name: w for w in (Experiment(), Mine(), Triage())}
