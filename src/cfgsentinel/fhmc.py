"""Hierarchical classification with mined family patterns.

Per family, mined candidate subgraphs pass two hard filters (frequency at
least 5% of the family's training samples; contained in at most ten benign
training samples), get a composite rank score, and the top K survive.  A
sample is encoded as a bit vector over the selected patterns (containment
tests), and a suspicious-behavior screen trained on those bits separates
benign-looking inputs from pattern-bearing ones.  The full pipeline routes
detector -> family classifier (malware) or pattern screen (benign).
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Mapping, Optional, Sequence

import numpy as np

from .features import extract_features
from .graph import Cfg, FAMILIES, LabeledSample, SampleClass, indented_json, read_json
from .isomorphism import SearchTimeout, deadline, is_subgraph
from .mining import Code, Pattern, gspan_mine, pattern_entry, pattern_from_entry
from .nn import DEFAULT_BATCH_SIZE, DEFAULT_EPOCHS, Model, train

SBD_CLASSES = ("Benign", "Suspicious")
DETECTOR_CLASSES = ("Benign", "Malware")
FAMILY_CLASSES = tuple(f.value for f in FAMILIES)

DEFAULT_TOP_K = 100
DEFAULT_BENIGN_CEILING = 10
DEFAULT_MIN_NODES = 3
DEFAULT_MAX_NODES = 8
DEFAULT_MINING_FRACTION = 0.9
DEFAULT_RANK_FRACTION = 0.05
DEFAULT_ENCODE_BUDGET = 60.0


class RankingError(ValueError):
    """Raised for inconsistent ranking inputs."""


class EncodingTimeout(RuntimeError):
    """Raised when encoding one sample exceeds its time budget."""


def support_floor(family_train_count: int, fraction: float) -> int:
    """Minimum family support a candidate must reach."""
    return max(1, math.ceil(fraction * family_train_count))


def coverage_scores(
    survivors: Sequence[Pattern], family: str, family_ids: Sequence[str]
) -> list[float]:
    """Coverage of each survivor: sum over its supporting samples of
    1/occurrence_i, where occurrence_i counts how many survivors the sample
    contains.  Samples covered by few patterns weigh more."""
    supp = [set(p.supporting_ids.get(family, ())) if p.supporting_ids else set() for p in survivors]
    occurrence = {sid: 0 for sid in family_ids}
    for s in supp:
        for sid in s:
            if sid in occurrence:
                occurrence[sid] += 1
    # add in id order, left to right from 0.0: set order follows the string
    # hash seed, float addition is not associative, and the built-in sum
    # compensates its rounding from Python 3.12 on
    scores = []
    for s in supp:
        total = 0.0
        for sid in sorted(s):
            if sid in occurrence:
                total += 1.0 / occurrence[sid]
        scores.append(total)
    return scores


def _minmax(values: Sequence[float]) -> list[float]:
    lo, hi = min(values), max(values)
    if hi == lo:
        return [0.0] * len(values)
    return [(v - lo) / (hi - lo) for v in values]


@dataclass(frozen=True)
class RankedPattern:
    pattern: Pattern
    family: str
    family_frequency: int
    coverage: float
    benign_occurrences: int
    rank_score: float


@dataclass(frozen=True)
class RankedPatternSet:
    """Top-K patterns per family plus the flattened global order (families
    in fixed order, then rank order) used for bit encoding.  The flat order
    and its graphs are built on first use; `per_family` is not changed after
    construction."""

    per_family: dict[str, list[RankedPattern]]

    @cached_property
    def flat(self) -> tuple[RankedPattern, ...]:
        return tuple(rp for fam in FAMILY_CLASSES for rp in self.per_family.get(fam, []))

    @cached_property
    def graphs(self) -> tuple[Cfg, ...]:
        return tuple(rp.pattern.graph for rp in self.flat)

    def __len__(self) -> int:
        return len(self.flat)


def _count_contained(
    pattern: Cfg, samples: Sequence[LabeledSample], cap: int, misses: int
) -> tuple[int, int]:
    """Number of samples containing the pattern, stopping early at cap, and
    the bit mask of samples known not to contain it.  Samples whose bit is
    already set in `misses` are skipped; samples left untested by the early
    stop stay unmarked."""
    n = 0
    for i, s in enumerate(samples):
        if misses >> i & 1:
            continue
        if is_subgraph(pattern, s.cfg):
            n += 1
            if n >= cap:
                break
        else:
            misses |= 1 << i
    return n, misses


def rank_patterns(
    candidates: Mapping[str, Sequence[Pattern]],
    family_train: Mapping[str, Sequence[LabeledSample]],
    benign_train: Sequence[LabeledSample],
    k: int = DEFAULT_TOP_K,
    benign_ceiling: int = DEFAULT_BENIGN_CEILING,
    support_fraction: float = DEFAULT_RANK_FRACTION,
) -> RankedPatternSet:
    """Filter and rank mined candidates per family.

    Hard filters: family support >= ceil(support_fraction * family size) and
    benign containment <= benign_ceiling.  Rank score: equal-weight sum of
    min-max normalized node count, family frequency, coverage, and negated
    benign occurrences (all over the filter survivors).  Ties break on
    canonical code order.

    Benign containment is anti-monotone along the DFS-code tree: a code's
    prefix describes a subgraph of the code's graph, so a benign sample
    that misses the prefix misses the code.  Candidates are tested in code
    order, so a prefix comes before its extensions.  A benign sample that
    an already-tested prefix of the code (the code itself included, in any
    family) missed is not tested again; the counts, and so the result, do
    not change."""
    if k < 1:
        raise RankingError("k must be positive")
    per_family: dict[str, list[RankedPattern]] = {}
    benign_misses: dict[Code, int] = {}  # tested code -> bit mask of benign samples missing it
    for fam, cands in candidates.items():
        fam_samples = list(family_train.get(fam, []))
        if not fam_samples:
            raise RankingError(f"no training samples for family {fam}")
        floor = support_floor(len(fam_samples), support_fraction)
        fam_ids = [s.id for s in fam_samples]

        survivors: list[Pattern] = []
        benign_occ: list[int] = []
        for p in sorted(cands, key=lambda p: p.code):
            freq = p.support.get(fam, 0)
            if freq < floor:
                continue
            known = 0
            for j in range(1, len(p.code) + 1):
                known |= benign_misses.get(p.code[:j], 0)
            occ, benign_misses[p.code] = _count_contained(
                p.graph, benign_train, benign_ceiling + 1, known)
            if occ > benign_ceiling:
                continue
            survivors.append(p)
            benign_occ.append(occ)
        if not survivors:
            per_family[fam] = []
            continue

        cov = coverage_scores(survivors, fam, fam_ids)
        z_nodes = _minmax([p.node_count for p in survivors])
        z_freq = _minmax([p.support.get(fam, 0) for p in survivors])
        z_cov = _minmax(cov)
        z_ben = _minmax([-occ for occ in benign_occ])
        scored = [
            RankedPattern(
                pattern=p,
                family=fam,
                family_frequency=p.support.get(fam, 0),
                coverage=cov[i],
                benign_occurrences=benign_occ[i],
                rank_score=0.25 * (z_nodes[i] + z_freq[i] + z_cov[i] + z_ben[i]),
            )
            for i, p in enumerate(survivors)
        ]
        scored.sort(key=lambda rp: (-rp.rank_score, rp.pattern.code))
        per_family[fam] = scored[:k]
    return RankedPatternSet(per_family=per_family)


def class_groups(samples: Sequence[LabeledSample]):
    """The benign samples, and each family's samples by family name."""
    benign = [s for s in samples if s.cls is SampleClass.BENIGN]
    return benign, {f.value: [s for s in samples if s.cls is f] for f in FAMILIES}


def mine_family_candidates(
    train: Sequence[LabeledSample],
    min_nodes: int = DEFAULT_MIN_NODES,
    max_nodes: int = DEFAULT_MAX_NODES,
    support_fraction: float = DEFAULT_MINING_FRACTION,
) -> dict[str, list[Pattern]]:
    """Mine candidate patterns from each family's training samples."""
    return {
        fam: gspan_mine(group, support_floor(len(group), support_fraction), min_nodes, max_nodes)
        for fam, group in class_groups(train)[1].items() if group
    }


# ---------------------------------------------------------------------------
# Encoding
# ---------------------------------------------------------------------------

def encode(
    g: Cfg,
    patterns: Sequence[Cfg] | RankedPatternSet,
    budget_seconds: float = DEFAULT_ENCODE_BUDGET,
) -> np.ndarray:
    """Bit vector over the pattern list: bit i is 1 when pattern i is a
    subgraph of `g`.  Raises EncodingTimeout once matching has run for
    `budget_seconds`, checked inside each pattern's search as well."""
    if isinstance(patterns, RankedPatternSet):
        patterns = patterns.graphs
    bits = np.zeros(len(patterns), dtype=np.uint8)
    i = 0
    try:
        with deadline(budget_seconds):
            for i, p in enumerate(patterns):
                bits[i] = is_subgraph(p, g)
    except SearchTimeout:
        raise EncodingTimeout(f"encoding exceeded {budget_seconds:g}s at pattern {i}") from None
    return bits


def encode_many(
    samples: Sequence[LabeledSample],
    patterns: Sequence[Cfg] | RankedPatternSet,
    budget_seconds: float = DEFAULT_ENCODE_BUDGET,
) -> np.ndarray:
    """One bit row per sample, in order."""
    rows = [encode(s.cfg, patterns, budget_seconds) for s in samples]
    return np.array(rows, dtype=np.uint8).reshape(len(rows), len(patterns))


def encodings_to_csv(ids: Sequence[str], bits: np.ndarray) -> str:
    lines = [",".join(["id", *(f"p{i:04d}" for i in range(bits.shape[1]))])]
    lines += [",".join([sid, *(str(int(b)) for b in row)]) for sid, row in zip(ids, bits)]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Suspicious-behavior screen
# ---------------------------------------------------------------------------

def train_sbd(
    encodings: np.ndarray,
    labels: np.ndarray,
    seed: int = 0,
    epochs: int = DEFAULT_EPOCHS,
    batch_size: int = DEFAULT_BATCH_SIZE,
) -> Model:
    """Train the two-class (Benign/Suspicious) screen on bit encodings.
    Uses the convolutional stack with its shape chain recomputed for the
    pattern-list width."""
    if encodings.ndim != 2:
        raise RankingError("encodings must be a 2-D bit matrix")
    return train(
        encodings,
        labels,
        class_names=SBD_CLASSES,
        arch="cnn",
        seed=seed,
        epochs=epochs,
        batch_size=batch_size,
    )


# ---------------------------------------------------------------------------
# Pipeline
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PipelineVerdict:
    """Final verdict plus which stage decided and each stage's probabilities."""

    verdict: str  # "Benign" | "Malware" | "Suspicious"
    family: Optional[str]
    stage: str    # "classifier" | "sbd"
    detector_probs: tuple[float, ...]
    stage_probs: tuple[float, ...]

    def to_dict(self) -> dict:
        return {
            "verdict": self.verdict,
            "family": self.family,
            "stage": self.stage,
            "detector_probs": list(self.detector_probs),
            "stage_probs": list(self.stage_probs),
        }


def classify_pipeline(
    g: Cfg,
    detector: Model,
    family_classifier: Model,
    sbd: Model,
    patterns: RankedPatternSet | Sequence[Cfg],
    budget_seconds: float = DEFAULT_ENCODE_BUDGET,
) -> PipelineVerdict:
    """detector -> family classifier for malware, or pattern screen for
    benign-looking inputs.  Only the stages on the taken path run."""
    feats = extract_features(g)
    det_probs = detector.predict_proba(feats)[0]
    malware = detector.class_names[int(det_probs.argmax())] == "Malware"
    if malware:
        stage, model, x = "classifier", family_classifier, feats
    else:
        stage, model, x = "sbd", sbd, encode(g, patterns, budget_seconds)
    stage_probs = model.predict_proba(x)[0]
    label = model.class_names[int(stage_probs.argmax())]
    return PipelineVerdict(
        verdict="Malware" if malware else label,
        family=label if malware else None,
        stage=stage,
        detector_probs=tuple(float(p) for p in det_probs),
        stage_probs=tuple(float(p) for p in stage_probs),
    )


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def write_ranked(ranked: RankedPatternSet, path: str | Path) -> None:
    doc = {
        "families": {
            fam: [
                pattern_entry(
                    rp.pattern,
                    family_frequency=rp.family_frequency,
                    coverage=rp.coverage,
                    benign_occurrences=rp.benign_occurrences,
                    rank_score=rp.rank_score,
                )
                for rp in rps
            ]
            for fam, rps in ranked.per_family.items()
        }
    }
    Path(path).write_text(indented_json(doc))


def read_ranked(path: str | Path) -> RankedPatternSet:
    """A ranked set written by `write_ranked`, each entry read by
    `mining.pattern_from_entry`.  Raises RankingError unless the document is
    {"families": {family: [entry, ...]}} with families from FAMILY_CLASSES."""
    doc = read_json(path, RankingError)
    families = doc.get("families") if isinstance(doc, dict) else None
    if not isinstance(families, dict) or not all(
        fam in FAMILY_CLASSES and isinstance(v, list) for fam, v in families.items()
    ):
        raise RankingError(f"{path}: 'families' must map names from {FAMILY_CLASSES} to lists")
    return RankedPatternSet(per_family={
        fam: [
            RankedPattern(
                pattern_from_entry(e, f"{path}: {fam} pattern {i}",
                                   counts=("family_frequency", "benign_occurrences"),
                                   numbers=("coverage", "rank_score")),
                fam, e["family_frequency"], float(e["coverage"]),
                e["benign_occurrences"], float(e["rank_score"]),
            )
            for i, e in enumerate(entries)
        ]
        for fam, entries in families.items()
    })


def verdict_counts(verdicts: Sequence[PipelineVerdict]) -> dict[str, int]:
    """How many of `verdicts` give each verdict, in verdict order."""
    return dict(sorted(Counter(v.verdict for v in verdicts).items()))


def write_verdicts(
    ids: Sequence[str], verdicts: Sequence[PipelineVerdict], path: str | Path
) -> None:
    with open(path, "w") as f:
        for sid, v in zip(ids, verdicts):
            row = {"id": sid}
            row.update(v.to_dict())
            f.write(json.dumps(row, sort_keys=True) + "\n")
