"""Synthetic corpus generation and stratified splitting.

Benign samples are sparse, mostly acyclic flow graphs; the three malware
families are denser, cyclic, and each plants two family-specific motifs
(5-7 node subgraphs) into every sample with a configurable probability.
Node labels are either uniform (all zero) or degree-derived
(min(out-degree, 3)).  Generation is deterministic for a fixed seed, with
an independent sub-seed per sample.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace
from typing import Mapping, Sequence

import numpy as np

from .graph import Cfg, LabeledSample, SampleClass, flow_graph, is_count


class CorpusError(ValueError):
    """Raised for invalid corpus configuration."""


@dataclass(frozen=True)
class ClassProfile:
    """Structural knobs for one class: sample count, base node range, and
    per-node densities of extra forward, backward, and self-loop edges."""

    count: int
    node_lo: int
    node_hi: int
    extra_edges: float
    back_edges: float
    self_loops: float

    def validate(self, name: str):
        if self.count < 1:
            raise CorpusError(f"{name}: count must be >= 1")
        if not (3 <= self.node_lo <= self.node_hi):
            raise CorpusError(f"{name}: need 3 <= node_lo <= node_hi")
        for attr in ("extra_edges", "back_edges", "self_loops"):
            if getattr(self, attr) < 0:
                raise CorpusError(f"{name}: negative {attr}")


# Motif structures: (node_count, arcs).  Labels are derived from the label
# mode, so only topology is listed here.
_MOTIF_ARCS: dict[SampleClass, tuple[tuple[int, tuple[tuple[int, int], ...]], ...]] = {
    SampleClass.FAMILY_A: (
        (5, ((0, 1), (0, 2), (0, 3), (1, 3), (2, 3), (3, 4), (4, 0), (1, 4))),
        (6, ((0, 1), (0, 2), (0, 4), (1, 3), (2, 3), (3, 4), (3, 5), (4, 5), (5, 1))),
    ),
    SampleClass.FAMILY_B: (
        (5, ((0, 1), (1, 2), (2, 0), (0, 3), (3, 4), (4, 2), (1, 3), (3, 1))),
        (7, ((0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 5), (5, 3), (5, 6), (6, 4), (0, 4))),
    ),
    SampleClass.FAMILY_C: (
        (5, ((0, 0), (0, 1), (1, 2), (2, 1), (2, 3), (3, 4), (4, 4), (4, 0))),
        (6, ((0, 1), (1, 1), (1, 2), (2, 3), (3, 3), (3, 4), (4, 5), (5, 2), (5, 5))),
    ),
}

LABEL_MODES = ("degree", "uniform")
# The `[split]` schema default: the share of each class that trains.
DEFAULT_TRAIN_FRACTION = 0.8


@dataclass(frozen=True)
class CorpusConfig:
    seed: int = 0
    label_mode: str = "degree"
    motif_prob: float = 1.0
    profiles: Mapping[SampleClass, ClassProfile] = field(
        default_factory=lambda: dict(DEFAULT_PROFILES)
    )

    def validate(self):
        check_seed(self.seed)
        if self.label_mode not in LABEL_MODES:
            raise CorpusError(f"unknown label mode: {self.label_mode!r}")
        if not (0.0 < self.motif_prob <= 1.0):
            raise CorpusError("motif_prob must be in (0, 1]")
        for cls in SampleClass:
            if cls not in self.profiles:
                raise CorpusError(f"missing profile for {cls.value}")
            profile = self.profiles[cls]
            profile.validate(cls.value)
            motifs = _MOTIF_ARCS.get(cls, ())
            if motifs and profile.node_lo < max(n for n, _ in motifs):
                raise CorpusError(
                    f"{cls.value}: node_lo must be >= largest motif size "
                    f"{max(n for n, _ in motifs)}"
                )


DEFAULT_PROFILES: dict[SampleClass, ClassProfile] = {
    SampleClass.BENIGN: ClassProfile(60, 12, 60, extra_edges=0.3, back_edges=0.05, self_loops=0.0),
    SampleClass.FAMILY_A: ClassProfile(60, 8, 14, extra_edges=0.3, back_edges=0.3, self_loops=0.05),
    SampleClass.FAMILY_B: ClassProfile(48, 15, 24, extra_edges=0.45, back_edges=0.55, self_loops=0.1),
    SampleClass.FAMILY_C: ClassProfile(6, 12, 20, extra_edges=0.3, back_edges=0.4, self_loops=0.3),
}


def _labeled_graph(n: int, arcs: Sequence[tuple[int, int]], label_mode: str) -> Cfg:
    """The flow graph (`flow_graph`) of nodes 0..n-1 and `arcs`, labeled
    under `label_mode`: all zero, or min(out-degree, 3)."""
    labels = [0] * n
    if label_mode != "uniform":
        for u, _ in arcs:
            labels[u] += 1
        labels = [min(d, 3) for d in labels]
    return flow_graph(list(enumerate(labels)), arcs)


def family_motifs(cls: SampleClass, label_mode: str = "degree") -> list[Cfg]:
    """The planted motif graphs of a family, labeled under `label_mode`."""
    if cls not in _MOTIF_ARCS:
        raise CorpusError(f"{cls.value} has no motifs")
    return [_labeled_graph(n, arcs, label_mode) for n, arcs in _MOTIF_ARCS[cls]]


def _generate_sample(cls: SampleClass, profile: ClassProfile, cfg: CorpusConfig, rng) -> Cfg:
    n = int(rng.integers(profile.node_lo, profile.node_hi + 1))
    arcs: set[tuple[int, int]] = set()
    # backbone: every node hangs off an earlier one, so 0 reaches everything
    for i in range(1, n):
        parent = int(rng.integers(max(0, i - 4), i))
        arcs.add((parent, i))
    for _ in range(int(round(profile.extra_edges * n))):
        u = int(rng.integers(0, n - 1))
        v = int(rng.integers(u + 1, n))
        arcs.add((u, v))
    for _ in range(int(round(profile.back_edges * n))):
        v = int(rng.integers(0, n - 1))
        u = int(rng.integers(v + 1, n))
        arcs.add((u, v))
    for i in range(n):
        if profile.self_loops > 0 and rng.random() < profile.self_loops:
            arcs.add((i, i))

    total = n
    if cls in _MOTIF_ARCS:
        for m_n, m_arcs in _MOTIF_ARCS[cls]:
            if rng.random() < cfg.motif_prob:
                off = total
                arcs.update((u + off, v + off) for u, v in m_arcs)
                hook = int(rng.integers(0, n))
                # one inbound arc only: motif out-degrees stay untouched, so
                # degree-derived labels match the motif exactly
                arcs.add((hook, off))
                total += m_n
    return _labeled_graph(total, arcs, cfg.label_mode)


_CLASS_TAG = {
    SampleClass.BENIGN: "benign",
    SampleClass.FAMILY_A: "familyA",
    SampleClass.FAMILY_B: "familyB",
    SampleClass.FAMILY_C: "familyC",
}
_TAG_CLASS = {tag: cls for cls, tag in _CLASS_TAG.items()}


def generate(config: CorpusConfig) -> list[LabeledSample]:
    """Generate the full corpus deterministically (per-sample sub-seeds)."""
    config.validate()
    samples = []
    for ci, cls in enumerate(SampleClass):
        profile = config.profiles[cls]
        for idx in range(profile.count):
            rng = np.random.default_rng([config.seed, ci, idx])
            g = _generate_sample(cls, profile, config, rng)
            samples.append(LabeledSample(id=f"{_CLASS_TAG[cls]}-{idx:04d}", cfg=g, cls=cls))
    return samples


def check_seed(seed: int) -> None:
    """The one rule for a seed: numpy's generators take counts (`is_count`)."""
    if not is_count(seed):
        raise CorpusError(f"seed must be a non-negative integer, got {seed!r}")


def check_train_fraction(train_fraction: float) -> None:
    """The one rule for a train fraction: strictly between 0 and 1."""
    if not (0.0 < train_fraction < 1.0):
        raise CorpusError("train_fraction must be in (0, 1)")


def split(samples: Sequence[LabeledSample], train_fraction: float = DEFAULT_TRAIN_FRACTION,
          seed: int = 0) -> tuple[list[LabeledSample], list[LabeledSample]]:
    """Stratified train/test split: each class is shuffled with a seeded rng
    and cut at round(train_fraction * n), keeping at least one sample on
    each side.  Classes with fewer than two samples are rejected."""
    check_train_fraction(train_fraction)
    check_seed(seed)
    by_class: dict[SampleClass, list[LabeledSample]] = {}
    for s in samples:
        by_class.setdefault(s.cls, []).append(s)
    train: list[LabeledSample] = []
    test: list[LabeledSample] = []
    for ci, cls in enumerate(SampleClass):
        group = sorted(by_class.get(cls, []), key=lambda s: s.id)
        if not group:
            continue
        if len(group) < 2:
            raise CorpusError(f"class {cls.value} has fewer than 2 samples")
        rng = np.random.default_rng([seed, 1000 + ci])
        order = rng.permutation(len(group))
        n_train = int(round(train_fraction * len(group)))
        n_train = max(1, min(len(group) - 1, n_train))
        chosen = set(order[:n_train].tolist())
        for i, s in enumerate(group):
            (train if i in chosen else test).append(s)
    train.sort(key=lambda s: s.id)
    test.sort(key=lambda s: s.id)
    return train, test


def parse_value(raw, default, what: str):
    """The one rule for a setting's value: the text of `raw` read with the
    type of the key's `default` (so 3.7 or True is no int).  Text that does
    not parse and floats that are not finite raise CorpusError."""
    try:
        value = type(default)(str(raw))
        if isinstance(value, float) and not math.isfinite(value):
            raise ValueError
    except ValueError:
        raise CorpusError(f"bad value for {what}: {raw!r}") from None
    return value


def config_from_mapping(items: Mapping[str, object]) -> CorpusConfig:
    """Build a CorpusConfig from flat key/value pairs (e.g. an INI section):
    each scalar field of CorpusConfig, and "<tag>_<field>" for each
    ClassProfile field, read by `parse_value` with its default.  Unknown
    keys are rejected."""
    cfg = CorpusConfig()
    profiles = dict(cfg.profiles)
    scalars = {f.name for f in fields(CorpusConfig)} - {"profiles"}
    knobs = {f.name for f in fields(ClassProfile)}
    for key, raw in items.items():
        tag, _, name = key.partition("_")
        cls = _TAG_CLASS.get(tag)
        if key in scalars:
            cfg = replace(cfg, **{key: parse_value(raw, getattr(cfg, key), key)})
        elif cls and name in knobs:
            value = parse_value(raw, getattr(profiles[cls], name), key)
            profiles[cls] = replace(profiles[cls], **{name: value})
        else:
            raise CorpusError(f"unknown corpus config key: {key}")
    out = replace(cfg, profiles=profiles)
    out.validate()
    return out
