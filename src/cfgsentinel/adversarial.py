"""Graph-injection evasion attacks against feature-based detectors.

Both attacks splice a selected graph into a victim graph through a fresh
entry and exit node, so the original victim survives intact as a subgraph.
The size-strategy attack picks one donor sample from a pool by node count
(minimum, median, or maximum); the search-based variant tries mined
discriminative patterns in ascending size order until the model's
prediction flips to the target class.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Optional, Sequence

from .features import extract_features
from .graph import Cfg, LabeledSample, indented_json
from .mining import Pattern
from .nn import Model

STRATEGIES = ("minimum", "median", "maximum")


class AttackError(ValueError):
    """Raised for invalid attack inputs (empty pools, unknown strategies)."""


def gea_merge(org: Cfg, sel: Cfg) -> Cfg:
    """Merge two graphs under a fresh shared entry and exit.

    Node ids are renumbered deterministically: the original block first
    (sorted by id), then the selected block, then the new entry and the new
    exit (label 0).  The new entry feeds both old entries; every old exit
    of either block feeds the new exit."""
    org_ids = sorted(i for i, _ in org.nodes)
    sel_ids = sorted(i for i, _ in sel.nodes)
    org_map = {i: k for k, i in enumerate(org_ids)}
    sel_map = {i: k + len(org_ids) for k, i in enumerate(sel_ids)}
    new_entry = len(org_ids) + len(sel_ids)
    new_exit = new_entry + 1

    org_labels = dict(org.nodes)
    sel_labels = dict(sel.nodes)
    nodes = [(org_map[i], org_labels[i]) for i in org_ids]
    nodes += [(sel_map[i], sel_labels[i]) for i in sel_ids]
    nodes += [(new_entry, 0), (new_exit, 0)]

    edges = {(org_map[u], org_map[v]) for u, v in org.edges}
    edges |= {(sel_map[u], sel_map[v]) for u, v in sel.edges}
    edges.add((new_entry, org_map[org.entry]))
    edges.add((new_entry, sel_map[sel.entry]))
    edges |= {(org_map[x], new_exit) for x in org.exits}
    edges |= {(sel_map[x], new_exit) for x in sel.exits}

    return Cfg(
        nodes=tuple(nodes),
        edges=frozenset(edges),
        entry=new_entry,
        exits=frozenset({new_exit}),
    )


def select_by_size(pool: Sequence[LabeledSample], strategy: str) -> LabeledSample:
    """Pool sample with the minimum, (lower) median, or maximum node count;
    ties broken by smallest sample id."""
    if strategy not in STRATEGIES:
        raise AttackError(f"unknown strategy: {strategy!r}")
    if not pool:
        raise AttackError("empty selection pool")
    sizes = sorted(s.cfg.node_count for s in pool)
    if strategy == "minimum":
        want = sizes[0]
    elif strategy == "maximum":
        want = sizes[-1]
    else:
        want = sizes[(len(sizes) - 1) // 2]
    return min((s for s in pool if s.cfg.node_count == want), key=lambda s: s.id)


@dataclass(frozen=True)
class AttackRecord:
    sample_id: str
    original_prediction: str
    adversarial_prediction: str
    injected_nodes: int
    attempts: int
    crafting_seconds: Optional[float]
    pre_satisfied: bool = False

    @property
    def flipped(self) -> bool:
        return self.adversarial_prediction != self.original_prediction


@dataclass
class AttackReport:
    """Per-victim records plus aggregate rates.  Victims already predicted
    as the target class are recorded as pre-satisfied and excluded from
    every rate denominator."""

    attack: str
    strategy: Optional[str]
    target_class: str
    records: list[AttackRecord] = field(default_factory=list)

    @property
    def eligible(self) -> list[AttackRecord]:
        return [r for r in self.records if not r.pre_satisfied]

    @property
    def misclassification_rate(self) -> float:
        elig = self.eligible
        if not elig:
            return 0.0
        return sum(1 for r in elig if r.flipped) / len(elig)

    @property
    def targeted_rate(self) -> float:
        elig = self.eligible
        if not elig:
            return 0.0
        return sum(1 for r in elig if r.adversarial_prediction == self.target_class) / len(elig)

    @property
    def mean_injected_nodes(self) -> Optional[float]:
        hits = [r.injected_nodes for r in self.eligible if r.flipped]
        return sum(hits) / len(hits) if hits else None

    def validate(self):
        for r in self.eligible:
            if r.adversarial_prediction == self.target_class and not r.flipped:
                raise AttackError("targeted success without a prediction flip")
        if self.targeted_rate > self.misclassification_rate + 1e-12:
            raise AttackError("targeted rate exceeds misclassification rate")

    def to_dict(self) -> dict:
        return {
            "attack": self.attack,
            "strategy": self.strategy,
            "target_class": self.target_class,
            "eligible": len(self.eligible),
            "pre_satisfied": sum(1 for r in self.records if r.pre_satisfied),
            "misclassification_rate": self.misclassification_rate,
            "targeted_rate": self.targeted_rate,
            "mean_injected_nodes": self.mean_injected_nodes,
            "records": [asdict(r) for r in self.records],
        }


def predict_class(model: Model, g: Cfg) -> str:
    return model.predict_class(extract_features(g))


def _attack_victims(
    model: Model,
    victims: Sequence[LabeledSample],
    report: AttackReport,
    craft: Callable[[Cfg, str], tuple[str, int, int, Optional[Cfg]]],
    include_timing: bool,
) -> tuple[AttackReport, dict[str, Cfg]]:
    """The loop both attacks share: victims already predicted as the target
    are pre-satisfied; `craft` attacks each other victim, given its original
    prediction, and returns its adversarial prediction, injected node count,
    attempts and merged graph (or None)."""
    target_class = report.target_class
    if target_class not in model.class_names:
        raise AttackError(f"model has no class {target_class!r}")
    merged: dict[str, Cfg] = {}
    for victim in victims:
        t0 = time.perf_counter()
        orig = predict_class(model, victim.cfg)
        if orig == target_class:
            report.records.append(
                AttackRecord(victim.id, orig, orig, 0, 0, None, pre_satisfied=True)
            )
            continue
        adv, injected, attempts, graph = craft(victim.cfg, orig)
        dt = time.perf_counter() - t0
        if graph is not None:
            merged[victim.id] = graph
        report.records.append(
            AttackRecord(victim.id, orig, adv, injected, attempts, dt if include_timing else None)
        )
    report.validate()
    return report, merged


def gea_attack(
    model: Model,
    victims: Sequence[LabeledSample],
    pool: Sequence[LabeledSample],
    strategy: str,
    target_class: str,
    include_timing: bool = True,
) -> tuple[AttackReport, dict[str, Cfg]]:
    """Merge the strategy-selected pool sample into every victim.  Returns
    the report and the merged graph per non-pre-satisfied victim."""
    sel = select_by_size(pool, strategy).cfg

    def craft(victim: Cfg, orig: str):
        adv_cfg = gea_merge(victim, sel)
        return predict_class(model, adv_cfg), sel.node_count, 1, adv_cfg

    report = AttackReport("gea", strategy, target_class)
    return _attack_victims(model, victims, report, craft, include_timing)


@dataclass(frozen=True)
class SgeaResult:
    graph: Cfg
    success: bool
    attempts: int
    injected_nodes: int
    original_prediction: str
    adversarial_prediction: str


def sgea_attack(
    model: Model,
    victim: Cfg,
    candidates: Sequence[Pattern],
    target_class: str,
    *,
    original: Optional[str] = None,
) -> SgeaResult:
    """Try candidate patterns in ascending node-count order; the first merge
    the model classifies as the target class wins.  On failure the original
    graph is returned unchanged.  At most len(candidates) model queries are
    issued, plus one for the victim itself unless the caller passes its
    prediction as `original`."""
    orig = predict_class(model, victim) if original is None else original
    ordered = sorted(candidates, key=lambda p: (p.node_count, p.code))
    attempts = 0
    for pat in ordered:
        adv_cfg = gea_merge(victim, pat.graph)
        adv = predict_class(model, adv_cfg)
        attempts += 1
        if adv == target_class:
            return SgeaResult(adv_cfg, True, attempts, pat.node_count, orig, adv)
    return SgeaResult(victim, False, attempts, 0, orig, orig)


def sgea_attack_all(
    model: Model,
    victims: Sequence[LabeledSample],
    candidates: Sequence[Pattern],
    target_class: str,
    include_timing: bool = True,
) -> tuple[AttackReport, dict[str, Cfg]]:
    """Targeted `sgea_attack` on every victim; returns the report and the
    merged graph per successful victim.  Each victim's original prediction
    is made once."""

    def craft(victim: Cfg, orig: str):
        res = sgea_attack(model, victim, candidates, target_class, original=orig)
        return (res.adversarial_prediction, res.injected_nodes, res.attempts,
                res.graph if res.success else None)

    report = AttackReport("sgea", "ascending", target_class)
    return _attack_victims(model, victims, report, craft, include_timing)


# ---------------------------------------------------------------------------
# Report files
# ---------------------------------------------------------------------------

def write_report_json(report: AttackReport, path: str | Path) -> None:
    Path(path).write_text(indented_json(report.to_dict()))


def reports_to_csv(reports: Iterable[AttackReport]) -> str:
    """Summary table: one row per attack run (sizes, rates, crafting time)."""
    lines = ["attack,strategy,target_class,eligible,mean_injected_nodes,"
             "misclassification_rate,targeted_rate,mean_crafting_seconds"]
    for r in reports:
        times = [x.crafting_seconds for x in r.eligible if x.crafting_seconds is not None]
        mean_t = sum(times) / len(times) if times else ""
        mean_n = r.mean_injected_nodes if r.mean_injected_nodes is not None else ""
        lines.append(
            f"{r.attack},{r.strategy or ''},{r.target_class},{len(r.eligible)},"
            f"{mean_n},{r.misclassification_rate},{r.targeted_rate},{mean_t}"
        )
    return "\n".join(lines) + "\n"


def write_report_csv(reports: Iterable[AttackReport], path: str | Path) -> None:
    Path(path).write_text(reports_to_csv(reports))
