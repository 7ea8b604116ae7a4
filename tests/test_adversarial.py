"""Graph-injection attacks: merge arithmetic, donor selection, attack loops,
report accounting, and the summary writers."""

import json
import sys

import numpy as np
import pytest

from cfgsentinel.adversarial import (
    AttackError,
    AttackRecord,
    AttackReport,
    STRATEGIES,
    gea_attack,
    gea_merge,
    predict_class,
    reports_to_csv,
    select_by_size,
    sgea_attack,
    sgea_attack_all,
    write_report_csv,
    write_report_json,
)
from cfgsentinel.features import FEATURE_NAMES, extract_features
from cfgsentinel.graph import Cfg, LabeledSample, SampleClass
from cfgsentinel.isomorphism import is_subgraph
from cfgsentinel.mining import Pattern, canonical_dfs_code
from cfgsentinel.nn import Model

from conftest import path_graph, random_cfg

NODE_COUNT_IDX = FEATURE_NAMES.index("node_count")


# ---------------------------------------------------------------------------
# Model stubs (duck-typed: the attacks call .predict_class, which is
# nn.Model's own, over the stub's .class_names and batch .predict)
# ---------------------------------------------------------------------------

class StubModel:
    def predict_class(self, x):
        return Model.predict_class(self, np.atleast_2d(x))


class ConstModel(StubModel):
    """Always predicts the same class index."""

    def __init__(self, class_names, idx=0):
        self.class_names = list(class_names)
        self.idx = idx
        self.calls = 0

    def predict(self, X):
        self.calls += 1
        return np.full(len(X), self.idx, dtype=int)


class SizeThresholdModel(StubModel):
    """Predicts class 1 ("Benign") once the node-count feature reaches the
    threshold, else class 0 ("Malware")."""

    def __init__(self, threshold):
        self.class_names = ["Malware", "Benign"]
        self.threshold = threshold
        self.calls = 0

    def predict(self, X):
        self.calls += 1
        return (np.asarray(X)[:, NODE_COUNT_IDX] >= self.threshold).astype(int)


def sample(sid, cfg, cls=SampleClass.FAMILY_A):
    return LabeledSample(id=sid, cls=cls, cfg=cfg)


def pattern_of(g):
    return Pattern(
        code=canonical_dfs_code(g),
        support={"Benign": 1},
    )


def chain_cfg(n, label=1):
    return path_graph([label] * n)


# ---------------------------------------------------------------------------
# gea_merge
# ---------------------------------------------------------------------------

def test_merge_small_example_counts():
    # 3 nodes / 2 edges / 1 exit merged with 4 nodes / 3 edges / 1 exit
    # gives 9 nodes and 9 edges.
    org = chain_cfg(3)
    sel = chain_cfg(4)
    merged = gea_merge(org, sel)
    assert merged.node_count == 9
    assert merged.edge_count == 9


def test_merge_with_self_doubles_nodes_plus_two():
    g = chain_cfg(5)
    assert gea_merge(g, g).node_count == 2 * g.node_count + 2


def test_merge_structure_and_identities_random(rng):
    for _ in range(60):
        org = random_cfg(rng)
        sel = random_cfg(rng)
        before = (org.nodes, org.edges, org.entry, org.exits)
        # Cfg construction validates, so a returned merge is a valid graph.
        merged = gea_merge(org, sel)

        # Node and edge count identities hold for every merge.
        assert merged.node_count == org.node_count + sel.node_count + 2
        expected_edges = (
            org.edge_count + sel.edge_count + 2 + len(org.exits) + len(sel.exits)
        )
        assert merged.edge_count == expected_edges

        # Fresh entry/exit wiring: the new entry feeds both old entries and
        # every old exit feeds the single new exit; both carry label 0.
        labels = dict(merged.nodes)
        new_entry, new_exit = merged.entry, next(iter(merged.exits))
        assert labels[new_entry] == 0 and labels[new_exit] == 0
        org_ids = sorted(i for i, _ in org.nodes)
        sel_ids = sorted(i for i, _ in sel.nodes)
        org_map = {i: k for k, i in enumerate(org_ids)}
        sel_map = {i: k + len(org_ids) for k, i in enumerate(sel_ids)}
        assert (new_entry, org_map[org.entry]) in merged.edges
        assert (new_entry, sel_map[sel.entry]) in merged.edges
        for x in org.exits:
            assert (org_map[x], new_exit) in merged.edges
        for x in sel.exits:
            assert (sel_map[x], new_exit) in merged.edges

        # The attack is non-destructive: the victim object is untouched.
        assert (org.nodes, org.edges, org.entry, org.exits) == before


def test_merge_preserves_original_as_subgraph(rng):
    for _ in range(15):
        org = random_cfg(rng, n_lo=2, n_hi=6)
        sel = random_cfg(rng, n_lo=2, n_hi=6)
        merged = gea_merge(org, sel)
        assert is_subgraph(org, merged)
        assert is_subgraph(sel, merged)


# ---------------------------------------------------------------------------
# select_by_size
# ---------------------------------------------------------------------------

def test_select_by_size_strategies():
    pool = [
        sample("s1075", chain_cfg(1075)),
        sample("s10", chain_cfg(10)),
        sample("s23", chain_cfg(23)),
    ]
    assert select_by_size(pool, "minimum").cfg.node_count == 10
    assert select_by_size(pool, "median").cfg.node_count == 23
    assert select_by_size(pool, "maximum").cfg.node_count == 1075


def test_select_by_size_even_pool_takes_lower_median():
    pool = [sample(f"s{n}", chain_cfg(n)) for n in (4, 8, 15, 16)]
    assert select_by_size(pool, "median").cfg.node_count == 8


def test_select_by_size_ties_break_by_smallest_id():
    pool = [
        sample("zeta", chain_cfg(7)),
        sample("alpha", chain_cfg(7)),
        sample("mid", chain_cfg(7)),
    ]
    assert select_by_size(pool, "minimum").id == "alpha"


def test_select_by_size_rejects_bad_inputs():
    pool = [sample("a", chain_cfg(3))]
    with pytest.raises(AttackError):
        select_by_size(pool, "widest")
    with pytest.raises(AttackError):
        select_by_size([], "minimum")


# ---------------------------------------------------------------------------
# gea_attack
# ---------------------------------------------------------------------------

def test_gea_attack_flips_when_size_crosses_threshold():
    model = SizeThresholdModel(threshold=20)
    victims = [sample(f"v{i}", chain_cfg(6 + i)) for i in range(4)]
    pool = [sample("donor", chain_cfg(30), SampleClass.BENIGN)]
    report, merged = gea_attack(model, victims, pool, "minimum", "Benign",
                                include_timing=False)
    assert report.attack == "gea" and report.strategy == "minimum"
    assert len(report.records) == 4 and len(report.eligible) == 4
    assert report.misclassification_rate == 1.0
    assert report.targeted_rate == 1.0
    for rec in report.records:
        assert rec.original_prediction == "Malware"
        assert rec.adversarial_prediction == "Benign"
        assert rec.injected_nodes == 30
        assert rec.attempts == 1
        assert rec.crafting_seconds is None
    assert set(merged) == {v.id for v in victims}
    for v in victims:
        assert merged[v.id].node_count == v.cfg.node_count + 30 + 2


def test_gea_attack_failure_keeps_rates_zero():
    model = SizeThresholdModel(threshold=10_000)
    victims = [sample("v", chain_cfg(8))]
    pool = [sample("d", chain_cfg(12), SampleClass.BENIGN)]
    report, merged = gea_attack(model, victims, pool, "maximum", "Benign",
                                include_timing=False)
    assert report.misclassification_rate == 0.0
    assert report.targeted_rate == 0.0
    assert report.mean_injected_nodes is None
    # The merged graph is still recorded for eligible victims.
    assert set(merged) == {"v"}


def test_gea_attack_pre_satisfied_excluded():
    # Threshold 5: a 6-node victim is already "Benign" before any merge.
    model = SizeThresholdModel(threshold=5)
    victims = [sample("big", chain_cfg(6)), sample("small", chain_cfg(3))]
    pool = [sample("d", chain_cfg(40), SampleClass.BENIGN)]
    report, merged = gea_attack(model, victims, pool, "minimum", "Benign",
                                include_timing=False)
    by_id = {r.sample_id: r for r in report.records}
    assert by_id["big"].pre_satisfied and by_id["big"].attempts == 0
    assert not by_id["small"].pre_satisfied
    assert [r.sample_id for r in report.eligible] == ["small"]
    assert "big" not in merged and "small" in merged
    # Rates are computed over the single eligible victim.
    assert report.misclassification_rate == 1.0


def test_gea_attack_rejects_unknown_target_and_empty_pool():
    model = SizeThresholdModel(threshold=5)
    victims = [sample("v", chain_cfg(4))]
    with pytest.raises(AttackError):
        gea_attack(model, victims, [sample("d", chain_cfg(5))], "minimum", "Spam")
    with pytest.raises(AttackError):
        gea_attack(model, victims, [], "minimum", "Benign")


def test_gea_timing_recorded_when_requested():
    model = SizeThresholdModel(threshold=20)
    victims = [sample("v", chain_cfg(6))]
    pool = [sample("d", chain_cfg(30), SampleClass.BENIGN)]
    report, _ = gea_attack(model, victims, pool, "minimum", "Benign",
                           include_timing=True)
    assert report.records[0].crafting_seconds is not None
    assert report.records[0].crafting_seconds >= 0.0


# ---------------------------------------------------------------------------
# sgea_attack
# ---------------------------------------------------------------------------

def test_sgea_first_success_in_ascending_order():
    # Candidates of sizes 5, 6, 9; the model only flips once the merged
    # graph reaches victim + 6 + 2 nodes, so the size-6 candidate wins on
    # the second attempt.
    victim = chain_cfg(10)
    model = SizeThresholdModel(threshold=10 + 6 + 2)
    cands = [pattern_of(chain_cfg(n)) for n in (5, 6, 9)]
    res = sgea_attack(model, victim, cands, "Benign")
    assert res.success
    assert res.attempts == 2
    assert res.injected_nodes == 6
    assert res.adversarial_prediction == "Benign"
    assert res.graph.node_count == 10 + 6 + 2


def test_sgea_orders_candidates_itself():
    victim = chain_cfg(10)
    model = SizeThresholdModel(threshold=10 + 6 + 2)
    shuffled = [pattern_of(chain_cfg(n)) for n in (9, 5, 6)]
    res = sgea_attack(model, victim, shuffled, "Benign")
    assert res.attempts == 2 and res.injected_nodes == 6


def test_sgea_failure_returns_original_unmodified():
    victim = chain_cfg(7)
    model = ConstModel(["Malware", "Benign"], idx=0)  # never flips
    cands = [pattern_of(chain_cfg(n)) for n in (3, 4, 5)]
    res = sgea_attack(model, victim, cands, "Benign")
    assert not res.success
    assert res.attempts == len(cands)
    assert res.graph is victim
    assert res.injected_nodes == 0
    assert res.adversarial_prediction == res.original_prediction == "Malware"


def test_sgea_empty_candidates_immediate_failure():
    victim = chain_cfg(7)
    model = ConstModel(["Malware", "Benign"], idx=0)
    res = sgea_attack(model, victim, [], "Benign")
    assert not res.success and res.attempts == 0 and res.graph is victim


def test_sgea_query_budget():
    # One query for the original prediction plus at most one per candidate.
    victim = chain_cfg(7)
    model = ConstModel(["Malware", "Benign"], idx=0)
    cands = [pattern_of(chain_cfg(n)) for n in (3, 4, 5, 6)]
    sgea_attack(model, victim, cands, "Benign")
    assert model.calls <= 1 + len(cands)


def test_sgea_attack_all_report_and_merged():
    model = SizeThresholdModel(threshold=14)
    victims = [
        sample("easy", chain_cfg(10)),   # flips with the 3-node candidate
        sample("hard", chain_cfg(4)),    # needs the 8-node candidate
        sample("done", chain_cfg(14)),   # pre-satisfied
    ]
    cands = [pattern_of(chain_cfg(n)) for n in (3, 8)]
    report, merged = sgea_attack_all(model, victims, cands, "Benign",
                                     include_timing=False)
    assert report.attack == "sgea" and report.strategy == "ascending"
    by_id = {r.sample_id: r for r in report.records}
    assert by_id["easy"].injected_nodes == 3 and by_id["easy"].attempts == 1
    assert by_id["hard"].injected_nodes == 8 and by_id["hard"].attempts == 2
    assert by_id["done"].pre_satisfied
    assert set(merged) == {"easy", "hard"}
    assert report.misclassification_rate == 1.0
    assert report.mean_injected_nodes == pytest.approx((3 + 8) / 2)


def test_sgea_attack_all_queries_each_victim_once_plus_attempts():
    # the original prediction is made once per victim, pre-satisfied or not
    model = SizeThresholdModel(threshold=14)
    victims = [sample("easy", chain_cfg(10)), sample("hard", chain_cfg(4)),
               sample("never", chain_cfg(2)), sample("done", chain_cfg(14))]
    cands = [pattern_of(chain_cfg(n)) for n in (8, 3)]
    report, _ = sgea_attack_all(model, victims, cands, "Benign", include_timing=False)
    assert [r.attempts for r in report.records] == [1, 2, 2, 0]
    assert model.calls == len(victims) + sum(r.attempts for r in report.records)


def test_sgea_given_original_issues_only_merge_queries():
    victim = chain_cfg(10)
    model = SizeThresholdModel(threshold=10 + 9 + 2)
    cands = [pattern_of(chain_cfg(n)) for n in (9, 6)]  # tried as 6, then 9
    res = sgea_attack(model, victim, cands, "Benign", original="Malware")
    assert res.attempts == 2 and res.injected_nodes == 9
    assert res.original_prediction == "Malware"
    assert model.calls == 2


def test_sgea_attack_all_rejects_unknown_target():
    with pytest.raises(AttackError):
        sgea_attack_all(ConstModel(["A", "B"]), [], [], "C")


# ---------------------------------------------------------------------------
# Report invariants and writers
# ---------------------------------------------------------------------------

def _toy_report():
    report = AttackReport(attack="gea", strategy="minimum", target_class="Benign")
    report.records.append(AttackRecord("a", "Malware", "Benign", 10, 1, None))
    report.records.append(AttackRecord("b", "Malware", "Malware", 10, 1, None))
    report.records.append(AttackRecord("c", "Benign", "Benign", 0, 0, None,
                                       pre_satisfied=True))
    return report


def test_report_rates_and_validation():
    report = _toy_report()
    report.validate()
    assert 0.0 <= report.targeted_rate <= report.misclassification_rate <= 1.0
    assert report.misclassification_rate == pytest.approx(0.5)
    assert report.targeted_rate == pytest.approx(0.5)
    assert report.mean_injected_nodes == pytest.approx(10.0)


def test_report_validate_rejects_targeted_above_nontargeted():
    # A "targeted success" that is not a flip is contradictory.
    report = AttackReport(attack="gea", strategy="minimum", target_class="Malware")
    report.records.append(AttackRecord("a", "Malware", "Malware", 5, 1, None))
    with pytest.raises(AttackError):
        report.validate()


def test_report_json_roundtrip(tmp_path):
    report = _toy_report()
    path = tmp_path / "report.json"
    write_report_json(report, path)
    doc = json.loads(path.read_text())
    assert doc == report.to_dict()
    assert doc["eligible"] == 2
    assert doc["pre_satisfied"] == 1
    assert len(doc["records"]) == 3
    assert doc["records"][0]["sample_id"] == "a"


def test_reports_csv_layout(tmp_path):
    reports = [_toy_report(), _toy_report()]
    reports[1].attack, reports[1].strategy = "sgea", "ascending"
    text = reports_to_csv(reports)
    lines = text.strip().split("\n")
    assert lines[0] == (
        "attack,strategy,target_class,eligible,mean_injected_nodes,"
        "misclassification_rate,targeted_rate,mean_crafting_seconds"
    )
    assert len(lines) == 3
    first = lines[1].split(",")
    assert first[0] == "gea" and first[1] == "minimum"
    assert first[3] == "2"
    # No timing collected: the crafting-time cell is empty.
    assert first[7] == ""
    path = tmp_path / "summary.csv"
    write_report_csv(reports, path)
    assert path.read_text() == text


def test_predict_class_uses_feature_vector():
    model = SizeThresholdModel(threshold=5)
    assert predict_class(model, chain_cfg(4)) == "Malware"
    assert predict_class(model, chain_cfg(6)) == "Benign"
    assert extract_features(chain_cfg(6))[NODE_COUNT_IDX] == 6.0


def test_strategies_constant():
    assert STRATEGIES == ("minimum", "median", "maximum")


# sha256 of the attack reports, the screen over the injected graphs and the
# pipeline verdicts of the golden TINY runs (see conftest), recorded before
# pattern graphs were derived from their DFS codes.
GOLDEN_ATTACK_DIGESTS = {
    "7/attacks/gea_maximum.json": "4db14bfec24a8e0c20bdcc9cc0f0a5e98776fab93daa5118b135db704da46029",
    "7/attacks/gea_median.json": "0b6ae3594cc2a0960f13fa422c1eff3b51b994f89f5a74bf06914e682500d51a",
    "7/attacks/gea_minimum.json": "d5c84d5407ac099f243c3e48fda9e0ccee3665f79ad202fdf538d6bc151abdfb",
    "7/attacks/sbd_screen.json": "56622391b5de600d706439031671f1c71ee6d282d1cc10b4f9b7b8180f5b9e4d",
    "7/attacks/sgea.json": "e8628849e60e6c8e35cc95a9f4dd60a04088a39b0b9b156d42792f07e025c1be",
    "7/attacks/summary.csv": "f2af2f4651c55748deacb32ab0b7e412f4a2ef2084547c260eb2a4b010f388d8",
    "7/pipeline/summary.json": "7e9e7c60ef6b7e3edd092b3ce84233ef760158f141e64ac0b254696b4afd361c",
    "7/pipeline/verdicts.jsonl": "2fa125ee9f647c0ab6275a57e71a1e02a9406601e9efb1a7d2e8cb5acc31bfa8",
    "5/attacks/gea_maximum.json": "28dd92202afdad0b9010d8d47c9b57e7b2c14d326037cb0a2eb15f0305d393b2",
    "5/attacks/gea_median.json": "8f343c31ce6fb7113219238192cc4eee038d2a1ada4ceb092daa99c4a22761b2",
    "5/attacks/gea_minimum.json": "730d9e1c2359f2d082f3a1a549f9f5b648305f99880486cde381bfe185418669",
    "5/attacks/sbd_screen.json": "56622391b5de600d706439031671f1c71ee6d282d1cc10b4f9b7b8180f5b9e4d",
    "5/attacks/sgea.json": "117113c2cd1db675accd65eac332e5ff399fcdf785e487614c37d14a59ed5e35",
    "5/attacks/summary.csv": "f2af2f4651c55748deacb32ab0b7e412f4a2ef2084547c260eb2a4b010f388d8",
    "5/pipeline/summary.json": "6675e041628300fc4e70f0993729cf94d67343234b803be54c442c7ef42b5f10",
    "5/pipeline/verdicts.jsonl": "ddeefef7680ce94bedb3b7e92bbc1992e68c610cd8907bf550ef3f269efc101a",
}


@pytest.mark.skipif(not (np.__version__.startswith("2.4.") and sys.version_info >= (3, 11)),
                    reason="model predictions are pinned under numpy 2.4 and Python >= 3.11")
def test_golden_attack_and_pipeline_digests(golden_tree_digests):
    got = {k: v for k, v in golden_tree_digests.items()
           if k.split("/")[1] in ("attacks", "pipeline")}
    assert got == GOLDEN_ATTACK_DIGESTS
