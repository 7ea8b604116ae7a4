"""Pattern ranking, bit encoding, the suspicious-behavior screen, and the
two-stage classification pipeline."""

import functools
import inspect
import json
import operator
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given

from cfgsentinel.fhmc import (
    DETECTOR_CLASSES,
    FAMILY_CLASSES,
    SBD_CLASSES,
    EncodingTimeout,
    RankedPatternSet,
    RankingError,
    classify_pipeline,
    coverage_scores,
    encode,
    encode_many,
    encodings_to_csv,
    mine_family_candidates,
    rank_patterns,
    read_ranked,
    support_floor,
    train_sbd,
    write_ranked,
    write_verdicts,
)
from cfgsentinel import corpus, experiment, fhmc, isomorphism, nn
from cfgsentinel.graph import GraphError, LabeledSample, SampleClass
from cfgsentinel.isomorphism import is_subgraph
from cfgsentinel.mining import (MiningError, Pattern, canonical_dfs_code, gspan_mine,
                                read_patterns, write_patterns)

import oracles
from conftest import cycle_graph, path_graph, random_cfg, subprocess_env, transitive_dag
from fuzz import FUZZ, documents


def sample(sid, cfg, cls=SampleClass.FAMILY_A):
    return LabeledSample(id=sid, cls=cls, cfg=cfg)


def chain(labels):
    return path_graph(list(labels))


def pattern_of(g, support, supporting=None):
    return Pattern(
        code=canonical_dfs_code(g),
        support=dict(support),
        supporting_ids=supporting,
    )


# ---------------------------------------------------------------------------
# Support floor and coverage
# ---------------------------------------------------------------------------

def test_support_floor_is_ceil_with_floor_one():
    assert support_floor(100, 0.05) == 5
    assert support_floor(20, 0.05) == 1
    assert support_floor(21, 0.05) == 2  # ceil(1.05)
    assert support_floor(3, 0.05) == 1
    assert support_floor(0, 0.05) == 1


def test_coverage_scores_weight_rare_samples():
    g1, g2 = chain([1, 1]), chain([2, 2])
    p1 = pattern_of(g1, {"F": 2}, {"F": frozenset({"a", "b"})})
    p2 = pattern_of(g2, {"F": 1}, {"F": frozenset({"b"})})
    cov = coverage_scores([p1, p2], "F", ["a", "b", "c"])
    # a is covered once (weight 1), b twice (weight 1/2 each).
    assert cov[0] == pytest.approx(1.0 + 0.5)
    assert cov[1] == pytest.approx(0.5)


def test_coverage_scores_ignore_foreign_ids():
    p = pattern_of(chain([1, 1]), {"F": 1}, {"F": frozenset({"zz"})})
    assert coverage_scores([p], "F", ["a", "b"]) == [0.0]


_COVERAGE_PROGRAM = """
from cfgsentinel.fhmc import coverage_scores
from cfgsentinel.graph import Cfg
from cfgsentinel.mining import Pattern, canonical_dfs_code
ids = [f"s{i:02d}" for i in range(30)]
pats = []
for k in range(8):
    g = Cfg(nodes=((0, k), (1, k)), edges=frozenset({(0, 1)}), entry=0, exits=frozenset({1}))
    supp = frozenset(s for j, s in enumerate(ids) if k == 0 or j % (k + 1) == 0)
    pats.append(Pattern(code=canonical_dfs_code(g), support={"F": 1},
                        supporting_ids={"F": supp}))
print(repr(coverage_scores(pats, "F", ids)))
"""


def test_coverage_scores_independent_of_hash_seed():
    # 1/occurrence summed in set order differs in the last bits between
    # string hash seeds; the sum runs in id order instead
    outs = {
        subprocess.run(
            [sys.executable, "-c", _COVERAGE_PROGRAM],
            env=subprocess_env(PYTHONHASHSEED=str(seed)),
            capture_output=True, text=True, check=True,
        ).stdout
        for seed in range(1, 6)
    }
    assert len(outs) == 1


def test_coverage_scores_add_left_to_right_from_zero(rng):
    # Python 3.12's sum compensates its rounding; the scores must be plain
    # left-to-right additions in id order on every version
    ids = [f"s{i:02d}" for i in range(40)]
    for _ in range(50):
        pats = [
            pattern_of(chain([1, k]), {"F": 1},
                       {"F": frozenset(s for s in ids if rng.random() < rng.random())})
            for k in range(int(rng.integers(1, 12)))
        ]
        occurrence = {sid: sum(sid in p.supporting_ids["F"] for p in pats) for sid in ids}
        expected = [
            functools.reduce(operator.add,
                             [1.0 / occurrence[sid] for sid in sorted(p.supporting_ids["F"])], 0.0)
            for p in pats
        ]
        got = coverage_scores(pats, "F", ids)
        assert [type(c) for c in got] == [float] * len(pats)
        assert [c.hex() for c in got] == [e.hex() for e in expected]


# ---------------------------------------------------------------------------
# rank_patterns
# ---------------------------------------------------------------------------

def _family_train(n, fam="FamilyA"):
    cls = SampleClass(fam)
    return {fam: [sample(f"f{i}", chain([8, 8, 8]), cls) for i in range(n)]}


def test_rank_drops_below_support_floor():
    fam_train = _family_train(4)
    benign = [sample("b0", chain([9, 9, 9]), SampleClass.BENIGN)]
    weak = pattern_of(chain([1, 2]), {"FamilyA": 1}, {"FamilyA": frozenset({"f0"})})
    strong = pattern_of(chain([1, 3]), {"FamilyA": 2},
                        {"FamilyA": frozenset({"f0", "f1"})})
    ranked = rank_patterns({"FamilyA": [weak, strong]}, fam_train, benign,
                           support_fraction=0.5)  # floor = 2
    kept = [rp.pattern.code for rp in ranked.per_family["FamilyA"]]
    assert kept == [strong.code]


def test_rank_drops_patterns_common_in_benign():
    fam_train = _family_train(2)
    # Three benign graphs all contain the 1-1 chain.
    benign = [sample(f"b{i}", chain([1, 1, 1]), SampleClass.BENIGN) for i in range(3)]
    common = pattern_of(chain([1, 1]), {"FamilyA": 2},
                        {"FamilyA": frozenset({"f0", "f1"})})
    rare = pattern_of(chain([4, 4]), {"FamilyA": 2},
                      {"FamilyA": frozenset({"f0", "f1"})})
    ranked = rank_patterns({"FamilyA": [common, rare]}, fam_train, benign,
                           benign_ceiling=2)
    kept = [rp.pattern.code for rp in ranked.per_family["FamilyA"]]
    assert kept == [rare.code]
    # With the ceiling at the observed count the pattern survives.
    ranked = rank_patterns({"FamilyA": [common]}, fam_train, benign,
                           benign_ceiling=3)
    assert len(ranked.per_family["FamilyA"]) == 1
    assert ranked.per_family["FamilyA"][0].benign_occurrences == 3


def test_rank_score_composite_and_order():
    fam_train = _family_train(4)
    # One benign graph contains the small pattern's label chain, none the big.
    benign = [
        sample("b0", chain([5, 5, 5, 5]), SampleClass.BENIGN),
        sample("b1", chain([9, 9, 9, 9]), SampleClass.BENIGN),
    ]
    big = pattern_of(chain([7, 7, 7, 7]), {"FamilyA": 4},
                     {"FamilyA": frozenset({"f0", "f1", "f2", "f3"})})
    small = pattern_of(chain([5, 5, 5]), {"FamilyA": 1},
                       {"FamilyA": frozenset({"f0"})})
    ranked = rank_patterns({"FamilyA": [small, big]}, fam_train, benign)
    rps = ranked.per_family["FamilyA"]
    assert [rp.pattern.code for rp in rps] == [big.code, small.code]
    # big dominates every min-max component: node count, family frequency,
    # coverage, and (negated) benign occurrences -> scores 1.0 and 0.0.
    assert rps[0].rank_score == pytest.approx(1.0)
    assert rps[1].rank_score == pytest.approx(0.0)
    assert rps[0].family_frequency == 4
    assert rps[0].benign_occurrences == 0
    assert rps[1].benign_occurrences == 1
    assert rps[0].coverage == pytest.approx(0.5 + 1 + 1 + 1)
    assert rps[1].coverage == pytest.approx(0.5)


def test_rank_truncates_to_k_and_validates():
    fam_train = _family_train(3)
    benign = [sample("b0", chain([9, 9]), SampleClass.BENIGN)]
    cands = [
        pattern_of(chain([1, i]), {"FamilyA": 3},
                   {"FamilyA": frozenset({"f0", "f1", "f2"})})
        for i in range(1, 6)
    ]
    ranked = rank_patterns({"FamilyA": cands}, fam_train, benign, k=2)
    assert len(ranked.per_family["FamilyA"]) == 2
    with pytest.raises(RankingError):
        rank_patterns({"FamilyA": cands}, fam_train, benign, k=0)
    with pytest.raises(RankingError):
        rank_patterns({"FamilyB": cands}, fam_train, benign)


def test_rank_equal_scores_tie_break_on_code():
    fam_train = _family_train(2)
    benign = [sample("b0", chain([9, 9]), SampleClass.BENIGN)]
    # Identical stats -> identical (degenerate min-max zero) scores.
    a = pattern_of(chain([1, 2]), {"FamilyA": 2},
                   {"FamilyA": frozenset({"f0", "f1"})})
    b = pattern_of(chain([1, 1]), {"FamilyA": 2},
                   {"FamilyA": frozenset({"f0", "f1"})})
    ranked = rank_patterns({"FamilyA": [a, b]}, fam_train, benign)
    rps = ranked.per_family["FamilyA"]
    assert rps[0].rank_score == rps[1].rank_score == 0.0
    assert [rp.pattern.code for rp in rps] == sorted([a.code, b.code])


def test_flat_follows_family_order():
    fam_a = pattern_of(chain([1, 1]), {"FamilyA": 1})
    fam_c = pattern_of(chain([2, 2]), {"FamilyC": 1})
    rs = RankedPatternSet(per_family={
        "FamilyC": [_rp(fam_c, "FamilyC")],
        "FamilyA": [_rp(fam_a, "FamilyA")],
    })
    assert [rp.family for rp in rs.flat] == ["FamilyA", "FamilyC"]
    assert len(rs) == 2
    assert [g.node_count for g in rs.graphs] == [2, 2]
    # built once, not on every encode call or len()
    assert rs.flat is rs.flat
    assert rs.graphs is rs.graphs


def _rp(pattern, family, score=0.0):
    from cfgsentinel.fhmc import RankedPattern

    return RankedPattern(pattern=pattern, family=family, family_frequency=1,
                         coverage=0.0, benign_occurrences=0, rank_score=score)


def test_mine_family_candidates_covers_present_families(rng):
    train = [
        sample(f"a{i}", chain([1, 1, 1, 1]), SampleClass.FAMILY_A) for i in range(3)
    ] + [
        sample(f"b{i}", chain([2, 2, 2, 2]), SampleClass.FAMILY_B) for i in range(2)
    ]
    cands = mine_family_candidates(train, min_nodes=2, max_nodes=3)
    assert set(cands) == {"FamilyA", "FamilyB"}
    # Every candidate records its support under its own family.
    for fam, pats in cands.items():
        assert pats
        for p in pats:
            assert p.support.get(fam, 0) >= 1
            assert p.supporting_ids and fam in p.supporting_ids


def test_mine_family_candidates_defaults_to_the_schema_support():
    # omitting support_fraction mines at the support `repro` and CLI `mine` use
    train = [sample(f"a{i}", chain([1, 1, 1, 1])) for i in range(9)]
    train.append(sample("a9", chain([2, 3, 4, 5])))
    mine = functools.partial(mine_family_candidates, train, min_nodes=2, max_nodes=3)
    schema = experiment.DEFAULTS["mining"]["support_fraction"]
    assert mine() == mine(support_fraction=schema)
    assert fhmc.DEFAULT_MINING_FRACTION == schema
    # at a low fraction the odd sample's patterns are kept, so the case can tell
    assert mine() != mine(support_fraction=0.05)
    # every library default of a schema key is the schema's
    library = {
        corpus.split: "split", nn.train: "train", nn.Adam: "train", train_sbd: "train",
        mine_family_candidates: "mining", rank_patterns: "rank",
        encode: "encode", encode_many: "encode", classify_pipeline: "encode",
    }
    for fn, sec in library.items():
        params = inspect.signature(fn).parameters
        keys = [key for key in experiment.DEFAULTS[sec] if key in params]
        assert keys, fn
        for key in keys:
            assert params[key].default == experiment.DEFAULTS[sec][key], (fn, key)
    assert inspect.signature(support_floor).parameters["fraction"].default is inspect.Parameter.empty


def _rank_case(seed):
    """Two families that share three graphs, so codes recur across them;
    each family's gSpan candidates with a random part dropped (some codes
    lose their prefixes, as do codes below `min_nodes`); twelve benign
    graphs over the same two labels."""
    rng = np.random.default_rng(seed)
    graphs = [random_cfg(rng, n_lo=3, n_hi=7, n_labels=2) for _ in range(8)]
    family_train = {
        fam: [sample(f"{fam}{i}", g, SampleClass(fam)) for i, g in enumerate(gs)]
        for fam, gs in (("FamilyA", graphs[:5]), ("FamilyB", graphs[2:]))
    }
    min_nodes = int(rng.integers(1, 4))
    candidates = {}
    for fam, samples in family_train.items():
        mined = gspan_mine(samples, 1, min_nodes, 4)
        candidates[fam] = [p for p in mined if rng.random() < 0.7]
    benign = [sample(f"b{i:02d}", random_cfg(rng, n_lo=3, n_hi=9, n_labels=2), SampleClass.BENIGN)
              for i in range(12)]
    return candidates, family_train, benign


def _exact(ranked):
    """Every field of every ranked pattern, floats as their exact hex."""
    return {fam: [(rp.pattern.code, rp.family, rp.family_frequency, rp.coverage.hex(),
                   rp.benign_occurrences, rp.rank_score.hex()) for rp in rps]
            for fam, rps in ranked.per_family.items()}


@pytest.mark.parametrize("seed", range(8))
def test_rank_matches_pattern_by_pattern_scan(seed, tmp_path):
    candidates, family_train, benign = _rank_case(seed)
    assert {p.code for p in candidates["FamilyA"]} & {p.code for p in candidates["FamilyB"]}
    if seed % 2:  # candidates as the CLI reads them: no supporting ids
        for fam, pats in candidates.items():
            write_patterns(pats, tmp_path / f"{fam}.json")
            candidates[fam] = read_patterns(tmp_path / f"{fam}.json")
    # ceilings 0 and 1 stop early and leave benign graphs untested; a
    # floor of 0.5 leaves low-support codes (and so prefixes) untested
    for ceiling in (0, 1, 1000):
        for fraction in (0.05, 0.5):
            args = (candidates, family_train, benign, 1000, ceiling, fraction)
            assert _exact(rank_patterns(*args)) == _exact(oracles.scan_rank_patterns(*args))


def test_rank_skips_benign_graphs_a_tested_prefix_missed(monkeypatch):
    candidates, family_train, benign = _rank_case(3)
    code_of = {p.graph: p.code for pats in candidates.values() for p in pats}
    calls = []

    def recording(pattern, host):
        hit = is_subgraph(pattern, host)
        calls.append((code_of[pattern], next(i for i, s in enumerate(benign) if s.cfg is host), hit))
        return hit

    monkeypatch.setattr(fhmc, "is_subgraph", recording)
    ranked = rank_patterns(candidates, family_train, benign, benign_ceiling=3)
    missed = set()
    for code, host, hit in calls:
        # no prefix of the code (the code itself included) missed this host
        assert not any((code[:j], host) in missed for j in range(1, len(code) + 1))
        if not hit:
            missed.add((code, host))

    scan_calls = []
    monkeypatch.setattr(isomorphism, "is_subgraph",
                        lambda pattern, host: scan_calls.append(1) or is_subgraph(pattern, host))
    scanned = oracles.scan_rank_patterns(candidates, family_train, benign, benign_ceiling=3)
    assert _exact(ranked) == _exact(scanned)
    assert len(calls) < len(scan_calls)


# ---------------------------------------------------------------------------
# Encoding
# ---------------------------------------------------------------------------

def test_encode_bits_match_containment(rng):
    patterns = [chain([1, 1]), chain([1, 2]), chain([2, 1]), chain([3, 3, 3])]
    for _ in range(25):
        g = random_cfg(rng, n_lo=3, n_hi=9, n_labels=4)
        bits = encode(g, patterns)
        assert bits.dtype == np.uint8 and bits.shape == (4,)
        for i, p in enumerate(patterns):
            assert bool(bits[i]) == is_subgraph(p, g)


def test_encode_accepts_ranked_set():
    pat = pattern_of(chain([1, 1]), {"FamilyA": 1})
    rs = RankedPatternSet(per_family={"FamilyA": [_rp(pat, "FamilyA")]})
    assert encode(chain([1, 1, 1]), rs).tolist() == [1]
    assert encode(chain([2, 2]), rs).tolist() == [0]


def test_encode_timeout_and_empty_pattern_list():
    g = chain([1, 1, 1])
    with pytest.raises(EncodingTimeout):
        encode(g, [chain([1, 1])] * 3, budget_seconds=-1.0)
    assert encode(g, [], budget_seconds=-1.0).shape == (0,)


def test_encode_budget_holds_inside_one_pattern():
    # a one-label 10-cycle never embeds in a transitive DAG; unbounded, this
    # one search runs for about a second
    t0 = time.monotonic()
    with pytest.raises(EncodingTimeout, match="at pattern 1"):
        encode(transitive_dag(24), [chain([0, 0]), cycle_graph(10)], budget_seconds=0.05)
    assert time.monotonic() - t0 < 0.05 + 0.5


def test_encode_many_stacks_rows(rng):
    patterns = [chain([1, 1]), chain([2, 2])]
    samples = [sample(f"s{i}", random_cfg(rng, n_labels=3)) for i in range(6)]
    bits = encode_many(samples, patterns)
    assert bits.shape == (6, 2)
    for row, s in zip(bits, samples):
        assert np.array_equal(row, encode(s.cfg, patterns))


def test_encodings_csv_layout():
    bits = np.array([[1, 0, 1], [0, 0, 0]], dtype=np.uint8)
    text = encodings_to_csv(["s1", "s2"], bits)
    lines = text.strip().split("\n")
    assert lines[0] == "id,p0000,p0001,p0002"
    assert lines[1] == "s1,1,0,1"
    assert lines[2] == "s2,0,0,0"


def test_encodings_csv_without_patterns_has_only_the_id_column():
    # what `encode` writes for a ranked file with no families
    assert encodings_to_csv(["a", "b"], np.zeros((2, 0), dtype=np.uint8)) == "id\na\nb\n"


# ---------------------------------------------------------------------------
# Suspicious-behavior screen
# ---------------------------------------------------------------------------

def test_train_sbd_separates_bit_patterns():
    rng = np.random.default_rng(7)
    n, width = 48, 12
    bits = (rng.random((n, width)) < 0.3).astype(np.uint8)
    labels = bits[:, 0].astype(int)  # label is literally the first bit
    model = train_sbd(bits, labels, seed=3, epochs=60, batch_size=16)
    assert tuple(model.class_names) == SBD_CLASSES
    preds = model.predict(bits.astype(np.float64))
    assert (preds == labels).mean() >= 0.9


def test_train_sbd_rejects_non_matrix():
    with pytest.raises(RankingError):
        train_sbd(np.zeros(8, dtype=np.uint8), np.zeros(8, dtype=int))


# ---------------------------------------------------------------------------
# Pipeline
# ---------------------------------------------------------------------------

class ProbStub:
    """predict_proba stub that counts invocations."""

    def __init__(self, class_names, probs):
        self.class_names = list(class_names)
        self.probs = np.asarray(probs, dtype=float)
        self.calls = 0

    def predict_proba(self, X):
        self.calls += 1
        return np.tile(self.probs, (len(X), 1))


def test_pipeline_malware_route_skips_screen():
    detector = ProbStub(DETECTOR_CLASSES, [0.1, 0.9])
    family = ProbStub(FAMILY_CLASSES, [0.2, 0.7, 0.1])
    sbd = ProbStub(SBD_CLASSES, [0.5, 0.5])
    v = classify_pipeline(chain([1, 1, 1]), detector, family, sbd,
                          [chain([1, 1])])
    assert v.verdict == "Malware"
    assert v.family == "FamilyB"
    assert v.stage == "classifier"
    assert len(v.detector_probs) == 2 and len(v.stage_probs) == 3
    assert family.calls == 1
    assert sbd.calls == 0  # the untaken stage never runs


def test_pipeline_benign_route_runs_screen_only():
    detector = ProbStub(DETECTOR_CLASSES, [0.8, 0.2])
    family = ProbStub(FAMILY_CLASSES, [0.2, 0.7, 0.1])
    sbd = ProbStub(SBD_CLASSES, [0.3, 0.7])
    v = classify_pipeline(chain([1, 1, 1]), detector, family, sbd,
                          [chain([1, 1])])
    assert v.verdict == "Suspicious"
    assert v.family is None
    assert v.stage == "sbd"
    assert family.calls == 0
    assert sbd.calls == 1


def test_pipeline_verdict_to_dict_roundtrips():
    detector = ProbStub(DETECTOR_CLASSES, [0.8, 0.2])
    sbd = ProbStub(SBD_CLASSES, [0.9, 0.1])
    v = classify_pipeline(chain([2, 2]), detector,
                          ProbStub(FAMILY_CLASSES, [1, 0, 0]), sbd,
                          [chain([1, 1])])
    d = v.to_dict()
    assert d["verdict"] == "Benign"
    assert d["stage"] == "sbd"
    assert d["family"] is None
    assert d["detector_probs"] == list(v.detector_probs)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def test_ranked_roundtrip(tmp_path):
    a = pattern_of(chain([1, 2, 1]), {"FamilyA": 3, "FamilyB": 1},
                   {"FamilyA": frozenset({"f0"})})
    b = pattern_of(chain([2, 2]), {"FamilyB": 2},
                   {"FamilyB": frozenset({"g0", "g1"})})
    original = RankedPatternSet(per_family={
        "FamilyA": [_rp(a, "FamilyA", score=0.75)],
        "FamilyB": [_rp(b, "FamilyB", score=0.25)],
    })
    path = tmp_path / "ranked.json"
    write_ranked(original, path)
    loaded = read_ranked(path)
    assert set(loaded.per_family) == {"FamilyA", "FamilyB"}
    for fam in original.per_family:
        orig, got = original.per_family[fam], loaded.per_family[fam]
        assert [rp.pattern.code for rp in orig] == [rp.pattern.code for rp in got]
        assert [rp.rank_score for rp in orig] == [rp.rank_score for rp in got]
        assert [rp.family_frequency for rp in orig] == [
            rp.family_frequency for rp in got
        ]
        assert [rp.pattern.support for rp in orig] == [
            rp.pattern.support for rp in got
        ]
    # The materialized pattern graphs still match their codes.
    for rp in loaded.flat:
        assert canonical_dfs_code(rp.pattern.graph) == rp.pattern.code


def _ranked_text(ranked) -> str:
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "ranked.json"
        write_ranked(ranked, path)
        return path.read_text()


GOOD_RANKED_DOC = json.loads(_ranked_text(RankedPatternSet(per_family={
    "FamilyA": [_rp(pattern_of(chain([1, 2, 1]), {"FamilyA": 3}), "FamilyA", score=0.75)],
    "FamilyC": [_rp(pattern_of(chain([2, 2]), {"FamilyC": 2, "Benign": 1}), "FamilyC")],
})))


def _first(**fields):
    """GOOD_RANKED_DOC's text with fields of its FamilyA entry replaced
    (None: removed)."""
    doc = json.loads(json.dumps(GOOD_RANKED_DOC))
    entry = doc["families"]["FamilyA"][0]
    for k, v in fields.items():
        if v is None:
            del entry[k]
        else:
            entry[k] = v
    return json.dumps(doc)


# Text of ranked files that read_ranked must reject (MiningError for the
# pattern fields, RankingError for the rest; both exit 4 on the CLI).
MALFORMED_RANKED_FILES = {
    "not_json": "[1,",
    "a_list": json.dumps([]),
    "no_families": json.dumps({}),
    "families_list": json.dumps({"families": []}),
    "unknown_family": json.dumps({"families": {"Benign": []}}),
    "family_not_list": json.dumps({"families": {"FamilyA": {}}}),
    "entry_not_object": json.dumps({"families": {"FamilyA": ["x"]}}),
    "no_dfs_code": _first(dfs_code=None),
    "code_letters": _first(dfs_code="zz"),
    "code_index_gap": _first(dfs_code="0,5,0,0,0"),
    "code_not_canonical": _first(dfs_code="0,1,2,1,1;0,2,2,0,1"),
    "node_count_wrong": _first(node_count=2),
    "node_count_missing": _first(node_count=None),
    "support_str": _first(support={"FamilyA": "3"}),
    "frequency_float": _first(family_frequency=3.0),
    "frequency_negative": _first(family_frequency=-1),
    "occurrences_missing": _first(benign_occurrences=None),
    "coverage_str": _first(coverage="0.5"),
    "coverage_nan": _first(coverage=float("nan")),
    "rank_score_bool": _first(rank_score=True),
    "rank_score_missing": _first(rank_score=None),
}


def test_ranked_good_file_loads(tmp_path):
    path = tmp_path / "ranked.json"
    path.write_text(json.dumps(GOOD_RANKED_DOC))
    assert _ranked_text(read_ranked(path)) == json.dumps(GOOD_RANKED_DOC, indent=2, sort_keys=True)


@pytest.mark.parametrize("defect", sorted(MALFORMED_RANKED_FILES))
def test_ranked_defect_rejected(tmp_path, defect):
    path = tmp_path / "ranked.json"
    path.write_text(MALFORMED_RANKED_FILES[defect])
    with pytest.raises((MiningError, RankingError)):
        read_ranked(path)


@FUZZ
@given(doc=documents(GOOD_RANKED_DOC))
def test_read_ranked_loads_or_raises_typed_error(doc):
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "ranked.json"
        path.write_text(json.dumps(doc))
        try:
            ranked = read_ranked(path)
        except (MiningError, RankingError, GraphError):
            return
    for rp in ranked.flat:
        assert canonical_dfs_code(rp.pattern.graph) == rp.pattern.code


def test_write_verdicts_jsonl(tmp_path):
    detector = ProbStub(DETECTOR_CLASSES, [0.8, 0.2])
    sbd = ProbStub(SBD_CLASSES, [0.9, 0.1])
    v = classify_pipeline(chain([2, 2]), detector,
                          ProbStub(FAMILY_CLASSES, [1, 0, 0]), sbd,
                          [chain([1, 1])])
    path = tmp_path / "verdicts.jsonl"
    write_verdicts(["s1", "s2"], [v, v], path)
    lines = path.read_text().strip().split("\n")
    assert len(lines) == 2
    row = json.loads(lines[0])
    assert row["id"] == "s1"
    assert set(row) == {"id", "verdict", "family", "stage",
                        "detector_probs", "stage_probs"}
