import hashlib
import re
from collections import Counter
from dataclasses import fields
from typing import get_type_hints

import numpy as np
import pytest

from cfgsentinel.corpus import (
    ClassProfile,
    CorpusConfig,
    CorpusError,
    DEFAULT_PROFILES,
    config_from_mapping,
    family_motifs,
    generate,
    split,
)
from cfgsentinel.graph import FAMILIES, SampleClass
from cfgsentinel.isomorphism import is_subgraph


@pytest.fixture(scope="module")
def default_samples():
    return generate(CorpusConfig())


class TestGenerate:
    def test_counts_follow_profiles(self, default_samples):
        counts = Counter(s.cls for s in default_samples)
        for cls, profile in DEFAULT_PROFILES.items():
            assert counts[cls] == profile.count

    def test_ids_unique_and_tagged(self, default_samples):
        ids = [s.id for s in default_samples]
        assert len(set(ids)) == len(ids)
        assert any(i.startswith("benign-") for i in ids)
        assert any(i.startswith("familyA-") for i in ids)

    def test_deterministic(self):
        a = generate(CorpusConfig(seed=5))
        b = generate(CorpusConfig(seed=5))
        assert all(x.id == y.id and x.cfg == y.cfg for x, y in zip(a, b))

    def test_seed_changes_graphs(self):
        a = generate(CorpusConfig(seed=1))
        b = generate(CorpusConfig(seed=2))
        assert any(x.cfg != y.cfg for x, y in zip(a, b))

    def test_sample_graphs_validate(self, default_samples):
        # entry reaches every node by construction of the backbone
        from cfgsentinel.features import extract_features
        for s in default_samples[::7]:
            v = extract_features(s.cfg)
            assert np.all(np.isfinite(v))

    def test_entry_reaches_every_node(self, default_samples):
        for s in default_samples[::5]:
            view = s.cfg.view
            start = view.ids.index(s.cfg.entry)
            seen = {start}
            stack = [start]
            while stack:
                u = stack.pop()
                for v in view.succ[u]:
                    if v not in seen:
                        seen.add(v)
                        stack.append(v)
            assert len(seen) == s.cfg.node_count


class TestMotifs:
    @pytest.mark.parametrize("fam", FAMILIES)
    def test_motifs_planted_in_every_family_sample(self, default_samples, fam):
        motifs = family_motifs(fam, "degree")
        assert len(motifs) == 2
        group = [s for s in default_samples if s.cls is fam]
        for s in group:
            for m in motifs:
                assert is_subgraph(m, s.cfg), (s.id, m)

    def test_motifs_absent_from_benign(self, default_samples):
        # the family fingerprints must not contaminate the negative class
        benign = [s for s in default_samples if s.cls is SampleClass.BENIGN]
        for fam in FAMILIES:
            for m in family_motifs(fam, "degree"):
                hits = sum(is_subgraph(m, s.cfg) for s in benign)
                assert hits <= 2, f"{fam} motif found in {hits} benign graphs"

    def test_uniform_mode_zeroes_labels(self):
        for fam in FAMILIES:
            for m in family_motifs(fam, "uniform"):
                assert all(lab == 0 for _, lab in m.nodes)

    def test_low_motif_prob_thins_motifs(self):
        cfg = CorpusConfig(motif_prob=0.05)
        samples = generate(cfg)
        famA = [s for s in samples if s.cls is SampleClass.FAMILY_A]
        motifs = family_motifs(SampleClass.FAMILY_A, "degree")
        hits = sum(all(is_subgraph(m, s.cfg) for m in motifs) for s in famA)
        assert hits < len(famA) / 2

    def test_motif_prob_zero_rejected(self):
        with pytest.raises(CorpusError):
            generate(CorpusConfig(motif_prob=0.0))

    def test_uniform_label_mode_generates(self):
        cfg = CorpusConfig(label_mode="uniform")
        samples = generate(cfg)
        assert all(lab == 0 for s in samples[:10] for _, lab in s.cfg.nodes)


class TestSplit:
    def test_stratified_80_20(self, default_samples):
        train, test = split(default_samples, 0.8, seed=0)
        assert len(train) + len(test) == len(default_samples)
        tr = Counter(s.cls for s in train)
        te = Counter(s.cls for s in test)
        for cls, profile in DEFAULT_PROFILES.items():
            assert tr[cls] + te[cls] == profile.count
            assert te[cls] >= 1
            assert tr[cls] >= 1
            assert abs(tr[cls] - round(profile.count * 0.8)) <= 1

    def test_no_overlap(self, default_samples):
        train, test = split(default_samples, 0.8, seed=3)
        assert not {s.id for s in train} & {s.id for s in test}

    def test_deterministic(self, default_samples):
        a = split(default_samples, 0.8, seed=1)
        b = split(default_samples, 0.8, seed=1)
        assert [s.id for s in a[0]] == [s.id for s in b[0]]

    def test_seed_changes_split(self, default_samples):
        a = split(default_samples, 0.8, seed=1)
        b = split(default_samples, 0.8, seed=2)
        assert [s.id for s in a[0]] != [s.id for s in b[0]]

    def test_bad_fraction_rejected(self, default_samples):
        with pytest.raises(CorpusError):
            split(default_samples, 0.0, seed=0)
        with pytest.raises(CorpusError):
            split(default_samples, 1.0, seed=0)

    def test_class_with_one_sample_rejected(self, default_samples):
        few = [s for s in default_samples if s.cls is SampleClass.BENIGN][:1]
        few += [s for s in default_samples if s.cls is SampleClass.FAMILY_A][:4]
        with pytest.raises(CorpusError):
            split(few, 0.8, seed=0)


class TestConfig:
    def test_profile_validation(self):
        with pytest.raises(CorpusError):
            ClassProfile(0, 5, 10, 0.1, 0.1, 0.0).validate("x")
        with pytest.raises(CorpusError):
            ClassProfile(5, 10, 5, 0.1, 0.1, 0.0).validate("x")
        with pytest.raises(CorpusError):
            ClassProfile(5, 2, 10, 0.1, 0.1, 0.0).validate("x")

    def test_node_lo_must_fit_motifs(self):
        bad = dict(DEFAULT_PROFILES)
        bad[SampleClass.FAMILY_B] = ClassProfile(5, 4, 24, 0.1, 0.1, 0.0)
        with pytest.raises(CorpusError):
            CorpusConfig(profiles=bad).validate()

    def test_mapping_round_trip(self):
        cfg = config_from_mapping({
            "seed": "7",
            "label_mode": "uniform",
            "benign_count": "10",
            "familyA_node_lo": "6",
        })
        assert cfg.seed == 7
        assert cfg.label_mode == "uniform"
        assert cfg.profiles[SampleClass.BENIGN].count == 10
        assert cfg.profiles[SampleClass.FAMILY_A].node_lo == 6

    def test_mapping_rejects_unknown_key(self):
        with pytest.raises(CorpusError):
            config_from_mapping({"bogus": "1"})

    def test_mapping_rejects_bad_value(self):
        with pytest.raises(CorpusError):
            config_from_mapping({"seed": "xyz"})

    def test_mapping_reads_each_value_with_its_defaults_type(self):
        # A key's type is its default's, so each default holds a value of
        # its field's annotated type.
        hints = get_type_hints(ClassProfile)
        for profile in DEFAULT_PROFILES.values():
            assert all(type(getattr(profile, f.name)) is hints[f.name]
                       for f in fields(ClassProfile))
        hints = get_type_hints(CorpusConfig)
        assert all(type(getattr(CorpusConfig(), f.name)) is hints[f.name]
                   for f in fields(CorpusConfig) if f.name != "profiles")
        # INI strings and values that read back as the key's type pass, an
        # int for a float key too
        cfg = config_from_mapping({"seed": 7, "motif_prob": 1, "benign_count": "10",
                                   "familyA_node_hi": 20, "familyC_back_edges": "0.5"})
        assert (cfg.seed, cfg.motif_prob) == (7, 1.0) and type(cfg.motif_prob) is float
        assert cfg.profiles[SampleClass.BENIGN].count == 10
        assert cfg.profiles[SampleClass.FAMILY_A].node_hi == 20
        assert cfg.profiles[SampleClass.FAMILY_C].back_edges == 0.5
        # an int key takes no float or bool, a float key no bool
        for key, value in [("benign_count", 3.7), ("benign_count", 2.9), ("seed", True),
                           ("familyB_node_lo", 16.0), ("motif_prob", True),
                           ("familyA_self_loops", True)]:
            with pytest.raises(CorpusError, match=re.escape(f"bad value for {key}: {value!r}")):
                config_from_mapping({key: value})


# Digests of the golden TINY runs (see conftest), recorded before pattern
# graphs were derived from their DFS codes: one sha256 per seed over the
# sorted "<path> <sha256>" lines of its corpus/ files, and splits.json.
GOLDEN_CORPUS_DIGESTS = {
    "7/corpus": "ccf0ed9387dc3876c0c60da4161fb167955099f674cf7597207b1b15f1aa2d77",
    "7/splits.json": "80610fd6e3acf02b5eb3406cc7bf7518a76fb3818479667280176116186ce93f",
    "5/corpus": "c2cd45c70e8ae0dde5fd74018924b79108e5588f9943271940d4846777a1e943",
    "5/splits.json": "c8a338607718095e09f27ecfb111545b2070d24d40fabad3e66233e5be9c44cb",
}


def test_golden_corpus_and_split_digests(golden_tree_digests):
    # graphs and splits hold only integers and strings drawn from seeded
    # generators, so they are pinned without a numpy-version condition
    got = {}
    for seed in ("7", "5"):
        lines = "".join(f"{k} {v}\n" for k, v in sorted(golden_tree_digests.items())
                        if k.startswith(f"{seed}/corpus/"))
        assert lines.count("\n") == 29  # manifest plus 28 graphs
        got[f"{seed}/corpus"] = hashlib.sha256(lines.encode()).hexdigest()
        got[f"{seed}/splits.json"] = golden_tree_digests[f"{seed}/splits.json"]
    assert got == GOLDEN_CORPUS_DIGESTS
