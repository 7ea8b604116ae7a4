"""Command-line interface: every subcommand's happy path on a small corpus,
plus the documented exit codes."""

import ast
import configparser
import contextlib
import hashlib
import inspect
import io
import json
import multiprocessing
import os
import re
import shlex
import signal
import subprocess
import sys
import types
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

import cfgsentinel
from cfgsentinel import adversarial, corpus, experiment, fhmc, mining, nn
from cfgsentinel.cli import (
    EXIT_BAD_CONFIG,
    EXIT_MISSING_INPUT,
    EXIT_OK,
    EXIT_RUNTIME,
    EXIT_USAGE,
    main,
    parse_args,
)
from cfgsentinel.features import FEATURE_COUNT
from cfgsentinel.graph import GraphError, LabeledSample, SampleClass, read_corpus, write_corpus

from conftest import TINY_INI, cycle_graph, diamond_ladder, subprocess_env, transitive_dag
from fuzz import FUZZ, documents
from test_fhmc import GOOD_RANKED_DOC, MALFORMED_RANKED_FILES
from test_graph import (
    GOOD_GRAPH_DOC, MALFORMED_GRAPH_DOCS, corpus_dir, malformed_manifests,
)
from test_mining import GOOD_PATTERN_DOC, MALFORMED_PATTERN_FILES
from test_nn import MALFORMED_HEADERS, overflowing_model, rewrite_header


@pytest.fixture(scope="module")
def ws(tmp_path_factory):
    """Workspace with a generated corpus, trained models, mined patterns and
    ranked patterns, built through the CLI itself."""
    root = tmp_path_factory.mktemp("cli")
    ini = root / "config.ini"
    ini.write_text(TINY_INI)
    corpus_dir = root / "corpus"

    assert main(["gen", "--config", str(ini), "--seed", "11",
                 "--out", str(corpus_dir)]) == EXIT_OK
    manifest = corpus_dir / "manifest.json"
    splits = corpus_dir / "splits.json"

    detector = root / "detector.ckpt"
    assert main(["train", "--config", str(ini), "--seed", "1",
                 "--corpus", str(manifest), "--splits", str(splits),
                 "--task", "detector", "--out", str(detector)]) == EXIT_OK
    classifier = root / "classifier.ckpt"
    assert main(["train", "--config", str(ini), "--seed", "2",
                 "--corpus", str(manifest), "--splits", str(splits),
                 "--task", "classifier", "--out", str(classifier)]) == EXIT_OK

    pattern_files = []
    for fam in ("FamilyA", "FamilyB", "FamilyC"):
        out = root / f"candidates_{fam}.json"
        assert main(["mine", "--config", str(ini),
                     "--corpus", str(manifest), "--splits", str(splits),
                     "--target", fam, "--out", str(out)]) == EXIT_OK
        pattern_files.append(out)

    ranked = root / "ranked.json"
    assert main(["rank", "--config", str(ini),
                 "--corpus", str(manifest), "--splits", str(splits),
                 "--patterns", *map(str, pattern_files),
                 "--out", str(ranked)]) == EXIT_OK

    # The screen checkpoint is produced through the library (the CLI trains
    # it only inside `repro`); the pipeline subcommand just loads it.
    samples = read_corpus(manifest)
    split_doc = json.loads(splits.read_text())
    by_id = {s.id: s for s in samples}
    train_s = [by_id[i] for i in split_doc["train"]]
    ranked_set = fhmc.read_ranked(ranked)
    bits = fhmc.encode_many(train_s, ranked_set)
    y = np.array([0 if s.cls is SampleClass.BENIGN else 1 for s in train_s])
    sbd = root / "sbd.ckpt"
    nn.save_checkpoint(
        fhmc.train_sbd(bits, y, seed=3, epochs=25, batch_size=8), sbd
    )

    return {
        "root": root,
        "ini": ini,
        "manifest": manifest,
        "splits": splits,
        "detector": detector,
        "classifier": classifier,
        "patterns": pattern_files,
        "ranked": ranked,
        "sbd": sbd,
    }


# ---------------------------------------------------------------------------
# Happy paths
# ---------------------------------------------------------------------------

def test_gen_wrote_corpus_and_splits(ws):
    samples = read_corpus(ws["manifest"])
    assert len(samples) == 10 + 6 + 6 + 6
    doc = json.loads(ws["splits"].read_text())
    assert set(doc) == {"train", "test"}
    assert len(doc["train"]) + len(doc["test"]) == len(samples)


def test_features_csv(ws, capsys):
    out = ws["root"] / "features.csv"
    assert main(["features", "--corpus", str(ws["manifest"]),
                 "--out", str(out)]) == EXIT_OK
    lines = out.read_text().strip().split("\n")
    assert len(lines) == 1 + 28
    assert len(lines[1].split(",")) == 1 + FEATURE_COUNT
    assert "28 feature rows" in capsys.readouterr().out


def test_eval_prints_metrics(ws, capsys):
    out = ws["root"] / "det_metrics.json"
    assert main(["eval", "--model", str(ws["detector"]),
                 "--corpus", str(ws["manifest"]), "--splits", str(ws["splits"]),
                 "--out", str(out)]) == EXIT_OK
    doc = json.loads(out.read_text())
    for key in ("accuracy", "confusion", "class_names"):
        assert key in doc
    assert doc["class_names"] == ["Benign", "Malware"]
    printed = json.loads(capsys.readouterr().out)
    assert printed == doc


def test_mine_wrote_patterns(ws):
    for path, fam in zip(ws["patterns"], ("FamilyA", "FamilyB", "FamilyC")):
        pats = mining.read_patterns(path)
        assert pats, f"no patterns mined for {fam}"
        assert all(fam in p.support for p in pats)


def test_mine_default_support_matches_experiment(ws):
    # With no [mining] support_fraction, `mine` uses the schema default,
    # the same one `experiment.run` mines family candidates with.
    out = ws["root"] / "default_support.json"
    assert main(["mine", "--corpus", str(ws["manifest"]), "--splits", str(ws["splits"]),
                 "--target", "FamilyA", "--max-nodes", "3",
                 "--out", str(out)]) == EXIT_OK
    by_id = {s.id: s for s in read_corpus(ws["manifest"])}
    train_s = [by_id[i] for i in json.loads(ws["splits"].read_text())["train"]]
    expected = fhmc.mine_family_candidates(
        train_s, min_nodes=3, max_nodes=3, support_fraction=0.9
    )["FamilyA"]
    assert expected
    reference = ws["root"] / "default_support_reference.json"
    mining.write_patterns(expected, reference)
    assert out.read_bytes() == reference.read_bytes()
    assert experiment.DEFAULTS["mining"]["support_fraction"] == 0.9


def test_rank_wrote_ranked_set(ws):
    ranked = fhmc.read_ranked(ws["ranked"])
    assert len(ranked) > 0
    assert set(ranked.per_family) <= {"FamilyA", "FamilyB", "FamilyC"}
    for rps in ranked.per_family.values():
        assert len(rps) <= 8  # the configured k


def test_encode_csv(ws):
    out = ws["root"] / "encodings.csv"
    assert main(["encode", "--config", str(ws["ini"]),
                 "--corpus", str(ws["manifest"]), "--ranked", str(ws["ranked"]),
                 "--out", str(out)]) == EXIT_OK
    lines = out.read_text().strip().split("\n")
    ranked = fhmc.read_ranked(ws["ranked"])
    assert len(lines) == 1 + 28
    assert lines[0].count(",") == len(ranked)
    for line in lines[1:]:
        cells = line.split(",")[1:]
        assert set(cells) <= {"0", "1"}


def test_attack_gea(ws, capsys):
    out = ws["root"] / "gea.json"
    assert main(["attack", "--model", str(ws["detector"]),
                 "--corpus", str(ws["manifest"]), "--splits", str(ws["splits"]),
                 "--mode", "gea", "--strategy", "maximum",
                 "--out", str(out)]) == EXIT_OK
    doc = json.loads(out.read_text())
    assert doc["attack"] == "gea" and doc["strategy"] == "maximum"
    assert 0.0 <= doc["targeted_rate"] <= doc["misclassification_rate"] <= 1.0
    assert out.with_suffix(".csv").exists()
    assert "MR" in capsys.readouterr().out


def test_attack_sgea(ws):
    out = ws["root"] / "sgea.json"
    assert main(["attack", "--model", str(ws["detector"]),
                 "--corpus", str(ws["manifest"]), "--splits", str(ws["splits"]),
                 "--mode", "sgea", "--patterns", str(ws["patterns"][0]),
                 "--out", str(out)]) == EXIT_OK
    doc = json.loads(out.read_text())
    assert doc["attack"] == "sgea" and doc["strategy"] == "ascending"
    for rec in doc["records"]:
        assert rec["attempts"] >= 0


def test_pipeline_verdicts(ws, capsys):
    out = ws["root"] / "verdicts.jsonl"
    assert main(["pipeline", "--detector", str(ws["detector"]),
                 "--classifier", str(ws["classifier"]), "--sbd", str(ws["sbd"]),
                 "--ranked", str(ws["ranked"]),
                 "--corpus", str(ws["manifest"]), "--splits", str(ws["splits"]),
                 "--out", str(out)]) == EXIT_OK
    lines = out.read_text().strip().split("\n")
    doc = json.loads(ws["splits"].read_text())
    assert len(lines) == len(doc["test"])
    verdicts = {json.loads(l)["verdict"] for l in lines}
    assert verdicts <= {"Benign", "Malware", "Suspicious"}
    summary = json.loads(capsys.readouterr().out)
    assert "verdicts" in summary


def test_rank_reproduces_repro_ranking(tmp_path):
    # pattern files keep support counts, not supporting ids: `rank` must
    # recover the ids, or every coverage term reads 0
    ini = tmp_path / "config.ini"
    ini.write_text(TINY_INI)
    out = tmp_path / "repro"
    assert main(["repro", "--config", str(ini), "--seed", "7", "--out", str(out)]) == EXIT_OK
    ranked = tmp_path / "ranked.json"
    assert main(["rank", "--config", str(ini),
                 "--corpus", str(out / "corpus" / "manifest.json"),
                 "--splits", str(out / "splits.json"),
                 "--patterns", *(str(out / "patterns" / f"candidates_{fam}.json")
                                 for fam in ("FamilyA", "FamilyB", "FamilyC")),
                 "--out", str(ranked)]) == EXIT_OK
    assert ranked.read_bytes() == (out / "patterns" / "ranked.json").read_bytes()


def test_cli_chain_reproduces_repro(tmp_path):
    # each stage run as its own subcommand, with the seeds `repro` gives it,
    # writes the bytes `repro` writes: one implementation per stage
    cfg = ["--config", str(tmp_path / "config.ini")]
    (tmp_path / "config.ini").write_text(TINY_INI)
    repro, cli = tmp_path / "repro", tmp_path / "cli"
    assert main(["repro", *cfg, "--seed", "7", "--out", str(repro)]) == EXIT_OK
    assert main(["gen", *cfg, "--seed", "7", "--out", str(cli / "corpus")]) == EXIT_OK
    data = ["--corpus", str(cli / "corpus" / "manifest.json"),
            "--splits", str(cli / "corpus" / "splits.json")]
    for task, seed in (("detector", "7"), ("classifier", "8")):
        model = str(cli / "models" / f"{task}.ckpt")
        assert main(["train", *cfg, *data, "--task", task, "--seed", seed,
                     "--out", model]) == EXIT_OK
        assert main(["eval", *cfg, "--model", model, *data,
                     "--out", str(cli / "metrics" / f"{task}.json")]) == EXIT_OK
    families = ("FamilyA", "FamilyB", "FamilyC")
    candidates = [f"patterns/candidates_{fam}.json" for fam in families]
    for fam, rel in zip(families, candidates):
        assert main(["mine", *cfg, *data, "--target", fam, "--out", str(cli / rel)]) == EXIT_OK
    assert main(["rank", *cfg, *data, "--patterns", *(str(cli / rel) for rel in candidates),
                 "--out", str(cli / "patterns" / "ranked.json")]) == EXIT_OK
    # no subcommand trains the screen: `pipeline` takes `repro`'s
    assert main(["pipeline", *cfg, *data, "--detector", str(cli / "models" / "detector.ckpt"),
                 "--classifier", str(cli / "models" / "classifier.ckpt"),
                 "--sbd", str(repro / "models" / "sbd.ckpt"),
                 "--ranked", str(cli / "patterns" / "ranked.json"),
                 "--out", str(cli / "pipeline" / "verdicts.jsonl")]) == EXIT_OK

    graphs = sorted(p.relative_to(repro) for p in (repro / "corpus").rglob("*") if p.is_file())
    assert len(graphs) == 1 + 28
    pairs = [(str(rel), str(rel)) for rel in graphs] + [("splits.json", "corpus/splits.json")]
    pairs += [(rel, rel) for rel in (
        "models/detector.ckpt", "models/classifier.ckpt",
        "metrics/detector.json", "metrics/classifier.json",
        *candidates, "patterns/ranked.json", "pipeline/verdicts.jsonl",
    )]
    for in_repro, in_cli in pairs:
        assert (cli / in_cli).read_bytes() == (repro / in_repro).read_bytes(), in_repro


def test_repro_byte_identical_across_processes(tmp_path):
    # string hashing is salted per process; nothing written may depend on it
    ini = tmp_path / "config.ini"
    ini.write_text(TINY_INI)
    trees = []
    for hash_seed in ("1", "2"):
        out = tmp_path / f"run{hash_seed}"
        subprocess.run(
            [sys.executable, "-c", "import sys; from cfgsentinel.cli import main; "
             "sys.exit(main(sys.argv[1:]))",
             "repro", "--config", str(ini), "--seed", "4", "--out", str(out)],
            env=subprocess_env(PYTHONHASHSEED=hash_seed),
            capture_output=True, check=True,
        )
        trees.append({
            str(p.relative_to(out)): p.read_bytes()
            for p in sorted(out.rglob("*")) if p.is_file()
        })
    assert trees[0] == trees[1]


def test_repro_writes_artifact_tree(ws):
    out = ws["root"] / "repro"
    assert main(["repro", "--config", str(ws["ini"]), "--seed", "5",
                 "--out", str(out)]) == EXIT_OK
    for rel in (
        "corpus/manifest.json",
        "splits.json",
        "features/train.csv",
        "features/test.csv",
        "models/detector.ckpt",
        "models/classifier.ckpt",
        "models/sbd.ckpt",
        "metrics/detector.json",
        "metrics/classifier.json",
        "metrics/sbd.json",
        "patterns/ranked.json",
        "patterns/sgea_candidates.json",
        "encodings/train.csv",
        "encodings/test.csv",
        "attacks/summary.csv",
        "attacks/sbd_screen.json",
        "pipeline/verdicts.jsonl",
        "pipeline/summary.json",
    ):
        assert (out / rel).exists(), f"missing artifact {rel}"


# ---------------------------------------------------------------------------
# Exit codes
# ---------------------------------------------------------------------------

def test_usage_errors_exit_2(capsys):
    assert main(["bogus-command"]) == EXIT_USAGE
    assert main([]) == EXIT_USAGE
    assert main(["train", "--task", "detector"]) == EXIT_USAGE  # missing args
    capsys.readouterr()


def test_missing_inputs_exit_3(ws, tmp_path, capsys):
    assert main(["features", "--corpus", str(tmp_path / "nope.json"),
                 "--out", str(tmp_path / "x.csv")]) == EXIT_MISSING_INPUT
    assert main(["features", "--config", str(tmp_path / "missing.ini"),
                 "--corpus", str(ws["manifest"]),
                 "--out", str(tmp_path / "y.csv")]) == EXIT_MISSING_INPUT
    assert main(["gen", "--config", str(tmp_path / "nope.ini"),
                 "--out", str(tmp_path / "c")]) == EXIT_MISSING_INPUT
    assert main(["eval", "--model", str(tmp_path / "nope.ckpt"),
                 "--corpus", str(tmp_path / "nope.json")]) == EXIT_MISSING_INPUT
    capsys.readouterr()


def test_bad_config_exit_4(ws, tmp_path, capsys):
    bad_value = tmp_path / "bad_value.ini"
    bad_value.write_text("[corpus]\nmotif_prob = 0\n")
    assert main(["gen", "--config", str(bad_value),
                 "--out", str(tmp_path / "c1")]) == EXIT_BAD_CONFIG

    bad_syntax = tmp_path / "bad_syntax.ini"
    bad_syntax.write_text("count = 5\nno section header\n")
    assert main(["gen", "--config", str(bad_syntax),
                 "--out", str(tmp_path / "c2")]) == EXIT_BAD_CONFIG

    unknown_key = tmp_path / "unknown.ini"
    unknown_key.write_text("[corpus]\nbenign_flavor = mild\n")
    assert main(["gen", "--config", str(unknown_key),
                 "--out", str(tmp_path / "c3")]) == EXIT_BAD_CONFIG

    # Each is one edit of the working TINY config, so a command that ignored
    # it would run to completion instead of exiting 4.
    edits = {
        "bad_int": ("epochs = 25", "epochs = abc"),
        "bad_mining_int": ("min_nodes = 2", "min_nodes = x"),
        "bad_float": ("train_fraction = 0.75", "train_fraction = abc"),
        "bad_arch": ("arch = dnn", "arch = xyz"),
        "no_epochs": ("epochs = 25", "epochs = 0"),
        "no_batch": ("batch_size = 8", "batch_size = 0"),
        "misspelt_key": ("epochs = 25", "epoch = 25"),
        "misspelt_section": ("[train]", "[trian]"),
        "removed_attack_target": ("[attack]\n", "[attack]\ntarget = Benign\n"),
        "removed_train_seed": ("[train]\n", "[train]\nseed = 1\n"),
        "corpus_seed": ("[corpus]\n", "[corpus]\nseed = 3\n"),
        "interpolation": ("arch = dnn", "arch = dnn%"),
        # the SGEA pool's cut and size band, refused before any training
        "no_per_size": ("sgea_per_size = 4", "sgea_per_size = 0"),
        "negative_per_size": ("sgea_per_size = 4", "sgea_per_size = -1"),
        "no_sgea_min_nodes": ("sgea_min_nodes = 3", "sgea_min_nodes = 0"),
        "inverted_sgea_band": ("sgea_max_nodes = 5", "sgea_max_nodes = 2"),
        # non-finite floats, refused before any work
        "nan_mining_fraction": ("support_fraction = 0.9", "support_fraction = nan"),
        "inf_rank_fraction": ("support_fraction = 0.2", "support_fraction = inf"),
        "nan_budget": ("budget_seconds = 30", "budget_seconds = nan"),
        "inf_sgea_fraction": ("sgea_support_fraction = 0.34", "sgea_support_fraction = inf"),
        "nan_corpus_float": ("[corpus]\n", "[corpus]\nbenign_extra_edges = nan\n"),
        "split_out_of_range": ("train_fraction = 0.75", "train_fraction = 1.5"),
        # out-of-range numbers, refused before any work
        "zero_lr": ("[train]\n", "[train]\nlr = 0\n"),
        "negative_lr": ("[train]\n", "[train]\nlr = -1\n"),
        "no_min_nodes": ("min_nodes = 2", "min_nodes = 0"),
        "inverted_mining_band": ("min_nodes = 2", "min_nodes = 6"),
        "no_k": ("k = 8", "k = 0"),
        "negative_benign_ceiling": ("[rank]\n", "[rank]\nbenign_ceiling = -1\n"),
        "no_budget": ("budget_seconds = 30", "budget_seconds = 0"),
        "negative_budget": ("budget_seconds = 30", "budget_seconds = -5"),
        "mining_fraction_above_1": ("support_fraction = 0.9", "support_fraction = 2"),
        "negative_rank_fraction": ("support_fraction = 0.2", "support_fraction = -0.1"),
        "sgea_fraction_above_1": ("sgea_support_fraction = 0.34", "sgea_support_fraction = 5"),
    }
    commands = {
        "train": ["--corpus", str(ws["manifest"]), "--splits", str(ws["splits"]),
                  "--task", "detector"],
        "mine": ["--corpus", str(ws["manifest"]), "--splits", str(ws["splits"]),
                 "--target", "FamilyA"],
        "repro": ["--seed", "5"],
        "features": ["--corpus", str(ws["manifest"])],
        "gen": [],
    }
    for name, (old, new) in edits.items():
        assert TINY_INI.count(old) == 1
        ini = tmp_path / f"{name}.ini"
        ini.write_text(TINY_INI.replace(old, new))
        for command, extra in commands.items():
            out = tmp_path / f"{name}_{command}.out"
            code = main([command, "--config", str(ini), *extra, "--out", str(out)])
            assert code == EXIT_BAD_CONFIG, (name, command)
            assert not out.exists()
    assert main(["train", "--config", str(tmp_path / "bad_arch.ini"), "--arch", "cnn",
                 *commands["train"], "--out", str(tmp_path / "m.ckpt")]) == EXIT_BAD_CONFIG
    capsys.readouterr()


def test_diverging_training_prints_one_line_exit_5(tmp_path):
    # in a child process, so numpy's warnings would reach its stderr
    ini = tmp_path / "huge_lr.ini"
    ini.write_text(TINY_INI.replace("[train]\n", "[train]\nlr = 1e300\n"))
    done = subprocess.run(
        [sys.executable, "-c", "import sys; from cfgsentinel.cli import main; "
         "sys.exit(main(sys.argv[1:]))",
         "repro", "--config", str(ini), "--seed", "5", "--out", str(tmp_path / "run")],
        env=subprocess_env(), capture_output=True, text=True,
    )
    assert done.returncode == EXIT_RUNTIME
    assert done.stderr.splitlines() == ["error: non-finite training loss"]


# ---------------------------------------------------------------------------
# The attack worker: `repro` runs the SGEA pool and the attacks in a forked
# process while the screen half runs in its own
# ---------------------------------------------------------------------------

def _tiny_repro(tmp_path: Path, name: str, seed: int = 5) -> tuple[int, Path]:
    ini = tmp_path / "tiny.ini"
    ini.write_text(TINY_INI)
    out = tmp_path / name
    return main(["repro", "--config", str(ini), "--seed", str(seed), "--out", str(out)]), out


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_repro_same_tree_with_and_without_fork(tmp_path, monkeypatch):
    trees = {}
    for how in ("fork", "inline"):
        if how == "inline":
            monkeypatch.delattr(os, "fork")
        for seed in (7, 5):
            code, out = _tiny_repro(tmp_path, f"{how}{seed}", seed)
            assert code == EXIT_OK
            _assert_no_child_left()
            trees[how, seed] = {p.relative_to(out).as_posix(): p.read_bytes()
                                for p in sorted(out.rglob("*")) if p.is_file()}
    for seed in (7, 5):
        assert trees["fork", seed] == trees["inline", seed]


@pytest.mark.parametrize("fork", [True, False], ids=["fork", "inline"])
def test_attack_error_exits_5_after_the_screen_half(tmp_path, monkeypatch, capsys, fork):
    def fail(*args, **kwargs):
        raise adversarial.AttackError("no pattern flips any victim")

    monkeypatch.setattr(adversarial, "sgea_attack_all", fail)
    if not fork:
        monkeypatch.delattr(os, "fork")
    code, out = _tiny_repro(tmp_path, "run")
    assert code == EXIT_RUNTIME
    assert capsys.readouterr().err.splitlines() == ["error: no pattern flips any victim"]
    _assert_no_child_left()
    assert (out / "metrics" / "sbd.json").exists()
    assert not (out / "patterns" / "sgea_candidates.json").exists()
    assert not (out / "attacks").exists()


def test_screen_error_leaves_no_attack_files(tmp_path, monkeypatch, capsys):
    def fail(*args, **kwargs):
        raise nn.TrainingError("non-finite training loss")

    monkeypatch.setattr(fhmc, "train_sbd", fail)
    code, out = _tiny_repro(tmp_path, "run")
    assert code == EXIT_RUNTIME
    assert capsys.readouterr().err.splitlines() == ["error: non-finite training loss"]
    _assert_no_child_left()
    assert (out / "patterns" / "ranked.json").exists()
    assert not (out / "patterns" / "sgea_candidates.json").exists()
    assert not (out / "attacks").exists()


def test_rank_k_too_small_for_the_screen_exits_4_before_any_work(tmp_path, capsys):
    # `[rank] k = 3` ranks at most 9 patterns and the screen's cnn needs 10
    # bits, so `repro` refuses the setting before it writes anything
    ini = tmp_path / "k3.ini"
    ini.write_text(TINY_INI.replace("[rank]\nk = 8\n", "[rank]\nk = 3\n"))
    assert main(["repro", "--config", str(ini), "--seed", "5",
                 "--out", str(tmp_path / "run")]) == EXIT_BAD_CONFIG
    assert capsys.readouterr().err.splitlines() == [
        "error: [rank] k = 3 ranks at most 9 patterns, too few for the screen "
        "(input width 9 cannot pass the cnn stack)"]
    assert not (tmp_path / "run").exists()


@pytest.mark.skipif(not hasattr(os, "fork"), reason="the worker is forked only where os.fork exists")
def test_killed_worker_raises_child_process_error(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(mining, "select_discriminative",
                        lambda *args, **kwargs: os.kill(os.getpid(), signal.SIGKILL))
    parser = configparser.ConfigParser()
    parser.optionxform = str
    parser.read_string(TINY_INI)
    sections = {sec: dict(parser[sec]) for sec in parser.sections()}
    with pytest.raises(ChildProcessError, match=f"signal {int(signal.SIGKILL)}"):
        experiment.run(tmp_path / "lib", seed=5, sections=sections)
    _assert_no_child_left()
    code, _ = _tiny_repro(tmp_path, "cli")
    assert code == EXIT_RUNTIME
    assert capsys.readouterr().err.splitlines() == [
        f"error: the attack worker ended without a result (signal {int(signal.SIGKILL)})"]
    _assert_no_child_left()


def _tiny_sections() -> dict:
    parser = configparser.ConfigParser()
    parser.optionxform = str
    parser.read_string(TINY_INI)
    return {sec: dict(parser[sec]) for sec in parser.sections()}


def _tiny_run_digests(out: Path) -> dict[str, str]:
    experiment.run(out, seed=7, sections=_tiny_sections())
    return {p.relative_to(out).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.rglob("*")) if p.is_file()}


@pytest.mark.skipif(not hasattr(os, "fork"), reason="a fork-context pool needs os.fork")
def test_repro_in_a_daemonic_worker_writes_the_same_tree(tmp_path):
    # multiprocessing lets no daemonic process (a Pool worker) start a
    # child, so there the attack half runs inline after the screen half
    with multiprocessing.get_context("fork").Pool(1) as pool:
        in_worker = pool.apply_async(_tiny_run_digests, (tmp_path / "worker",)).get(timeout=600)
    _assert_no_child_left()
    assert in_worker == _tiny_run_digests(tmp_path / "here")
    _assert_no_child_left()


@pytest.mark.parametrize("call, error", [
    pytest.param(lambda out, seed: experiment.run(out, seed, _tiny_sections()),
                 corpus.CorpusError, id="experiment.run"),
    pytest.param(lambda out, seed: corpus.generate(corpus.CorpusConfig(seed=seed)),
                 corpus.CorpusError, id="corpus.generate"),
    pytest.param(lambda out, seed: corpus.split(corpus.generate(corpus.CorpusConfig()),
                                                seed=seed),
                 corpus.CorpusError, id="corpus.split"),
    pytest.param(lambda out, seed: nn.train(np.ones((4, FEATURE_COUNT)), np.array([0, 1, 0, 1]),
                                            fhmc.DETECTOR_CLASSES, seed=seed, epochs=1),
                 nn.TrainingError, id="nn.train"),
])
def test_library_refuses_negative_seeds(tmp_path, call, error):
    # numpy seeds its generators with non-negative integers only, and a seed
    # is a count (`graph.is_count`); the library says so before any work, as
    # the CLI's --seed does
    out = tmp_path / "run"
    for seed in (-1, 1.5, "3", None, True):
        with pytest.raises(error, match=re.escape(
                f"seed must be a non-negative integer, got {seed!r}")):
            call(out, seed)
        assert not out.exists()


def test_settings_read_each_value_with_its_defaults_type():
    # `settings` takes its own output, as `repro` and then `run` check it
    tiny = experiment.settings(_tiny_sections())
    assert experiment.settings(tiny) == tiny
    # INI strings and values that read back as the key's type pass, an int
    # for a float key too
    got = experiment.settings({"train": {"epochs": 3, "lr": 1, "batch_size": "4"},
                               "corpus": {"benign_count": 10}})
    assert got["train"] == dict(experiment.DEFAULTS["train"], epochs=3, lr=1.0, batch_size=4)
    assert type(got["train"]["lr"]) is float
    # an int key takes no float or bool, a float key no bool
    for sec, key, value in [("train", "epochs", 3.7), ("rank", "k", True),
                            ("attack", "sgea_per_size", 4.0), ("train", "lr", True),
                            ("encode", "budget_seconds", True)]:
        with pytest.raises(corpus.CorpusError,
                           match=re.escape(f"bad value for [{sec}] {key}: {value!r}")):
            experiment.settings({sec: {key: value}})
    with pytest.raises(corpus.CorpusError, match=re.escape("bad value for benign_count: 2.9")):
        experiment.settings({"corpus": {"benign_count": 2.9}})


def test_refused_split_writes_nothing(tmp_path, capsys):
    ini = tmp_path / "split.ini"
    ini.write_text(TINY_INI.replace("train_fraction = 0.75", "train_fraction = 1.5"))
    for command in ("gen", "repro"):
        out = tmp_path / f"{command}.out"
        assert main([command, "--config", str(ini), "--out", str(out)]) == EXIT_BAD_CONFIG
        assert not out.exists()
    capsys.readouterr()


@pytest.mark.parametrize("argv, code", [
    # 0 is a value, not "use the config": the library's own checks refuse it
    pytest.param(["mine", "--target", "FamilyA", "--min-support", "0"], EXIT_BAD_CONFIG,
                 id="min_support_0"),
    pytest.param(["mine", "--target", "FamilyA", "--min-nodes", "0"], EXIT_BAD_CONFIG,
                 id="min_nodes_0"),
    pytest.param(["mine", "--target", "FamilyA", "--max-nodes", "0"], EXIT_BAD_CONFIG,
                 id="max_nodes_0"),
    pytest.param(["rank", "--k", "0"], EXIT_BAD_CONFIG, id="k_0"),
    pytest.param(["mine", "--discriminative", "--target", "Benign", "--top-k", "0"],
                 EXIT_BAD_CONFIG, id="top_k_0"),
    pytest.param(["mine", "--discriminative", "--target", "Benign", "--top-k", "-1"],
                 EXIT_BAD_CONFIG, id="top_k_negative"),
    # flags `mine` would otherwise ignore
    pytest.param(["mine", "--discriminative", "--top-k", "3"], EXIT_USAGE,
                 id="discriminative_without_target"),
    pytest.param(["mine", "--discriminative"], EXIT_USAGE, id="discriminative_only"),
    pytest.param(["mine", "--target", "FamilyA", "--top-k", "3"], EXIT_USAGE,
                 id="top_k_without_discriminative"),
    # a class name is one of the four, spelled as in graph files
    pytest.param(["mine", "--target", "Foo"], EXIT_USAGE, id="mine_unknown_target"),
    pytest.param(["mine", "--target", "benign"], EXIT_USAGE, id="mine_lowercase_target"),
    # flags `attack` would otherwise ignore; {0} and {1} are pattern files
    pytest.param(["attack", "--mode", "gea", "--patterns", "{0}"], EXIT_USAGE,
                 id="patterns_without_sgea"),
    pytest.param(["attack", "--mode", "sgea", "--patterns", "{0}", "{1}"], EXIT_USAGE,
                 id="two_pattern_files"),
    pytest.param(["attack", "--mode", "sgea"], EXIT_MISSING_INPUT, id="sgea_without_patterns"),
    # the report's CSV is written beside --out with the suffix .csv
    pytest.param(["attack", "--mode", "gea", "--out", "{out}.csv"], EXIT_USAGE,
                 id="attack_out_is_its_csv"),
    # numpy seeds its generators with non-negative integers only
    pytest.param(["train", "--task", "detector", "--seed", "-1"], EXIT_USAGE,
                 id="train_negative_seed"),
    pytest.param(["mine", "--target", "FamilyA", "--seed", "-1"], EXIT_USAGE,
                 id="mine_negative_seed"),
])
def test_flags_are_not_silently_ignored(ws, tmp_path, argv, code):
    command, *flags = argv
    out = tmp_path / "sub" / "out.json"
    flags = [f.format(*ws["patterns"], out=out.with_suffix("")) for f in flags]
    inputs = ["--corpus", str(ws["manifest"]), "--splits", str(ws["splits"])]
    if command == "rank":
        inputs += ["--patterns", *map(str, ws["patterns"])]
    if command == "attack":
        inputs += ["--model", str(ws["detector"])]
    # an --out among the flags comes last, so it wins
    assert _run([command, "--config", str(ws["ini"]), *inputs, "--out", str(out),
                 *flags])[0] == code
    # a usage error is found before the output directory is made
    assert not (out.parent if code == EXIT_USAGE else out).exists()


def test_readme_cli_lines_parse():
    # every command line in the README's CLI block is one the parser takes
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = block.replace("\\\n", " ").splitlines()
    commands = [shlex.split(line)[1:] for line in lines if line.startswith("cfgsentinel ")]
    assert len(commands) == len(lines)
    assert {argv[0] for argv in commands} == {
        "gen", "features", "train", "eval", "mine", "rank", "encode", "attack", "pipeline",
        "repro",
    }
    for argv in commands:
        parse_args(argv)  # a usage error raises SystemExit


def test_readme_python_api_calls_bind():
    # every `cs.<name>(...)` call in the README's Python block names an
    # exported function whose signature takes its arguments
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Python API\n", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    calls = [node for node in ast.walk(ast.parse(block)) if isinstance(node, ast.Call)
             and isinstance(node.func, ast.Attribute) and isinstance(node.func.value, ast.Name)
             and node.func.value.id == "cs"]
    assert len(calls) >= 10
    for call in calls:
        name = call.func.attr
        assert name in cfgsentinel.__all__, name
        assert all(kw.arg for kw in call.keywords), name
        inspect.signature(getattr(cfgsentinel, name)).bind(
            *call.args, **{kw.arg: kw.value for kw in call.keywords})


def test_package_exports_exactly_its_public_names():
    bound = {name for name, value in vars(cfgsentinel).items()
             if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert bound == set(cfgsentinel.__all__)
    assert cfgsentinel.__all__ == sorted(set(cfgsentinel.__all__))


def test_readme_config_matches_schema():
    # The README's config block documents every schema key with its default.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("```ini\n", 1)[1].split("```", 1)[0]
    parser = configparser.ConfigParser(inline_comment_prefixes=(";",))
    parser.optionxform = str
    parser.read_string(block)
    documented = {
        sec: dict(parser[sec]) for sec in parser.sections() if sec != "corpus"
    }
    assert documented.keys() == experiment.DEFAULTS.keys()
    for sec, defaults in experiment.DEFAULTS.items():
        assert documented[sec].keys() == defaults.keys(), sec
        for key, default in defaults.items():
            assert type(default)(documented[sec][key]) == default, (sec, key)


def test_runtime_errors_exit_5(ws, tmp_path, capsys):
    # A splits file that references sample ids the corpus does not contain.
    stale = tmp_path / "stale_splits.json"
    stale.write_text(json.dumps({"train": ["ghost-0001"], "test": []}))
    bad_json = tmp_path / "bad_json_splits.json"
    bad_json.write_text("{not json")
    no_test = tmp_path / "no_test_splits.json"
    no_test.write_text(json.dumps({"train": json.loads(ws["splits"].read_text())["train"]}))
    a_list = tmp_path / "list_splits.json"
    a_list.write_text(json.dumps(["a", "b"]))
    nested = tmp_path / "nested_splits.json"
    nested.write_text(json.dumps({"train": [["ghost-0001"]], "test": []}))
    # an id named twice in a part, or in both parts
    good = json.loads(ws["splits"].read_text())
    train, test = good["train"], good["test"]
    repeated = tmp_path / "repeated_splits.json"
    repeated.write_text(json.dumps({"train": train + train[:1], "test": test}))
    shared = tmp_path / "shared_splits.json"
    shared.write_text(json.dumps({"train": train, "test": test + train[:1]}))
    for splits in (stale, bad_json, no_test, a_list, nested, repeated, shared):
        assert main(["train", "--config", str(ws["ini"]),
                     "--corpus", str(ws["manifest"]), "--splits", str(splits),
                     "--task", "detector",
                     "--out", str(tmp_path / "m.ckpt")]) == EXIT_RUNTIME, splits.name
    capsys.readouterr()


def test_malformed_checkpoint_header_exit_4(ws, tmp_path, capsys):
    raw = ws["detector"].read_bytes()
    for defect in ("list", "arch_only", "width_str", "width_bool", "shapes_item_str"):
        bad = tmp_path / f"{defect}.ckpt"
        bad.write_bytes(rewrite_header(raw, MALFORMED_HEADERS[defect]))
        assert main(["eval", "--model", str(bad),
                     "--corpus", str(ws["manifest"]), "--splits", str(ws["splits"])]
                    ) == EXIT_BAD_CONFIG, defect
        for role in ("--detector", "--classifier", "--sbd"):
            models = {"--detector": ws["detector"], "--classifier": ws["classifier"],
                      "--sbd": ws["sbd"], role: bad}
            assert main(["pipeline", *(x for r, m in models.items() for x in (r, str(m))),
                         "--ranked", str(ws["ranked"]),
                         "--corpus", str(ws["manifest"]), "--splits", str(ws["splits"]),
                         "--out", str(tmp_path / "v.jsonl")]) == EXIT_BAD_CONFIG, (defect, role)
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize("command", ["eval", "attack", "pipeline"])
def test_model_predicting_nan_exit_4(ws, tmp_path, command):
    # every weight is finite, so the checkpoint loads; its first prediction
    # is NaN, and no verdict, metric or report is built from it
    bad = tmp_path / "nan.ckpt"
    nn.save_checkpoint(overflowing_model("dnn", FEATURE_COUNT, fhmc.DETECTOR_CLASSES), bad)
    argv = {"eval": ["eval", "--model", str(bad)],
            "attack": ["attack", "--model", str(bad), "--mode", "gea"],
            "pipeline": ["pipeline", "--detector", str(bad), "--classifier",
                         str(ws["classifier"]), "--sbd", str(ws["sbd"]),
                         "--ranked", str(ws["ranked"])]}[command]
    out = tmp_path / "out.json"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, err = _run([*argv, "--corpus", str(ws["manifest"]), "--splits", str(ws["splits"]),
                          "--out", str(out)])
    assert (code, err) == (EXIT_BAD_CONFIG, "error: model predicts non-finite probabilities\n")
    assert not caught
    assert not out.exists() and not out.with_suffix(".csv").exists()


@pytest.mark.parametrize("command, flag, ckpt", [
    pytest.param("pipeline", "--detector", "sbd", id="pipeline_detector_is_sbd"),
    pytest.param("pipeline", "--sbd", "detector", id="pipeline_sbd_is_detector"),
    pytest.param("attack", "--model", "sbd", id="attack_model_is_sbd"),
    pytest.param("pipeline", "--detector", "classifier", id="pipeline_detector_is_classifier"),
    pytest.param("pipeline", "--classifier", "detector", id="pipeline_classifier_is_detector"),
    pytest.param("eval", "--model", "narrow_detector", id="eval_detector_one_input_short"),
    pytest.param("pipeline", "--sbd", "wide_sbd", id="pipeline_sbd_one_input_long"),
])
def test_checkpoint_outside_its_role_exit_4(ws, tmp_path, capsys, command, flag, ckpt):
    path = ws.get(ckpt)
    if path is None:  # the role's class names with another input width, untrained
        classes, width = {
            "narrow_detector": (fhmc.DETECTOR_CLASSES, FEATURE_COUNT - 1),
            "wide_sbd": (fhmc.SBD_CLASSES, len(fhmc.read_ranked(ws["ranked"])) + 1),
        }[ckpt]
        path = tmp_path / f"{ckpt}.ckpt"
        nn.save_checkpoint(nn.build_model("dnn", width, classes, seed=0), path)
    flags = {"pipeline": {"--detector": ws["detector"], "--classifier": ws["classifier"],
                          "--sbd": ws["sbd"], "--ranked": ws["ranked"]},
             "attack": {"--mode": "gea"}, "eval": {}}[command]
    flags[flag] = path
    out = tmp_path / "out.json"
    argv = [command, *(x for f, v in flags.items() for x in (f, str(v))),
            "--corpus", str(ws["manifest"]), "--splits", str(ws["splits"]), "--out", str(out)]
    capsys.readouterr()
    assert main(argv) == EXIT_BAD_CONFIG
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert not out.exists() and not out.with_suffix(".csv").exists()


def test_malformed_graph_document_exit_5(tmp_path, capsys):
    cases = dict(MALFORMED_GRAPH_DOCS, good=dict)
    for defect, edit in sorted(cases.items()):
        root = tmp_path / defect
        (root / "graphs").mkdir(parents=True)
        (root / "graphs" / "g.json").write_text(json.dumps(edit(GOOD_GRAPH_DOC)))
        manifest = root / "manifest.json"
        manifest.write_text(json.dumps(
            {"samples": [{"id": "g", "class": "Benign", "path": "graphs/g.json"}]}))
        code = main(["features", "--corpus", str(manifest), "--out", str(root / "f.csv")])
        err = capsys.readouterr().err
        if defect == "good":
            assert code == EXIT_OK and (root / "f.csv").exists()
            continue
        assert code == EXIT_RUNTIME, defect
        assert err.startswith("error: ") and "Traceback" not in err, defect
        assert not (root / "f.csv").exists()


def test_features_of_a_diamond_ladder_exit_0(tmp_path, capsys):
    # 2**1030 shortest paths, which overflow a float path count
    sample = LabeledSample(id="ladder", cfg=diamond_ladder(1030), cls=SampleClass.BENIGN)
    write_corpus([sample], tmp_path / "corpus")
    out = tmp_path / "f.csv"
    assert main(["features", "--corpus", str(tmp_path / "corpus" / "manifest.json"),
                 "--out", str(out)]) == EXIT_OK
    cells = out.read_text().splitlines()[1].split(",")[1:]
    assert len(cells) == FEATURE_COUNT and np.isfinite(np.array(cells, dtype=float)).all()
    capsys.readouterr()


def test_task_without_samples_exit_5(ws, tmp_path, capsys):
    benign = [s.id for s in read_corpus(ws["manifest"]) if s.cls is SampleClass.BENIGN]
    splits = tmp_path / "benign_splits.json"
    half = len(benign) // 2
    splits.write_text(json.dumps({"train": benign[:half], "test": benign[half:]}))
    assert main(["train", "--config", str(ws["ini"]),
                 "--corpus", str(ws["manifest"]), "--splits", str(splits),
                 "--task", "classifier",
                 "--out", str(tmp_path / "m.ckpt")]) == EXIT_RUNTIME
    assert main(["eval", "--model", str(ws["classifier"]),
                 "--corpus", str(ws["manifest"]), "--splits", str(splits)]) == EXIT_RUNTIME
    err = capsys.readouterr().err
    assert err.count("error: ") == 2 and "classifier" in err
    assert not (tmp_path / "m.ckpt").exists()


@pytest.mark.parametrize("command, code", [
    ("features", EXIT_OK), ("encode", EXIT_OK), ("pipeline", EXIT_OK),
    ("train", EXIT_RUNTIME), ("eval", EXIT_RUNTIME),
    ("mine", EXIT_BAD_CONFIG), ("mine --target", EXIT_BAD_CONFIG), ("rank", EXIT_BAD_CONFIG),
])
def test_empty_corpus_exits_cleanly(ws, tmp_path, command, code):
    # a manifest with no sample: the writers write a header-only file (the
    # verdict file has no header), the stages that need samples stop with
    # an error line, and none ends in a traceback
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({"samples": []}))
    corpus, ranked = ["--corpus", str(manifest)], ["--ranked", str(ws["ranked"])]
    models = [x for role in ("detector", "classifier", "sbd") for x in (f"--{role}", str(ws[role]))]
    argv = {
        "features": ["features", *corpus],
        "encode": ["encode", *corpus, *ranked],
        "pipeline": ["pipeline", *models, *ranked, *corpus],
        "train": ["train", *corpus, "--task", "detector"],
        "eval": ["eval", "--model", str(ws["detector"]), *corpus],
        "mine": ["mine", *corpus],
        "mine --target": ["mine", *corpus, "--target", "FamilyA"],
        "rank": ["rank", *corpus, "--patterns", *map(str, ws["patterns"])],
    }[command]
    out = tmp_path / "out"
    got, err = _run([*argv, "--out", str(out)])
    assert got == code and "Traceback" not in err
    if code == EXIT_OK:
        assert len(out.read_text().splitlines()) == (command != "pipeline")
    else:
        assert err.startswith("error: ") and not out.exists()


def test_encode_budget_exit_5(tmp_path):
    # the budget holds inside one pattern's search: a one-label 10-cycle
    # against a 24-node transitive DAG would search for about a second
    manifest = write_corpus([LabeledSample(id="dag", cls=SampleClass.BENIGN, cfg=transitive_dag(24))],
                            tmp_path / "corpus")
    cycle = mining.Pattern(code=mining.canonical_dfs_code(cycle_graph(10)), support={"FamilyA": 1})
    ranked = tmp_path / "ranked.json"
    fhmc.write_ranked(fhmc.RankedPatternSet(per_family={"FamilyA": [fhmc.RankedPattern(
        pattern=cycle, family="FamilyA", family_frequency=1, coverage=0.0,
        benign_occurrences=0, rank_score=0.0)]}), ranked)
    ini = tmp_path / "config.ini"
    ini.write_text("[encode]\nbudget_seconds = 0.05\n")
    out = tmp_path / "encodings.csv"
    code, err = _run(["encode", "--config", str(ini), "--corpus", str(manifest),
                      "--ranked", str(ranked), "--out", str(out)])
    assert code == EXIT_RUNTIME
    assert err.startswith("error: ") and "0.05s" in err and "Traceback" not in err
    assert not out.exists()


def _run(argv) -> tuple[int, str]:
    """Exit code and stderr of one in-process CLI call."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    return code, err.getvalue()


def _reader_cases(ws):
    """Per subcommand: the library reader of the file under test, the valid
    document it is fuzzed from, and the CLI arguments reading `path`."""
    corpus = ["--corpus", str(ws["manifest"])]
    splits = ["--splits", str(ws["splits"])]
    config = ["--config", str(ws["ini"])]
    samples = read_corpus(ws["manifest"])
    splits_case = (lambda path: experiment.read_splits(path, samples),
                   json.loads(ws["splits"].read_text()))
    models = [x for role in ("detector", "classifier", "sbd") for x in (f"--{role}", str(ws[role]))]
    return {
        "features": (read_corpus, json.loads(ws["manifest"].read_text()),
                     lambda path: ["features", "--corpus", str(path)]),
        "rank": (mining.read_patterns, GOOD_PATTERN_DOC,
                 lambda path: ["rank", *corpus, *splits, "--patterns", str(path),
                               *map(str, ws["patterns"][1:])]),
        "attack": (mining.read_patterns, GOOD_PATTERN_DOC,
                   lambda path: ["attack", "--model", str(ws["detector"]), *corpus, *splits,
                                 "--mode", "sgea", "--patterns", str(path)]),
        "encode": (fhmc.read_ranked, GOOD_RANKED_DOC,
                   lambda path: ["encode", *corpus, "--ranked", str(path)]),
        "train": (*splits_case, lambda path: ["train", *config, *corpus, "--splits", str(path),
                                              "--task", "detector"]),
        "eval": (*splits_case, lambda path: ["eval", "--model", str(ws["detector"]), *corpus,
                                             "--splits", str(path)]),
        "mine": (*splits_case, lambda path: ["mine", *config, *corpus, "--splits", str(path),
                                             "--max-nodes", "3"]),
        "pipeline": (*splits_case, lambda path: ["pipeline", *models, "--ranked", str(ws["ranked"]),
                                                 *corpus, "--splits", str(path)]),
    }


def _assert_rejected(code, err, expected, case):
    assert code == expected, case
    assert err.startswith("error: ") and "Traceback" not in err, case


def test_malformed_manifest_exit_5(tmp_path):
    corpus = corpus_dir(tmp_path)
    manifest = corpus / "manifest.json"
    for defect, text in sorted(malformed_manifests(corpus).items()):
        manifest.write_text(text)
        out = tmp_path / f"{defect}.csv"
        _assert_rejected(*_run(["features", "--corpus", str(manifest), "--out", str(out)]),
                         EXIT_RUNTIME, defect)
        assert not out.exists()


def test_malformed_pattern_and_ranked_files_exit_4(ws, tmp_path):
    cases = _reader_cases(ws)
    files = {"rank": MALFORMED_PATTERN_FILES, "attack": MALFORMED_PATTERN_FILES,
             "encode": MALFORMED_RANKED_FILES}
    for command, defects in files.items():
        args = cases[command][2]
        for defect, text in sorted(defects.items()):
            path = tmp_path / f"{command}_{defect}.json"
            path.write_text(text)
            out = tmp_path / f"{command}_{defect}.out"
            _assert_rejected(*_run([*args(path), "--out", str(out)]),
                             EXIT_BAD_CONFIG, (command, defect))
            assert not out.exists()


@pytest.mark.parametrize("case, code", [
    ("features_out_under_a_file", EXIT_RUNTIME),
    ("features_out_is_a_directory", EXIT_RUNTIME),
    ("gen_out_is_a_file", EXIT_RUNTIME),
    ("gen_config_is_a_directory", EXIT_BAD_CONFIG),
    ("eval_model_is_a_directory", EXIT_BAD_CONFIG),
])
def test_unreadable_inputs_and_unwritable_outputs_exit_cleanly(ws, tmp_path, case, code):
    # an input that exists but cannot be read is bad configuration (4); an
    # output that cannot be written is a runtime error (5); neither is a traceback
    a_file = tmp_path / "a_file"
    a_file.write_text("not a directory\n")
    manifest, ini = str(ws["manifest"]), str(ws["ini"])
    argv = {
        "features_out_under_a_file": ["features", "--corpus", manifest,
                                      "--out", str(ws["manifest"] / "x.csv")],
        "features_out_is_a_directory": ["features", "--corpus", manifest,
                                        "--out", str(tmp_path)],
        "gen_out_is_a_file": ["gen", "--config", ini, "--out", str(a_file)],
        "gen_config_is_a_directory": ["gen", "--config", str(tmp_path),
                                      "--out", str(tmp_path / "c")],
        "eval_model_is_a_directory": ["eval", "--model", str(tmp_path), "--corpus", manifest],
    }[case]
    _assert_rejected(*_run(argv), code, case)


@FUZZ
@given(data=st.data(), command=st.sampled_from(
    ["features", "rank", "attack", "encode", "train", "eval", "mine", "pipeline"]))
def test_cli_reads_any_json_without_traceback(ws, data, command):
    # the CLI succeeds exactly when the library reader accepts the file, and
    # otherwise exits 4 or 5 with an error line; an uncaught exception fails
    reader, valid, args = _reader_cases(ws)[command]
    doc = data.draw(documents(valid))
    root = ws["root"] / "fuzz"
    root.mkdir(exist_ok=True)
    # a manifest is read next to the corpus's graphs, so its paths stay valid
    path = ws["manifest"].with_name("fuzz.json") if command == "features" else root / "in.json"
    path.write_text(json.dumps(doc))
    try:
        reader(path)
        accepted = True
    except (GraphError, mining.MiningError, fhmc.RankingError):
        accepted = False
    code, err = _run([*args(path), "--out", str(root / "out")])
    if accepted:
        assert code == EXIT_OK, err
    else:
        assert code in (EXIT_BAD_CONFIG, EXIT_RUNTIME) and err.startswith("error: ")
