"""End-to-end experiment: corpus, models, mining, attacks, pipeline.

Everything is seeded and every artifact is written deterministically, so a
re-run with the same seed and configuration reproduces the output tree byte
for byte (crafting-time fields are omitted in this mode).
"""

from __future__ import annotations

import multiprocessing
import os
import warnings
from collections import Counter
from dataclasses import replace
from pathlib import Path
from typing import Callable, Mapping, Sequence

import numpy as np

from . import adversarial, corpus, features, fhmc, mining, nn
from .graph import GraphError, LabeledSample, SampleClass, indented_json, read_json, write_corpus

Sections = Mapping[str, Mapping[str, object]]

# The INI schema of `run` and the CLI: section -> key -> default.  A value is
# read with its default's type (`corpus.parse_value`); `[corpus]` items are
# checked by `corpus.config_from_mapping` instead.  The seed is not a
# setting: it is `run`'s `seed` argument and the CLI's `--seed`.
DEFAULTS: dict[str, dict[str, object]] = {
    "split": {"train_fraction": corpus.DEFAULT_TRAIN_FRACTION},
    "train": {"arch": "cnn", "epochs": nn.DEFAULT_EPOCHS, "batch_size": nn.DEFAULT_BATCH_SIZE,
              "lr": nn.DEFAULT_LR},
    "mining": {
        "min_nodes": fhmc.DEFAULT_MIN_NODES,
        "max_nodes": fhmc.DEFAULT_MAX_NODES,
        "support_fraction": fhmc.DEFAULT_MINING_FRACTION,
    },
    "rank": {
        "k": fhmc.DEFAULT_TOP_K,
        "benign_ceiling": fhmc.DEFAULT_BENIGN_CEILING,
        "support_fraction": fhmc.DEFAULT_RANK_FRACTION,
    },
    "encode": {"budget_seconds": fhmc.DEFAULT_ENCODE_BUDGET},
    "attack": {
        "sgea_min_nodes": 5,
        "sgea_max_nodes": 12,
        "sgea_per_size": 16,
        "sgea_support_fraction": 0.05,
    },
}


def settings(sections: Sections) -> dict[str, dict[str, object]]:
    """Every schema value: `sections` (INI strings, or values that read back
    as the default's type, so `settings` takes its own output) over
    `DEFAULTS`, plus the raw `[corpus]` items.  Raises CorpusError on an
    unknown section or key (`[corpus] seed` included) or a value that
    `corpus.parse_value` refuses or that is out of its range."""
    unknown = sorted(set(sections) - set(DEFAULTS) - {"corpus"})
    if unknown:
        raise corpus.CorpusError(f"unknown config section: [{unknown[0]}]")
    corpus_items = dict(sections.get("corpus", {}))
    if "seed" in corpus_items:
        raise corpus.CorpusError("unknown config key: [corpus] seed (the seed is --seed)")
    corpus.config_from_mapping(corpus_items)
    out: dict[str, dict[str, object]] = {"corpus": corpus_items}
    for sec, defaults in DEFAULTS.items():
        out[sec] = values = dict(defaults)
        for key, raw in sections.get(sec, {}).items():
            if key not in defaults:
                raise corpus.CorpusError(f"unknown config key: [{sec}] {key}")
            values[key] = corpus.parse_value(raw, defaults[key], f"[{sec}] {key}")
    corpus.check_train_fraction(out["split"]["train_fraction"])
    t, m, r, a = (out[sec] for sec in ("train", "mining", "rank", "attack"))
    rules = [
        (t["arch"] in nn.ARCHITECTURES, f"bad value for [train] arch: {t['arch']!r}"),
        (t["epochs"] >= 1 and t["batch_size"] >= 1, "[train] epochs and batch_size must be >= 1"),
        (t["lr"] > 0, "[train] lr must be > 0"),
        (1 <= m["min_nodes"] <= m["max_nodes"], "[mining] needs 1 <= min_nodes <= max_nodes"),
        (r["k"] >= 1 and r["benign_ceiling"] >= 0, "[rank] needs k >= 1 and benign_ceiling >= 0"),
        (out["encode"]["budget_seconds"] > 0, "[encode] budget_seconds must be > 0"),
        (a["sgea_per_size"] >= 1 and 1 <= a["sgea_min_nodes"] <= a["sgea_max_nodes"],
         "[attack] needs sgea_per_size >= 1 and 1 <= sgea_min_nodes <= sgea_max_nodes"),
    ]
    # a fraction of 0 still asks for a support floor of 1 (fhmc.support_floor)
    rules += [(0 <= out[sec][key] <= 1, f"[{sec}] {key} must be in [0, 1]")
              for sec, key in (("mining", "support_fraction"), ("rank", "support_fraction"),
                               ("attack", "sgea_support_fraction"))]
    for ok, message in rules:
        if not ok:
            raise corpus.CorpusError(message)
    return out


def feature_matrix(samples: Sequence[LabeledSample]) -> np.ndarray:
    """One feature row per sample, in order."""
    rows = [features.extract_features(s.cfg) for s in samples]
    return np.array(rows).reshape(len(rows), features.FEATURE_COUNT)


def task_labels(samples: Sequence[LabeledSample], task: str):
    """The samples a task learns from, its class names and its label vector:
    "detector" is Benign (0) vs Malware (1) over every sample, "classifier"
    the family index over the malware samples.  A selection with no sample
    of the task is a data error."""
    if task == "detector":
        keep, names = samples, fhmc.DETECTOR_CLASSES
        y = [0 if s.cls is SampleClass.BENIGN else 1 for s in samples]
    elif task == "classifier":
        keep, names = [s for s in samples if s.cls is not SampleClass.BENIGN], fhmc.FAMILY_CLASSES
        y = [names.index(s.cls.value) for s in keep]
    else:
        raise corpus.CorpusError(f"unknown task: {task!r}")
    if not keep:
        raise GraphError(f"no samples for task {task!r}")
    return keep, names, np.array(y)


def write_json(path: str | Path, obj) -> None:
    """Write `obj` as indented JSON to `path`, making its directory."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(indented_json(obj))


def make_corpus(cfg: Sections, seed: int, corpus_dir: Path, splits_path: Path):
    """Generate the `[corpus]` corpus for `seed` into `corpus_dir` and its
    `[split]` train/test split into `splits_path`, both as settled by
    `settings`; returns (samples, train, test)."""
    samples = corpus.generate(replace(corpus.config_from_mapping(cfg["corpus"]), seed=seed))
    train_s, test_s = corpus.split(samples, cfg["split"]["train_fraction"], seed)
    write_corpus(samples, corpus_dir)
    write_json(splits_path, {"train": [s.id for s in train_s], "test": [s.id for s in test_s]})
    return samples, train_s, test_s


def read_splits(path: str | Path, samples: Sequence[LabeledSample]):
    """The (train, test) samples a splits file names: an object whose
    "train" and "test" are non-empty lists of ids of `samples`, no id named
    twice.  Anything else raises GraphError."""
    doc = read_json(path)
    parts = [doc.get("train"), doc.get("test")] if isinstance(doc, dict) else [None]
    if not all(isinstance(p, list) and p and all(isinstance(i, str) for i in p) for p in parts):
        raise GraphError(f"bad splits file {path}: train and test must be "
                         "non-empty lists of sample ids")
    by_id = {s.id: s for s in samples}
    ids = [i for part in parts for i in part]
    missing = [i for i in ids if i not in by_id]
    if missing:
        raise GraphError(f"splits reference unknown sample ids: {missing[:3]}")
    repeated = sorted(i for i, n in Counter(ids).items() if n > 1)
    if repeated:
        raise GraphError(f"splits name a sample id more than once: {repeated[:3]}")
    return tuple([by_id[i] for i in part] for part in parts)


def write_features(path: Path, samples: Sequence[LabeledSample]) -> np.ndarray:
    """Write the feature CSV of `samples` to `path`; returns their matrix."""
    X = feature_matrix(samples)
    path.write_text(features.features_to_csv(zip([s.id for s in samples], X)))
    return X


def write_encodings(path: Path, samples: Sequence[LabeledSample], ranked,
                    budget: float) -> np.ndarray:
    """Write the encoding CSV of `samples` over the ranked patterns to
    `path`; returns their bits."""
    bits = fhmc.encode_many(samples, ranked, budget)
    path.write_text(fhmc.encodings_to_csv([s.id for s in samples], bits))
    return bits


def write_pipeline(path: Path, samples: Sequence[LabeledSample], models, ranked,
                   budget: float) -> list:
    """Classify `samples` through `models` (detector, family classifier,
    screen) and write their verdicts to `path`; returns the verdicts."""
    verdicts = [fhmc.classify_pipeline(s.cfg, *models, ranked, budget) for s in samples]
    fhmc.write_verdicts([s.id for s in samples], verdicts, path)
    return verdicts


# The donors, the SGEA pool and the screen all assume benign-looking
# evaders, so the attacks always target Benign.
_TARGET = SampleClass.BENIGN.value


def _attack_half(detector, train_s, mal_test, benign_train, attack) -> tuple[list, list]:
    """The SGEA candidate pool mined from `train_s`, and each attack run on
    the malware test samples `mal_test` against `detector` as (report name,
    report, merged graphs by victim id): GEA with the `benign_train` donors
    under every strategy, then SGEA over the pool.  `attack` is the
    `[attack]` section."""
    # Candidate pool: the best `sgea_per_size` benign-discriminative patterns
    # of each node count, so the ascending attack loop always has larger
    # fallbacks for victims the small patterns cannot flip.
    pool = mining.select_discriminative(
        train_s,
        SampleClass.BENIGN,
        min_support=fhmc.support_floor(len(benign_train), attack["sgea_support_fraction"]),
        min_nodes=attack["sgea_min_nodes"],
        max_nodes=attack["sgea_max_nodes"],
        top_k=attack["sgea_per_size"],
        per_size=True,
    )
    # Each run: its report name, the attack, and the attack's arguments
    # between the victims and the target.
    runs = [(f"gea_{strategy}", adversarial.gea_attack, (benign_train, strategy))
            for strategy in adversarial.STRATEGIES]
    runs.append(("sgea", adversarial.sgea_attack_all, (pool,)))
    return pool, [(name, *attack_fn(detector, mal_test, *args, _TARGET,
                                    include_timing=False))
                  for name, attack_fn, args in runs]


def _beside(work: Callable[[], object], main: Callable[[], object]) -> tuple:
    """(main(), work()), with work() in a forked child process while main()
    runs here; where fork is missing, or in a daemonic multiprocessing
    worker (which may not start children), work() runs here after main().  An
    error in main() kills the child and is raised; an error in work() is
    raised after main() has returned; a child that ends without a result
    raises ChildProcessError."""
    if not hasattr(os, "fork") or multiprocessing.current_process().daemon:
        return main(), work()
    fork = multiprocessing.get_context("fork")
    results, sender = fork.Pipe(duplex=False)

    def child():
        # multiprocessing ends the child without returning from start(), so
        # it never unwinds into its caller's frames, copies of the parent's.
        try:
            sender.send((True, work()))
        except Exception as e:
            sender.send((False, e))

    worker = fork.Process(target=child, name="attack worker")
    with warnings.catch_warnings():
        # Python >= 3.12 warns that fork() in a process with threads may
        # deadlock the child.  The only threads here are OpenBLAS's, which
        # stops its pool around fork() (pthread_atfork) and starts it
        # again in the child.  (Unverified: this code has run on
        # Python 3.11 only, which does not warn.)
        warnings.filterwarnings("ignore", r"This process \(pid=\d+\) is multi-threaded, "
                                r"use of fork\(\) may lead to deadlocks", DeprecationWarning)
        worker.start()
    sender.close()
    try:
        with results:
            here = main()
            try:
                ok, value = results.recv()
            except EOFError:
                ok = None
    except BaseException:
        worker.kill()
        raise
    finally:
        worker.join()
    code = worker.exitcode
    if ok is None or code != 0:
        how = f"signal {-code}" if code < 0 else f"exit code {code}"
        raise ChildProcessError(f"the attack worker ended without a result ({how})")
    if not ok:
        raise value
    return here, value


def run(out: str | Path, seed: int, sections: Sections | None = None) -> dict:
    """Run the full experiment under `out` with the INI `sections` (checked
    by `settings`, and a `[rank] k` that can feed the screen's cnn, before
    anything is written); returns the in-memory results."""
    cfg = settings(sections or {})
    # The screen is a cnn over the ranked patterns' bits, at most k per family.
    bits = len(fhmc.FAMILY_CLASSES) * cfg["rank"]["k"]
    try:
        nn.cnn_width_chain(bits)
    except nn.ModelIOError as e:
        raise corpus.CorpusError(f"[rank] k = {cfg['rank']['k']} ranks at most {bits} "
                                 f"patterns, too few for the screen ({e})") from None
    out = Path(out)

    # -- corpus and features -------------------------------------------------
    samples, train_s, test_s = make_corpus(cfg, seed, out / "corpus", out / "splits.json")
    (out / "features").mkdir(exist_ok=True)
    X_train = write_features(out / "features" / "train.csv", train_s)
    X_test = write_features(out / "features" / "test.csv", test_s)

    # -- detector and family classifier -------------------------------------
    train = cfg["train"]
    _, _, y_det_train = task_labels(train_s, "detector")
    _, _, y_det_test = task_labels(test_s, "detector")
    detector = nn.train(X_train, y_det_train, fhmc.DETECTOR_CLASSES, seed=seed, **train)

    # The family classifier sees the malware rows of the detector's matrices.
    _, _, yf_train = task_labels(train_s, "classifier")
    mal_test, _, yf_test = task_labels(test_s, "classifier")
    classifier = nn.train(
        X_train[y_det_train == 1], yf_train, fhmc.FAMILY_CLASSES, seed=seed + 1, **train
    )

    models_dir = out / "models"
    models_dir.mkdir(exist_ok=True)
    nn.save_checkpoint(detector, models_dir / "detector.ckpt")
    nn.save_checkpoint(classifier, models_dir / "classifier.ckpt")

    det_metrics = nn.evaluate(detector, X_test, y_det_test, benign_index=0)
    fam_metrics = nn.evaluate(classifier, X_test[y_det_test == 1], yf_test)
    write_json(out / "metrics" / "detector.json", det_metrics.to_dict())
    write_json(out / "metrics" / "classifier.json", fam_metrics.to_dict())

    # The SGEA pool and the attacks need only the detector: they run in a
    # forked worker while family mining, ranking, encoding and screen
    # training run here.  Every file is still written here, in stage order.
    benign_train, family_train = fhmc.class_groups(train_s)
    patterns_dir = out / "patterns"
    budget = cfg["encode"]["budget_seconds"]

    def screen_half():
        # -- family pattern mining and ranking ------------------------------
        candidates = fhmc.mine_family_candidates(train_s, **cfg["mining"])
        patterns_dir.mkdir(exist_ok=True)
        for fam, cands in sorted(candidates.items()):
            mining.write_patterns(cands, patterns_dir / f"candidates_{fam}.json")
        ranked = fhmc.rank_patterns(candidates, family_train, benign_train, **cfg["rank"])
        fhmc.write_ranked(ranked, patterns_dir / "ranked.json")

        # -- encodings and the suspicious-behavior screen --------------------
        (out / "encodings").mkdir(exist_ok=True)
        bits_train = write_encodings(out / "encodings" / "train.csv", train_s, ranked, budget)
        bits_test = write_encodings(out / "encodings" / "test.csv", test_s, ranked, budget)
        sbd = fhmc.train_sbd(
            bits_train, y_det_train, seed=seed + 2,
            epochs=train["epochs"], batch_size=train["batch_size"],
        )
        nn.save_checkpoint(sbd, models_dir / "sbd.ckpt")
        sbd_metrics = nn.evaluate(sbd, bits_test, y_det_test, benign_index=0)
        write_json(out / "metrics" / "sbd.json", sbd_metrics.to_dict())
        return candidates, ranked, sbd, sbd_metrics

    (candidates, ranked, sbd, sbd_metrics), (sgea_candidates, runs) = _beside(
        lambda: _attack_half(detector, train_s, mal_test, benign_train, cfg["attack"]),
        screen_half,
    )

    # -- attacks -------------------------------------------------------------
    mining.write_patterns(sgea_candidates, patterns_dir / "sgea_candidates.json")
    attacks_dir = out / "attacks"
    attacks_dir.mkdir(exist_ok=True)
    reports = {}
    evading: dict[str, object] = {}
    for name, report, merged in runs:
        reports[name] = report
        adversarial.write_report_json(report, attacks_dir / f"{name}.json")
        for rec in report.records:
            if rec.sample_id in merged and rec.adversarial_prediction == _TARGET:
                evading[f"{name}:{rec.sample_id}"] = merged[rec.sample_id]
    adversarial.write_report_csv(reports.values(), attacks_dir / "summary.csv")

    # -- screen the evading adversarial graphs -------------------------------
    flagged = 0
    screen_rows = []
    for key in sorted(evading):
        bits = fhmc.encode(evading[key], ranked, budget)
        hit = sbd.predict_class(bits) == "Suspicious"
        flagged += int(hit)
        screen_rows.append({"graph": key, "flagged": hit})
    # the screen's false alarms are the Benign row of its test evaluation
    benign_row = sbd_metrics.confusion[0]
    screen = {
        "evading": len(evading),
        "flagged": flagged,
        "flag_rate": flagged / len(evading) if evading else None,
        "benign_total": int(benign_row.sum()),
        "benign_flagged": int(benign_row[1]),
        "benign_flag_rate": sbd_metrics.fpr,
        "per_graph": screen_rows,
    }
    write_json(attacks_dir / "sbd_screen.json", screen)

    # -- full pipeline over the test split -----------------------------------
    pipe_dir = out / "pipeline"
    pipe_dir.mkdir(exist_ok=True)
    verdicts = write_pipeline(pipe_dir / "verdicts.jsonl", test_s,
                              (detector, classifier, sbd), ranked, budget)
    write_json(pipe_dir / "summary.json", {"verdicts": fhmc.verdict_counts(verdicts)})

    return {
        "samples": samples,
        "train": train_s,
        "test": test_s,
        "detector": detector,
        "classifier": classifier,
        "sbd": sbd,
        "detector_metrics": det_metrics,
        "classifier_metrics": fam_metrics,
        "sbd_metrics": sbd_metrics,
        "candidates": candidates,
        "ranked": ranked,
        "sgea_candidates": sgea_candidates,
        "reports": reports,
        "evading": evading,
        "screen": screen,
        "verdicts": verdicts,
    }
