"""Command-line interface.

Subcommands: gen, features, train, eval, mine, rank, encode, attack,
pipeline, repro.  Every subcommand accepts --seed, --config (INI file with
per-module sections, checked against `experiment.DEFAULTS` before the
subcommand runs), and --out.  Exit codes: 0 success, 2 usage error,
3 missing input file, 4 invalid configuration, 5 data or runtime error.
"""

from __future__ import annotations

import argparse
import configparser
import json
import sys
from dataclasses import replace
from pathlib import Path

from . import adversarial, corpus, experiment, features, fhmc, mining, nn
from .graph import (
    FAMILIES,
    GraphError,
    SampleClass,
    indented_json,
    read_corpus,
    read_json,
    write_corpus,
)
from .isomorphism import is_subgraph

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_MISSING_INPUT = 3
EXIT_BAD_CONFIG = 4
EXIT_RUNTIME = 5


class MissingInput(FileNotFoundError):
    pass


def _existing(path: str, what: str) -> Path:
    p = Path(path)
    if not p.exists():
        raise MissingInput(f"{what} not found: {path}")
    return p


def _read_sections(path: str | None) -> dict[str, dict[str, str]]:
    if path is None:
        return {}
    p = _existing(path, "config file")
    parser = configparser.ConfigParser()
    parser.optionxform = str  # keys like familyA_count are case-sensitive
    try:
        parser.read_string(p.read_text())
        return {sec: dict(parser[sec]) for sec in parser.sections()}
    except (configparser.Error, UnicodeDecodeError) as e:
        raise corpus.CorpusError(f"bad config file: {e}") from None


def _load_corpus(manifest: str):
    return read_corpus(_existing(manifest, "manifest"))


def _load_splits(path: str) -> tuple[list[str], list[str]]:
    doc = read_json(_existing(path, "splits file"))
    ids = (doc.get("train"), doc.get("test")) if isinstance(doc, dict) else ()
    if not ids or not all(
        isinstance(part, list) and all(isinstance(i, str) for i in part) for part in ids
    ):
        raise GraphError(f"bad splits file {path}: train and test must be lists of sample ids")
    return ids


def _split_samples(samples, splits_path: str):
    train_ids, test_ids = _load_splits(splits_path)
    by_id = {s.id: s for s in samples}
    missing = [i for i in train_ids + test_ids if i not in by_id]
    if missing:
        raise GraphError(f"splits reference unknown sample ids: {missing[:3]}")
    return [by_id[i] for i in train_ids], [by_id[i] for i in test_ids]


def _load_model(path: str) -> nn.Model:
    return nn.load_checkpoint(_existing(path, "model checkpoint"))


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_gen(args, cfg) -> int:
    items = dict(cfg["corpus"])
    if args.seed is not None:
        items["seed"] = str(args.seed)
    ccfg = corpus.config_from_mapping(items)
    samples = corpus.generate(ccfg)
    out = Path(args.out)
    manifest = write_corpus(samples, out)
    train_s, test_s = corpus.split(samples, cfg["split"]["train_fraction"], ccfg.seed)
    (out / "splits.json").write_text(
        indented_json({"train": [s.id for s in train_s], "test": [s.id for s in test_s]})
    )
    print(f"wrote {len(samples)} samples to {manifest}")
    return EXIT_OK


def cmd_features(args, cfg) -> int:
    samples = _load_corpus(args.corpus)
    rows = [(s.id, features.extract_features(s.cfg)) for s in samples]
    csv_text = features.features_to_csv(rows)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(csv_text)
    print(f"wrote {len(rows)} feature rows to {out}")
    return EXIT_OK


def cmd_train(args, cfg) -> int:
    samples = _load_corpus(args.corpus)
    if args.splits:
        samples, _ = _split_samples(samples, args.splits)
    keep, names, y = experiment.task_labels(samples, args.task)
    X = experiment.feature_matrix(keep)
    train = dict(cfg["train"], arch=args.arch or cfg["train"]["arch"])
    model = nn.train(X, y, names, seed=args.seed if args.seed is not None else 0, **train)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    nn.save_checkpoint(model, out)
    print(f"trained {model.arch} on {len(keep)} samples; final loss "
          f"{model.loss_history[-1]:.6f}; saved to {out}")
    return EXIT_OK


def cmd_eval(args, cfg) -> int:
    model = _load_model(args.model)
    samples = _load_corpus(args.corpus)
    if args.splits:
        _, samples = _split_samples(samples, args.splits)
    task = "detector" if tuple(model.class_names) == fhmc.DETECTOR_CLASSES else "classifier"
    keep, names, y = experiment.task_labels(samples, task)
    if tuple(model.class_names) != names:
        raise corpus.CorpusError("model classes do not match task labels")
    X = experiment.feature_matrix(keep)
    benign_index = 0 if task == "detector" else None
    metrics = nn.evaluate(model, X, y, benign_index=benign_index)
    text = indented_json(metrics.to_dict())
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(text)
    print(text)
    return EXIT_OK


def cmd_mine(args, cfg) -> int:
    samples = _load_corpus(args.corpus)
    if args.splits:
        samples, _ = _split_samples(samples, args.splits)
    sec = cfg["mining"]
    min_nodes = args.min_nodes or sec["min_nodes"]
    max_nodes = args.max_nodes or sec["max_nodes"]
    if args.target:
        target = SampleClass.from_string(args.target)
        group = [s for s in samples if s.cls is target]
        if not group:
            raise corpus.CorpusError(f"no samples of class {args.target}")
        min_support = args.min_support or fhmc.support_floor(len(group), sec["support_fraction"])
        if args.discriminative:
            patterns = mining.select_discriminative(
                samples, target, min_support=min_support,
                min_nodes=min_nodes, max_nodes=max_nodes,
                top_k=args.top_k,
            )
        else:
            patterns = mining.gspan_mine(
                [s.cfg for s in group], min_support=min_support,
                min_nodes=min_nodes, max_nodes=max_nodes,
                classes=[target.value] * len(group),
                sample_ids=[s.id for s in group],
            )
    else:
        patterns = mining.gspan_mine(
            [s.cfg for s in samples],
            min_support=args.min_support or 2,
            min_nodes=min_nodes, max_nodes=max_nodes,
            classes=[s.cls.value for s in samples],
            sample_ids=[s.id for s in samples],
        )
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    mining.write_patterns(patterns, out)
    print(f"mined {len(patterns)} patterns to {out}")
    return EXIT_OK


def cmd_rank(args, cfg) -> int:
    samples = _load_corpus(args.corpus)
    train_s, _ = _split_samples(samples, args.splits) if args.splits else (list(samples), [])
    benign_train = [s for s in train_s if s.cls is SampleClass.BENIGN]
    family_train = {f.value: [s for s in train_s if s.cls is f] for f in FAMILIES}
    # pattern files keep support counts, not the supporting ids coverage
    # needs: find them again by containment in the family's training samples
    candidates = {
        fam: [replace(p, supporting_ids={fam: frozenset(
                  s.id for s in family_train[fam] if is_subgraph(p.graph, s.cfg))})
              for p in mining.read_patterns(_existing(path, "pattern file"))]
        for fam, path in zip(family_train, args.patterns)
    }
    rank = dict(cfg["rank"], k=args.k or cfg["rank"]["k"])
    ranked = fhmc.rank_patterns(candidates, family_train, benign_train, **rank)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    fhmc.write_ranked(ranked, out)
    print(f"ranked {len(ranked)} patterns to {out}")
    return EXIT_OK


def cmd_encode(args, cfg) -> int:
    samples = _load_corpus(args.corpus)
    ranked = fhmc.read_ranked(_existing(args.ranked, "ranked pattern file"))
    bits = fhmc.encode_many(samples, ranked, cfg["encode"]["budget_seconds"])
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(fhmc.encodings_to_csv([s.id for s in samples], bits))
    print(f"encoded {len(samples)} samples x {len(ranked)} patterns to {out}")
    return EXIT_OK


def cmd_attack(args, cfg) -> int:
    model = _load_model(args.model)
    samples = _load_corpus(args.corpus)
    train_s, test_s = _split_samples(samples, args.splits)
    target = args.target
    if target not in model.class_names:
        raise corpus.CorpusError(f"model has no class {target!r}")
    if target == "Benign":
        victims = [s for s in test_s if s.cls is not SampleClass.BENIGN]
        pool = [s for s in train_s if s.cls is SampleClass.BENIGN]
    else:
        victims = [s for s in test_s if s.cls is SampleClass.BENIGN]
        pool = [s for s in train_s if s.cls is not SampleClass.BENIGN]
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    if args.mode == "gea":
        report, _ = adversarial.gea_attack(model, victims, pool, args.strategy, target)
    else:
        if not args.patterns:
            raise MissingInput("sgea requires --patterns")
        cands = mining.read_patterns(_existing(args.patterns[0], "pattern file"))
        report, _ = adversarial.sgea_attack_all(model, victims, cands, target)
    adversarial.write_report_json(report, out)
    csv_path = out.with_suffix(".csv")
    adversarial.write_report_csv([report], csv_path)
    print(
        f"{report.attack} ({report.strategy}) vs {len(report.eligible)} victims: "
        f"MR {report.misclassification_rate:.4f}, targeted {report.targeted_rate:.4f}"
    )
    return EXIT_OK


def cmd_pipeline(args, cfg) -> int:
    detector = _load_model(args.detector)
    classifier = _load_model(args.classifier)
    sbd = _load_model(args.sbd)
    ranked = fhmc.read_ranked(_existing(args.ranked, "ranked pattern file"))
    samples = _load_corpus(args.corpus)
    if args.splits:
        _, samples = _split_samples(samples, args.splits)
    budget = cfg["encode"]["budget_seconds"]
    verdicts = [
        fhmc.classify_pipeline(s.cfg, detector, classifier, sbd, ranked, budget)
        for s in samples
    ]
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    fhmc.write_verdicts([s.id for s in samples], verdicts, out)
    counts: dict[str, int] = {}
    for v in verdicts:
        counts[v.verdict] = counts.get(v.verdict, 0) + 1
    print(json.dumps({"verdicts": dict(sorted(counts.items()))}, sort_keys=True))
    return EXIT_OK


def cmd_repro(args, cfg) -> int:
    seed = args.seed if args.seed is not None else 0
    experiment.run(args.out, seed, cfg, include_timing=False)
    print(f"experiment artifacts written to {args.out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="cfgsentinel", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--config", default=None, help="INI config file")

    p = sub.add_parser("gen", help="generate a synthetic corpus and split")
    common(p)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_gen)

    p = sub.add_parser("features", help="extract feature CSV for a corpus")
    common(p)
    p.add_argument("--corpus", required=True, help="manifest.json path")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_features)

    p = sub.add_parser("train", help="train a detector or family classifier")
    common(p)
    p.add_argument("--corpus", required=True)
    p.add_argument("--splits", default=None)
    p.add_argument("--task", choices=("detector", "classifier"), required=True)
    p.add_argument("--arch", choices=nn.ARCHITECTURES, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("eval", help="evaluate a model checkpoint")
    common(p)
    p.add_argument("--model", required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--splits", default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("mine", help="mine frequent or discriminative patterns")
    common(p)
    p.add_argument("--corpus", required=True)
    p.add_argument("--splits", default=None)
    p.add_argument("--target", default=None, help="restrict to one class")
    p.add_argument("--discriminative", action="store_true")
    p.add_argument("--min-support", type=int, default=None)
    p.add_argument("--min-nodes", type=int, default=None)
    p.add_argument("--max-nodes", type=int, default=None)
    p.add_argument("--top-k", type=int, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_mine)

    p = sub.add_parser("rank", help="filter and rank mined family patterns")
    common(p)
    p.add_argument("--corpus", required=True)
    p.add_argument("--splits", default=None)
    p.add_argument("--patterns", nargs=3, required=True,
                   metavar=("FAMA", "FAMB", "FAMC"),
                   help="candidate files for the three families, in order")
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_rank)

    p = sub.add_parser("encode", help="bit-encode samples over ranked patterns")
    common(p)
    p.add_argument("--corpus", required=True)
    p.add_argument("--ranked", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_encode)

    p = sub.add_parser("attack", help="run a graph-injection attack")
    common(p)
    p.add_argument("--model", required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--splits", required=True)
    p.add_argument("--mode", choices=("gea", "sgea"), required=True)
    p.add_argument("--strategy", choices=adversarial.STRATEGIES, default="median")
    p.add_argument("--target", default="Benign")
    p.add_argument("--patterns", nargs="*", default=None, help="sgea candidates")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_attack)

    p = sub.add_parser("pipeline", help="run the hierarchical pipeline")
    common(p)
    p.add_argument("--detector", required=True)
    p.add_argument("--classifier", required=True)
    p.add_argument("--sbd", required=True)
    p.add_argument("--ranked", required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--splits", default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_pipeline)

    p = sub.add_parser("repro", help="run the full seeded experiment")
    common(p)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_repro)

    return ap


def main(argv: list[str] | None = None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        return args.fn(args, experiment.settings(_read_sections(args.config)))
    except MissingInput as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_MISSING_INPUT
    except (corpus.CorpusError, mining.MiningError, fhmc.RankingError, nn.ModelIOError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_BAD_CONFIG
    except (GraphError, adversarial.AttackError, nn.TrainingError, fhmc.EncodingTimeout) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
