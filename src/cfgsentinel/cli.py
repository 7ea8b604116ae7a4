"""Command-line interface.

Subcommands: gen, features, train, eval, mine, rank, encode, attack,
pipeline, repro.  Every subcommand accepts --seed (a non-negative integer,
default 0), --config (INI file with per-module sections, checked against
`experiment.DEFAULTS` before the subcommand runs), and --out.  Exit codes:
0 success, 2 usage error, 3 missing input file, 4 invalid configuration or a
model that predicts non-finite probabilities, 5 data or runtime error.
"""

from __future__ import annotations

import argparse
import configparser
import json
import sys
from dataclasses import replace
from pathlib import Path

from . import adversarial, corpus, experiment, fhmc, mining, nn
from .features import FEATURE_COUNT
from .graph import GraphError, SampleClass, indented_json, read_corpus
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
    except (configparser.Error, UnicodeDecodeError, OSError) as e:
        raise corpus.CorpusError(f"bad config file: {e}") from None


def _load_corpus(manifest: str):
    return read_corpus(_existing(manifest, "manifest"))


def _split_samples(samples, splits_path: str):
    return experiment.read_splits(_existing(splits_path, "splits file"), samples)


def _samples(args, part: str):
    """The samples of `--corpus`, or only its `part` ("train" or "test")
    when `--splits` is given."""
    samples = _load_corpus(args.corpus)
    if not args.splits:
        return samples
    train_s, test_s = _split_samples(samples, args.splits)
    return train_s if part == "train" else test_s


def _seed(text: str) -> int:
    """--seed's type: numpy's generators take non-negative integer seeds."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return int(text)


def _given(flag, default):
    """A flag's value, or `default` when the flag is absent; 0 is a value."""
    return default if flag is None else flag


def _load_model(path: str, *roles: tuple[str, ...], width: int = FEATURE_COUNT) -> nn.Model:
    """The checkpoint at `path`; ModelIOError unless its class names are one
    of `roles` and its input width is `width`."""
    model = nn.load_checkpoint(_existing(path, "model checkpoint"))
    if tuple(model.class_names) not in roles or model.input_width != width:
        raise nn.ModelIOError(
            f"{path}: classes {list(model.class_names)} and input width {model.input_width} "
            f"do not fit here (classes {' or '.join(str(list(r)) for r in roles)}, "
            f"width {width})")
    return model


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_gen(args, cfg) -> int:
    out = Path(args.out)
    samples, _, _ = experiment.make_corpus(cfg, args.seed, out, out / "splits.json")
    print(f"wrote {len(samples)} samples to {out / 'manifest.json'}")
    return EXIT_OK


def cmd_features(args, cfg) -> int:
    samples = _load_corpus(args.corpus)
    experiment.write_features(Path(args.out), samples)
    print(f"wrote {len(samples)} feature rows to {args.out}")
    return EXIT_OK


def cmd_train(args, cfg) -> int:
    keep, names, y = experiment.task_labels(_samples(args, "train"), args.task)
    X = experiment.feature_matrix(keep)
    train = dict(cfg["train"], arch=_given(args.arch, cfg["train"]["arch"]))
    model = nn.train(X, y, names, seed=args.seed, **train)
    nn.save_checkpoint(model, Path(args.out))
    print(f"trained {model.arch} on {len(keep)} samples; final loss "
          f"{model.loss_history[-1]:.6f}; saved to {args.out}")
    return EXIT_OK


def cmd_eval(args, cfg) -> int:
    model = _load_model(args.model, fhmc.DETECTOR_CLASSES, fhmc.FAMILY_CLASSES)
    samples = _samples(args, "test")
    task = "detector" if tuple(model.class_names) == fhmc.DETECTOR_CLASSES else "classifier"
    keep, _, y = experiment.task_labels(samples, task)
    X = experiment.feature_matrix(keep)
    benign_index = 0 if task == "detector" else None
    doc = nn.evaluate(model, X, y, benign_index=benign_index).to_dict()
    if args.out:
        experiment.write_json(args.out, doc)
    print(indented_json(doc))
    return EXIT_OK


def cmd_mine(args, cfg) -> int:
    samples = _samples(args, "train")
    sec = cfg["mining"]
    nodes = {"min_nodes": _given(args.min_nodes, sec["min_nodes"]),
             "max_nodes": _given(args.max_nodes, sec["max_nodes"])}
    group, default_support = samples, 2
    if args.target:
        target = SampleClass(args.target)
        group = [s for s in samples if s.cls is target]
        if not group:
            raise corpus.CorpusError(f"no samples of class {args.target}")
        default_support = fhmc.support_floor(len(group), sec["support_fraction"])
    min_support = _given(args.min_support, default_support)
    if args.discriminative:
        patterns = mining.select_discriminative(
            samples, target, min_support=min_support, top_k=args.top_k, **nodes)
    else:
        patterns = mining.gspan_mine(group, min_support, **nodes)
    mining.write_patterns(patterns, Path(args.out))
    print(f"mined {len(patterns)} patterns to {args.out}")
    return EXIT_OK


def cmd_rank(args, cfg) -> int:
    benign_train, family_train = fhmc.class_groups(_samples(args, "train"))
    # pattern files keep support counts, not the supporting ids coverage
    # needs: find them again by containment in the family's training samples
    candidates = {
        fam: [replace(p, supporting_ids={fam: frozenset(
                  s.id for s in family_train[fam] if is_subgraph(p.graph, s.cfg))})
              for p in mining.read_patterns(_existing(path, "pattern file"))]
        for fam, path in zip(family_train, args.patterns)
    }
    rank = dict(cfg["rank"], k=_given(args.k, cfg["rank"]["k"]))
    ranked = fhmc.rank_patterns(candidates, family_train, benign_train, **rank)
    fhmc.write_ranked(ranked, Path(args.out))
    print(f"ranked {len(ranked)} patterns to {args.out}")
    return EXIT_OK


def cmd_encode(args, cfg) -> int:
    samples = _load_corpus(args.corpus)
    ranked = fhmc.read_ranked(_existing(args.ranked, "ranked pattern file"))
    experiment.write_encodings(Path(args.out), samples, ranked, cfg["encode"]["budget_seconds"])
    print(f"encoded {len(samples)} samples x {len(ranked)} patterns to {args.out}")
    return EXIT_OK


def cmd_attack(args, cfg) -> int:
    model = _load_model(args.model, fhmc.DETECTOR_CLASSES, fhmc.FAMILY_CLASSES)
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
    if args.mode == "gea":
        report, _ = adversarial.gea_attack(model, victims, pool, args.strategy, target)
    else:
        if not args.patterns:
            raise MissingInput("sgea requires --patterns")
        cands = mining.read_patterns(_existing(args.patterns, "pattern file"))
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
    ranked = fhmc.read_ranked(_existing(args.ranked, "ranked pattern file"))
    models = [_load_model(args.detector, fhmc.DETECTOR_CLASSES),
              _load_model(args.classifier, fhmc.FAMILY_CLASSES),
              _load_model(args.sbd, fhmc.SBD_CLASSES, width=len(ranked))]
    verdicts = experiment.write_pipeline(Path(args.out), _samples(args, "test"), models,
                                         ranked, cfg["encode"]["budget_seconds"])
    print(json.dumps({"verdicts": fhmc.verdict_counts(verdicts)}, sort_keys=True))
    return EXIT_OK


def cmd_repro(args, cfg) -> int:
    experiment.run(args.out, args.seed, cfg)
    print(f"experiment artifacts written to {args.out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="cfgsentinel", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--seed", type=_seed, default=0)
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
    p.add_argument("--target", choices=[c.value for c in SampleClass], default=None,
                   help="restrict to one class")
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
    p.add_argument("--patterns", default=None, help="sgea candidate file")
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


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    """The parsed command line.  Flags `mine` or `attack` would ignore or
    mishandle are usage errors (SystemExit 2), as argparse's own are."""
    ap = build_parser()
    args = ap.parse_args(argv)
    if args.command == "attack" and args.patterns is not None and args.mode != "sgea":
        ap.error("attack --patterns needs --mode sgea")
    if args.command == "attack" and Path(args.out).suffix == ".csv":
        ap.error("attack --out names the JSON report, not the .csv written beside it")
    if args.command == "mine" and args.discriminative and not args.target:
        ap.error("mine --discriminative needs --target")
    if args.command == "mine" and args.top_k is not None and not args.discriminative:
        ap.error("mine --top-k needs --discriminative")
    return args


def main(argv: list[str] | None = None) -> int:
    try:
        args = parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        cfg = experiment.settings(_read_sections(args.config))
        if args.out:
            Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        return args.fn(args, cfg)
    except MissingInput as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_MISSING_INPUT
    except (corpus.CorpusError, mining.MiningError, fhmc.RankingError, nn.ModelIOError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_BAD_CONFIG
    except (GraphError, adversarial.AttackError, nn.TrainingError, fhmc.EncodingTimeout,
            OSError) as e:  # OSError: an unwritable output, or a worker that died
        print(f"error: {e}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
