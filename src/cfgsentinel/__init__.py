"""Static malware triage over serialized control-flow graphs.

The package covers the full loop: a synthetic CFG corpus generator, a
23-feature structural extractor, from-scratch convolutional and dense
classifiers, graph-injection evasion attacks, discriminative subgraph
mining, and a pattern-based suspicious-behavior screen that backstops the
feature-space detector.
"""

from .graph import (
    Cfg,
    FAMILIES,
    GraphError,
    LabeledSample,
    SampleClass,
    parse_graph,
    read_corpus,
    save_graph,
    serialize_graph,
    write_corpus,
)
from .features import FEATURE_COUNT, FEATURE_NAMES, extract_features
from .isomorphism import is_subgraph, match_count
from .mining import (
    Pattern,
    canonical_dfs_code,
    cork_quality,
    gspan_mine,
    select_discriminative,
)
from .nn import EvalMetrics, Model, evaluate, load_checkpoint, save_checkpoint, train
from .corpus import CorpusConfig, generate, split
from .adversarial import gea_attack, gea_merge, sgea_attack, sgea_attack_all
from .fhmc import classify_pipeline, encode, rank_patterns, train_sbd

__version__ = "0.1.0"

__all__ = [
    "Cfg",
    "CorpusConfig",
    "EvalMetrics",
    "FAMILIES",
    "FEATURE_COUNT",
    "FEATURE_NAMES",
    "GraphError",
    "LabeledSample",
    "Model",
    "Pattern",
    "SampleClass",
    "canonical_dfs_code",
    "classify_pipeline",
    "cork_quality",
    "encode",
    "evaluate",
    "extract_features",
    "gea_attack",
    "gea_merge",
    "generate",
    "gspan_mine",
    "is_subgraph",
    "load_checkpoint",
    "match_count",
    "parse_graph",
    "rank_patterns",
    "read_corpus",
    "save_checkpoint",
    "save_graph",
    "select_discriminative",
    "serialize_graph",
    "sgea_attack",
    "sgea_attack_all",
    "split",
    "train",
    "train_sbd",
    "write_corpus",
]
