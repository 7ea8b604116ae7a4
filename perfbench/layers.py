"""Per-layer instrumentation: which library calls get spans, and how the
traced run's spans and counts become the per-layer metrics.

Names, units and better directions of all metrics come from `BENCHMARK.json`.
`MOVES` adds, for each per-layer metric, the end-to-end metric it should move
and on which workload: the map later changes cite when they claim a gain.
"""

from __future__ import annotations

import json
from pathlib import Path

from tracer import Patcher, Tracer

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}

MODULES = (
    "nn", "mining", "isomorphism", "features", "graph",
    "fhmc", "adversarial", "corpus", "experiment",
)

# per-layer metric: (the end-to-end metric it should move, on workload)
MOVES: dict[str, tuple[str, str]] = {
    "nn.train_detector_s": ("experiment_s", "experiment"),
    "nn.train_classifier_s": ("experiment_s", "experiment"),
    "fhmc.train_sbd_s": ("experiment_s", "experiment"),
    "nn.sbd.adam_step_ms": ("experiment_s", "experiment"),
    "nn.detector.adam_step_ms": ("experiment_s", "experiment"),
    "nn.sbd.conv_forward_ms": ("experiment_s", "experiment"),
    "nn.detector.conv_forward_ms": ("experiment_s", "experiment"),
    "nn.sbd.conv_backward_ms": ("experiment_s", "experiment"),
    "nn.detector.conv_backward_ms": ("experiment_s", "experiment"),
    "nn.adam_step_calls": ("experiment_s", "experiment"),
    "nn.predict_proba_us": ("triage_*_p50_ms", "triage"),
    "nn.predict_proba_calls": ("triage_*_p50_ms", "triage"),
    "nn.sbd.final_loss": ("none (observability)", "experiment"),
    "nn.epochs": ("none (observability)", "experiment"),
    "mining.gspan_mine_s": ("mine_s", "mine"),
    "mining.select_discriminative_s": ("mine_s", "mine"),
    "mining.patterns_reported": ("mine_s", "mine"),
    "mining.sgea_keep_ratio": ("mine_s", "mine"),
    "isomorphism.is_subgraph_calls.encode": ("triage_screen_p50_ms", "triage"),
    "isomorphism.is_subgraph_us.encode": ("triage_screen_p50_ms", "triage"),
    "isomorphism.hit_ratio.encode": ("triage_screen_p50_ms", "triage"),
    "isomorphism.is_subgraph_calls.rank": ("mine_s", "mine"),
    "isomorphism.is_subgraph_us.rank": ("mine_s", "mine"),
    "isomorphism.hit_ratio.rank": ("mine_s", "mine"),
    "features.extract_features_us": ("triage_classifier_p50_ms", "triage"),
    "features.extract_features_calls": ("triage_graphs_per_s", "triage"),
    "graph.parse_graph_us": ("triage_graphs_per_s", "triage"),
    "fhmc.rank_patterns_s": ("mine_s", "mine"),
    "fhmc.encode_ms": ("triage_screen_p50_ms", "triage"),
    "fhmc.encode_timeouts": ("failed_fraction", "triage"),
    "fhmc.screen_fraction": ("triage_graphs_per_s (explains shifts)", "triage"),
    "adversarial.gea_attack_s": ("experiment_s", "experiment"),
    "adversarial.sgea_ms_per_victim": ("experiment_s", "experiment"),
    "adversarial.sgea_queries": ("experiment_s", "experiment"),
    "corpus.generate_s": ("setup_s", "all"),
    "experiment.self_s": ("experiment_s", "experiment"),
    "trace.overhead_pct": ("none (traced minus untraced primary metric)", "all"),
}
for _m in MODULES:
    MOVES[f"self_share.{_m}"] = ("the workload's primary metric", "all")
if set(MOVES) != {m["name"] for m in SPEC["per_layer"]}:
    raise AssertionError("layers.MOVES and BENCHMARK.json per_layer list different metrics")

ROLE_BY_CLASSES = {
    ("Benign", "Malware"): "detector",
    ("Benign", "Suspicious"): "sbd",
}


def instrument(tracer: Tracer) -> Patcher:
    """Wrap the library's layer entry points at every import site."""
    from cfgsentinel import (
        adversarial, corpus, experiment, features, fhmc, graph, isomorphism, mining, nn,
    )

    T = tracer
    patch = Patcher("cfgsentinel")

    def plain(name):
        def make(orig):
            def wrapper(*args, **kwargs):
                return T.call(name, orig, args, kwargs)
            return wrapper
        return make

    def make_train(orig):
        def wrapper(X, y, class_names, *args, **kwargs):
            role = ROLE_BY_CLASSES.get(tuple(class_names), "classifier")
            prev = T.context.get("role")
            T.context["role"] = role
            try:
                model = T.call(f"nn.train.{role}", orig, (X, y, class_names) + args, kwargs)
            finally:
                T.context["role"] = prev
            T.counters["nn.epochs"] += len(model.loss_history)
            T.counters[f"nn.{role}.final_loss"] = model.loss_history[-1]
            return model
        return wrapper

    def make_role_method(kind):
        def make(orig):
            def wrapper(self, *args, **kwargs):
                role = T.context.get("role") or "infer"
                return T.call(f"nn.{role}.{kind}", orig, (self,) + args, kwargs)
            return wrapper
        return make

    def make_is_subgraph(orig):
        def wrapper(pattern, host):
            where = T.enclosing(("fhmc.encode", "fhmc.rank_patterns"))
            suffix = {"fhmc.encode": "encode", "fhmc.rank_patterns": "rank"}.get(where, "other")
            hit = T.call(f"isomorphism.is_subgraph.{suffix}", orig, (pattern, host), {})
            if hit:
                T.counters[f"isomorphism.hits.{suffix}"] += 1
            return hit
        return wrapper

    def make_mined(name):
        def make(orig):
            def wrapper(*args, **kwargs):
                out = T.call(name, orig, args, kwargs)
                T.counters["mining.patterns_reported"] += len(out)
                if name == "mining.select_discriminative":
                    T.counters["mining.sgea_mined"] += len(out)
                return out
            return wrapper
        return make

    def make_encode(orig):
        def wrapper(*args, **kwargs):
            try:
                return T.call("fhmc.encode", orig, args, kwargs)
            except fhmc.EncodingTimeout:
                T.counters["fhmc.encode_timeouts"] += 1
                raise
        return wrapper

    def make_pipeline(orig):
        def wrapper(*args, **kwargs):
            verdict = T.call("fhmc.classify_pipeline", orig, args, kwargs)
            T.counters["fhmc.screen_verdicts"] += verdict.stage == "sbd"
            return verdict
        return wrapper

    def make_sgea(orig):
        def wrapper(*args, **kwargs):
            result = T.call("adversarial.sgea_attack", orig, args, kwargs)
            T.counters["adversarial.sgea_queries"] += result.attempts
            return result
        return wrapper

    patch.function(corpus, "generate", plain("corpus.generate"))
    patch.function(graph, "parse_graph", plain("graph.parse_graph"))
    patch.function(features, "extract_features", plain("features.extract_features"))
    patch.function(isomorphism, "is_subgraph", make_is_subgraph)
    patch.function(mining, "gspan_mine", make_mined("mining.gspan_mine"))
    patch.function(mining, "select_discriminative", make_mined("mining.select_discriminative"))
    patch.function(nn, "train", make_train)
    patch.method(nn.Adam, "step", make_role_method("adam_step"))
    patch.method(nn.Conv1D, "forward", make_role_method("conv_forward"))
    patch.method(nn.Conv1D, "backward", make_role_method("conv_backward"))
    patch.method(nn.Model, "predict_proba", plain("nn.predict_proba"))
    patch.function(fhmc, "mine_family_candidates", plain("fhmc.mine_family_candidates"))
    patch.function(fhmc, "rank_patterns", plain("fhmc.rank_patterns"))
    patch.function(fhmc, "encode", make_encode)
    patch.function(fhmc, "encode_many", plain("fhmc.encode_many"))
    patch.function(fhmc, "train_sbd", plain("fhmc.train_sbd"))
    patch.function(fhmc, "classify_pipeline", make_pipeline)
    patch.function(adversarial, "gea_attack", plain("adversarial.gea_attack"))
    patch.function(adversarial, "sgea_attack", make_sgea)
    patch.function(adversarial, "sgea_attack_all", plain("adversarial.sgea_attack_all"))
    patch.function(experiment, "run", plain("experiment.run"))
    return patch


def _per_call(T: Tracer, name: str, scale: float) -> float:
    calls = T.calls.get(name, 0)
    return T.total.get(name, 0.0) / calls * scale if calls else 0.0


def layer_metrics(T: Tracer, base_seconds: float, overhead_pct: float) -> dict[str, float]:
    """Per-layer values for the traced portion of one run.  Totals cover the
    traced portion (one operation, or one pass over the triage stream);
    shares are against `base_seconds`, that portion's wall time."""
    c, tot = T.counters, T.total
    out: dict[str, float] = {
        "nn.train_detector_s": tot.get("nn.train.detector", 0.0),
        "nn.train_classifier_s": tot.get("nn.train.classifier", 0.0),
        "fhmc.train_sbd_s": tot.get("fhmc.train_sbd", 0.0),
        "nn.adam_step_calls": sum(v for k, v in T.calls.items() if k.endswith(".adam_step")),
        "nn.predict_proba_us": _per_call(T, "nn.predict_proba", 1e6),
        "nn.predict_proba_calls": T.calls.get("nn.predict_proba", 0),
        "nn.sbd.final_loss": float(c.get("nn.sbd.final_loss", 0.0)),
        "nn.epochs": c.get("nn.epochs", 0),
        "mining.gspan_mine_s": tot.get("mining.gspan_mine", 0.0),
        "mining.select_discriminative_s": tot.get("mining.select_discriminative", 0.0),
        "mining.patterns_reported": c.get("mining.patterns_reported", 0),
        "mining.sgea_keep_ratio": (
            c["mining.sgea_kept"] / c["mining.sgea_mined"] if c.get("mining.sgea_mined") else 0.0
        ),
        "features.extract_features_us": _per_call(T, "features.extract_features", 1e6),
        "features.extract_features_calls": T.calls.get("features.extract_features", 0),
        "graph.parse_graph_us": _per_call(T, "graph.parse_graph", 1e6),
        "fhmc.rank_patterns_s": tot.get("fhmc.rank_patterns", 0.0),
        "fhmc.encode_ms": _per_call(T, "fhmc.encode", 1e3),
        "fhmc.encode_timeouts": c.get("fhmc.encode_timeouts", 0),
        "fhmc.screen_fraction": (
            c.get("fhmc.screen_verdicts", 0) / T.calls["fhmc.classify_pipeline"]
            if T.calls.get("fhmc.classify_pipeline") else 0.0
        ),
        "adversarial.gea_attack_s": tot.get("adversarial.gea_attack", 0.0),
        "adversarial.sgea_ms_per_victim": _per_call(T, "adversarial.sgea_attack", 1e3),
        "adversarial.sgea_queries": c.get("adversarial.sgea_queries", 0),
        "corpus.generate_s": tot.get("corpus.generate", 0.0),
        "experiment.self_s": T.self_time.get("experiment.run", 0.0),
        "trace.overhead_pct": overhead_pct,
    }
    for role in ("sbd", "detector"):
        steps = T.calls.get(f"nn.{role}.adam_step", 0)
        out[f"nn.{role}.adam_step_ms"] = _per_call(T, f"nn.{role}.adam_step", 1e3)
        for kind in ("conv_forward", "conv_backward"):
            secs = tot.get(f"nn.{role}.{kind}", 0.0)
            out[f"nn.{role}.{kind}_ms"] = secs / steps * 1e3 if steps else 0.0
    for where in ("encode", "rank"):
        name = f"isomorphism.is_subgraph.{where}"
        calls = T.calls.get(name, 0)
        out[f"isomorphism.is_subgraph_calls.{where}"] = calls
        out[f"isomorphism.is_subgraph_us.{where}"] = _per_call(T, name, 1e6)
        out[f"isomorphism.hit_ratio.{where}"] = (
            c.get(f"isomorphism.hits.{where}", 0) / calls if calls else 0.0
        )
    by_module = T.self_by_module()
    for m in MODULES:
        out[f"self_share.{m}"] = 100.0 * by_module.get(m, 0.0) / base_seconds
    missing = set(MOVES) - set(out)
    if missing:
        raise AssertionError(f"per-layer metrics not computed: {sorted(missing)}")
    return out
