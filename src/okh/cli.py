"""Command line interface: synth, build, train, retrieve, eval.

Exit codes: 0 on success, 2 for usage/config/schema problems, 1 for runtime
failures. A JSON config file supplies defaults; explicit flags win.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from typing import Any, Sequence

from okh.corpus import QAItem, GroupScenario, generate_synthetic
from okh.embedding import (
    DEFAULT_LOCAL_DIM,
    EmbeddingCache,
    EmbeddingStore,
    LocalHashingEmbedder,
    RemoteEmbeddingClient,
)
from okh.errors import OkhError, SchemaError
from okh.evaluation import (
    AblationVariant,
    format_report_table,
    run_ablation,
    variant_transition,
    variant_weights,
)
from okh.evidence import format_trajectory
from okh.hypergraph import KnowledgeHypergraph, merge_facts
from okh.precedence import PrecedenceIndex
from okh.retrieval import (
    RetrievalWeights,
    Retriever,
    ScopeConfig,
    SearchConfig,
)
from okh.transition import TrainingConfig, TransitionModel, build_pairs, train

_PROVIDER_DIMS = {"local": DEFAULT_LOCAL_DIM, "remote": 1536}
_PROVIDER_RANKS = {"local": 32, "remote": 64}

# Config file keys may use the bare flag spelling for reserved words.
_CONFIG_ALIASES = {"lambda": "lambda_"}
# Config values restricted to a set, as the matching flags' choices are.
_CONFIG_CHOICES = {"provider": tuple(_PROVIDER_DIMS)}


def _write_json(path: str, payload: Any) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(
            json.dumps(payload, sort_keys=True, ensure_ascii=False, indent=2, allow_nan=False) + "\n"
        )


def _merged(ns: argparse.Namespace, defaults: dict[str, Any]) -> dict[str, Any]:
    values = dict(defaults)
    config_path = getattr(ns, "config", None)
    if config_path:
        try:
            with open(config_path, encoding="utf-8") as handle:
                loaded = json.load(handle)
        except (OSError, json.JSONDecodeError) as exc:
            raise SchemaError("config", f"cannot read config file: {exc}") from exc
        if not isinstance(loaded, dict):
            raise SchemaError("config", "config file must hold a JSON object")
        for raw_key, value in loaded.items():
            key = _CONFIG_ALIASES.get(raw_key, raw_key)
            if key not in defaults:
                raise SchemaError(f"config.{raw_key}", "unknown option")
            problem = _type_problem(value, defaults[key], _CONFIG_CHOICES.get(key))
            if problem:
                raise SchemaError(f"config.{raw_key}", problem)
            values[key] = value
    for key in defaults:
        flag = getattr(ns, key, None)
        if flag is not None:
            values[key] = flag
    return values


def _type_problem(value: Any, default: Any, choices: Sequence[str] | None) -> str:
    """Why ``value`` cannot stand in for ``default``, or "" if it can.

    The default declares the type: integers must be JSON integers, floats
    finite numbers, strings strings and lists lists of strings.
    """
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    if isinstance(default, float):
        try:
            ok = number and math.isfinite(value)
        except OverflowError:  # an integer beyond the float range
            ok = False
        expected = "a finite number"
    elif isinstance(default, int):
        ok = number and isinstance(value, int)
        expected = "an integer"
    elif isinstance(default, list):
        ok = isinstance(value, list) and all(isinstance(item, str) for item in value)
        expected = "a list of strings"
    else:
        ok = isinstance(value, str) and (choices is None or value in choices)
        expected = f"one of {', '.join(choices)}" if choices else "a string"
    return "" if ok else f"expected {expected}, got {json.dumps(value, allow_nan=True)}"


def _make_embedder(values: dict[str, Any]):
    provider = values["provider"]
    dim = values["dim"] or _PROVIDER_DIMS[provider]
    if provider == "remote":
        if not values["endpoint"] or not values["model_name"]:
            raise SchemaError("provider", "remote embedding needs --endpoint and --model-name")
        return RemoteEmbeddingClient(values["endpoint"], values["model_name"], dim=dim)
    return LocalHashingEmbedder(dim)


def _load_graph(values: dict[str, Any]) -> tuple[KnowledgeHypergraph, PrecedenceIndex]:
    graph, direct = KnowledgeHypergraph.load_snapshot(values["snapshot"])
    if direct:
        precedence = PrecedenceIndex.from_direct_edges(graph, direct)
    else:
        precedence = PrecedenceIndex.build(graph)
    return graph, precedence


def _make_store(graph: KnowledgeHypergraph, values: dict[str, Any]) -> EmbeddingStore:
    embedder = _make_embedder(values)
    cache = None
    if values.get("cache"):
        cache = EmbeddingCache(values["cache"], embedder.dim, embedder.identity)
    store = EmbeddingStore.build(graph, embedder, cache)
    if cache is not None:
        cache.save()
    return store


def _load_retriever(values: dict[str, Any]) -> Retriever:
    """Snapshot, embeddings and checkpoint, refusing a checkpoint of another dimension."""
    graph, precedence = _load_graph(values)
    store = _make_store(graph, values)
    model = TransitionModel.load(values["checkpoint"])
    if model.dim != store.dim:
        raise SchemaError(
            "checkpoint", f"checkpoint is {model.dim}-d but embeddings are {store.dim}-d"
        )
    return Retriever(graph, store, precedence, model)


def _weights(values: dict[str, Any]) -> RetrievalWeights:
    return RetrievalWeights(
        lambda_coherence=float(values["lambda_"]),
        mu_precedence=float(values["mu"]),
        nu_continuity=float(values["nu"]),
        rho_coverage=float(values["rho"]),
    )


def _search_config(values: dict[str, Any]) -> SearchConfig:
    return SearchConfig(
        beam_width=int(values["beam"]),
        trajectory_length=int(values["length"]),
        num_trajectories=int(values["paths"]),
    )


def _scope_config(values: dict[str, Any]) -> ScopeConfig:
    return ScopeConfig(
        top_k=int(values["topk"]),
        pool_cap=int(values["cap"]),
        group_reserve_fraction=float(values["reserve"]),
    )


# Flag defaults mirror the library dataclasses so they cannot drift.
_DEFAULT_WEIGHTS = RetrievalWeights()
_DEFAULT_SEARCH = SearchConfig()
_DEFAULT_SCOPE = ScopeConfig()

_PROVIDER_DEFAULTS: dict[str, Any] = {
    "provider": "local",
    "endpoint": "",
    "model_name": "",
    "dim": 0,
    "cache": "",
}

_RETRIEVAL_DEFAULTS: dict[str, Any] = {
    **_PROVIDER_DEFAULTS,
    "lambda_": _DEFAULT_WEIGHTS.lambda_coherence,
    "mu": _DEFAULT_WEIGHTS.mu_precedence,
    "nu": _DEFAULT_WEIGHTS.nu_continuity,
    "rho": _DEFAULT_WEIGHTS.rho_coverage,
    "beam": _DEFAULT_SEARCH.beam_width,
    "length": _DEFAULT_SEARCH.trajectory_length,
    "paths": _DEFAULT_SEARCH.num_trajectories,
    "topk": _DEFAULT_SCOPE.top_k,
    "cap": _DEFAULT_SCOPE.pool_cap,
    "reserve": _DEFAULT_SCOPE.group_reserve_fraction,
}


def _add_provider_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--provider", choices=("local", "remote"))
    parser.add_argument("--endpoint")
    parser.add_argument("--model-name", dest="model_name")
    parser.add_argument("--dim", type=int)
    parser.add_argument("--cache")


def _add_retrieval_flags(parser: argparse.ArgumentParser) -> None:
    _add_provider_flags(parser)
    parser.add_argument("--lambda", dest="lambda_", type=float)
    parser.add_argument("--mu", type=float)
    parser.add_argument("--nu", type=float)
    parser.add_argument("--rho", type=float)
    parser.add_argument("--beam", type=int)
    parser.add_argument("--length", type=int)
    parser.add_argument("--paths", type=int)
    parser.add_argument("--topk", type=int)
    parser.add_argument("--cap", type=int)
    parser.add_argument("--reserve", type=float)


def _cmd_synth(ns: argparse.Namespace) -> int:
    values = _merged(ns, {"seed": 0, "groups": 5, "horizons": 3, "out": "."})
    corpus = generate_synthetic(
        seed=int(values["seed"]),
        n_groups=int(values["groups"]),
        horizons_per_group=int(values["horizons"]),
    )
    os.makedirs(values["out"], exist_ok=True)
    facts_path = os.path.join(values["out"], "facts.jsonl")
    qa_path = os.path.join(values["out"], "qa.json")
    with open(facts_path, "w", encoding="utf-8") as handle:
        handle.write(corpus.facts_jsonl())
    with open(qa_path, "w", encoding="utf-8") as handle:
        handle.write(corpus.qa_json())
    print(
        f"wrote {len(corpus.facts)} facts to {facts_path} and"
        f" {len(corpus.qa)} questions to {qa_path}"
    )
    return 0


def _cmd_build(ns: argparse.Namespace) -> int:
    values = _merged(ns, {"corpus": [], "snapshot": ""})
    if not values["corpus"] or not values["snapshot"]:
        raise SchemaError("build", "--corpus and --snapshot are required")
    batches = []
    for path in values["corpus"]:
        batch = []
        with open(path, encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if line:
                    batch.append(json.loads(line))
        batches.append(batch)
    graph = merge_facts(batches)
    precedence = PrecedenceIndex.build(graph)
    graph.save_snapshot(values["snapshot"], precedence.direct_edges())
    print(
        f"built hypergraph with {len(graph.entities)} entities,"
        f" {len(graph.hyperedges)} hyperedges,"
        f" {len(graph.groups)} groups -> {values['snapshot']}"
    )
    return 0


def _cmd_train(ns: argparse.Namespace) -> int:
    defaults: dict[str, Any] = {
        "snapshot": "",
        "checkpoint": "",
        **_PROVIDER_DEFAULTS,
        "rank": 0,
        "seed": 0,
        "epochs": 5,
        "alpha": 0.5,
        "negatives": 64,
        "step": 0.01,
        "batch": 128,
    }
    values = _merged(ns, defaults)
    if not values["snapshot"] or not values["checkpoint"]:
        raise SchemaError("train", "--snapshot and --checkpoint are required")
    config = TrainingConfig(
        alpha=float(values["alpha"]),
        negatives_per_example=int(values["negatives"]),
        step_size=float(values["step"]),
        epochs=int(values["epochs"]),
        batch_size=int(values["batch"]),
        seed=int(values["seed"]),
    )
    graph, precedence = _load_graph(values)
    store = _make_store(graph, values)
    rank = int(values["rank"]) or _PROVIDER_RANKS[values["provider"]]
    model = TransitionModel.create(store.dim, rank, seed=int(values["seed"]))
    pairs = build_pairs(graph, precedence, seed=int(values["seed"]))
    history = train(model, pairs, store, config)
    model.save(values["checkpoint"])
    losses = " ".join(f"{loss:.6f}" for loss in history)
    print(
        f"trained {model.param_count} parameters on {len(pairs.positives)} positive pairs;"
        f" epoch losses: {losses or 'none'} -> {values['checkpoint']}"
    )
    return 0


def _cmd_retrieve(ns: argparse.Namespace) -> int:
    defaults: dict[str, Any] = {
        "snapshot": "",
        "checkpoint": "",
        "query": "",
        "group": "",
        "variant": "full",
        "out": "",
        **_RETRIEVAL_DEFAULTS,
    }
    values = _merged(ns, defaults)
    for key in ("snapshot", "checkpoint", "query"):
        if not values[key]:
            raise SchemaError("retrieve", f"--{key} is required")
    weights, search, scope = _weights(values), _search_config(values), _scope_config(values)
    retriever = _load_retriever(values)
    if values["group"] and values["group"] not in retriever.hypergraph.groups:
        raise SchemaError("group", f"unknown group {values['group']!r}")
    variant = AblationVariant(values["variant"])
    trajectories = retriever.retrieve(
        values["query"],
        weights=variant_weights(variant, weights),
        search=search,
        scope=scope,
        query_group=values["group"] or None,
        transition=variant_transition(variant),
    )
    result = retriever.result_dict(values["query"], trajectories)
    print(json.dumps(result, sort_keys=True, ensure_ascii=False, indent=2, allow_nan=False))
    for i, trajectory in enumerate(trajectories, start=1):
        print(f"\n=== Trajectory {i} ===")
        print(format_trajectory(trajectory, retriever.hypergraph))
    if values["out"]:
        _write_json(values["out"], result)
    return 0


def _cmd_eval(ns: argparse.Namespace) -> int:
    defaults: dict[str, Any] = {
        "snapshot": "",
        "checkpoint": "",
        "qa": "",
        "variant": "all",
        "seed": 0,
        "out": "",
        **_RETRIEVAL_DEFAULTS,
    }
    values = _merged(ns, defaults)
    for key in ("snapshot", "checkpoint", "qa"):
        if not values[key]:
            raise SchemaError("eval", f"--{key} is required")
    # The QA file is checked before the expensive load; only group
    # membership needs the graph.
    with open(values["qa"], encoding="utf-8") as handle:
        try:
            qa_raw = json.load(handle)
        except json.JSONDecodeError as exc:
            raise SchemaError("qa", f"cannot parse QA file: {exc}") from exc
    if not isinstance(qa_raw, list):
        raise SchemaError("qa", "expected a JSON array of questions")
    qa_items = [QAItem.from_dict(raw, f"qa[{index}]") for index, raw in enumerate(qa_raw)]
    weights, search, scope = _weights(values), _search_config(values), _scope_config(values)
    retriever = _load_retriever(values)
    for index, item in enumerate(qa_items):
        if item.group_id not in retriever.hypergraph.groups:
            raise SchemaError(f"qa[{index}].group", f"unknown group {item.group_id!r}")
    scenarios = [
        GroupScenario(
            group_id=group,
            storm="",
            port="",
            horizons=(),
            ground_truth=tuple(retriever.precedence.trajectory(group)),
        )
        for group in sorted(retriever.hypergraph.groups)
    ]

    if values["variant"] == "all":
        variants = list(AblationVariant)
    else:
        variants = [AblationVariant(values["variant"])]
    reports = [
        run_ablation(
            retriever,
            qa_items,
            scenarios,
            variant,
            weights=weights,
            search=search,
            scope=scope,
            seed=int(values["seed"]),
        )
        for variant in variants
    ]
    print(format_report_table(reports))
    if values["out"]:
        _write_json(values["out"], [report.to_json_dict() for report in reports])
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="okh",
        description="Order-aware knowledge hypergraph: build, train, retrieve, evaluate.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_synth = sub.add_parser("synth", help="generate a synthetic scenario corpus")
    p_synth.add_argument("--config")
    p_synth.add_argument("--seed", type=int)
    p_synth.add_argument("--groups", type=int)
    p_synth.add_argument("--horizons", type=int)
    p_synth.add_argument("--out")
    p_synth.set_defaults(func=_cmd_synth)

    p_build = sub.add_parser("build", help="merge fact files into a hypergraph snapshot")
    p_build.add_argument("--config")
    p_build.add_argument("--corpus", nargs="+")
    p_build.add_argument("--snapshot")
    p_build.set_defaults(func=_cmd_build)

    p_train = sub.add_parser("train", help="train the transition model on a snapshot")
    p_train.add_argument("--config")
    p_train.add_argument("--snapshot")
    p_train.add_argument("--checkpoint")
    _add_provider_flags(p_train)
    p_train.add_argument("--rank", type=int)
    p_train.add_argument("--seed", type=int)
    p_train.add_argument("--epochs", type=int)
    p_train.add_argument("--alpha", type=float)
    p_train.add_argument("--negatives", type=int)
    p_train.add_argument("--step", type=float)
    p_train.add_argument("--batch", type=int)
    p_train.set_defaults(func=_cmd_train)

    p_retrieve = sub.add_parser("retrieve", help="retrieve evidence trajectories for a query")
    p_retrieve.add_argument("--config")
    p_retrieve.add_argument("--snapshot")
    p_retrieve.add_argument("--checkpoint")
    p_retrieve.add_argument("--query")
    p_retrieve.add_argument("--group")
    p_retrieve.add_argument("--variant", choices=[v.value for v in AblationVariant])
    p_retrieve.add_argument("--out")
    _add_retrieval_flags(p_retrieve)
    p_retrieve.set_defaults(func=_cmd_retrieve)

    p_eval = sub.add_parser("eval", help="run ablation evaluation over generated questions")
    p_eval.add_argument("--config")
    p_eval.add_argument("--snapshot")
    p_eval.add_argument("--checkpoint")
    p_eval.add_argument("--qa")
    p_eval.add_argument("--variant", choices=[v.value for v in AblationVariant] + ["all"])
    p_eval.add_argument("--seed", type=int)
    p_eval.add_argument("--out")
    _add_retrieval_flags(p_eval)
    p_eval.set_defaults(func=_cmd_eval)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return ns.func(ns)
    except (SchemaError, FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OkhError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
