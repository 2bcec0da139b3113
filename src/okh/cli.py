"""Command line interface: synth, build, train, retrieve, eval.

Exit codes: 0 on success, 2 for usage/config/schema problems and unreadable
or unwritable files, 1 for runtime failures. Each option is declared once, in
``_COMMANDS``: its default types both the flag and the ``--config`` key. A JSON
config file supplies defaults; explicit flags win.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import gc
import json
import math
import os
import sys
from typing import Any, Callable, Iterator, NamedTuple, Sequence

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


def _json_text(payload: Any) -> str:
    """The one JSON layout of the CLI's stdout and ``--out`` files."""
    return json.dumps(payload, sort_keys=True, ensure_ascii=False, indent=2, allow_nan=False)


def _write_json(path: str, payload: Any) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(_json_text(payload) + "\n")


class _Choice(NamedTuple):
    """A string option restricted to ``choices``; the default need not come first."""

    default: str
    choices: tuple[str, ...]


class _Command(NamedTuple):
    """A subcommand: help line, runner, the options it needs set, and each
    option's default (or ``_Choice``) by argparse dest, in ``--help`` order."""

    help: str
    run: Callable[[dict[str, Any]], int]
    required: tuple[str, ...]
    options: dict[str, Any]


def _flag(dest: str) -> str:
    return "--" + dest.rstrip("_").replace("_", "-")


def _merged(ns: argparse.Namespace, options: dict[str, Any]) -> dict[str, Any]:
    """Option values, each of its entry's type: table defaults, then the
    ``--config`` file, then flags."""
    values = {
        key: entry.default if isinstance(entry, _Choice) else entry
        for key, entry in options.items()
    }
    if ns.config:
        try:
            with open(ns.config, encoding="utf-8") as handle:
                loaded = json.load(handle)
        except (OSError, ValueError) as exc:
            raise SchemaError("config", f"cannot read config file: {exc}") from exc
        if not isinstance(loaded, dict):
            raise SchemaError("config", "config file must hold a JSON object")
        for raw_key, value in loaded.items():
            # Keys are dests, which may drop the trailing "_" of a reserved word.
            key = raw_key if raw_key in options else f"{raw_key}_"
            if key not in options:
                raise SchemaError(f"config.{raw_key}", "unknown option")
            problem = _type_problem(value, options[key])
            if problem:
                raise SchemaError(f"config.{raw_key}", problem)
            values[key] = float(value) if isinstance(options[key], float) else value
    for key in options:
        flag = getattr(ns, key)
        if flag is not None:
            values[key] = flag
    return values


def _type_problem(value: Any, entry: Any) -> str:
    """Why ``value`` cannot stand in for the table entry ``entry``, or "" if it can.

    The entry declares the type: integers must be JSON integers, floats
    finite numbers, strings strings (one of the choices of a ``_Choice``)
    and lists lists of strings.
    """
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    if isinstance(entry, _Choice):
        ok = isinstance(value, str) and value in entry.choices
        expected = f"one of {', '.join(entry.choices)}"
    elif isinstance(entry, float):
        try:
            ok = number and math.isfinite(value)
        except OverflowError:  # an integer beyond the float range
            ok = False
        expected = "a finite number"
    elif isinstance(entry, int):
        ok = number and isinstance(value, int)
        expected = "an integer"
    elif isinstance(entry, list):
        ok = isinstance(value, list) and all(isinstance(item, str) for item in value)
        expected = "a list of strings"
    else:
        ok = isinstance(value, str)
        expected = "a string"
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
    graph.check_horizons()
    return graph, PrecedenceIndex.from_direct_edges(graph, direct)


def _make_store(graph: KnowledgeHypergraph, embedder, values: dict[str, Any]) -> EmbeddingStore:
    cache = None
    if values["cache"]:
        cache = EmbeddingCache(values["cache"], embedder.dim, embedder.identity)
    store = EmbeddingStore.build(graph, embedder, cache)
    if cache is not None:
        cache.save()
    return store


def _load_retriever(values: dict[str, Any]) -> Retriever:
    """Checkpoint, snapshot and embeddings.

    The embedder, which reads no file, is made first, so a dimension out of
    its range exits before anything is loaded. The checkpoint is read and
    its dimension checked next, so a bad one exits before the snapshot load
    and writes no ``--cache`` file.
    """
    embedder = _make_embedder(values)
    model = TransitionModel.load(values["checkpoint"])
    if model.dim != embedder.dim:
        raise SchemaError(
            "checkpoint",
            f"{values['checkpoint']} is {model.dim}-d but embeddings are {embedder.dim}-d",
        )
    graph, precedence = _load_graph(values)
    return Retriever(graph, _make_store(graph, embedder, values), precedence, model)


# The option that sets each field of the settings `retrieve`, `eval` and
# `train` build.
_DEST_OF_FIELD = {
    "lambda_coherence": "lambda_",
    "mu_precedence": "mu",
    "nu_continuity": "nu",
    "rho_coverage": "rho",
    "beam_width": "beam",
    "trajectory_length": "length",
    "num_trajectories": "paths",
    "top_k": "topk",
    "pool_cap": "cap",
    "group_reserve_fraction": "reserve",
    "alpha": "alpha",
    "negatives_per_example": "negatives",
    "step_size": "step",
    "epochs": "epochs",
    "batch_size": "batch",
    "seed": "seed",
}


@contextlib.contextmanager
def _naming_flags() -> Iterator[None]:
    """Put the flag in front of a settings value refused in the block:
    ``--beam: beam_width must be <= 1024, got 1025``.

    Every refusal of the settings dataclasses opens with the field's name.
    """
    try:
        yield
    except ValueError as exc:
        dest = _DEST_OF_FIELD.get(str(exc).partition(" ")[0])
        if dest is None:
            raise
        raise ValueError(f"{_flag(dest)}: {exc}") from None


def _retrieval_settings(
    values: dict[str, Any],
) -> tuple[RetrievalWeights, SearchConfig, ScopeConfig]:
    with _naming_flags():
        weights = RetrievalWeights(
            lambda_coherence=values["lambda_"],
            mu_precedence=values["mu"],
            nu_continuity=values["nu"],
            rho_coverage=values["rho"],
        )
        search = SearchConfig(
            beam_width=values["beam"],
            trajectory_length=values["length"],
            num_trajectories=values["paths"],
        )
        scope = ScopeConfig(
            top_k=values["topk"],
            pool_cap=values["cap"],
            group_reserve_fraction=values["reserve"],
        )
    return weights, search, scope


_raw_decode = json.JSONDecoder().raw_decode


def _json_line(line: str) -> Any:
    """``json.loads(line)`` for a line with no white space at either end.

    ``raw_decode`` skips the set-up json.loads does per call; a line it
    does not decode whole goes to json.loads, for json.loads' own error.
    """
    try:
        value, end = _raw_decode(line)
        if end == len(line):
            return value
    except json.JSONDecodeError:
        pass
    return json.loads(line)


def _read_jsonl(path: str, field: str) -> Iterator[Any]:
    """The JSON value of each non-blank line of ``path``, read as iterated;
    a bad line names its number."""
    # Undecodable bytes come back as lone surrogates, which encode() refuses.
    with open(path, encoding="utf-8", errors="surrogateescape") as handle:
        for number, raw in enumerate(handle, start=1):
            line = raw.strip()
            if not line:
                continue
            try:
                line.encode("utf-8")
                value = _json_line(line)
            except UnicodeEncodeError:
                raise SchemaError(field, f"{path} line {number}: not valid UTF-8") from None
            except json.JSONDecodeError as exc:
                column = exc.colno + len(raw) - len(raw.lstrip())
                raise SchemaError(
                    field, f"{path} line {number} column {column}: {exc.msg}"
                ) from None
            yield value


def _cmd_synth(values: dict[str, Any]) -> int:
    corpus = generate_synthetic(
        seed=values["seed"],
        n_groups=values["groups"],
        horizons_per_group=values["horizons"],
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


def _cmd_build(values: dict[str, Any]) -> int:
    # Each file is read as the merge reaches it, and each fact is dropped
    # once merged, so the parsed facts never all exist at once. A file is
    # opened only when the files before it are merged.
    graph = merge_facts(
        [_read_jsonl(path, f"corpus[{index}]") for index, path in enumerate(values["corpus"])]
    )
    precedence = PrecedenceIndex.build(graph)
    graph.save_snapshot(values["snapshot"], precedence.direct_edges())
    print(
        f"built hypergraph with {len(graph.entities)} entities,"
        f" {len(graph.hyperedges)} hyperedges,"
        f" {len(graph.groups)} groups -> {values['snapshot']}"
    )
    return 0


def _cmd_train(values: dict[str, Any]) -> int:
    with _naming_flags():
        config = TrainingConfig(
            alpha=values["alpha"],
            negatives_per_example=values["negatives"],
            step_size=values["step"],
            epochs=values["epochs"],
            batch_size=values["batch"],
            seed=values["seed"],
        )
    # The model is made first, so a rank the dimension cannot hold exits
    # before the snapshot load.
    embedder = _make_embedder(values)
    rank = values["rank"] or _PROVIDER_RANKS[values["provider"]]
    model = TransitionModel.create(embedder.dim, rank, seed=values["seed"])
    graph, precedence = _load_graph(values)
    store = _make_store(graph, embedder, values)
    pairs = build_pairs(graph, precedence, seed=values["seed"])
    history = train(model, pairs, store, config)
    model.save(values["checkpoint"])
    losses = " ".join(f"{loss:.6f}" for loss in history)
    print(
        f"trained {model.param_count} parameters on {len(pairs.positives)} positive pairs;"
        f" epoch losses: {losses or 'none'} -> {values['checkpoint']}"
    )
    return 0


def _cmd_retrieve(values: dict[str, Any]) -> int:
    weights, search, scope = _retrieval_settings(values)
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
    print(_json_text(result))
    for i, trajectory in enumerate(trajectories, start=1):
        print(f"\n=== Trajectory {i} ===")
        print(format_trajectory(trajectory, retriever.hypergraph))
    if values["out"]:
        _write_json(values["out"], result)
    return 0


def _cmd_eval(values: dict[str, Any]) -> int:
    # The QA file is checked before the expensive load; only group
    # membership needs the graph.
    with open(values["qa"], encoding="utf-8") as handle:
        try:
            qa_raw = json.load(handle)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise SchemaError("qa", f"cannot parse QA file: {exc}") from exc
    if not isinstance(qa_raw, list):
        raise SchemaError("qa", "expected a JSON array of questions")
    qa_items = [QAItem.from_dict(raw, f"qa[{index}]") for index, raw in enumerate(qa_raw)]
    weights, search, scope = _retrieval_settings(values)
    retriever = _load_retriever(values)
    for index, item in enumerate(qa_items):
        if item.group_id not in retriever.hypergraph.groups:
            raise SchemaError(f"qa[{index}].group", f"unknown group {item.group_id!r}")
    scenarios = [
        GroupScenario(group, tuple(retriever.precedence.trajectory(group)))
        for group in sorted(retriever.hypergraph.groups)
    ]

    chosen = values["variant"]
    variants = list(AblationVariant) if chosen == "all" else [AblationVariant(chosen)]
    reports = [
        run_ablation(
            retriever,
            qa_items,
            scenarios,
            variant,
            weights=weights,
            search=search,
            scope=scope,
            seed=values["seed"],
        )
        for variant in variants
    ]
    print(format_report_table(reports))
    if values["out"]:
        _write_json(values["out"], [report.to_json_dict() for report in reports])
    return 0


# Defaults come from the library dataclasses so they cannot drift.
_WEIGHTS, _SEARCH, _SCOPE = RetrievalWeights(), SearchConfig(), ScopeConfig()
_TRAINING = TrainingConfig()
_VARIANTS = tuple(variant.value for variant in AblationVariant)

_PROVIDER_OPTIONS: dict[str, Any] = {
    "provider": _Choice("local", tuple(_PROVIDER_DIMS)),
    "endpoint": "",
    "model_name": "",
    "dim": 0,
    "cache": "",
}

_RETRIEVAL_OPTIONS: dict[str, Any] = {
    **_PROVIDER_OPTIONS,
    "lambda_": _WEIGHTS.lambda_coherence,
    "mu": _WEIGHTS.mu_precedence,
    "nu": _WEIGHTS.nu_continuity,
    "rho": _WEIGHTS.rho_coverage,
    "beam": _SEARCH.beam_width,
    "length": _SEARCH.trajectory_length,
    "paths": _SEARCH.num_trajectories,
    "topk": _SCOPE.top_k,
    "cap": _SCOPE.pool_cap,
    "reserve": _SCOPE.group_reserve_fraction,
}

_COMMANDS: dict[str, _Command] = {
    "synth": _Command(
        "generate a synthetic scenario corpus",
        _cmd_synth,
        (),
        {"seed": 0, "groups": 5, "horizons": 3, "out": "."},
    ),
    "build": _Command(
        "merge fact files into a hypergraph snapshot",
        _cmd_build,
        ("corpus", "snapshot"),
        {"corpus": [], "snapshot": ""},
    ),
    "train": _Command(
        "train the transition model on a snapshot",
        _cmd_train,
        ("snapshot", "checkpoint"),
        {
            "snapshot": "",
            "checkpoint": "",
            **_PROVIDER_OPTIONS,
            "rank": 0,
            "seed": _TRAINING.seed,
            "epochs": _TRAINING.epochs,
            "alpha": _TRAINING.alpha,
            "negatives": _TRAINING.negatives_per_example,
            "step": _TRAINING.step_size,
            "batch": _TRAINING.batch_size,
        },
    ),
    "retrieve": _Command(
        "retrieve evidence trajectories for a query",
        _cmd_retrieve,
        ("snapshot", "checkpoint", "query"),
        {
            "snapshot": "",
            "checkpoint": "",
            "query": "",
            "group": "",
            "variant": _Choice("full", _VARIANTS),
            "out": "",
            **_RETRIEVAL_OPTIONS,
        },
    ),
    "eval": _Command(
        "run ablation evaluation over generated questions",
        _cmd_eval,
        ("snapshot", "checkpoint", "qa"),
        {
            "snapshot": "",
            "checkpoint": "",
            "qa": "",
            "variant": _Choice("all", (*_VARIANTS, "all")),
            "seed": 0,
            "out": "",
            **_RETRIEVAL_OPTIONS,
        },
    ),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="okh",
        description="Order-aware knowledge hypergraph: build, train, retrieve, evaluate.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in _COMMANDS.items():
        subparser = sub.add_parser(name, help=command.help)
        subparser.add_argument("--config")
        for dest, entry in command.options.items():
            if isinstance(entry, _Choice):
                kind: dict[str, Any] = {"choices": entry.choices}
            elif isinstance(entry, list):
                kind = {"nargs": "+"}
            else:
                kind = {"type": type(entry)}
            subparser.add_argument(_flag(dest), dest=dest, **kind)
    return parser


# The parser `main` uses, built once per process; parsing leaves it unchanged.
_parser = functools.cache(build_parser)


def main(argv: Sequence[str] | None = None) -> int:
    """Run one command with the cyclic garbage collector paused.

    A command builds tens of thousands of containers that form no cycles,
    and the collector would walk them again and again; reference counting
    frees them all the same. The collector is re-enabled on every exit if it
    was enabled on entry, so an in-process caller gets back its own state.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _run(argv)
    finally:
        if enabled:
            gc.enable()


def _run(argv: Sequence[str] | None) -> int:
    try:
        ns = _parser().parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    command = _COMMANDS[ns.command]
    try:
        values = _merged(ns, command.options)
        for key in command.required:
            if not values[key]:
                raise SchemaError(ns.command, f"{_flag(key)} is required")
        return command.run(values)
    except (SchemaError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OkhError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
