"""Span recorder that wraps okh's public entry points from outside the package.

The benchmark never edits okh. In a traced run it replaces each entry point
listed in ``ENTRY_POINTS`` with a wrapper that records a span (name, start,
end, parent, request id) and restores the originals afterwards. Module-level
functions are replaced in every ``okh`` module that imported them, so calls
such as ``okh.cli``'s own ``format_trajectory`` or ``okh.evaluation``'s
``beam_search`` are seen too. Spans stay in memory until ``write``.
"""

from __future__ import annotations

import contextlib
import importlib
import inspect
import json
import statistics
import sys
import time
from typing import Any, Callable

from okh.evaluation import AblationVariant


def _ablation_name(bound: inspect.BoundArguments) -> str:
    return f"evaluation.ablation.{bound.arguments['variant'].value}"


def _matrix_name(bound: inspect.BoundArguments) -> str:
    return f"retrieval.matrix_{bound.arguments['kind']}"


def _cli_name(bound: inspect.BoundArguments) -> str:
    argv = bound.arguments.get("argv") or ["?"]
    return f"cli.{argv[0]}"


def _pool_size(bound: inspect.BoundArguments, result: Any) -> dict:
    return {"pool_size": len(result)}


def extensions_scored(pool: int, config) -> int:
    """Candidate extensions beam search scores for a pool of ``pool`` edges.

    Beams start from the top ``2 * beam_width`` singletons; each later round
    extends every kept beam by every unused candidate and keeps at most
    ``beam_width`` of them.
    """
    beams = min(2 * config.beam_width, pool)
    total = 0
    for used in range(1, config.trajectory_length):
        extensions = beams * max(pool - used, 0)
        if extensions == 0:
            break
        total += extensions
        beams = min(config.beam_width, extensions)
    return total


def _beam_counts(bound: inspect.BoundArguments, result: Any) -> dict:
    return {
        "extensions_scored": extensions_scored(
            len(bound.arguments["candidate_ids"]), bound.arguments["config"]
        )
    }


# (module, attribute path, span name or a callable naming the span from the
# bound call arguments, optional callable returning counts from the result).
ENTRY_POINTS: tuple[tuple[str, str, Any, Callable | None], ...] = (
    ("okh.corpus", "generate_synthetic", "corpus.generate", None),
    ("okh.hypergraph", "merge_facts", "hypergraph.merge", None),
    ("okh.hypergraph", "KnowledgeHypergraph.save_snapshot", "hypergraph.snapshot_save", None),
    ("okh.hypergraph", "KnowledgeHypergraph.load_snapshot", "hypergraph.snapshot_load", None),
    ("okh.precedence", "PrecedenceIndex.build", "precedence.build", None),
    ("okh.precedence", "PrecedenceIndex.from_direct_edges", "precedence.from_direct", None),
    ("okh.embedding", "EmbeddingStore.build", "embedding.store_build", None),
    ("okh.embedding", "EmbeddingStore.embed_query", "embedding.embed_query", None),
    ("okh.transition", "build_pairs", "transition.build_pairs", None),
    ("okh.transition", "train", "transition.train", None),
    ("okh.transition", "contrastive_loss", "transition.contrastive_loss", None),
    ("okh.transition", "TransitionModel.save", "transition.checkpoint_save", None),
    ("okh.transition", "TransitionModel.load", "transition.checkpoint_load", None),
    ("okh.retrieval", "scope_candidates", "retrieval.scope", _pool_size),
    ("okh.retrieval", "beam_search", "retrieval.beam", _beam_counts),
    ("okh.retrieval", "Retriever.retrieve", "retrieval.retrieve", None),
    ("okh.retrieval", "Retriever.transition_matrix", _matrix_name, None),
    ("okh.evaluation", "run_ablation", _ablation_name, None),
    ("okh.evidence", "format_trajectory", "evidence.render", None),
    ("okh.cli", "main", _cli_name, None),
)

# Cache lookups are too frequent for a span each; they add hit and miss
# counts to every span open at the time of the lookup.
CACHE_LOOKUP = ("okh.embedding", "EmbeddingCache.lookup")


def _owner(module: str, path: str) -> tuple[Any, str]:
    """The object that holds the attribute at ``path``, and its name there."""
    owner: Any = importlib.import_module(module)
    *classes, attr = path.split(".")
    for name in classes:
        owner = getattr(owner, name)
    return owner, attr


class Tracer:
    """In-memory span recorder with install/uninstall of okh wrappers."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._request: str | None = None
        self._patches: list[tuple[Any, str, Any, Any]] | None = None
        self.installed = False

    # -- recording ---------------------------------------------------------

    def _open(self, name: str) -> int:
        index = len(self.spans)
        self.spans.append(
            {
                "name": name,
                "start": time.perf_counter(),
                "end": None,
                "parent": self._stack[-1] if self._stack else None,
                "request": self._request,
            }
        )
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index]["end"] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def op(self, kind: str, request: str):
        """Root span for one benchmark operation; nested spans share its id."""
        previous = self._request
        self._request = request
        index = self._open(f"op.{kind}")
        try:
            yield
        finally:
            self._close(index)
            self._request = previous

    def _count(self, key: str) -> None:
        for index in self._stack:
            counts = self.spans[index]
            counts[key] = counts.get(key, 0) + 1

    # -- patching ----------------------------------------------------------

    def _wrap(self, func: Callable, name: Any, describe: Callable | None) -> Callable:
        signature = inspect.signature(func)
        needs_binding = callable(name) or describe is not None

        def wrapper(*args, **kwargs):
            bound = None
            if needs_binding:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
            index = self._open(name(bound) if callable(name) else name)
            try:
                result = func(*args, **kwargs)
            finally:
                self._close(index)
            if describe is not None:
                self.spans[index].update(describe(bound, result))
            return result

        return wrapper

    def _wrap_lookup(self, func: Callable) -> Callable:
        def lookup(cache, text):
            vector = func(cache, text)
            self._count("cache_misses" if vector is None else "cache_hits")
            return vector

        return lookup

    def _build_patches(self) -> list[tuple[Any, str, Any, Any]]:
        patches = []
        namespaces = [
            loaded
            for loaded_name, loaded in sorted(sys.modules.items())
            if loaded is not None and loaded_name.split(".")[0] == "okh"
        ]
        for module, path, name, describe in ENTRY_POINTS:
            owner, attr = _owner(module, path)
            if inspect.isclass(owner):
                raw = owner.__dict__[attr]
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self._wrap(raw.__func__, name, describe))
                else:
                    wrapped = self._wrap(raw, name, describe)
                patches.append((owner, attr, raw, wrapped))
                continue
            original = getattr(owner, attr)
            wrapped = self._wrap(original, name, describe)
            for namespace in namespaces:
                for key, value in vars(namespace).items():
                    if value is original:
                        patches.append((namespace, key, original, wrapped))
        cache_cls, attr = _owner(*CACHE_LOOKUP)
        raw = cache_cls.__dict__[attr]
        patches.append((cache_cls, attr, raw, self._wrap_lookup(raw)))
        return patches

    def install(self) -> None:
        if self._patches is None:
            self._patches = self._build_patches()
        for owner, attr, _, wrapped in self._patches:
            setattr(owner, attr, wrapped)
        self.installed = True

    def uninstall(self) -> None:
        for owner, attr, original, _ in self._patches or ():
            setattr(owner, attr, original)
        self.installed = False

    @contextlib.contextmanager
    def suspended(self):
        """Run the block with the original, unwrapped entry points."""
        was_installed = self.installed
        if was_installed:
            self.uninstall()
        try:
            yield
        finally:
            if was_installed:
                self.install()

    # -- reporting ---------------------------------------------------------

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its child spans cover."""
        own = [span["end"] - span["start"] for span in self.spans]
        for span in self.spans:
            if span["parent"] is not None:
                own[span["parent"]] -= span["end"] - span["start"]
        return own

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span, sort_keys=True) + "\n")


class NullTracer:
    """Stand-in used by untraced runs: records nothing, wraps nothing."""

    installed = False

    def op(self, kind: str, request: str):
        return contextlib.nullcontext()

    def suspended(self):
        return contextlib.nullcontext()


def median_or_zero(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def layer_metrics(tracer: Tracer, native_ops: tuple[str, ...], dominant: tuple[str, ...]) -> dict:
    """Per-layer numbers from recorded spans.

    Times are median self time per call in ms, except the inclusive
    ``evaluation.ablation_ms.*``.
    ``trace.dominant_share`` is the share of the workload's native operation
    time that the dominant layers' spans cover.
    """
    own = tracer.self_times()
    by_name: dict[str, list[int]] = {}
    for index, span in enumerate(tracer.spans):
        by_name.setdefault(span["name"], []).append(index)

    def self_ms(name: str) -> float:
        return median_or_zero([1000.0 * own[i] for i in by_name.get(name, [])])

    def inclusive(index: int) -> float:
        span = tracer.spans[index]
        return span["end"] - span["start"]

    def field(name: str, key: str) -> list[float]:
        return [tracer.spans[i].get(key, 0) for i in by_name.get(name, [])]

    metrics = {
        "retrieval.beam_ms": self_ms("retrieval.beam"),
        "retrieval.extensions_scored": median_or_zero(field("retrieval.beam", "extensions_scored")),
        "retrieval.scope_ms": self_ms("retrieval.scope"),
        "retrieval.pool_size": median_or_zero(field("retrieval.scope", "pool_size")),
        "retrieval.matrix_learned_ms": self_ms("retrieval.matrix_learned"),
        "retrieval.matrix_heuristic_ms": self_ms("retrieval.matrix_heuristic"),
        "evidence.render_ms": self_ms("evidence.render"),
        "hypergraph.merge_ms": self_ms("hypergraph.merge"),
        "hypergraph.snapshot_save_ms": self_ms("hypergraph.snapshot_save"),
        "hypergraph.snapshot_load_ms": self_ms("hypergraph.snapshot_load"),
        "precedence.build_ms": self_ms("precedence.build"),
        "precedence.from_direct_ms": self_ms("precedence.from_direct"),
        "embedding.store_build_ms": self_ms("embedding.store_build"),
        "embedding.embed_query_ms": self_ms("embedding.embed_query"),
        "transition.build_pairs_ms": self_ms("transition.build_pairs"),
        "transition.checkpoint_load_ms": self_ms("transition.checkpoint_load"),
        "cli.build_ms": self_ms("cli.build"),
        "cli.retrieve_ms": self_ms("cli.retrieve"),
        "corpus.generate_ms": self_ms("corpus.generate"),
    }
    hits = sum(field("cli.retrieve", "cache_hits"))
    misses = sum(field("cli.retrieve", "cache_misses"))
    metrics["embedding.cache_hits"] = median_or_zero(field("cli.retrieve", "cache_hits"))
    metrics["embedding.cache_misses"] = median_or_zero(field("cli.retrieve", "cache_misses"))
    metrics["embedding.cache_hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0

    for variant in AblationVariant:
        name = f"evaluation.ablation.{variant.value}"
        metrics[f"evaluation.ablation_ms.{variant.value}"] = median_or_zero(
            [1000.0 * inclusive(i) for i in by_name.get(name, [])]
        )

    native = [i for i, span in enumerate(tracer.spans) if span["name"] in native_ops]
    native_s = sum(inclusive(i) for i in native)
    covered = 0.0
    for index, span in enumerate(tracer.spans):
        if span["name"] not in dominant:
            continue
        # Count only outermost dominant spans inside a native operation.
        parent = span["parent"]
        inside_native = False
        nested = False
        while parent is not None:
            name = tracer.spans[parent]["name"]
            nested = nested or name in dominant
            inside_native = inside_native or name in native_ops
            parent = tracer.spans[parent]["parent"]
        if inside_native and not nested:
            covered += inclusive(index)
    metrics["trace.dominant_share"] = covered / native_s if native_s else 0.0
    metrics["trace.spans"] = float(len(tracer.spans))
    return metrics
