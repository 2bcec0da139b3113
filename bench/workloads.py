"""The benchmark's workloads: set-up, timed operations and output checks.

Every workload runs the same phases on its own generated corpus, so every
workload reports every metric. Both train one epoch of the default
``TrainingConfig`` on their first three groups (``build_pairs`` +
``train``) and evaluate all eight ablation variants on the first group's
questions, once, in their first pass. They differ in size and in the
operation their passes repeat:

- query-wide asks every question of a 44-group corpus through
  ``Retriever.retrieve`` and ``format_trajectory``, and refreshes the newest
  group once per pass;
- refresh lets a 20-group corpus arrive one group at a time through
  ``okh.cli.main``.

A run makes at least ``Spec.passes`` passes and continues until ``seconds``
have passed. Each operation keeps its best time over the passes that ran
it, and run metrics are medians and percentiles over operations. Times of
untraced runs are scaled to a quiet host by ``hostspeed.HostSpeed``.

All okh calls go through module or class attributes (``okh.train``,
``okh.cli.main``, ...) so that a traced run sees them through the wrappers in
``tracing.py``. Checks run outside the timed regions, with tracing suspended.
The first pass checks every output in depth; later passes must reproduce it.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, replace

import numpy as np

import okh
import okh.cli

from hostspeed import HostSpeed

# The CLI's defaults for the local embedding provider.
DIM = 256
RANK = 32

DEFAULT_WEIGHTS = okh.RetrievalWeights()
DEFAULT_SEARCH = okh.SearchConfig()
DEFAULT_SCOPE = okh.ScopeConfig()
BOUNDED_TERMS = ("precedence", "continuity", "coverage")
# Training only prepares the model, so one epoch keeps runs short.
TRAIN_EPOCHS = 1
# Leading training groups whose questions the ablation eval asks.
EVAL_GROUPS = 1
OVERHEAD_PROBE_QUERIES = 20
OVERHEAD_PROBE_REPS = 3
BATCH_PROBE_REPS = 20


@dataclass(frozen=True)
class Spec:
    """Shape of one workload's generated inputs and the phase it repeats."""

    groups: int
    arriving: int  # groups that arrive one at a time in a refresh pass
    native: str  # "query" or "refresh": the operation each pass repeats
    passes: int = 3  # least number of passes; each operation keeps its best
    horizons: int = 3
    train_groups: int = 3
    setup_reps: int = 3

    @property
    def native_ops(self) -> tuple[str, ...]:
        return (f"op.{self.native}",)

    @property
    def dominant(self) -> tuple[str, ...]:
        return {
            "query": ("retrieval.beam", "retrieval.scope"),
            "refresh": ("cli.build", "cli.retrieve"),
        }[self.native]


WORKLOADS = {
    "query-wide": Spec(groups=44, arriving=1, native="query"),
    "refresh": Spec(groups=20, arriving=20, native="refresh"),
}

# Tiny shapes for the smoke mode: every phase and check runs in seconds.
SMOKE = {
    name: replace(
        spec, groups=3, arriving=min(spec.arriving, 3), horizons=2, train_groups=2,
        passes=2, setup_reps=2,
    )
    for name, spec in WORKLOADS.items()
}


class Op:
    """One checked operation; ``require`` records a failed check."""

    def __init__(self, label: str):
        self.label = label
        self.ok = True

    def require(self, condition: bool, message: str) -> bool:
        if not condition:
            if self.ok:
                print(f"check failed in {self.label}: {message}", file=sys.stderr)
            self.ok = False
        return bool(condition)


class Checker:
    """Counts attempted and failed operations."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    @contextlib.contextmanager
    def operation(self, label: str):
        self.attempted += 1
        op = Op(label)
        try:
            yield op
        except Exception:  # one failed operation must not end the run
            traceback.print_exc(file=sys.stderr)
            op.ok = False
        if not op.ok:
            self.failed += 1


@dataclass
class Inputs:
    corpus: okh.GeneratedCorpus
    train_ids: list[str]
    graph: okh.KnowledgeHypergraph
    precedence: okh.PrecedenceIndex
    store: okh.EmbeddingStore
    train_graph: okh.KnowledgeHypergraph
    train_precedence: okh.PrecedenceIndex
    train_store: okh.EmbeddingStore
    base: str | None  # facts of the groups present before a refresh pass
    batches: list[tuple[str, okh.QAItem]]  # arriving batch file, question asked after it


def _write_jsonl(path: str, facts: list[dict]) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for fact in facts:
            handle.write(json.dumps(fact, sort_keys=True, ensure_ascii=False) + "\n")


def build_inputs(spec: Spec, seed: int, directory: str) -> Inputs:
    """Generate the corpus, merge, order and embed it, and write batch files."""
    os.makedirs(directory, exist_ok=True)
    corpus = okh.generate_synthetic(
        seed=seed, n_groups=spec.groups, horizons_per_group=spec.horizons
    )
    graph = okh.merge_facts([corpus.facts])
    train_ids = [scenario.group_id for scenario in corpus.scenarios[: spec.train_groups]]
    train_graph = okh.merge_facts([[f for f in corpus.facts if f["group"] in train_ids]])

    arriving = [s.group_id for s in corpus.scenarios[spec.groups - spec.arriving :]]
    base = None
    before = [fact for fact in corpus.facts if fact["group"] not in arriving]
    if before:
        base = os.path.join(directory, "base.jsonl")
        _write_jsonl(base, before)
    batches = []
    for index, group in enumerate(arriving):
        path = os.path.join(directory, f"group{index:03d}.jsonl")
        _write_jsonl(path, [fact for fact in corpus.facts if fact["group"] == group])
        questions = [item for item in corpus.qa if item.group_id == group]
        batches.append((path, questions[index % len(questions)]))

    embedder = okh.LocalHashingEmbedder(DIM)
    return Inputs(
        corpus=corpus,
        train_ids=train_ids,
        graph=graph,
        precedence=okh.PrecedenceIndex.build(graph),
        store=okh.EmbeddingStore.build(graph, embedder),
        train_graph=train_graph,
        train_precedence=okh.PrecedenceIndex.build(train_graph),
        train_store=okh.EmbeddingStore.build(train_graph, embedder),
        base=base,
        batches=batches,
    )


def heldout_forward_accuracy(
    model: okh.TransitionModel, inputs: Inputs, train_groups: int
) -> float:
    """Share of held-out doc-order pairs (i before j) with logit(i,j) > logit(j,i)."""
    wins = total = 0
    for scenario in inputs.corpus.scenarios[train_groups:]:
        edges = sorted(
            inputs.graph.group_edges(scenario.group_id), key=lambda e: (e.text_position, e.id)
        )
        logits = model.logits(np.stack([inputs.store.vector(edge.id) for edge in edges]))
        position = np.array([edge.text_position for edge in edges])
        pairs = np.triu(position[:, None] != position[None, :], k=1)
        wins += int(np.sum((logits > logits.T) & pairs))
        total += int(pairs.sum())
    return wins / total


def order_quality(
    steps: list[str], qa: okh.QAItem, inputs: Inputs
) -> tuple[float | None, bool]:
    """Kendall tau against the generated order, and whether the oracle answer is right."""
    truth = next(s.ground_truth for s in inputs.corpus.scenarios if s.group_id == qa.group_id)
    in_truth = set(truth)
    predicted = [step for step in steps if step in in_truth]
    tau = None
    if len(predicted) >= 2:
        chosen = set(predicted)
        tau = okh.kendall_tau(predicted, [step for step in truth if step in chosen])
    return tau, okh.extract_answer(steps, inputs.graph, qa) == qa.expected


def check_trajectories(
    op: Op,
    retriever: okh.Retriever,
    query: str,
    group: str,
    trajectories: list[okh.Trajectory],
) -> None:
    """Recompute the pool and every trajectory's score; both must match exactly."""
    op.require(
        1 <= len(trajectories) <= DEFAULT_SEARCH.num_trajectories,
        f"{len(trajectories)} trajectories returned",
    )
    query_vector = retriever.store.embed_query(query)
    pool = okh.scope_candidates(
        query_vector, retriever.hypergraph, retriever.store, DEFAULT_SCOPE, group
    )
    index_of = {edge_id: i for i, edge_id in enumerate(pool)}
    # The same product beam search forms, so relevance matches bit for bit.
    relevance = np.stack([retriever.store.vector(e) for e in pool]) @ np.asarray(
        query_vector, dtype=np.float64
    )
    matrix = retriever.transition_matrix(pool, "learned")
    for trajectory in trajectories:
        steps = list(trajectory.steps)
        op.require(len(set(steps)) == len(steps), f"repeated step in {steps}")
        op.require(
            1 <= len(steps) <= DEFAULT_SEARCH.trajectory_length, f"{len(steps)} steps"
        )
        if not op.require(all(step in index_of for step in steps), "step outside the pool"):
            continue
        total, breakdown = okh.trajectory_score(
            steps,
            lambda step: float(relevance[index_of[step]]),
            lambda a, b: float(matrix[index_of[a], index_of[b]]),
            retriever.precedence,
            retriever.hypergraph,
            DEFAULT_WEIGHTS,
        )
        op.require(total == trajectory.total_score, f"total {trajectory.total_score} != {total}")
        op.require(breakdown == trajectory.breakdown, "score terms differ on recomputation")
        for term in BOUNDED_TERMS:
            op.require(0.0 <= breakdown[term] <= 1.0, f"{term}={breakdown[term]}")


def _sample_excluding(rng, population: int, targets: np.ndarray, count: int) -> np.ndarray:
    draws = rng.integers(0, population - 1, size=(targets.shape[0], count))
    return draws + (draws >= targets[:, None])


def percentile(values, q: float) -> float:
    """Linear-interpolated percentile, as numpy's default method gives it."""
    return float(np.percentile(np.asarray(list(values), dtype=np.float64), q))


class Run:
    """One benchmark run of one workload: set-up, measured phases, metrics."""

    def __init__(
        self, spec: Spec, seed: int, seconds: float, tracer, workdir: str,
        host: HostSpeed | None = None,
    ):
        self.spec = spec
        self.host = host
        self.seed = seed
        self.seconds = seconds
        self.tracer = tracer
        self.workdir = workdir
        self.checker = Checker()
        # Training and evaluation keep okh's default seeds: --seed only picks
        # the generated inputs, which is all the program receives.
        self.train_config = okh.TrainingConfig(epochs=TRAIN_EPOCHS)
        # Timed intervals as (start, end) perf_counter pairs.
        self.setup_s: list[tuple[float, float]] = []
        self.train_s = (0.0, 0.0)
        self.eval_s = (0.0, 0.0)
        # Operation key -> one interval per pass.
        self.query_s: dict = {}
        self.refresh_s: dict = {}
        self.epoch_s = 0.0
        # Operation key -> output of the first pass, which later passes repeat.
        self.first_output: dict = {}
        self.taus: list[float] = []
        self.answers: list[bool] = []
        self.heldout: float | None = None
        self.tau_full: float | None = None
        self.pairs: okh.TrainingPairs | None = None
        self.history: list[float] = []
        self.inputs: Inputs | None = None

    def _repeat(self, key, output, op: Op) -> bool:
        """True on the first pass; on later passes, require the same output."""
        if key not in self.first_output:
            self.first_output[key] = output
            return True
        op.require(output == self.first_output[key], "output differs from the first pass")
        return False

    # -- set-up ------------------------------------------------------------

    def setup(self) -> None:
        """The first set-up; its repetitions run between measured passes."""
        self.inputs = self._setup_once()

    def _setup_once(self) -> Inputs:
        start = time.perf_counter()
        directory = os.path.join(self.workdir, f"inputs{len(self.setup_s)}")
        inputs = build_inputs(self.spec, self.seed, directory)
        self.setup_s.append((start, time.perf_counter()))
        return inputs

    # -- phases --------------------------------------------------------------

    def train(self) -> tuple[okh.TransitionModel, str]:
        inputs = self.inputs
        model = okh.TransitionModel.create(DIM, RANK)
        checkpoint = os.path.join(self.workdir, "model.okht")
        with self.checker.operation("train") as op:
            with self.tracer.op("train", "train"):
                start = time.perf_counter()
                pairs = okh.build_pairs(inputs.train_graph, inputs.train_precedence)
                mid = time.perf_counter()
                history = okh.train(model, pairs, inputs.train_store, self.train_config)
                end = time.perf_counter()
            self.train_s = (start, end)
            self.epoch_s = (end - mid) / TRAIN_EPOCHS
            self.pairs, self.history = pairs, history
            with self.tracer.suspended():
                op.require(
                    len(history) == TRAIN_EPOCHS and all(math.isfinite(x) for x in history),
                    f"training history {history}",
                )
                model.save(checkpoint)
                loaded = okh.TransitionModel.load(checkpoint)
                op.require(
                    loaded.u.tobytes() == model.u.tobytes()
                    and loaded.v.tobytes() == model.v.tobytes()
                    and loaded.seed == model.seed,
                    "checkpoint round trip is not bit-exact",
                )
                self.heldout = heldout_forward_accuracy(model, inputs, self.spec.train_groups)
        return model, checkpoint

    def evaluate(self, retriever: okh.Retriever) -> None:
        inputs = self.inputs
        asked = inputs.train_ids[:EVAL_GROUPS]
        questions = [item for item in inputs.corpus.qa if item.group_id in asked]
        with self.checker.operation("eval") as op:
            with self.tracer.op("eval", "eval"):
                start = time.perf_counter()
                reports = [
                    okh.run_ablation(retriever, questions, inputs.corpus.scenarios, variant)
                    for variant in okh.AblationVariant
                ]
                self.eval_s = (start, time.perf_counter())
            for report in reports:
                op.require(
                    0 < report.n_queries <= len(questions)
                    and math.isfinite(report.mean_score)
                    and -1.0 <= report.mean_tau <= 1.0
                    and 0.0 <= report.oracle_accuracy <= 1.0
                    and all(
                        0.0 <= value <= 1.0
                        for value in (
                            report.mean_precedence,
                            report.mean_continuity,
                            report.mean_coverage,
                        )
                    ),
                    f"report out of range: {report}",
                )
            self.tau_full = reports[0].mean_tau

    def query(self, index: int, retriever: okh.Retriever, qa: okh.QAItem) -> None:
        with self.checker.operation(f"query {index}") as op:
            with self.tracer.op("query", f"query-{index}"):
                start = time.perf_counter()
                trajectories = retriever.retrieve(qa.question, query_group=qa.group_id)
                blocks = [okh.format_trajectory(t, retriever.hypergraph) for t in trajectories]
                end = time.perf_counter()
            self.query_s.setdefault(index, []).append((start, end))
            output = ([t.to_dict() for t in trajectories], blocks)
            if not self._repeat(("query", index), output, op):
                return
            with self.tracer.suspended():
                check_trajectories(op, retriever, qa.question, qa.group_id, trajectories)
                op.require(
                    all(block.startswith("[Trajectory]") for block in blocks),
                    "rendered block lacks its header",
                )
                self._record_quality(trajectories, qa)

    def _record_quality(self, trajectories, qa: okh.QAItem) -> None:
        if not trajectories:
            return
        tau, correct = order_quality(list(trajectories[0].steps), qa, self.inputs)
        if tau is not None:
            self.taus.append(tau)
        self.answers.append(correct)

    def refresh_pass(self, index: str, checkpoint: str, model: okh.TransitionModel) -> None:
        """The arriving groups, one ``okh build`` + ``okh retrieve`` per group."""
        inputs = self.inputs
        # Every pass starts from nothing, in the same place, so that its
        # printed output can be compared with the first pass's.
        directory = os.path.join(self.workdir, "refresh")
        shutil.rmtree(directory, ignore_errors=True)
        os.makedirs(directory)
        snapshot = os.path.join(directory, "graph.snap")
        cache = os.path.join(directory, "embed.cache")
        arrived = [inputs.base] if inputs.base else []
        for step, (batch, qa) in enumerate(inputs.batches):
            arrived.append(batch)
            with self.checker.operation(f"refresh {index}.{step}") as op:
                captured = io.StringIO()
                with self.tracer.op("refresh", f"refresh-{index}-{step}"):
                    with contextlib.redirect_stdout(captured):
                        start = time.perf_counter()
                        built = okh.cli.main(["build", "--corpus", *arrived, "--snapshot", snapshot])
                        mid = time.perf_counter()
                        answered = okh.cli.main(
                            [
                                "retrieve", "--snapshot", snapshot, "--checkpoint", checkpoint,
                                "--query", qa.question, "--group", qa.group_id, "--cache", cache,
                            ]
                        )
                        end = time.perf_counter()
                self.refresh_s.setdefault(step, []).append((start, end))
                if self.spec.native == "refresh":
                    self.query_s.setdefault(step, []).append((mid, end))
                op.require(built == 0 and answered == 0, f"exit codes {built}, {answered}")
                printed = captured.getvalue()
                if self._repeat(("refresh", step), printed, op):
                    with self.tracer.suspended():
                        self._check_refresh_answer(op, printed, qa, snapshot, cache, model)
        with self.checker.operation(f"snapshot round trip {index}") as op:
            with open(snapshot, "rb") as handle:
                saved = handle.read()
            if self._repeat("snapshot", saved, op):
                with self.tracer.suspended():
                    self._check_snapshot(op, arrived, snapshot, directory)

    def _check_refresh_answer(
        self, op: Op, printed: str, qa: okh.QAItem, snapshot: str, cache: str,
        model: okh.TransitionModel,
    ) -> None:
        """Parse ``okh retrieve``'s printed result and re-score it in process."""
        result, _ = json.JSONDecoder().raw_decode(printed, printed.index("{"))
        trajectories = [
            okh.Trajectory(item["steps"], item["total"], item["breakdown"])
            for item in result["trajectories"]
        ]
        op.require(result["query"] == qa.question, "answer is for another question")
        op.require(
            printed.count("=== Trajectory ") == len(trajectories),
            "rendered blocks do not match the trajectories",
        )
        graph, direct = okh.KnowledgeHypergraph.load_snapshot(snapshot)
        store = okh.EmbeddingStore.build(
            graph, okh.LocalHashingEmbedder(DIM), okh.EmbeddingCache(cache, DIM)
        )
        retriever = okh.Retriever(
            graph, store, okh.PrecedenceIndex.from_direct_edges(graph, direct), model
        )
        check_trajectories(op, retriever, qa.question, qa.group_id, trajectories)
        if self.spec.native == "refresh":
            self._record_quality(trajectories, qa)

    def _check_snapshot(self, op: Op, arrived: list[str], snapshot: str, directory: str) -> None:
        """The CLI's snapshot and an in-process save/load round trip must agree."""
        batches = []
        for path in arrived:
            with open(path, encoding="utf-8") as handle:
                batches.append([json.loads(line) for line in handle if line.strip()])
        graph = okh.merge_facts(batches)
        direct = okh.PrecedenceIndex.build(graph).direct_edges()
        saved = os.path.join(directory, "roundtrip.snap")
        graph.save_snapshot(saved, direct)
        for path in (saved, snapshot):
            loaded, loaded_direct = okh.KnowledgeHypergraph.load_snapshot(path)
            op.require(
                sorted(loaded.hyperedges) == sorted(graph.hyperedges), f"{path}: edge ids differ"
            )
            op.require(
                {g: sorted(pairs) for g, pairs in loaded_direct.items()}
                == {g: sorted(pairs) for g, pairs in direct.items()},
                f"{path}: direct precedence edges differ",
            )

    # -- the measured part ---------------------------------------------------

    def _retriever(self, model: okh.TransitionModel) -> okh.Retriever:
        inputs = self.inputs
        return okh.Retriever(inputs.graph, inputs.store, inputs.precedence, model)

    def _passes(self):
        """Pass indexes: at least ``spec.passes``, then until ``seconds`` have passed.

        The set-up repetitions run between passes, so that they, like the
        passes, meet the host in different states.
        """
        start = time.perf_counter()
        index = 0
        while index < self.spec.passes or time.perf_counter() - start < self.seconds:
            yield index
            index += 1
            if len(self.setup_s) < self.spec.setup_reps:
                self._setup_once()

    def measure(self) -> okh.TransitionModel:
        """Train and evaluate, then make the passes."""
        model, checkpoint = self.train()
        retriever = self._retriever(model)
        self.evaluate(retriever)
        for index in self._passes():
            self.refresh_pass(str(index), checkpoint, model)
            if self.spec.native == "query":
                for k, qa in enumerate(self.inputs.corpus.qa):
                    self.query(k, retriever, qa)
        return model

    # -- probes for the traced run -------------------------------------------

    def overhead_probe(self, model: okh.TransitionModel) -> tuple[float, float]:
        """Best of three runs of each query with and without tracing, alternating."""
        retriever = self._retriever(model)
        untraced, diffs = [], []
        for k, qa in enumerate(self.inputs.corpus.qa[:OVERHEAD_PROBE_QUERIES]):
            took = {False: [], True: []}
            for traced in (False, True) * OVERHEAD_PROBE_REPS:
                if traced:
                    self.tracer.install()
                else:
                    self.tracer.uninstall()
                with self.tracer.op("probe", f"probe-{k}") if traced else contextlib.nullcontext():
                    start = time.perf_counter()
                    for t in retriever.retrieve(qa.question, query_group=qa.group_id):
                        okh.format_trajectory(t, retriever.hypergraph)
                    took[traced].append(1000.0 * (time.perf_counter() - start))
            self.tracer.install()
            untraced.append(min(took[False]))
            diffs.append(min(took[True]) - min(took[False]))
        overhead = statistics.median(diffs)
        return overhead, 100.0 * overhead / statistics.median(untraced)

    def batch_probe(self) -> float:
        """Median ms of one ``contrastive_loss`` call on a fixed seeded batch."""
        store = self.inputs.train_store
        size = self.train_config.batch_size
        k = self.train_config.negatives_per_example

        def rows(pairs):
            return np.array([[store.row_of[s], store.row_of[d]] for s, d, _ in pairs[:size]])

        positives, negatives = rows(self.pairs.positives), rows(self.pairs.negatives)
        rng = np.random.default_rng(0)
        population = len(store.ids)
        pos_samples = _sample_excluding(rng, population, positives[:, 1], k)
        neg_samples = _sample_excluding(rng, population, negatives[:, 1], k)
        model = okh.TransitionModel.create(DIM, RANK)
        took = []
        with self.tracer.suspended():
            for _ in range(BATCH_PROBE_REPS):
                start = time.perf_counter()
                okh.contrastive_loss(
                    model, store.matrix, positives, pos_samples, negatives, neg_samples
                )
                took.append(1000.0 * (time.perf_counter() - start))
        return statistics.median(took)

    # -- results ---------------------------------------------------------------

    def _seconds(self, interval: tuple[float, float]) -> float:
        """An interval's length, scaled to a quiet host when sampling ran."""
        if self.host is None:
            return interval[1] - interval[0]
        return self.host.scaled(*interval)

    def _best_ms(self, intervals: dict) -> list[float]:
        """Each operation's best time, in ms, over the passes that ran it."""
        return [
            1000.0 * min(self._seconds(interval) for interval in per_pass)
            for per_pass in intervals.values()
        ]

    def distributions(self) -> dict[str, list[float]]:
        """Per-operation best times in ms, for the quartile summary."""
        return {"query": self._best_ms(self.query_s), "refresh": self._best_ms(self.refresh_s)}

    def end_to_end(self, peak_rss_mb: float) -> dict[str, float]:
        checker = self.checker
        query_ms = self._best_ms(self.query_s)
        refresh_ms = self._best_ms(self.refresh_s)
        return {
            "setup_s": statistics.median(self._seconds(i) for i in self.setup_s),
            "peak_rss_mb": peak_rss_mb,
            "ok_frac": (checker.attempted - checker.failed) / checker.attempted,
            "train_s": self._seconds(self.train_s),
            "eval_s": self._seconds(self.eval_s),
            "heldout_fwd_acc": self.heldout,
            "tau_full": self.tau_full,
            "query_p50_ms": percentile(query_ms, 50),
            "query_p95_ms": percentile(query_ms, 95),
            "queries_per_s": 1000.0 * len(query_ms) / sum(query_ms),
            "query_tau": statistics.mean(self.taus) if self.taus else 0.0,
            "query_oracle_acc": statistics.mean(self.answers) if self.answers else 0.0,
            "refresh_p50_ms": percentile(refresh_ms, 50),
            "refresh_p90_ms": percentile(refresh_ms, 90),
        }

    def training_layers(self) -> dict[str, float]:
        """Per-layer training numbers taken from the returned pairs and history."""
        signals: dict[str, int] = {}
        for kind, items in (("pairs", self.pairs.positives), ("neg", self.pairs.negatives)):
            for _, _, signal in items:
                key = f"transition.{kind}_{signal}"
                signals[key] = signals.get(key, 0) + 1
        per_epoch = math.ceil(len(self.pairs.positives) / self.train_config.batch_size)
        layers = {
            key: float(signals.get(key, 0))
            for key in (
                "transition.pairs_doc_order",
                "transition.pairs_entity_overlap",
                "transition.neg_doc_order",
                "transition.neg_cross_group",
            )
        }
        layers.update(
            {
                "transition.batches": float(TRAIN_EPOCHS * per_epoch),
                "transition.epoch_s": self.epoch_s,
                "transition.final_loss": self.history[-1],
                "transition.step_halvings": float(
                    sum(1 for a, b in zip(self.history, self.history[1:]) if b > a)
                ),
            }
        )
        return layers
